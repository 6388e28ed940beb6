import numpy as np
import pytest

from fuzzychern.linalg import (
    Banded,
    ShapeError,
    commutator,
    frobenius_norm,
    hs_inner,
    kron,
    max_abs,
    normalized_trace,
    partial_trace,
)

SIGMA3 = np.diag([1.0, -1.0])

rng = np.random.default_rng(1234)


def randc(n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_diagonal_structure():
    assert np.allclose(kron(SIGMA3, np.eye(3)), np.diag([1, 1, 1, -1, -1, -1]))


def kron_by_expansion(a, b):
    """Independent elementwise expansion of the Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def test_kron_trace_multiplicative():
    for _ in range(5):
        a, b = randc(2), randc(3)
        expanded = kron_by_expansion(a, b)
        assert np.allclose(kron(a, b), expanded)
        assert np.trace(expanded) == pytest.approx(np.trace(a) * np.trace(b))


def test_kron_mixed_product():
    a, b, c, d = randc(2), randc(3), randc(2), randc(3)
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d))


def test_kron_associativity():
    a, b, c = randc(2), randc(3), randc(2)
    lhs = kron(kron(a, b), c)
    rhs = kron(a, kron(b, c))
    assert frobenius_norm(lhs - rhs) <= 1e-14 * frobenius_norm(lhs)


def test_commutator_antisymmetric():
    a = randc(4)
    assert np.allclose(commutator(a, a), 0.0)


def test_commutator_pauli():
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.diag([1.0 + 0j, -1.0])
    assert np.allclose(commutator(s1, s2), 2j * s3)


def test_commutator_shape_error():
    with pytest.raises(ShapeError):
        commutator(randc(2), randc(3))


def test_normalized_trace_identity():
    for n in (1, 2, 5, 17):
        assert normalized_trace(np.eye(n)) == pytest.approx(1.0)


def test_normalized_trace_direct():
    assert normalized_trace(np.diag([2.0, 0.0])) == pytest.approx(1.0)


def test_normalized_trace_nonsquare():
    with pytest.raises(ShapeError):
        normalized_trace(randc(2, 3))


def test_trace_cyclicity():
    a, b = randc(8), randc(8)
    tab = np.trace(a @ b)
    assert abs(tab - np.trace(b @ a)) <= 1e-12 * abs(tab)


def test_frobenius_norm_definite():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    a = randc(3)
    assert frobenius_norm(a) > 0.0


def test_hs_inner_matches_norm():
    a = randc(5)
    assert hs_inner(a, a).real == pytest.approx(frobenius_norm(a) ** 2)


def test_double_adjoint_exact():
    a = randc(6)
    assert np.array_equal(a.conj().T.conj().T, a)


# Banded storage, checked against its own dense expansion


def random_banded(n, offsets):
    return Banded.from_diagonals(
        n, {o: randc(1, n - abs(o))[0] for o in offsets if abs(o) < n}
    )


BANDED_CASES = [
    (1, (0,), (0,)),
    (5, (-1, 0, 1), (-1, 0, 1)),
    (7, (-2, 0, 3), (-6, -1, 1, 4)),
    (9, (-8, 5), (-3, 2, 8)),
    (12, (-11, -4, 0, 7), (-5, 0, 5, 11)),
]


@pytest.mark.parametrize("n,offs_a,offs_b", BANDED_CASES)
def test_banded_matches_dense(n, offs_a, offs_b):
    a, b = random_banded(n, offs_a), random_banded(n, offs_b)
    A, B = a.toarray(), b.toarray()
    assert np.max(np.abs((a @ b).toarray() - A @ B)) <= 1e-13
    assert np.array_equal((a + b).toarray(), A + B)
    assert np.array_equal((a - b).toarray(), A - B)
    assert np.array_equal((-a).toarray(), -A)
    assert np.array_equal((2.5j * a).toarray(), 2.5j * A)
    assert np.array_equal((a / 3.0).toarray(), A / 3.0)
    assert np.array_equal(a.conj().T.toarray(), A.conj().T)
    assert normalized_trace(a) == pytest.approx(np.trace(A) / n, abs=1e-14)
    assert hs_inner(a, b) == pytest.approx(np.sum(A.conj() * B), abs=1e-12)
    assert max_abs(a) == np.max(np.abs(A))
    assert frobenius_norm(a) == pytest.approx(np.linalg.norm(A), rel=1e-14)
    assert np.array_equal(commutator(a, b).toarray(), (a @ b - b @ a).toarray())


def test_banded_from_diagonals_layout():
    b = Banded.from_diagonals(4, {-1: [1, 2, 3], 2: [4, 5]})
    expected = np.diag([1, 2, 3], -1) + np.diag([4, 5], 2)
    assert np.array_equal(b.toarray(), expected)
    assert list(b.offsets) == [-1, 2]


def test_banded_drops_zero_diagonals():
    a = random_banded(6, (-1, 0, 2))
    assert len((a - a).offsets) == 0
    assert (a - a).shape == (6, 6)
    assert max_abs(a - a) == 0.0


@pytest.mark.parametrize("small", [
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1.5, 0, 2j], [0, 0, 1], [-1, 3, 0]]),
])
def test_banded_kron_with_dense_factor(small):
    b = random_banded(5, (-1, 0, 1, 3))
    assert np.array_equal(kron(small, b).toarray(), kron(small, b.toarray()))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_banded_partial_trace(r):
    N = 5
    c = random_banded(r * N, range(-r * N + 1, r * N, 2))
    C = c.toarray().reshape(r, N, r, N)
    assert np.max(np.abs(partial_trace(c, r).toarray() - np.einsum("iaib->ab", C))) <= 1e-14


def test_banded_refuses_dense_operands():
    b = random_banded(3, (0, 1))
    with pytest.raises(TypeError):
        b @ np.eye(3)
    with pytest.raises(TypeError):
        np.eye(3) + b
    with pytest.raises(TypeError):
        kron(b, np.eye(2))
    with pytest.raises(ShapeError):
        b @ random_banded(4, (0,))
