import numpy as np
import pytest

from fuzzychern.bundles import build_fuzzy_projector, curvature
from fuzzychern.calculus import module_trace
from fuzzychern.chern import volume_form
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
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates
from banded_reference import toarray

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


@pytest.mark.parametrize("shapes", [((2, 2), (4, 4)), ((2, 2), (32, 32)),
                                    ((3, 2), (2, 5)), ((1, 1), (3, 3))])
def test_dense_kron_is_numpy_kron_exactly(shapes):
    a, b = randc(*shapes[0]), randc(*shapes[1])
    assert np.array_equal(kron(a, b), np.kron(a, b))
    assert np.array_equal(kron(a.real, b.real), np.kron(a.real, b.real).astype(complex))
    assert kron(a, b).dtype == np.complex128
    with pytest.raises(ShapeError):
        kron(a, b[0])


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


def test_frobenius_norm_of_views_and_real_input():
    # transposed and column-strided views, whose entries are not adjacent in memory
    a = randc(6, 10)
    for view in (a, a.T, a[:, ::2], a[1:2, ::2], a[::2]):
        assert frobenius_norm(view) == pytest.approx(np.linalg.norm(view), rel=1e-15)
    assert frobenius_norm(a.real[:, ::3]) == pytest.approx(np.linalg.norm(a.real[:, ::3]), rel=1e-15)


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
    A, B = toarray(a), toarray(b)
    assert np.max(np.abs(toarray(a @ b) - A @ B)) <= 1e-13
    assert np.array_equal(toarray(a + b), A + B)
    assert np.array_equal(toarray(a - b), A - B)
    assert np.array_equal(toarray(-a), -A)
    assert np.array_equal(toarray(2.5j * a), 2.5j * A)
    assert np.array_equal(toarray(a / 3.0), A / 3.0)
    assert np.array_equal(toarray(a.conj().T), A.conj().T)
    assert normalized_trace(a) == pytest.approx(np.trace(A) / n, abs=1e-14)
    assert hs_inner(a, b) == pytest.approx(np.sum(A.conj() * B), abs=1e-12)
    assert max_abs(a) == np.max(np.abs(A))
    assert frobenius_norm(a) == pytest.approx(np.linalg.norm(A), rel=1e-14)
    assert np.array_equal(toarray(commutator(a, b)), toarray(a @ b - b @ a))


def matmul_by_diagonal_pairs(a, b):
    """Reference product: C[i, i + p + q] += A[i, i + p] B[i + p, i + p + q],
    one entry at a time, over the diagonal pairs (p, q) in p-major order.

    Each entry's product goes through numpy's array multiply, as in the
    kernel: its vector loop may fuse multiply and add, so Python's scalar
    complex product can differ from it in the last bit."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    for p, row in zip(a.offsets.tolist(), a.data):
        for q, col in zip(b.offsets.tolist(), b.data):
            for i in range(max(0, -p, -p - q), n - max(0, p, p + q)):
                out[i, i + p + q] += (row[i:i + 1] * col[i + p:i + p + 1])[0]
    return out


@pytest.mark.parametrize("n,offs_a,offs_b", BANDED_CASES)
def test_banded_matmul_sums_diagonal_pairs_in_order(n, offs_a, offs_b):
    # bit for bit: a product that summed its pairs in another order would
    # round differently, and the reports would not reproduce
    a, b = random_banded(n, offs_a), random_banded(n, offs_b)
    for x, y in ((a, b), (b, a), (a, a)):
        expected = matmul_by_diagonal_pairs(x, y)
        product = x @ y
        assert np.array_equal(toarray(product), expected)
        assert list(product.offsets) == [o for o in range(1 - n, n)
                                         if np.diagonal(expected, o).any()]


def test_banded_empty_operands_keep_their_shape():
    a = random_banded(6, (-1, 0, 2))
    empty = a - a
    for result in (empty @ a, a @ empty, empty @ empty, empty + a, a + empty,
                   a - empty, empty - a, empty + empty, empty - empty):
        assert result.shape == (6, 6)
    for result in (empty @ a, a @ empty, empty @ empty, empty + empty, empty - empty):
        assert len(result.offsets) == 0
    assert np.array_equal(toarray(empty + a), toarray(a))
    assert np.array_equal(toarray(a - empty), toarray(a))
    assert np.array_equal(toarray(empty - a), -toarray(a))


def test_banded_matmul_drops_offsets_outside_the_matrix():
    # the pairs (3, 3), (3, 4), (4, 4) and their negatives sum to offsets
    # beyond a 5 x 5 matrix; only the sums 0 and +-1 are diagonals of it
    n = 5
    a = random_banded(n, (-4, -3, 3, 4))
    product = a @ a
    assert list(product.offsets) == [-1, 0, 1]
    assert np.max(np.abs(toarray(product) - toarray(a) @ toarray(a))) <= 1e-13


def test_banded_scaling_by_zero_drops_every_diagonal():
    a = random_banded(6, (-1, 0, 2))
    for zero in (0 * a, a * 0.0, 0j * a):
        assert len(zero.offsets) == 0 and zero.shape == (6, 6)


def test_banded_scaling_by_a_nonzero_scalar_keeps_every_diagonal():
    # no zero scan: a nonzero multiple of a nonzero diagonal is nonzero, short
    # of underflow, and an underflowed diagonal stays stored as zeros
    a = random_banded(6, (-1, 0, 2))
    for scaled in (2.5j * a, a * -1e-3, 1e-300 * (a * 1e-300)):
        assert list(scaled.offsets) == [-1, 0, 2]
    assert max_abs(1e-300 * (a * 1e-300)) == 0.0


@pytest.mark.parametrize("sign", [1, -1])
def test_banded_diagonal_counts_stay_bounded_at_n_1000(sign):
    # products and sums in the pipeline cancel whole diagonals; without the
    # zero scan of @ or of + and - the offsets of p and of F grow
    coords = fuzzy_coordinates(SpinLabel.from_dimension(1000), banded=True)
    p = build_fuzzy_projector(coords, sign)
    assert list(p.realization.offsets) == [-999, 0, 999]
    assert all(len(f.offsets) <= 6 for f in module_trace(curvature(coords, p)).components)
    assert all(len(w.offsets) in (1, 2) for w in volume_form(coords).components)


def test_banded_from_diagonals_layout():
    b = Banded.from_diagonals(4, {-1: [1, 2, 3], 2: [4, 5]})
    expected = np.diag([1, 2, 3], -1) + np.diag([4, 5], 2)
    assert np.array_equal(toarray(b), expected)
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
    np.zeros((2, 2)),
])
def test_banded_kron_with_dense_factor(small):
    b = random_banded(5, (-1, 0, 1, 3))
    assert np.array_equal(toarray(kron(small, b)), kron(small, toarray(b)))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_banded_partial_trace(r):
    N = 5
    c = random_banded(r * N, range(-r * N + 1, r * N, 2))
    C = toarray(c).reshape(r, N, r, N)
    assert np.max(np.abs(toarray(partial_trace(c, r)) - np.einsum("iaib->ab", C))) <= 1e-14


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
