import numpy as np
import pytest

from fuzzychern.bundles import build_fuzzy_projector, curvature
from fuzzychern.calculus import module_trace
from fuzzychern.chern import volume_form
from fuzzychern.linalg import (
    Banded,
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


def identity(n):
    return Banded.from_diagonals(n, {0: 1.0})


def test_kron_identities():
    assert np.array_equal(toarray(kron(identity(2), np.eye(3))), np.eye(6))


def test_kron_diagonal_structure():
    sigma3 = Banded.from_diagonals(2, {0: [1.0, -1.0]})
    assert np.array_equal(toarray(kron(sigma3, np.eye(3))), np.diag([1, 1, 1, -1, -1, -1]))


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
        a, b = random_banded(2, (-1, 0, 1)), randc(3)
        expanded = kron_by_expansion(toarray(a), b)
        assert np.allclose(toarray(kron(a, b)), expanded)
        assert np.trace(expanded) == pytest.approx(np.trace(toarray(a)) * np.trace(b))
        assert 6 * normalized_trace(kron(a, b), [6])[0] == pytest.approx(np.trace(expanded))


def test_kron_mixed_product():
    a, b, c, d = random_banded(2, (-1, 0, 1)), randc(3), random_banded(2, (-1, 0, 1)), randc(3)
    assert np.allclose(toarray(kron(a, b) @ kron(c, d)), toarray(kron(a @ c, b @ d)))


def test_kron_associativity():
    # (a x b) x c against a x (b x c) with the small factors' product dense, as verify checks it
    a, b, c = random_banded(5, (-2, 0, 1)), randc(2), randc(3)
    lhs = kron(kron(a, b), c)
    rhs = kron(a, np.kron(b, c))
    assert frobenius_norm(lhs - rhs, [30]) <= 1e-14 * frobenius_norm(lhs, [30])


def test_commutator_antisymmetric():
    a = random_banded(4, (-1, 0, 1))
    assert max_abs(commutator(a, a), [4]) == 0.0


def test_commutator_pauli():
    s1 = Banded.from_diagonals(2, {-1: [1.0], 1: [1.0]})
    s2 = Banded.from_diagonals(2, {-1: [1j], 1: [-1j]})
    s3 = Banded.from_diagonals(2, {0: [1.0, -1.0]})
    assert np.allclose(toarray(commutator(s1, s2)), 2j * toarray(s3))


def test_normalized_trace_identity():
    for n in (1, 2, 5, 17):
        assert normalized_trace(identity(n), [n]) == pytest.approx(1.0)


def test_normalized_trace_direct():
    assert normalized_trace(Banded.from_diagonals(2, {0: [2.0, 0.0]}), [2]) == pytest.approx(1.0)


def test_trace_cyclicity():
    a, b = random_banded(8, (-3, -1, 0, 2)), random_banded(8, (-2, 0, 1, 5))
    tab = normalized_trace(a @ b, [8])
    assert abs(tab - normalized_trace(b @ a, [8])) <= 1e-12 * abs(tab)


def test_frobenius_norm_definite():
    a = random_banded(3, (-1, 0, 2))
    assert frobenius_norm(0 * a, [3]) == 0.0
    assert frobenius_norm(a, [3]) > 0.0


def test_frobenius_norm_of_views_and_real_input():
    # diagonals stored as strided views, whose entries are not adjacent in memory,
    # and real diagonals, which Banded stores as complex
    base = random_banded(10, (-1, 0, 1))
    store = np.zeros((6, 20), dtype=complex)
    store[::2, ::2], store[1::2, 1::2] = base.data, base.data
    for data in (store[::2, ::2], store[1::2, 1::2]):
        view = Banded(base.offsets, data)
        assert not view.data.flags.c_contiguous
        assert frobenius_norm(view, [10]) == pytest.approx(np.linalg.norm(toarray(view)), rel=1e-15)
    real = Banded.from_diagonals(6, {0: rng.standard_normal(6), 2: rng.standard_normal(4)})
    assert frobenius_norm(real, [6]) == pytest.approx(np.linalg.norm(toarray(real)), rel=1e-15)


def test_hs_inner_matches_norm():
    a = random_banded(5, (-4, 0, 1, 3))
    assert hs_inner(a, a, [5]).real == pytest.approx(frobenius_norm(a, [5]) ** 2)


def test_double_adjoint_exact():
    a = random_banded(6, (-2, 0, 1, 5))
    twice = a.conj().T.conj().T
    assert np.array_equal(twice.offsets, a.offsets) and np.array_equal(twice.data, a.data)


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
    assert normalized_trace(a, [n])[0] == pytest.approx(np.trace(A) / n, abs=1e-14)
    assert hs_inner(a, b, [n])[0] == pytest.approx(np.sum(A.conj() * B), abs=1e-12)
    assert max_abs(a, [n])[0] == np.max(np.abs(A))
    assert frobenius_norm(a, [n])[0] == pytest.approx(np.linalg.norm(A), rel=1e-14)
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
    assert max_abs(1e-300 * (a * 1e-300), [6]) == 0.0


@pytest.mark.parametrize("sign", [1, -1])
def test_banded_diagonal_counts_stay_bounded_at_n_1000(sign):
    # products and sums in the pipeline cancel whole diagonals; without the
    # zero scan of @ or of + and - the offsets of p and of F grow
    coords = fuzzy_coordinates(SpinLabel.from_dimension(1000))
    p = build_fuzzy_projector(coords, sign)
    assert list(p.realization.offsets) == [-1, 0, 1]
    assert all(len(f.offsets) <= 2 for f in module_trace(curvature(coords, p)).components)
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
    assert max_abs(a - a, [6]) == 0.0


@pytest.mark.parametrize("small", [
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1.5, 0, 2j], [0, 0, 1], [-1, 3, 0]]),
    np.zeros((2, 2)),
])
def test_banded_kron_with_dense_factor(small):
    b = random_banded(5, (-1, 0, 1, 3))
    assert np.array_equal(toarray(kron(b, small)), np.kron(toarray(b), small))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_banded_partial_trace(r):
    N = 5
    c = random_banded(r * N, range(-r * N + 1, r * N, 2))
    C = toarray(c).reshape(N, r, N, r)
    assert np.max(np.abs(toarray(partial_trace(c, r)) - np.einsum("aibi->ab", C))) <= 1e-14


def test_banded_partial_trace_with_no_diagonal_left():
    # odd offsets only: every diagonal leaves its 2x2 blocks, so the trace is the
    # empty n x n Banded, its data of shape (0, n)
    traced = partial_trace(random_banded(8, (-3, -1, 1)), 2)
    assert traced.shape == (4, 4) and traced.data.shape == (0, 4)
    assert max_abs(traced, [4]) == 0.0 and list((traced @ traced).offsets) == []


def test_banded_refuses_dense_operands():
    b = random_banded(3, (0, 1))
    with pytest.raises(TypeError):
        b @ np.eye(3)
    with pytest.raises(TypeError):
        np.eye(3) + b


def block_diagonal(blocks):
    """The Banded direct sum of Banded blocks, in order."""
    offsets = sorted({o for b in blocks for o in b.offsets.tolist()})
    data = np.zeros((len(offsets), sum(b.shape[0] for b in blocks)), dtype=np.complex128)
    start = 0
    for b in blocks:
        for o, row in zip(b.offsets.tolist(), b.data):
            data[offsets.index(o), start:start + b.shape[0]] = row
        start += b.shape[0]
    return Banded(offsets, data)


def test_block_reductions_take_each_block_alone():
    # each block's trace, inner product, norm and largest modulus are the very
    # values the block gives alone, whatever diagonals the other blocks add
    sizes = [1, 3, 6, 2, 5]
    lefts = [random_banded(n, (-2, -1, 0, 1, 3)) for n in sizes]
    rights = [random_banded(n, (-1, 0, 2)) for n in sizes]
    a, b = block_diagonal(lefts), block_diagonal(rights)
    assert np.array_equal(toarray(a)[:1, 1:], np.zeros((1, 16)))
    for k, (x, y, n) in enumerate(zip(lefts, rights, sizes)):
        alone = [normalized_trace(x, [n]), hs_inner(x, y, [n]), frobenius_norm(x, [n]),
                 max_abs(x, [n])]
        stacked = [normalized_trace(a, sizes), hs_inner(a, b, sizes), frobenius_norm(a, sizes),
                   max_abs(a, sizes)]
        assert [v[k] for v in stacked] == [v[0] for v in alone]
        X, Y = toarray(x), toarray(y)
        assert alone[0][0] == pytest.approx(np.trace(X) / n, abs=1e-14)
        assert alone[1][0] == pytest.approx(np.sum(X.conj() * Y), abs=1e-12)
        assert alone[2][0] == pytest.approx(np.linalg.norm(X), rel=1e-14)
        assert alone[3][0] == np.max(np.abs(X))


def test_banded_times_a_vector_scales_each_row():
    a = random_banded(7, (-3, 0, 1, 5))
    c = rng.uniform(0.5, 2.0, 7)
    for scaled in (c * a, a * c):
        assert list(scaled.offsets) == [-3, 0, 1, 5]
        assert np.array_equal(toarray(scaled), c[:, None] * toarray(a))
    assert np.array_equal(toarray(a / c), toarray(a) / c[:, None])
