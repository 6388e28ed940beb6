from itertools import combinations, permutations

import numpy as np
import pytest

import calculus_reference as reference
import curvature_reference
from fuzzychern.bundles import dq, sigma_dot_x
from fuzzychern.calculus import (
    BASIS,
    EPS_ROWS,
    N_COMPONENTS,
    GradedForm,
    d0,
    d1,
    derive,
    module_trace,
    scalar_form,
    wedge,
)
from fuzzychern.calculus import _parity
from fuzzychern.linalg import Banded, kron, max_abs
from fuzzychern.su2 import FuzzyCoordinates, SpinLabel, fuzzy_coordinates
from banded_reference import toarray
from dense_reference import dense_coordinates, frobenius_norm, max_entry
from volume_reference import zero_form

rng = np.random.default_rng(99)


def randc(n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.fixture(params=[2, 3, 4, 8])
def coords(request):
    # dense, so the derivations act on random dense elements
    return dense_coordinates(SpinLabel.from_dimension(request.param))


def one_form(coords, c1, c2, c3):
    return GradedForm(1, 1, coords.N, (c1, c2, c3))


def test_derive_kills_identity(coords):
    for a in (1, 2, 3):
        assert np.allclose(derive(coords, a, np.eye(coords.N)), 0.0)


def test_derive_rotates_coordinates(coords):
    # e_1(X_2) = i X_3, e_3(X_3) = 0
    assert np.allclose(derive(coords, 1, coords.X2), 1j * coords.X3, atol=1e-13)
    assert np.allclose(derive(coords, 3, coords.X3), 0.0)


def test_operator_bracket(coords):
    pairs = {(1, 2): (3, 1), (2, 3): (1, 1), (1, 3): (2, -1)}
    for _ in range(5):
        f = randc(coords.N)
        for (a, b), (c, s) in pairs.items():
            lhs = derive(coords, a, derive(coords, b, f)) - derive(coords, b, derive(coords, a, f))
            assert np.max(np.abs(lhs - 1j * s * derive(coords, c, f))) <= 1e-12


def test_d0_of_coordinate(coords):
    form = d0(coords, coords.X2)
    c1, c2, c3 = form.components
    assert np.allclose(c1, 1j * coords.X3, atol=1e-13)
    assert np.allclose(c2, 0.0, atol=1e-13)
    assert np.allclose(c3, -1j * coords.X1, atol=1e-13)


def test_d0_of_identity(coords):
    assert max_entry(d0(coords, np.eye(coords.N))) == 0.0


def test_d0_leibniz(coords):
    for _ in range(5):
        f, g = randc(coords.N), randc(coords.N)
        lhs = d0(coords, f @ g)
        rhs = wedge(d0(coords, f), scalar_form(g)) + wedge(scalar_form(f), d0(coords, g))
        assert max_entry(lhs - rhs) <= 1e-10


def test_d_squared_vanishes(coords):
    for _ in range(20):
        f = randc(coords.N)
        assert max_entry(d1(coords, d0(coords, f))) <= 1e-12 * frobenius_norm(f)


def test_d1_hand_example(coords):
    # d(X_3 theta^1) = -i X_1 theta^12 - i X_3 theta^23
    z = np.zeros((coords.N, coords.N), dtype=complex)
    form = d1(coords, one_form(coords, coords.X3, z, z))
    c12, c13, c23 = form.components
    assert np.allclose(c12, -1j * coords.X1, atol=1e-13)
    assert np.allclose(c13, 0.0, atol=1e-13)
    assert np.allclose(c23, -1j * coords.X3, atol=1e-13)


def test_d1_of_zero(coords):
    assert max_entry(d1(coords, zero_form(1, 1, coords.N))) == 0.0


def test_wedge_theta_squared_vanishes(coords):
    i = np.eye(coords.N, dtype=complex)
    z = np.zeros_like(i)
    th1 = one_form(coords, i, z, z)
    assert max_entry(wedge(th1, th1)) == 0.0


def test_wedge_cross_component(coords):
    z = np.zeros((coords.N, coords.N), dtype=complex)
    a = one_form(coords, coords.X1, z, z)
    b = one_form(coords, z, coords.X2, z)
    c12, c13, c23 = wedge(a, b).components
    assert np.allclose(c12, coords.X1 @ coords.X2)
    assert np.allclose(c13, 0.0)
    assert np.allclose(c23, 0.0)


def test_wedge_noncommutative_cross_terms(coords):
    f, g = randc(coords.N), randc(coords.N)
    z = np.zeros_like(f)
    # f theta^1 ^ g theta^1 = 0 even though fg != gf
    assert max_entry(wedge(one_form(coords, f, z, z), one_form(coords, g, z, z))) <= 1e-13
    # symmetrized cross term picks up the commutator
    left = wedge(one_form(coords, f, z, z), one_form(coords, z, g, z))
    right = wedge(one_form(coords, z, g, z), one_form(coords, f, z, z))
    c12 = (left + right).components[0]
    assert np.allclose(c12, f @ g - g @ f)
    assert np.max(np.abs(f @ g - g @ f)) > 1e-3  # genuinely noncommuting


def test_wedge_one_two_ordering(coords):
    i = np.eye(coords.N, dtype=complex)
    z = np.zeros_like(i)
    th3 = one_form(coords, z, z, i)
    th12 = GradedForm(2, 1, coords.N, (i, z, z))
    assert np.allclose(wedge(th3, th12).components[0], i)
    assert np.allclose(wedge(th12, th3).components[0], i)


def full_banded(n):
    """A Banded n x n matrix with every diagonal random."""
    return Banded.from_diagonals(n, {o: randc(n)[0, :n - abs(o)] for o in range(1 - n, n)})


def test_module_trace_identity_factor(coords):
    a = full_banded(coords.N)
    form = GradedForm(1, 2, coords.N, (kron(a, np.eye(2)),) * 3)
    traced = module_trace(form)
    assert traced.module_rank == 1
    for c in traced.components:
        assert np.allclose(toarray(c), 2.0 * toarray(a))


def test_module_trace_traceless_factor(coords):
    s3 = np.diag([1.0 + 0j, -1.0])
    form = GradedForm(1, 2, coords.N, (kron(full_banded(coords.N), s3),) * 3)
    assert max_entry(module_trace(form)) <= 1e-13


def test_module_trace_rank_one_is_identity(coords):
    form = d0(coords, randc(coords.N))
    assert module_trace(form) is form


# The one table of the exterior algebra


def test_eps_rows():
    assert EPS_ROWS == ((1, 2, 3, 1), (1, 3, 2, -1), (2, 3, 1, 1))


def test_basis_is_lexicographic():
    assert BASIS == {p: tuple(combinations((1, 2, 3), p)) for p in range(4)}
    assert N_COMPONENTS == {0: 1, 1: 3, 2: 3, 3: 1}


def test_parity():
    signs = {(1, 2, 3): 1, (1, 3, 2): -1, (2, 1, 3): -1, (2, 3, 1): 1, (3, 1, 2): 1, (3, 2, 1): -1}
    assert {perm: _parity(perm) for perm in permutations((1, 2, 3))} == signs
    for a, b in combinations((1, 2, 3), 2):
        assert (_parity((a, b)), _parity((b, a))) == (1, -1)


# wedge and d1 against the case-by-case reference, bit for bit


def random_component(dim, banded):
    if not banded:
        return randc(dim)
    offsets = rng.choice([-3, -1, 0, 1, 2, 5], size=3, replace=False)
    diagonals = {o: rng.standard_normal(dim - abs(o)) + 1j * rng.standard_normal(dim - abs(o))
                 for o in offsets}
    return Banded.from_diagonals(dim, diagonals)


def random_form(degree, module_rank, N, banded):
    dim = module_rank * N
    comps = tuple(random_component(dim, banded) for _ in range(N_COMPONENTS[degree]))
    return GradedForm(degree, module_rank, N, comps)


def assert_identical(x, y):
    assert (x.degree, x.module_rank, x.algebra_dim) == (y.degree, y.module_rank, y.algebra_dim)
    for a, b in zip(x.components, y.components, strict=True):
        assert type(a) is type(b)
        if isinstance(a, Banded):
            assert np.array_equal(a.offsets, b.offsets)
            assert np.array_equal(a.data, b.data)
        else:
            assert np.array_equal(a, b)


FORM_CASES = [(2, False), (3, False), (8, False), (64, True)]
DEGREE_PAIRS = [(p, q) for p in range(4) for q in range(4 - p)]


@pytest.mark.parametrize("N, banded", FORM_CASES)
@pytest.mark.parametrize("module_rank", [1, 2])
@pytest.mark.parametrize("p, q", DEGREE_PAIRS)
def test_wedge_matches_reference(p, q, module_rank, N, banded):
    for _ in range(3):
        alpha = random_form(p, module_rank, N, banded)
        beta = random_form(q, module_rank, N, banded)
        assert_identical(wedge(alpha, beta), reference.wedge(alpha, beta))


@pytest.mark.parametrize("N, banded", FORM_CASES)
def test_d1_matches_reference(N, banded):
    spin = SpinLabel.from_dimension(N)
    coords = fuzzy_coordinates(spin) if banded else dense_coordinates(spin)
    for _ in range(3):
        omega = random_form(1, 1, N, banded)
        assert_identical(d1(coords, omega), reference.d1(coords, omega))


# GradedForm arithmetic


@pytest.mark.parametrize("degree, module_rank, N", [(0, 2, 3), (1, 1, 4), (2, 2, 2), (3, 1, 5)])
def test_graded_form_arithmetic_keeps_the_shape(degree, module_rank, N):
    a = random_form(degree, module_rank, N, False)
    b = random_form(degree, module_rank, N, False)
    for out in (a + b, a - b, a.scale(2.5j)):
        assert (out.degree, out.module_rank, out.algebra_dim) == (degree, module_rank, N)
        assert len(out.components) == N_COMPONENTS[degree]


# The derivations on the rank-2 module, as verify's diff-calculus suite runs them


def module_coordinates(coords):
    """X_a (x) 1_2 with kappa per module row: derive, d0 and d1 then act on C^N (x) C^2."""
    return FuzzyCoordinates(coords.spins, coords.kappa.repeat(2),
                            *(kron(coords.axis(a), np.eye(2)) for a in (1, 2, 3)))


@pytest.mark.parametrize("n_values", [(2,), (3, 8), (2, 5, 47)])
def test_derivations_on_module_coordinates_act_on_the_module(n_values):
    # e_a is (1/kappa) [X_a (x) 1, .], the reference's module derivation bit for
    # bit, d0(Q) is dQ and d1(dQ) is 0, each block within a few eps times N/2
    coords = fuzzy_coordinates(*map(SpinLabel.from_dimension, n_values))
    module, q, sizes = module_coordinates(coords), sigma_dot_x(coords), coords.sizes
    for a in (1, 2, 3):
        ours, theirs = derive(module, a, q), curvature_reference.derive(coords, a, q)
        assert np.array_equal(ours.offsets, theirs.offsets)
        assert np.array_equal(ours.data, theirs.data)
    d_q = dq(coords)
    for form in (d0(module, q) - d_q, d1(module, d_q)):
        for c in form.components:
            assert np.all(max_abs(c, 2 * sizes) <= 4e-16 * sizes / 2)
