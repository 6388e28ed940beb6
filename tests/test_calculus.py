import numpy as np
import pytest

from fuzzychern.calculus import (
    DegreeError,
    GradedForm,
    d0,
    d1,
    derive,
    module_trace,
    scalar_form,
    wedge,
)
from fuzzychern.linalg import ShapeError, frobenius_norm, kron
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates
from volume_reference import zero_form

rng = np.random.default_rng(99)


def randc(n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.fixture(params=[2, 3, 4, 8])
def coords(request):
    return fuzzy_coordinates(SpinLabel.from_dimension(request.param))


def one_form(coords, c1, c2, c3):
    return GradedForm(1, 1, coords.N, (c1, c2, c3))


def test_derive_kills_identity(coords):
    for a in (1, 2, 3):
        assert np.allclose(derive(coords, a, np.eye(coords.N)), 0.0)


def test_derive_rotates_coordinates(coords):
    # e_1(X_2) = i X_3, e_3(X_3) = 0
    assert np.allclose(derive(coords, 1, coords.X2), 1j * coords.X3, atol=1e-13)
    assert np.allclose(derive(coords, 3, coords.X3), 0.0)


def test_derive_refuses_a_module_element(coords):
    # the rank-2 module is differentiated through its spin factor, in bundles
    with pytest.raises(ShapeError):
        derive(coords, 1, np.eye(2 * coords.N))


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
    assert d0(coords, np.eye(coords.N)).max_entry() == 0.0


def test_d0_leibniz(coords):
    for _ in range(5):
        f, g = randc(coords.N), randc(coords.N)
        lhs = d0(coords, f @ g)
        rhs = wedge(d0(coords, f), scalar_form(g)) + wedge(scalar_form(f), d0(coords, g))
        assert (lhs - rhs).max_entry() <= 1e-10


def test_d_squared_vanishes(coords):
    for _ in range(20):
        f = randc(coords.N)
        assert d1(coords, d0(coords, f)).max_entry() <= 1e-12 * frobenius_norm(f)


def test_d1_hand_example(coords):
    # d(X_3 theta^1) = -i X_1 theta^12 - i X_3 theta^23
    z = np.zeros((coords.N, coords.N), dtype=complex)
    form = d1(coords, one_form(coords, coords.X3, z, z))
    c12, c13, c23 = form.components
    assert np.allclose(c12, -1j * coords.X1, atol=1e-13)
    assert np.allclose(c13, 0.0, atol=1e-13)
    assert np.allclose(c23, -1j * coords.X3, atol=1e-13)


def test_d1_of_zero(coords):
    assert d1(coords, zero_form(1, 1, coords.N)).max_entry() == 0.0


def test_d1_rejects_wrong_degree(coords):
    with pytest.raises(DegreeError):
        d1(coords, zero_form(2, 1, coords.N))


def test_wedge_theta_squared_vanishes(coords):
    i = np.eye(coords.N, dtype=complex)
    z = np.zeros_like(i)
    th1 = one_form(coords, i, z, z)
    assert wedge(th1, th1).max_entry() == 0.0


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
    assert wedge(one_form(coords, f, z, z), one_form(coords, g, z, z)).max_entry() <= 1e-13
    # symmetrized cross term picks up the commutator
    left = wedge(one_form(coords, f, z, z), one_form(coords, z, g, z))
    right = wedge(one_form(coords, z, g, z), one_form(coords, f, z, z))
    c12 = (left + right).components[0]
    assert np.allclose(c12, f @ g - g @ f)
    assert np.max(np.abs(f @ g - g @ f)) > 1e-3  # genuinely noncommuting


def test_wedge_degree_overflow(coords):
    two = zero_form(2, 1, coords.N)
    with pytest.raises(DegreeError):
        wedge(two, two)


def test_wedge_one_two_ordering(coords):
    i = np.eye(coords.N, dtype=complex)
    z = np.zeros_like(i)
    th3 = one_form(coords, z, z, i)
    th12 = GradedForm(2, 1, coords.N, (i, z, z))
    assert np.allclose(wedge(th3, th12).components[0], i)
    assert np.allclose(wedge(th12, th3).components[0], i)


def test_module_trace_identity_factor(coords):
    a = randc(coords.N)
    form = GradedForm(1, 2, coords.N, (kron(np.eye(2), a),) * 3)
    traced = module_trace(form)
    assert traced.module_rank == 1
    for c in traced.components:
        assert np.allclose(c, 2.0 * a)


def test_module_trace_traceless_factor(coords):
    s3 = np.diag([1.0 + 0j, -1.0])
    a = randc(coords.N)
    form = GradedForm(1, 2, coords.N, (kron(s3, a),) * 3)
    assert module_trace(form).max_entry() <= 1e-13


def test_module_trace_rank_one_is_identity(coords):
    form = d0(coords, randc(coords.N))
    assert module_trace(form) is form
