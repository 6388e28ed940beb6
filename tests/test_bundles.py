import numpy as np
import pytest

from fuzzychern.bundles import (
    PAULI,
    build_fuzzy_projector,
    curvature,
    dq,
    dq_wedge_dq,
    projector_coefficients,
    sigma_dot_x,
)
from fuzzychern.calculus import scalar_form, wedge
from fuzzychern.linalg import Banded, commutator, kron, max_abs
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates
import curvature_reference as reference
from banded_reference import toarray
from dense_reference import max_entry
from oracle_reference import (
    OffSphereError,
    PointOnSphere,
    bott_projector,
    tensor_power_projector,
)

rng = np.random.default_rng(2718)


def random_point():
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return PointOnSphere(*v)


def nontrivial_branches(kappa):
    """(alpha, beta) of the plus branch, then of the minus branch."""
    return [projector_coefficients(kappa, sign) for sign in (1, -1)]


def test_solve_params_spin_half():
    (alpha_plus, beta_plus), (alpha_minus, beta_minus) = nontrivial_branches(2.0 / np.sqrt(3.0))
    assert alpha_plus == pytest.approx(0.75, abs=1e-12)
    assert beta_plus == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-12)
    assert alpha_minus == pytest.approx(0.25, abs=1e-12)
    assert beta_minus == pytest.approx(-np.sqrt(3.0) / 4.0, abs=1e-12)


def test_solve_params_residuals_vanish():
    # alpha + beta sigma.X is idempotent iff alpha^2 + beta^2 = alpha and 2 alpha - kappa beta = 1
    for kappa in (0.1, 0.5, 2.0 / np.sqrt(3.0)):
        for alpha, beta in nontrivial_branches(kappa):
            residual = max(
                abs(alpha**2 + beta**2 - alpha),
                abs(2.0 * alpha - kappa * beta - 1.0),
            )
            assert residual <= 1e-12


def test_solve_params_commutative_limit():
    (alpha_plus, beta_plus), (_, beta_minus) = nontrivial_branches(1e-9)
    assert alpha_plus == pytest.approx(0.5, abs=1e-8)
    assert beta_plus == pytest.approx(0.5, abs=1e-8)
    assert beta_minus == pytest.approx(-0.5, abs=1e-8)


def banded_coordinates(*n_values):
    """The Banded coordinates of a ladder of N, stacked as reports stack them."""
    return fuzzy_coordinates(*map(SpinLabel.from_dimension, n_values))


def test_fuzzy_projector_n2_plus():
    coords = banded_coordinates(2)
    proj = build_fuzzy_projector(coords, 1)
    assert proj.alpha == pytest.approx(0.75, abs=1e-14)
    assert proj.beta == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-14)
    assert proj.ch0().real == pytest.approx(1.5, abs=1e-12)


def test_fuzzy_projector_n3_plus():
    coords = banded_coordinates(3)
    proj = build_fuzzy_projector(coords, 1)
    assert proj.alpha == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert proj.beta == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-14)
    assert proj.ch0().real == pytest.approx(4.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("N", list(range(2, 65)))
@pytest.mark.parametrize("sign", [1, -1])
def test_fuzzy_projector_invariants(N, sign):
    coords = banded_coordinates(N)
    proj = build_fuzzy_projector(coords, sign)
    assert proj.idempotency <= 1e-12
    assert proj.selfadjointness <= 1e-12
    assert proj.ch0().real == pytest.approx(1.0 + sign / N, abs=1e-12)
    assert np.max(np.abs(proj.beta * coords.kappa - sign / N)) <= 1e-13


@pytest.mark.parametrize("N", [2, 5, 33])
@pytest.mark.parametrize("stacked", [False, True])
def test_fuzzy_projector_stores_its_residuals(N, stacked):
    # N alone, or the middle block of a ladder: each block's residuals are those
    # of its own 2N x 2N block of p, p - p^dagger exactly and p p - p up to the
    # order of the roundings in the dense product
    n_values = [7, N, 4] if stacked else [N]
    coords = banded_coordinates(*n_values)
    k = n_values.index(N)
    rows = slice(2 * sum(n_values[:k]), 2 * sum(n_values[:k + 1]))
    for sign in (1, -1):
        proj = build_fuzzy_projector(coords, sign)
        alpha, beta = projector_coefficients(coords.kappa, sign)
        assert np.array_equal(proj.alpha, alpha) and np.array_equal(proj.beta, beta)
        p = toarray(proj.realization)
        assert not p[rows, :rows.start].any() and not p[rows, rows.stop:].any()
        p = p[rows, rows]
        assert abs(proj.idempotency[k] - np.max(np.abs(p @ p - p))) <= 1e-15
        assert proj.selfadjointness[k] == np.max(np.abs(p - p.conj().T))


def test_projector_coefficients_domain():
    with pytest.raises(ValueError):
        projector_coefficients(0.5, 0)


def each_ladder(stacked, n_values):
    """The coordinates of each N alone, or of all of them as one ladder."""
    return [banded_coordinates(*n_values)] if stacked else map(banded_coordinates, n_values)


def block_max_entry(form, coords):
    """The largest entry modulus of each block of a module-valued form."""
    return np.maximum.reduce([max_abs(c, 2 * coords.sizes) for c in form.components])


@pytest.mark.parametrize("stacked", [False, True])
def test_curvature_of_projector_equals_curvature_of_its_matrix(stacked):
    # beta^2 p (dQ ^ dQ) against the reference's p (dp)(dp), dp_b = (1/kappa) [X_b (x) 1, p],
    # whose roundoff grows as N (7.6e-17 N measured at N = 1000); each N alone,
    # or all of them stacked as one ladder, with each block held to its own bound
    for coords in each_ladder(stacked, (2, 3, 8, 46, 257, 1000)):
        for sign in (1, -1):
            proj = build_fuzzy_projector(coords, sign)
            from_proj = curvature(coords, proj)
            from_matrix = reference.curvature(coords, proj.realization)
            assert np.all(block_max_entry(from_proj - from_matrix, coords) <= 2e-16 * coords.sizes)


def same_matrix(a, b):
    """Equal bit for bit, in the stored diagonals."""
    return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.data, b.data)


@pytest.mark.parametrize("stacked", [False, True])
def test_shared_curvature_matches_the_per_sign_spin_factor_form(stacked):
    # beta^2 p (dQ ^ dQ) against p (dp ^ dp) with dp_b = [p, 1 (x) S_b]: measured
    # at most 2.2e-16, flat in N up to 1000, so no factor of N in the bound
    for coords in each_ladder(stacked, (2, 3, 8, 46, 257, 1000)):
        w = dq_wedge_dq(coords)
        for sign in (1, -1):
            proj = build_fuzzy_projector(coords, sign)
            shared = curvature(coords, proj, w)
            assert max_entry(shared - reference.spin_factor_curvature(coords, proj)) <= 4e-16
            built_inside = curvature(coords, proj).components
            assert all(same_matrix(a, b) for a, b in zip(shared.components, built_inside))


@pytest.mark.parametrize("N", list(range(2, 60)) + [256, 1000])
def test_dq_from_kron_equals_the_commutator_with_the_spin_factor(N):
    # dQ_b = i eps_abc X_a (x) sigma_c is [Q, 1 (x) S_b] bit for bit
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N))
    q = sigma_dot_x(coords)
    one = Banded.from_diagonals(N, {0: 1.0})
    for d, s in zip(dq(coords).components, PAULI):
        assert same_matrix(d, commutator(q, kron(one, s / 2)))


def test_bott_projector_north_pole():
    p = bott_projector(PointOnSphere(0.0, 0.0, 1.0))
    assert np.allclose(p, np.diag([1.0, 0.0]))


def test_bott_projector_x_axis():
    p = bott_projector(PointOnSphere(1.0, 0.0, 0.0))
    assert np.allclose(p, np.full((2, 2), 0.5))


def test_bott_projector_trace_one():
    for _ in range(100):
        p = bott_projector(random_point())
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(p @ p - p)) <= 1e-13
        assert np.allclose(p, p.conj().T)


def test_off_sphere_rejected():
    with pytest.raises(OffSphereError):
        PointOnSphere(1.0, 1.0, 0.0)


def test_tensor_power_k1_is_bott():
    pt = random_point()
    assert np.allclose(tensor_power_projector(pt, 1), bott_projector(pt))


def test_tensor_power_north_pole():
    p2 = tensor_power_projector(PointOnSphere(0.0, 0.0, 1.0), 2)
    assert np.allclose(p2, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_tensor_power_trace_one():
    for _ in range(5):
        p3 = tensor_power_projector(random_point(), 3)
        assert np.trace(p3).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(p3 @ p3 - p3)) <= 1e-12


def test_tensor_power_bounds():
    pt = random_point()
    with pytest.raises(ValueError):
        tensor_power_projector(pt, 0)
    with pytest.raises(ValueError):
        tensor_power_projector(pt, 13)


def test_curvature_of_identity_vanishes():
    coords = fuzzy_coordinates(SpinLabel.from_dimension(3))
    assert max_entry(reference.curvature(coords, Banded.from_diagonals(3, {0: 1.0}))) == 0.0


def test_curvature_rejects_non_idempotent():
    coords = fuzzy_coordinates(SpinLabel.from_dimension(3))
    with pytest.raises(ValueError):
        reference.curvature(coords, Banded.from_diagonals(3, {0: 0.3}))


@pytest.mark.parametrize("N", [2, 3, 5, 8])
@pytest.mark.parametrize("sign", [1, -1])
def test_p_dp_p_vanishes(N, sign):
    coords = banded_coordinates(N)
    p = build_fuzzy_projector(coords, sign).realization
    pform = scalar_form(p, module_rank=2, algebra_dim=N)
    sandwich = wedge(pform, wedge(reference.d0(coords, p), pform))
    assert max_entry(sandwich) <= 1e-12


def test_transposed_fuzzy_projector_experiment():
    # The entrywise transpose stays a projector; its charge coefficient is
    # still an exact multiple of the volume form (value probed, not gated).
    from fuzzychern.chern import extract_coefficient, volume_form

    coords = banded_coordinates(4)
    pt = build_fuzzy_projector(coords, 1).realization.T
    assert max_abs(pt @ pt - pt, 2 * coords.sizes) <= 1e-12
    _, residual = extract_coefficient(reference.chern_character_form(coords, pt),
                                      volume_form(coords), coords.sizes)
    assert residual <= 1e-10
