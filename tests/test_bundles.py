import numpy as np
import pytest

from fuzzychern.bundles import (
    OffSphereError,
    PointOnSphere,
    bott_projector,
    build_fuzzy_projector,
    chern_character_form,
    curvature,
    projector_coefficients,
    solve_projector_params,
    tensor_power_projector,
)
from fuzzychern.calculus import CalculusContext, d0, scalar_form, wedge
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates

rng = np.random.default_rng(2718)


def random_point():
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    return PointOnSphere(*v)


def nontrivial_branches(kappa):
    return sorted(
        (p for p in solve_projector_params(kappa) if not p["trivial"]),
        key=lambda p: -p["beta"],
    )


def test_solve_params_spin_half():
    plus, minus = nontrivial_branches(2.0 / np.sqrt(3.0))
    assert plus["alpha"] == pytest.approx(0.75, abs=1e-12)
    assert plus["beta"] == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-12)
    assert minus["alpha"] == pytest.approx(0.25, abs=1e-12)
    assert minus["beta"] == pytest.approx(-np.sqrt(3.0) / 4.0, abs=1e-12)


def test_solve_params_residuals_vanish():
    for kappa in (0.1, 0.5, 2.0 / np.sqrt(3.0)):
        for p in solve_projector_params(kappa):
            assert p["residual"] <= 1e-12


def test_solve_params_commutative_limit():
    plus, minus = nontrivial_branches(1e-9)
    assert plus["alpha"] == pytest.approx(0.5, abs=1e-8)
    assert plus["beta"] == pytest.approx(0.5, abs=1e-8)
    assert minus["beta"] == pytest.approx(-0.5, abs=1e-8)


def test_solve_params_trivial_pairs_present():
    pairs = {(p["alpha"], p["beta"]) for p in solve_projector_params(1.0) if p["trivial"]}
    assert pairs == {(0.0, 0.0), (1.0, 0.0)}


def test_fuzzy_projector_n2_plus():
    coords = fuzzy_coordinates(SpinLabel.from_dimension(2))
    proj = build_fuzzy_projector(coords, 1)
    assert proj.alpha == pytest.approx(0.75, abs=1e-14)
    assert proj.beta == pytest.approx(np.sqrt(3.0) / 4.0, abs=1e-14)
    assert proj.ch0().real == pytest.approx(1.5, abs=1e-12)


def test_fuzzy_projector_n3_plus():
    coords = fuzzy_coordinates(SpinLabel.from_dimension(3))
    proj = build_fuzzy_projector(coords, 1)
    assert proj.alpha == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert proj.beta == pytest.approx(np.sqrt(2.0) / 3.0, abs=1e-14)
    assert proj.ch0().real == pytest.approx(4.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("N", list(range(2, 65)))
@pytest.mark.parametrize("sign", [1, -1])
def test_fuzzy_projector_invariants(N, sign):
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N))
    proj = build_fuzzy_projector(coords, sign)
    assert proj.idempotency_residual() <= 1e-12
    assert proj.selfadjointness_residual() <= 1e-12
    assert proj.ch0().real == pytest.approx(1.0 + sign / N, abs=1e-12)
    assert abs(proj.beta * coords.kappa - sign / N) <= 1e-13


@pytest.mark.parametrize("N", [2, 5, 33])
@pytest.mark.parametrize("banded", [False, True])
def test_fuzzy_projector_stores_its_residuals(N, banded):
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N), banded=banded)
    for sign in (1, -1):
        proj = build_fuzzy_projector(coords, sign)
        assert (proj.alpha, proj.beta) == projector_coefficients(coords.kappa, sign)
        p = proj.realization
        # dense: the very value the old per-call recomputation gave; banded:
        # the same up to the order of the roundings in p @ p
        tol = 0.0
        if banded:
            p, tol = p.toarray(), 1e-15
        assert abs(proj.idempotency_residual() - np.max(np.abs(p @ p - p))) <= tol
        assert abs(proj.selfadjointness_residual() - np.max(np.abs(p - p.conj().T))) <= tol


def test_projector_coefficients_domain():
    with pytest.raises(ValueError):
        projector_coefficients(0.0, 1)
    with pytest.raises(ValueError):
        projector_coefficients(0.5, 0)


@pytest.mark.parametrize("banded", [False, True])
def test_curvature_of_projector_equals_curvature_of_its_matrix(banded):
    # a validated FuzzyProjector and its raw realization give the same form
    coords = fuzzy_coordinates(SpinLabel.from_dimension(4), banded=banded)
    ctx = CalculusContext(coords)
    proj = build_fuzzy_projector(coords, 1)
    from_proj = curvature(ctx, proj)
    from_matrix = curvature(ctx, proj.realization)
    assert (from_proj - from_matrix).max_entry() == 0.0


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
    ctx = CalculusContext(coords)
    assert curvature(ctx, np.eye(3)).max_entry() == 0.0


def test_curvature_rejects_non_idempotent():
    coords = fuzzy_coordinates(SpinLabel.from_dimension(3))
    ctx = CalculusContext(coords)
    with pytest.raises(ValueError):
        curvature(ctx, 0.3 * np.eye(3))


@pytest.mark.parametrize("N", [2, 3, 5, 8])
@pytest.mark.parametrize("sign", [1, -1])
def test_p_dp_p_vanishes(N, sign):
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N))
    ctx = CalculusContext(coords)
    p = build_fuzzy_projector(coords, sign).realization
    pform = scalar_form(p, module_rank=2, algebra_dim=N)
    sandwich = wedge(pform, wedge(d0(ctx, p), pform))
    assert sandwich.max_entry() <= 1e-12


def test_transposed_fuzzy_projector_experiment():
    # The entrywise transpose stays a projector; its charge coefficient is
    # still an exact multiple of the volume form (value probed, not gated).
    from fuzzychern.chern import extract_coefficient, volume_form

    coords = fuzzy_coordinates(SpinLabel.from_dimension(4))
    ctx = CalculusContext(coords)
    pt = build_fuzzy_projector(coords, 1).realization.T
    assert np.max(np.abs(pt @ pt - pt)) <= 1e-12
    _, residual = extract_coefficient(chern_character_form(ctx, pt), volume_form(ctx))
    assert residual <= 1e-10
