import numpy as np
import pytest

from fuzzychern.bundles import build_fuzzy_projector
from fuzzychern.calculus import CalculusContext
from fuzzychern.chern import (
    DENSE_MAX_N,
    DegenerateVolumeError,
    chern_number,
    extract_coefficient,
    gamma_formula,
    report_for,
    star_integral,
    sweep,
    volume_form,
)
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates

rng = np.random.default_rng(31415)


def make_ctx(N):
    return CalculusContext(fuzzy_coordinates(SpinLabel.from_dimension(N)))


def test_star_integral_identity():
    for N in (2, 5, 9):
        assert star_integral(np.eye(N)) == pytest.approx(1.0)


def test_star_integral_traceless():
    ctx = make_ctx(4)
    assert abs(star_integral(ctx.coords.X3)) <= 1e-13


def test_star_integral_linearity():
    assert star_integral(2.5j * np.eye(3)) == pytest.approx(2.5j)


def test_volume_form_components_selfadjoint():
    # each eps contraction carries two factors of i (one per coordinate
    # differential), so the components come out exactly self-adjoint
    for N in (2, 3, 5):
        for c in volume_form(make_ctx(N)).components:
            assert np.max(np.abs(c - c.conj().T)) <= 1e-13


def test_volume_form_nonzero():
    for N in (2, 3, 8):
        assert volume_form(make_ctx(N)).norm() > 1e-3


def test_volume_form_unitary_covariance():
    from fuzzychern.su2 import FuzzyCoordinates

    N = 4
    ctx = make_ctx(N)
    q, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    rotated = FuzzyCoordinates(
        spin=ctx.coords.spin,
        X1=q @ ctx.coords.X1 @ q.conj().T,
        X2=q @ ctx.coords.X2 @ q.conj().T,
        X3=q @ ctx.coords.X3 @ q.conj().T,
    )
    om = volume_form(ctx)
    om_rot = volume_form(CalculusContext(rotated))
    for c, cr in zip(om.components, om_rot.components):
        assert np.max(np.abs(cr - q @ c @ q.conj().T)) <= 1e-12


def test_extract_coefficient_exact_multiple():
    om = volume_form(make_ctx(3))
    lam, res = extract_coefficient(om.scale(2.5), om)
    assert lam == pytest.approx(2.5, abs=1e-13)
    assert res <= 1e-14


def test_extract_coefficient_residual_grows_linearly():
    ctx = make_ctx(3)
    om = volume_form(ctx)
    perturb = om.scale(0.0)
    comps = list(perturb.components)
    comps[0] = comps[0] + (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    from fuzzychern.calculus import GradedForm

    noise = GradedForm(2, 1, 3, tuple(comps))
    residuals = []
    for eps in (1e-4, 2e-4, 4e-4):
        _, res = extract_coefficient(om + noise.scale(eps), om)
        residuals.append(res)
    assert residuals[1] == pytest.approx(2 * residuals[0], rel=1e-3)
    assert residuals[2] == pytest.approx(4 * residuals[0], rel=1e-3)


def test_extract_coefficient_degenerate_volume():
    from fuzzychern.calculus import zero_form

    om = volume_form(make_ctx(3))
    with pytest.raises(DegenerateVolumeError):
        extract_coefficient(om, zero_form(2, 1, 3))


def test_gamma_special_values():
    assert gamma_formula(2, "plus") == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, abs=1e-14)
    assert gamma_formula(2, "minus") == 0.0
    assert gamma_formula(10, "plus") == pytest.approx(1.09674, abs=1e-5)
    assert gamma_formula(10, "minus") == pytest.approx(-0.89365, abs=1e-5)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma_formula(1, "plus")


@pytest.mark.parametrize("sign", ["+", "-", 2, 0, None, "PLUS"])
def test_gamma_rejects_unknown_sign(sign):
    with pytest.raises(ValueError):
        gamma_formula(4, sign)


def test_gamma_commutative_limit():
    for N in range(4, 129):
        assert abs(gamma_formula(N, "plus") - 1.0) <= 2.0 / N
        assert abs(gamma_formula(N, "minus") + 1.0) <= 2.0 / N


def test_chern_number_n2():
    plus = report_for(2, 1)
    assert plus.c1_computed == pytest.approx(2.5980762, abs=1e-7)
    assert plus.abs_error <= 1e-9
    minus = report_for(2, -1)
    assert abs(minus.c1_computed) <= 1e-9


def test_chern_number_n3_pipeline_value():
    r = report_for(3, 1)
    # gamma_plus(3) = (8/9)^{3/2} * 10/6
    assert r.c1_computed == pytest.approx((8.0 / 9.0) ** 1.5 * 10.0 / 6.0, abs=1e-12)
    assert r.proportionality_residual <= 1e-10


def test_chern_number_large_n_trend():
    # frozen from exact rational/sqrt evaluation of the closed form
    assert gamma_formula(100, "plus") == pytest.approx(1.0099515192425859, abs=1e-12)
    r64 = report_for(64, 1)
    r32 = report_for(32, 1)
    assert abs(r64.c1_computed - 1.0) < abs(r32.c1_computed - 1.0)


def test_chern_number_spin_mismatch_rejected():
    coords2 = fuzzy_coordinates(SpinLabel.from_dimension(2))
    proj = build_fuzzy_projector(coords2, 1)
    with pytest.raises(ValueError):
        chern_number(proj, make_ctx(3))


@pytest.mark.parametrize("N", list(range(2, 65)))
def test_charge_formula_agreement(N):
    for sign in (1, -1):
        r = report_for(N, sign)
        assert r.abs_error <= 1e-9
        assert r.proportionality_residual <= 1e-10


def test_sweep_ordering():
    reports = sweep(range(2, 5))
    assert [(r.N, r.sign) for r in reports] == [
        (2, "plus"), (2, "minus"), (3, "plus"), (3, "minus"), (4, "plus"), (4, "minus"),
    ]


def report_on(N, sign, banded):
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N), banded=banded)
    return chern_number(build_fuzzy_projector(coords, sign), CalculusContext(coords))


def test_report_for_switches_to_banded_above_crossover():
    assert DENSE_MAX_N >= 33  # verify --max-N 32 stays on the dense path
    for N in (DENSE_MAX_N, DENSE_MAX_N + 1):
        banded = N > DENSE_MAX_N
        assert report_for(N, 1) == report_on(N, 1, banded)


@pytest.mark.parametrize("N", [2, 3, 8, 33, 64, 128, 256])
@pytest.mark.parametrize("sign", [1, -1])
def test_banded_report_matches_dense(N, sign):
    dense = report_on(N, sign, banded=False)
    banded = report_on(N, sign, banded=True)
    assert abs(banded.c1_computed - dense.c1_computed) <= 1e-12
    assert abs(banded.ch0 - dense.ch0) <= 1e-12
    assert banded.abs_error <= 1e-9
    assert banded.proportionality_residual <= 1e-10
    assert banded.projector_residual <= 1e-12


@pytest.mark.parametrize("sign", [1, -1])
def test_report_for_large_n_in_linear_memory(sign):
    import tracemalloc

    N = 4096
    tracemalloc.start()
    try:
        r = report_for(N, sign)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(r.c1_computed - gamma_formula(N, sign)) <= 1e-9
    assert r.proportionality_residual <= 1e-8
    assert r.projector_residual <= 1e-12
    # one dense N x N complex matrix takes 16 N^2 bytes (268 MB here); the
    # banded pipeline peaks near 11 MB, so allow an eighth of one matrix
    assert peak < 16 * N * N / 8
