import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuzzychern.bundles import build_fuzzy_projector
from fuzzychern.chern import (
    DENSE_MAX_N,
    REPORT_BYTES_PER_N,
    DegenerateVolumeError,
    chern_number,
    extract_coefficient,
    gamma_formula,
    report_for,
    reports_for,
    sweep,
    volume_form,
)
from fuzzychern.linalg import Banded, max_abs, normalized_trace
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates
from volume_reference import derived_volume_form

rng = np.random.default_rng(31415)


def make_coords(N):
    return fuzzy_coordinates(SpinLabel.from_dimension(N))


def test_star_integral_identity():
    for N in (2, 5, 9):
        assert normalized_trace(np.eye(N)) == pytest.approx(1.0)


def test_star_integral_traceless():
    coords = make_coords(4)
    assert abs(normalized_trace(coords.X3)) <= 1e-13


def test_star_integral_linearity():
    assert normalized_trace(2.5j * np.eye(3)) == pytest.approx(2.5j)


def test_volume_form_components_selfadjoint():
    # the components are real multiples of the self-adjoint coordinates
    for N in (2, 3, 5):
        for c in volume_form(make_coords(N)).components:
            assert np.max(np.abs(c - c.conj().T)) <= 1e-13


def test_volume_form_nonzero():
    for N in (2, 3, 8):
        assert volume_form(make_coords(N)).norm() > 1e-3


def test_volume_form_unitary_covariance():
    from fuzzychern.su2 import FuzzyCoordinates

    N = 4
    coords = make_coords(N)
    q, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    rotated = FuzzyCoordinates(
        spin=coords.spin,
        X1=q @ coords.X1 @ q.conj().T,
        X2=q @ coords.X2 @ q.conj().T,
        X3=q @ coords.X3 @ q.conj().T,
    )
    om = volume_form(coords)
    om_rot = volume_form(rotated)
    for c, cr in zip(om.components, om_rot.components):
        assert np.max(np.abs(cr - q @ c @ q.conj().T)) <= 1e-12


@pytest.mark.parametrize("N", [*range(2, 13), 33, 45, 46, 64, 257, 1000])
def test_volume_form_matches_the_derived_form(N):
    # dense up to DENSE_MAX_N, banded above it, as reports_for builds them
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N), banded=N > DENSE_MAX_N)
    closed, derived = volume_form(coords), derived_volume_form(coords)
    for c, d in zip(closed.components, derived.components):
        assert max_abs(c - d) <= 1e-12


@pytest.mark.parametrize("N", [8, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_report_derives_only_the_projector(count_calls, N, sign):
    # dp is three commutators with the spin factor and F = p dp ^ dp two
    # wedges; neither dp nor omega goes through a derivation
    from fuzzychern import calculus

    derives = count_calls(calculus, "derive")
    d0s = count_calls(calculus, "d0")
    wedges = count_calls(calculus, "wedge")
    report_for(N, sign)
    assert len(derives) == len(d0s) == 0
    assert len(wedges) == 2


def test_extract_coefficient_exact_multiple():
    om = volume_form(make_coords(3))
    lam, res = extract_coefficient(om.scale(2.5), om)
    assert lam == pytest.approx(2.5, abs=1e-13)
    assert res <= 1e-14


def test_extract_coefficient_residual_grows_linearly():
    om = volume_form(make_coords(3))
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
    from volume_reference import zero_form

    om = volume_form(make_coords(3))
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
    coords3 = make_coords(3)
    with pytest.raises(ValueError):
        chern_number(proj, coords3, volume_form(coords3))


@pytest.mark.parametrize("N", list(range(2, 65)))
def test_charge_formula_agreement(N):
    for sign in (1, -1):
        r = report_for(N, sign)
        assert r.abs_error <= 1e-9
        assert r.proportionality_residual <= 1e-10


def test_sweep_builds_volume_form_once_per_n(count_calls):
    from fuzzychern import bundles, chern

    forms = count_calls(chern, "volume_form")
    projectors = count_calls(bundles, "build_fuzzy_projector")
    reports = sweep(range(2, 6))
    assert len(reports) == 8
    assert len(forms) == 4
    assert len(projectors) == 8


def test_reports_for_matches_one_sign_reports():
    for N in (3, DENSE_MAX_N + 2):
        assert reports_for(N) == [report_for(N, 1), report_for(N, -1)]
        assert reports_for(N, (-1,)) == [report_for(N, -1)]


def test_sweep_ordering():
    reports = sweep(range(2, 5))
    assert [(r.N, r.sign) for r in reports] == [
        (2, "plus"), (2, "minus"), (3, "plus"), (3, "minus"), (4, "plus"), (4, "minus"),
    ]


def report_on(N, sign, banded):
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N), banded=banded)
    return chern_number(build_fuzzy_projector(coords, sign), coords, volume_form(coords))


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


def test_a_report_makes_the_same_banded_operations_at_every_n(monkeypatch):
    # a product costs O(diagonals x N), so a fixed count of products on operands
    # of boundedly many diagonals is the O(N) claim; counted by wrapping the
    # class's methods, as bench/spans.py wraps functions. A change that moves a
    # count updates the pin. Both signs share sigma.X and dQ ^ dQ (6 products),
    # and each sign adds p p and p (dQ ^ dQ) (1 + 3): 14 products for both signs
    # and 10 for one, where each sign made all 16 before. Multiples by a nonzero
    # scalar skip the zero scan, so they are not constructions
    products, constructions = [], []
    matmul, init = Banded.__matmul__, Banded.__init__

    def counted_matmul(self, other):
        products.append(max(len(self.offsets), len(other.offsets)))
        return matmul(self, other)

    def counted_init(self, *args):
        constructions.append(None)  # not the operands, which would stay alive
        init(self, *args)

    monkeypatch.setattr(Banded, "__matmul__", counted_matmul)
    monkeypatch.setattr(Banded, "__init__", counted_init)
    for N in (64, 1000, 10000):
        for signs, pin in (((1, -1), (14, 55)), ((1,), (10, 41)), ((-1,), (10, 41))):
            products.clear()
            constructions.clear()
            reports_for(N, signs)
            assert (len(products), len(constructions)) == pin
            assert max(products) <= 7


REPORT_PEAK_SCRIPT = """
import json, tracemalloc
from fuzzychern.chern import reports_for
peaks = []
for N in (1000, 10000):
    tracemalloc.start()
    reports_for(N)
    peaks.append(tracemalloc.get_traced_memory()[1] / N)
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def test_report_bytes_per_n_covers_the_peak_of_a_fresh_process():
    # fuzzy, sweep and verify refuse N by REPORT_BYTES_PER_N, measured in a fresh
    # process as the CLI runs: 1750 B per N at N = 1e3 and 1730 B at 1e4 since both
    # signs share dQ ^ dQ (1894 and 1874 B before; 2994 B at 1e3 while kron's
    # np.unique loaded numpy.ma, 1.1 MB, on first use)
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", REPORT_PEAK_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    peaks = json.loads(proc.stdout)
    assert max(peaks) <= REPORT_BYTES_PER_N, peaks


@pytest.mark.parametrize("sign", [1, -1])
def test_residual_stays_flat_along_a_banded_ladder(sign):
    # dp carries no 1/kappa, so neither figure grows with N; through d0 the
    # residual grew as about 3.4e-16 N, to 9.2e-12 at N = 3e4
    for N in (64, 1000, 10000, 30000):
        r = report_for(N, sign)
        assert r.proportionality_residual <= 1e-14
        assert r.abs_error <= 1e-14
