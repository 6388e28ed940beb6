import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuzzychern import chern, cli
from fuzzychern.bundles import build_fuzzy_projector
from fuzzychern.chern import (
    BATCH_DIM,
    REPORT_BYTES_PER_N,
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
from banded_reference import toarray
import dense_reference as dense
from report_reference import dense_report
from volume_reference import derived_volume_form

rng = np.random.default_rng(31415)


def make_coords(N):
    return fuzzy_coordinates(SpinLabel.from_dimension(N))


def identity(N):
    return Banded.from_diagonals(N, {0: 1.0})


def test_star_integral_identity():
    for N in (2, 5, 9):
        assert normalized_trace(identity(N), [N]) == pytest.approx(1.0)


def test_star_integral_traceless():
    coords = make_coords(4)
    assert abs(normalized_trace(coords.X3, coords.sizes)) <= 1e-13


def test_star_integral_linearity():
    assert normalized_trace(2.5j * identity(3), [3]) == pytest.approx(2.5j)


def test_volume_form_components_selfadjoint():
    # the components are real multiples of the self-adjoint coordinates
    for N in (2, 3, 5):
        coords = make_coords(N)
        for c in volume_form(coords).components:
            assert max_abs(c - c.conj().T, coords.sizes) <= 1e-13


def test_volume_form_nonzero():
    for N in (2, 3, 8):
        coords = make_coords(N)
        assert volume_form(coords).norm(coords.sizes) > 1e-3


def test_volume_form_unitary_covariance():
    # on dense coordinates, which a dense unitary rotates
    from fuzzychern.su2 import FuzzyCoordinates

    N = 4
    coords = dense.dense_coordinates(SpinLabel.from_dimension(N))
    q, _ = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    rotated = FuzzyCoordinates(
        spins=coords.spins,
        kappa=coords.kappa,
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
    # banded, as reports_for builds it at every N, and on the dense reference
    # coordinates, where the derived form's products stay cheap
    spin = SpinLabel.from_dimension(N)
    dense_coords = [dense.dense_coordinates(spin)] if N <= 64 else []
    for coords in [fuzzy_coordinates(spin)] + dense_coords:
        closed, derived = volume_form(coords), derived_volume_form(coords)
        for c, d in zip(closed.components, derived.components):
            assert dense.max_abs(c - d) <= 1e-12


def test_volume_form_of_a_ladder_takes_each_block_alone():
    # lam is per row, so each block of a stacked ladder is the form of its N
    n_values = [2, 5, 3]
    ladder = volume_form(fuzzy_coordinates(*map(SpinLabel.from_dimension, n_values)))
    start = 0
    for N in n_values:
        alone = volume_form(fuzzy_coordinates(SpinLabel.from_dimension(N)))
        for c, a in zip(ladder.components, alone.components):
            block = toarray(c)[start:start + N, start:start + N]
            assert np.array_equal(block, toarray(a))
        start += N


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
    coords = make_coords(3)
    om = volume_form(coords)
    lam, res = extract_coefficient(om.scale(2.5), om, coords.sizes)
    assert lam == pytest.approx(2.5, abs=1e-13)
    assert res <= 1e-14


def test_extract_coefficient_residual_grows_linearly():
    coords = make_coords(3)
    om = volume_form(coords)
    comps = list(om.scale(0.0).components)
    comps[0] = comps[0] + Banded.from_diagonals(
        3, {o: rng.standard_normal(3 - abs(o)) + 1j * rng.standard_normal(3 - abs(o))
            for o in (-2, -1, 0, 1, 2)})
    from fuzzychern.calculus import GradedForm

    noise = GradedForm(2, 1, 3, tuple(comps))
    residuals = []
    for eps in (1e-4, 2e-4, 4e-4):
        _, res = extract_coefficient(om + noise.scale(eps), om, coords.sizes)
        residuals.append(res[0])
    assert residuals[1] == pytest.approx(2 * residuals[0], rel=1e-3)
    assert residuals[2] == pytest.approx(4 * residuals[0], rel=1e-3)


def test_gamma_special_values():
    assert gamma_formula(2, "plus") == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, abs=1e-14)
    assert gamma_formula(2, "minus") == 0.0
    assert gamma_formula(10, "plus") == pytest.approx(1.09674, abs=1e-5)
    assert gamma_formula(10, "minus") == pytest.approx(-0.89365, abs=1e-5)


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


@pytest.mark.parametrize("N", list(range(2, 65)))
def test_charge_formula_agreement(N):
    for sign in (1, -1):
        r = report_for(N, sign)
        assert r.abs_error <= 1e-9
        assert r.proportionality_residual <= 1e-10


def test_sweep_builds_volume_form_once_per_batch(count_calls):
    from fuzzychern import bundles

    forms = count_calls(chern, "volume_form")
    projectors = count_calls(bundles, "build_fuzzy_projector")
    reports = sweep(range(2, 6))
    assert len(reports) == 8
    assert [coords.sizes.tolist() for (coords,) in forms] == [[2, 3, 4, 5]]
    assert len(projectors) == 2
    # a batch holds consecutive N while their N sum to at most BATCH_DIM
    forms.clear()
    sweep([BATCH_DIM - 2, 2, 4, BATCH_DIM + 1, 3])
    assert [coords.sizes.tolist() for (coords,) in forms] == [
        [BATCH_DIM - 2, 2], [4], [BATCH_DIM + 1], [3]]


def test_reports_for_matches_one_sign_reports():
    for N in (3, 47):
        assert reports_for([N]) == [report_for(N, 1), report_for(N, -1)]
        assert reports_for([N], (-1,)) == [report_for(N, -1)]
    assert reports_for([3, 47], (-1,)) == [report_for(3, -1), report_for(47, -1)]


def test_sweep_ordering():
    reports = sweep(range(2, 5))
    assert [(r.N, r.sign) for r in reports] == [
        (2, "plus"), (2, "minus"), (3, "plus"), (3, "minus"), (4, "plus"), (4, "minus"),
    ]


def report_on(N, sign):
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N))
    return chern_number(build_fuzzy_projector(coords, sign), coords, volume_form(coords))[0]


def test_report_for_is_banded_at_every_n(monkeypatch):
    # every ladder builds Banded coordinates, the N of the old dense range
    # (N <= 45) included, and a report is the banded pipeline's at any N
    built = []

    def spy(*spins):
        coords = fuzzy_coordinates(*spins)
        built.append(all(isinstance(coords.axis(a), Banded) for a in (1, 2, 3)))
        return coords

    monkeypatch.setattr(chern, "fuzzy_coordinates", spy)
    for N in (2, 32, 45, 46):
        assert report_for(N, 1) == report_on(N, 1)
    sweep(range(2, 50))  # two batches: 2..44 and 45..49
    assert len(built) == 6 and all(built)


@pytest.mark.parametrize("N", [2, 3, 8, 33, 64, 128, 256])
@pytest.mark.parametrize("sign", [1, -1])
def test_banded_report_matches_dense(N, sign):
    # the tests' dense reference, every product a numpy one, in the ordering
    # sigma (x) X, against the program's banded report in X (x) sigma
    dense = dense_report(N, sign)
    banded = report_for(N, sign)
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
            reports_for([N], signs)
            assert (len(products), len(constructions)) == pin
            assert max(products) <= 6
    # a whole ladder of one batch makes the products of one N: sweep 2..32 and
    # verify --max-N 32's ladder (527 rows in all), and N = 2 alone
    for ladder in (range(2, 33), cli._verify_ladder(32), [2]):
        products.clear()
        constructions.clear()
        sweep(ladder)
        assert (len(products), len(constructions)) == (14, 55)
    products.clear()
    sweep(cli._verify_ladder(1000))  # three batches: 2..32 with 64..256, 512, 1000
    assert len(products) == 3 * 14


REPORT_PEAK_SCRIPT = """
import json, tracemalloc
from fuzzychern.chern import reports_for
peaks = []
for N in (1000, 10000):
    tracemalloc.start()
    reports_for([N])
    peaks.append(tracemalloc.get_traced_memory()[1] / N)
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def test_report_bytes_per_n_covers_the_peak_of_a_fresh_process():
    # fuzzy, sweep and verify refuse N by REPORT_BYTES_PER_N, measured in a fresh
    # process as the CLI runs: 1750 B per N at N = 1e3 and 1730 B at 1e4 since both
    # signs share dQ ^ dQ (1894 and 1874 B before; 2994 B at 1e3 while kron's
    # np.unique loaded numpy.ma, 1.1 MB, on first use)
    peaks = run_fresh(REPORT_PEAK_SCRIPT)
    assert max(peaks) <= REPORT_BYTES_PER_N, peaks


def run_fresh(script, timeout=60):
    """The json that ``script`` prints, run in a fresh Python on this source tree."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LADDER_PEAK_SCRIPT = """
import json, tracemalloc
from fuzzychern.chern import sweep
from fuzzychern.cli import _verify_ladder
peaks = {}
for M in (1000, 4000):
    for name, ladder in (("sweep", range(2, M + 1)), ("verify", _verify_ladder(M))):
        tracemalloc.start()
        sweep(ladder)
        peaks["%s %d" % (name, M)] = tracemalloc.get_traced_memory()[1] / M
        tracemalloc.stop()
print(json.dumps(peaks))
"""


def test_report_bytes_per_n_covers_the_peak_of_a_batched_ladder():
    # sweep --to M and verify --max-N M refuse M by M x REPORT_BYTES_PER_N; their
    # batches of at most BATCH_DIM stacked rows keep to it: 2540 and 2396 B per N
    # of M for sweep at M = 1e3 and 4e3 (the last N plus every kept report),
    # 1755 and 1729 B for verify's doubling ladder
    peaks = run_fresh(LADDER_PEAK_SCRIPT, timeout=240)
    assert max(peaks.values()) <= REPORT_BYTES_PER_N, peaks


@pytest.mark.parametrize("sign", [1, -1])
def test_residual_stays_flat_along_a_banded_ladder(sign):
    # dp carries no 1/kappa, so neither figure grows with N; through d0 the
    # residual grew as about 3.4e-16 N, to 9.2e-12 at N = 3e4
    for N in (64, 1000, 10000, 30000):
        r = report_for(N, sign)
        assert r.proportionality_residual <= 1e-14
        assert r.abs_error <= 1e-14


def test_one_row_per_n_whatever_its_batch(monkeypatch):
    # each block is reduced with the same arithmetic alone or stacked, so a
    # report's every bit is the same in every ladder that holds its N; no
    # field is a negative zero (N = 2 minus gives +0.0 for c1, abs_error and
    # the residual)
    verified = []

    def spy(n_values):
        verified.extend(sweep(n_values))
        return verified

    monkeypatch.setattr(cli, "sweep", spy)
    assert cli.main(["verify", "--max-N", "64"]) == 0
    runs = {"verify": verified, "sweep 2..32": sweep(range(2, 33)),
            "sweep 44..48": sweep(range(44, 49))}
    seen = set()
    for name, reports in runs.items():
        for r in reports:
            sign = 1 if r.sign == "plus" else -1
            alone = [report_for(r.N, sign), reports_for([r.N], (sign,))[0]]
            assert [repr(r)] * 2 == list(map(repr, alone)), name
            assert not any(v == 0 and np.signbit(v) for v in dataclasses.astuple(r)[2:]), r
            seen.add(r.N)
    assert seen == set(range(2, 33)) | set(range(44, 49)) | {64}
    assert repr(report_for(2, -1)) == repr(reports_for([2])[1]) == repr(
        sweep(range(2, 33))[1])
