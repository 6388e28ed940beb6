import ctypes
import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from fuzzychern import bundles, chern, cli, invariants
from fuzzychern.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fuzzy_json(capsys):
    code, out, _ = run(capsys, "fuzzy", "--N", "2", "--sign", "plus", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["N"] == 2
    assert row["sign"] == "plus"
    assert row["c1_computed"] == pytest.approx(2.5980762, abs=1e-7)
    assert row["gamma_formula"] == pytest.approx(2.5980762, abs=1e-7)
    assert row["abs_error"] <= 1e-9
    # >= 15 significant digits survive serialization
    assert abs(row["c1_computed"] - 2.598076211353316) <= 1e-14


def test_fuzzy_both_signs_table(capsys):
    code, out, _ = run(capsys, "fuzzy", "--N", "3", "--sign", "both")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two rows
    assert "1.39675" in out and "-0.55870" in out


def test_table_lines_end_without_spaces(capsys):
    # columns are padded to line up the next column, so the last one is not
    for argv in (("fuzzy", "--N", "3"), ("sweep", "--from", "2", "--to", "12")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert all(line == line.rstrip() for line in out.splitlines())


def test_fuzzy_invalid_n(capsys):
    code, _, err = run(capsys, "fuzzy", "--N", "1")
    assert code == 2
    assert "error" in err


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--from", "2", "--to", "16", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,sign,ch0,c1_computed,gamma_formula,abs_error,residual"
    assert len(lines) == 1 + 30  # 15 values of N, both signs
    row2minus = lines[2].split(",")
    assert row2minus[0] == "2" and row2minus[1] == "minus"
    assert abs(float(row2minus[3])) <= 1e-9
    for line in lines[1:]:
        assert float(line.split(",")[5]) <= 1e-9


def test_sweep_deterministic(capsys):
    _, out1, _ = run(capsys, "sweep", "--from", "2", "--to", "6", "--format", "csv")
    _, out2, _ = run(capsys, "sweep", "--from", "2", "--to", "6", "--format", "csv")
    assert out1 == out2


def test_sweep_monotone_approach(capsys):
    _, out, _ = run(capsys, "sweep", "--from", "2", "--to", "16", "--format", "csv")
    c1 = {}
    for line in out.strip().splitlines()[1:]:
        parts = line.split(",")
        if parts[1] == "plus":
            c1[int(parts[0])] = float(parts[3])
    assert abs(c1[16] - 1.0) < abs(c1[8] - 1.0)


def test_sweep_empty_range(capsys):
    code, _, _ = run(capsys, "sweep", "--from", "5", "--to", "4")
    assert code == 2


def test_sweep_out_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "sweep", "--from", "2", "--to", "3",
                       "--format", "csv", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().startswith("N,sign,")


def test_commutative_charge_one(capsys):
    code, out, _ = run(capsys, "commutative", "--k", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)
    assert row["c1"] == pytest.approx(1.0, abs=1e-10)
    assert row["volume_integral"] == pytest.approx(1.0, abs=1e-12)


def test_commutative_transposed(capsys):
    code, out, _ = run(capsys, "commutative", "--k", "2", "--transpose",
                       "--format", "json", "--grid", "32x64")
    assert code == 0
    assert json.loads(out)["c1"] == pytest.approx(-2.0, abs=1e-8)


@pytest.mark.parametrize("argv", [
    ("--k", "1", "--grid", "8x16"),
    ("--k", "4", "--transpose"),
])
def test_commutative_json_keeps_15_significant_digits(capsys, argv):
    code, out, _ = run(capsys, "commutative", "--format", "json", *argv)
    assert code == 0
    row = json.loads(out)
    for key in ("c1", "volume_integral"):
        assert row[key] == float("%.15g" % row[key])


def test_commutative_runs_the_highest_tensor_power(capsys):
    for argv, c1 in ((("--grid", "16x32"), 12.0), ((), 12.0), (("--transpose",), -12.0)):
        code, out, _ = run(capsys, "commutative", "--k", "12", "--format", "json", *argv)
        assert code == 0
        assert abs(json.loads(out)["c1"] - c1) <= 1e-8


# functions numpy added in 2.0, which pyproject.toml's numpy>=1.24 does not have
NUMPY_2_ONLY = {
    np: ("vecdot", "matvec", "vecmat", "concat", "unstack", "permute_dims", "matrix_transpose",
         "astype", "isdtype", "cumulative_sum", "cumulative_prod"),
    np.linalg: ("vecdot", "matrix_norm", "vector_norm", "matrix_transpose", "outer",
                "diagonal", "trace", "svdvals", "tensordot"),
}


@pytest.mark.parametrize("argv", [
    ("commutative", "--k", "4", "--transpose"),
    ("verify", "--max-N", "8"),
])
def test_runs_without_numpy_2_only_functions(capsys, monkeypatch, argv):
    for module, names in NUMPY_2_ONLY.items():
        for name in names:
            monkeypatch.delattr(module, name, raising=False)
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_commutative_k_out_of_range(capsys):
    code, _, _ = run(capsys, "commutative", "--k", "13")
    assert code == 2


def test_commutative_bad_grid(capsys):
    code, _, _ = run(capsys, "commutative", "--grid", "banana")
    assert code == 2


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-N", "8")
    assert code == 0
    passed = [l for l in out.splitlines() if " PASS " in l]
    assert len(passed) >= 6
    assert "all suites passed" in out


# the input each verify stage names, as the build-time checks name N and sign
VERIFY_INPUTS = {
    "linalg-trace": r"8x8 a, b",
    "linalg-kron": r"8x8 a, b, 3x3 c",
    "su2-repr": r"N=[2-8]",
    "diff-calculus": r"N=[2-8]",
    "projector": r"N=[2-4] sign=[+-]1",
    "covariance": r"N=[2-8]",
    "chern-integration": r"N=[2-4] sign=[+-]1",
    "s2-oracle": r"k=[12]( transpose)?|volume",
    "commutative-limit": r"N=4 sign=[+-]1",
}


@pytest.mark.parametrize("stage, suite", [
    ("linalg-trace", "linalg-core"),
    ("linalg-kron", "linalg-core"),
    ("su2-repr", "su2-repr"),
    ("diff-calculus", "diff-calculus"),
    ("projector", "bundles"),
    ("covariance", "covariance"),
    ("chern-integration", "chern-integration"),
    ("s2-oracle", "s2-oracle"),
    ("commutative-limit", "commutative-limit"),
])
def test_verify_fails_the_suite_whose_bound_no_residual_meets(capsys, monkeypatch, stage, suite):
    # the build check is stubbed: it shares the projector entry and would
    # otherwise raise before the bundles suite is printed
    monkeypatch.setitem(invariants.BOUNDS, stage, -1.0)
    monkeypatch.setattr(bundles, "require", lambda *args: None)
    code, out, _ = run(capsys, "verify", "--max-N", "4")
    assert code == 1
    failed = [l.split()[0] for l in out.splitlines() if " FAIL " in l]
    assert failed == [suite]
    assert out.endswith("1 suite(s) failed\n")
    # the FAIL line names the input of the suite's worst residual
    line = next(l for l in out.splitlines() if " FAIL " in l)
    pattern = r"%s +FAIL  \(max residual \S+ at (%s)\)"
    assert re.fullmatch(pattern % (re.escape(suite), VERIFY_INPUTS[stage]), line)


def test_every_bound_is_met_through_check(capsys, count_calls):
    # a suite or build step that compared a residual with its bound inline
    # would leave its stage out
    calls = count_calls(invariants, "check")
    for argv in (("fuzzy", "--N", "3"), ("commutative", "--k", "1", "--grid", "8x16"),
                 ("verify", "--max-N", "4")):
        assert run(capsys, *argv)[0] == 0
    assert {args[0] for args in calls} == set(invariants.BOUNDS)


def test_verify_checks_each_computed_c1_against_the_commutative_limit(capsys, monkeypatch):
    # c1 = -1 + 2.5/N at N = 8 is off the bound |c1 + 1| <= 2/N; no other suite reads c1
    def off_limit(n_values):
        reports = chern.sweep(n_values)
        assert (reports[-1].N, reports[-1].sign) == (8, "minus")
        return reports[:-1] + [dataclasses.replace(reports[-1], c1_computed=-1.0 + 2.5 / 8)]

    monkeypatch.setattr(cli, "sweep", off_limit)
    code, out, _ = run(capsys, "verify", "--max-N", "8")
    assert code == 1
    failed = [l for l in out.splitlines() if " FAIL " in l]
    assert [l.split()[0] for l in failed] == ["commutative-limit"]
    assert failed[0].endswith(" at N=8 sign=-1)")
    assert out.endswith("1 suite(s) failed\n")


@pytest.mark.parametrize("argv", [
    ("commutative", "--grid", "1x4"),
    ("verify", "--max-N", "1"),
    ("fuzzy", "--N", "2", "--out", "/nonexistent/x"),
])
def test_domain_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_one_error_line(out, err, prefix="error: "):
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("fuzzy", "--N", str(10**12)),
    ("sweep", "--from", "2", "--to", str(10**12)),
])
def test_memory_estimate_refuses_before_allocating(capsys, monkeypatch, argv):
    # 10**12 * 3 KB is far beyond any host's physical memory
    def never(*args, **kwargs):
        raise AssertionError("a report was started")

    monkeypatch.setattr(cli, "reports_for", never)
    monkeypatch.setattr(cli, "sweep", never)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert_one_error_line(out, err)
    assert "physical memory" in err


def test_oracle_memory_estimate_refuses_before_allocating(capsys, monkeypatch):
    # the oracle's memory is a fixed number of bytes per node: NODE_BYTES (18 B)
    # on each of 4e11 nodes is over 7 TB
    def never(*args, **kwargs):
        raise AssertionError("the oracle was started")

    monkeypatch.setattr(cli, "build_quadrature", never)
    monkeypatch.setattr(cli, "chern_number_commutative", never)
    code, out, err = run(capsys, "commutative", "--k", "12", "--grid", "4x100000000000")
    assert code == 2
    assert_one_error_line(out, err)
    assert "physical memory" in err


def test_verify_memory_estimate_refuses_before_any_suite(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a suite was started")

    monkeypatch.setattr(cli, "sweep", never)
    monkeypatch.setattr(cli, "fuzzy_coordinates", never)
    code, out, err = run(capsys, "verify", "--max-N", str(10**12))
    assert code == 2
    assert_one_error_line(out, err)
    assert "physical memory" in err


def test_oracle_memory_estimate_admits_a_grid_whose_nodes_fit(monkeypatch):
    # the Gauss-Legendre nodes take O(n_polar) memory, so 100000x4 needs about
    # NODE_BYTES x 4e5 = 7 MB and reaches the quadrature; the estimate once held
    # leggauss's 16 B x n_polar^2 companion matrix and refused it at 160 GB
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached(*args)

    monkeypatch.setattr(cli, "build_quadrature", reached)
    with pytest.raises(Reached) as exc:
        main(["commutative", "--grid", "100000x4"])
    assert exc.value.args == (100000, 4)


def test_invariant_failure_exits_1_with_one_line(capsys, monkeypatch):
    # no residual is below a negative bound, so every report fails its check
    monkeypatch.setitem(invariants.BOUNDS, "curvature", -1.0)
    code, out, err = run(capsys, "fuzzy", "--N", "3")
    assert code == 1
    assert_one_error_line(out, err, "error: InvariantError: curvature")


@pytest.mark.parametrize("stage", [
    "projector", "beta-kappa", "curvature", "charge-imag", "quadrature-imag",
])
def test_each_build_stage_names_itself_and_its_bound(capsys, monkeypatch, stage):
    monkeypatch.setitem(invariants.BOUNDS, stage, -1.0)
    if stage == "quadrature-imag":
        argv, at = ("commutative", "--k", "1", "--grid", "8x16"), ""
    else:  # checked per report, whose N and sign the line names
        argv, at = ("fuzzy", "--N", "3"), " at N=3 sign=+1"
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert_one_error_line(out, err)
    pattern = r"error: InvariantError: %s residual \S+ exceeds -1%s\n"
    assert re.fullmatch(pattern % (re.escape(stage), re.escape(at)), err)


# each case is named for the exception class its stage raised before every
# invariant failure became an InvariantError
@pytest.mark.parametrize("stage", [
    pytest.param("projector", id="ProjectorConsistencyError"),
    pytest.param("curvature", id="NonProportionalCurvatureError"),
    pytest.param("quadrature-imag", id="QuadratureIntegrityError"),
])
def test_each_invariant_error_exits_1(capsys, monkeypatch, stage):
    def fail(*args, **kwargs):
        invariants.require(stage, 1e-3)

    monkeypatch.setattr(cli, "reports_for", fail)
    code, out, err = run(capsys, "fuzzy", "--N", "3")
    assert code == 1
    assert_one_error_line(out, err, "error: InvariantError: %s residual 1.000e-03 exceeds %g"
                          % (stage, invariants.BOUNDS[stage]))


def test_verify_builds_each_projector_and_volume_form_once(capsys, count_calls):
    projectors = count_calls(bundles, "build_fuzzy_projector")
    forms = count_calls(chern, "volume_form")
    shared = count_calls(bundles, "dq_wedge_dq")
    code, _, _ = run(capsys, "verify", "--max-N", "8")
    assert code == 0
    built = Counter((coords.N, sign) for coords, sign in projectors)
    assert built == Counter({(N, s): 1 for N in range(2, 9) for s in (1, -1)})
    assert sorted(coords.N for (coords,) in forms) == list(range(2, 9))
    assert sorted(coords.N for (coords,) in shared) == list(range(2, 9))  # W, once per N


def test_verify_above_32_builds_a_doubling_ladder(capsys, count_calls):
    # every N up to 32, then N doubling up to max_N: O(log max_N) reports
    projectors = count_calls(bundles, "build_fuzzy_projector")
    code, out, _ = run(capsys, "verify", "--max-N", "1000")
    assert code == 0 and out.endswith("all suites passed\n")
    built = Counter((coords.N, sign) for coords, sign in projectors)
    ladder = list(range(2, 33)) + [64, 128, 256, 512, 1000]
    assert built == Counter({(N, s): 1 for N in ladder for s in (1, -1)})


# captured from the command-line output before a refactor that kept it: the
# sweep, fuzzy and verify files before reports shared their volume form, the
# commutative files before the oracle built p_k in one product-rule pass, the
# fuzzy_257 and sweep_44_48 files (banded, and across DENSE_MAX_N) before the
# Banded kernels multiplied diagonal pairs by slices, the commutative_5_16x32
# file before the oracle ran on state vectors. verify_8 was recaptured after
# that: its s2-oracle residual fell from 4.441e-16 to 2.220e-16, because the
# k = 2 charge on 64x128 became exactly 2. The sweep, fuzzy and verify files
# were recaptured when omega took its closed form instead of the product
# eps_abc X_a dX_b ^ dX_c: c1 moved by at most one unit in its 15th printed
# digit, and the commutative files stayed byte-identical. They were
# recaptured again when dp became [p, S_b (x) 1] instead of d0(p): c1 moved
# by at most one unit in its 15th printed digit, the residual column fell
# to at most 1.9e-15 (8.7e-14 at N = 257 before), verify_8 gained its
# covariance line, and the commutative files stayed byte-identical.
# sweep_2_12.table was recaptured when table lines stopped ending in the
# last column's padding: five lines lost their trailing spaces, no other
# byte changed. verify_8 was recaptured when the oracle's Gram entries became
# elementwise sums instead of per-node BLAS dots: its s2-oracle residual rose
# from 2.220e-16 to 4.441e-16, because the k = 2 charge on 64x128 became
# 2.0000000000000004, and no other byte of any golden file changed.
# verify_8 was recaptured when the Gauss-Legendre nodes came from Newton's
# method instead of leggauss and verify's random inputs from random.Random(7)
# instead of numpy.random: its s2-oracle residual fell from 4.441e-16 to
# 2.220e-16, because the k = 2 charge on 64x128 became exactly 2 again, its
# diff-calculus residual from 1.750e-14 to 6.350e-15 on the new inputs, and
# the commutative files stayed byte-identical. The sweep, fuzzy and verify
# files were recaptured when both signs of an N came to share dQ ^ dQ, with
# F = beta^2 p (dQ ^ dQ) instead of p (dp ^ dp), dp_b = [p, S_b (x) 1]: only
# the abs_error and residual columns moved, and verify_8's chern-integration
# residual (1.933e-15 to 1.812e-15); no printed c1, ch0 or gamma moved, and
# the commutative files stayed byte-identical
GOLDEN_CASES = [
    (("sweep", "--from", "2", "--to", "12"), "sweep_2_12.table"),
    (("sweep", "--from", "2", "--to", "12", "--format", "csv"), "sweep_2_12.csv"),
    (("sweep", "--from", "2", "--to", "12", "--format", "json"), "sweep_2_12.json"),
    (("fuzzy", "--N", "64", "--format", "json"), "fuzzy_64.json"),
    (("verify", "--max-N", "8"), "verify_8.txt"),
    (("commutative", "--k", "3"), "commutative_3.table"),
    (("commutative", "--k", "3", "--format", "csv"), "commutative_3.csv"),
    (("commutative", "--k", "4", "--transpose"), "commutative_4_transpose.table"),
    (("commutative", "--k", "4", "--transpose", "--format", "csv"),
     "commutative_4_transpose.csv"),
    (("fuzzy", "--N", "257", "--format", "csv"), "fuzzy_257.csv"),
    (("sweep", "--from", "44", "--to", "48", "--format", "csv"), "sweep_44_48.csv"),
    (("commutative", "--k", "5", "--grid", "16x32", "--format", "csv"),
     "commutative_5_16x32.csv"),
]


def openblas_kernel():
    """The kernel OpenBLAS picked at run time, read from the OpenBLAS library
    that numpy wheels ship under numpy.libs; "unknown" without it."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


@pytest.mark.parametrize("argv, name", GOLDEN_CASES)
def test_output_matches_golden_file(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    # dense products are BLAS calls, so a mismatch names the kernel it met
    assert out == (GOLDEN / name).read_text(), "OpenBLAS kernel %s" % openblas_kernel()


def blas_kernels():
    """OPENBLAS_CORETYPE values this CPU can run; None leaves the variable unset."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return [None]
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as cpu
    return [None, "Prescott"] + (["Haswell"] if cpu.get("AVX2") and cpu.get("FMA3") else [])


ORACLE_SCRIPT = """
import sys
from fuzzychern.cli import main
from fuzzychern.sphere_oracle import build_quadrature, chern_number_commutative
grid = build_quadrature(64, 128)
print([chern_number_commutative(k, t, grid) for k in range(1, 13) for t in (False, True)])
sys.exit(max(main(['commutative', '--k', '4', '--transpose', '--format', 'csv']),
             main(['fuzzy', '--N', '75', '--sign', 'plus', '--format', 'csv']),
             main(['verify', '--max-N', '8'])))
"""


def test_oracle_and_banded_output_do_not_depend_on_the_blas_kernel():
    # neither the oracle nor a banded report (N > DENSE_MAX_N) makes a BLAS
    # call, so forcing another OpenBLAS kernel in the child process leaves the
    # oracle's charges bit-identical and both outputs byte-identical; verify's
    # other lines may move. The repr of every charge sees a last-bit change
    # that the printed 15 digits hide, and N = 75's residual moved in its last
    # printed digit while the Frobenius norm was a BLAS dot
    src = str(Path(__file__).parents[1] / "src")
    outputs = []
    for kernel in blas_kernels():
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        proc = subprocess.run([sys.executable, "-c", ORACLE_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        verify = lines.index(next(line for line in lines if line.startswith("linalg-core")))
        oracle = [line for line in lines[verify:] if line.startswith("s2-oracle")]
        assert len(oracle) == 1 and "PASS" in oracle[0]
        outputs.append(lines[:verify] + oracle)
    assert outputs[0][1:3] == (GOLDEN / "commutative_4_transpose.csv").read_text().splitlines()
    assert outputs[0][3].startswith("N,sign,") and outputs[0][4].startswith("75,plus,")
    assert all(out == outputs[0] for out in outputs)


LAZY_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
from fuzzychern.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in (['verify', '--max-N', '8'], ['commutative', '--k', '3'],
                                     ['fuzzy', '--N', '64'], ['sweep', '--from', '2', '--to', '4'])]
lazy = [['numpy', 'random'], ['numpy', 'polynomial'], ['numpy', 'ma']]
print(json.dumps([codes, sorted(name for name in sys.modules if name.split('.')[:2] in lazy)]))
"""


def test_no_command_loads_numpy_random_or_numpy_polynomial():
    # numpy loads these lazily: numpy.random costs about 6 MB of resident memory,
    # numpy.polynomial 0.75 MB and numpy.ma (np.unique's first call) 1.3 MB, and
    # no command needs one; a child process, because the tests draw from numpy.random
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], []]


def test_golden_files_are_exactly_the_cases():
    # no stale file after a recapture, and no case without its file
    names = [name for _, name in GOLDEN_CASES]
    assert len(set(names)) == len(names)
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(names)
