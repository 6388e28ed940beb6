"""Property tests over the command line's arguments: every drawn input either
exits 0 with correct numbers or exits 2 with one ``error:`` line, and none
raises out of ``main``."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fuzzychern.chern import gamma_formula
from fuzzychern.cli import main
from fuzzychern.invariants import BOUNDS

SIGNS = {"plus": (1,), "minus": (-1,), "both": (1, -1)}
MALFORMED_GRIDS = ("8x", "8x8x8", "x", "0x4", "8x-8")
VERIFY_SUITES = ("linalg-core", "su2-repr", "diff-calculus", "bundles", "covariance",
                 "chern-integration", "s2-oracle", "commutative-limit")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_refused(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=50, deadline=None)
@given(N=st.integers(-3, 64), sign=st.sampled_from(sorted(SIGNS)))
def test_fuzzy_answers_or_refuses(N, sign):
    code, out, err = run("fuzzy", "--N", str(N), "--sign", sign, "--format", "json")
    if N < 2:
        assert_refused(code, out, err)
        return
    assert code == 0 and err == ""
    rows = json.loads(out)
    assert [(r["N"], r["sign"]) for r in rows] == [
        (N, "plus" if s > 0 else "minus") for s in SIGNS[sign]]
    for r, s in zip(rows, SIGNS[sign]):
        assert abs(r["c1_computed"] - gamma_formula(N, s)) <= 1e-9


grids = st.one_of(
    st.tuples(st.integers(1, 16), st.integers(1, 16)).map(lambda g: "%dx%d" % g),
    st.sampled_from(MALFORMED_GRIDS),
)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-1, 13), grid=grids, transpose=st.booleans())
def test_commutative_answers_or_refuses(k, grid, transpose):
    argv = ["commutative", "--k", str(k), "--grid", grid, "--format", "json"]
    code, out, err = run(*argv + ["--transpose"] * transpose)
    parts = grid.split("x")
    valid = len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts)
    if not (1 <= k <= 12 and valid and int(parts[0]) >= 2 and int(parts[1]) >= 4):
        assert_refused(code, out, err)
        return
    assert code == 0 and err == ""
    row = json.loads(out)
    # the density over sin(theta) is constant, so every accepted grid is exact
    assert abs(row["c1"] - (-k if transpose else k)) <= 1e-8


# a width below 0 makes the range empty (-1) or reversed
@settings(max_examples=25, deadline=None)
@given(frm=st.integers(-3, 48), width=st.integers(-3, 4))
def test_sweep_answers_or_refuses(frm, width):
    to = frm + width
    code, out, err = run("sweep", "--from", str(frm), "--to", str(to), "--format", "json")
    if to < frm or frm < 2:
        assert_refused(code, out, err)
        return
    assert code == 0 and err == ""
    rows = json.loads(out)
    assert [(r["N"], r["sign"]) for r in rows] == [
        (N, s) for N in range(frm, to + 1) for s in ("plus", "minus")]
    for r in rows:
        assert abs(r["c1_computed"] - gamma_formula(r["N"], r["sign"])) <= 1e-9


@settings(max_examples=8, deadline=None)
@given(max_n=st.integers(-1, 64))
def test_verify_answers_or_refuses(max_n):
    code, out, err = run("verify", "--max-N", str(max_n))
    if max_n < 2:
        assert_refused(code, out, err)
        return
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "all suites passed"
    assert [l.split()[:2] for l in lines[:-1]] == [[name, "PASS"] for name in VERIFY_SUITES]
    for line in lines[:-1]:
        if "max residual" in line:  # the bundles suite reads the projector bound
            name, residual = line.split()[0], float(line.rstrip(")").split()[-1])
            assert residual <= BOUNDS["projector" if name == "bundles" else name]
