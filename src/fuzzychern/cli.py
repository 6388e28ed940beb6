"""Command-line interface: single reports, sweeps, the classical oracle,
and the full invariant suite.

Exit codes: 0 success, 1 invariant/integrity failure, 2 usage error.
"""

import argparse
import json
import os
import sys

import numpy as np

from .bundles import PAULI, projector_coefficients
from .calculus import EPS_ROWS, d0, d1, derive, scalar_form, wedge
from .chern import DENSE_MAX_N, REPORT_BYTES_PER_N, gamma_formula, reports_for, sweep
from .invariants import BOUNDS, InvariantError
from .linalg import commutator, frobenius_norm, identity_like, kron, max_abs, normalized_trace
from .sphere_oracle import (MAX_TENSOR_POWER, NODE_BYTES, build_quadrature,
                            chern_number_commutative, volume_check)
from .su2 import SpinLabel, fuzzy_coordinates

# column header -> ChernReport attribute
REPORT_COLUMNS = {c: c for c in ("N", "sign", "ch0", "c1_computed", "gamma_formula", "abs_error")}
REPORT_COLUMNS["residual"] = "proportionality_residual"


def _fmt(x):
    if isinstance(x, float):
        return "%.15g" % x
    return str(x)


def render_reports(reports, fmt):
    rows = [{c: getattr(r, a) for c, a in REPORT_COLUMNS.items()} for r in reports]
    if fmt == "json":
        return json.dumps(
            [{k: (v if isinstance(v, (int, str)) else float(_fmt(v))) for k, v in row.items()}
             for row in rows],
            indent=2,
            default=float,
        ) + "\n"
    if fmt == "csv":
        out = [",".join(REPORT_COLUMNS)]
        for row in rows:
            out.append(",".join(_fmt(row[c]) for c in REPORT_COLUMNS))
        return "\n".join(out) + "\n"
    # table
    widths = {c: max(len(c), *(len(_fmt(row[c])) for row in rows)) for c in REPORT_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in REPORT_COLUMNS)]
    for row in rows:
        lines.append("  ".join(_fmt(row[c]).ljust(widths[c]) for c in REPORT_COLUMNS))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out_path, exc.strerror or exc))
    else:
        sys.stdout.write(text)


def _check_memory(what, need):
    """Refuse a run whose estimated ``need`` in bytes exceeds the physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise UsageError("%s needs about %d MB, more than the %d MB of physical memory"
                         % (what, need // 10**6, have // 10**6))


def cmd_fuzzy(args):
    if args.N < 2:
        raise UsageError("--N must be >= 2")
    _check_memory("--N %d" % args.N, args.N * REPORT_BYTES_PER_N)
    signs = {"plus": [1], "minus": [-1], "both": [1, -1]}[args.sign]
    reports = reports_for(args.N, signs)
    _emit(render_reports(reports, args.format), args.out)
    return 0


def cmd_sweep(args):
    if args.to < args.frm:
        raise UsageError("empty N range")
    if args.frm < 2:
        raise UsageError("--from must be >= 2")
    _check_memory("--to %d" % args.to, args.to * REPORT_BYTES_PER_N)
    reports = sweep(range(args.frm, args.to + 1))
    _emit(render_reports(reports, args.format), args.out)
    return 0


def cmd_commutative(args):
    if not 1 <= args.k <= MAX_TENSOR_POWER:
        raise UsageError("--k must be in 1..%d" % MAX_TENSOR_POWER)
    try:
        n_polar, n_azimuthal = (int(v) for v in args.grid.split("x"))
    except ValueError:
        raise UsageError("--grid must look like 64x128")
    # the oracle's arrays per node, and the n_polar^2 companion matrix leggauss
    # eigen-solves
    _check_memory("--k %d --grid %s" % (args.k, args.grid),
                  NODE_BYTES * n_polar * n_azimuthal + 16 * n_polar**2)
    try:
        grid = build_quadrature(n_polar, n_azimuthal)
    except ValueError as exc:
        raise UsageError("--grid %s: %s" % (args.grid, exc))
    # rounded to the 15 significant digits every format prints
    c1 = float(_fmt(chern_number_commutative(args.k, args.transpose, grid)))
    vol = float(_fmt(volume_check(grid)))
    row = {
        "k": args.k,
        "transpose": args.transpose,
        "grid": "%dx%d" % (n_polar, n_azimuthal),
        "c1": c1,
        "volume_integral": vol,
    }
    if args.format == "json":
        text = json.dumps(row, indent=2) + "\n"
    elif args.format == "csv":
        text = "k,transpose,grid,c1,volume_integral\n%d,%s,%s,%s,%s\n" % (
            args.k, args.transpose, row["grid"], _fmt(c1), _fmt(vol))
    else:
        text = (
            "k = %d%s  grid %s\nc1 = %s\nvolume integral = %s\n"
            % (args.k, " (transposed)" if args.transpose else "", row["grid"],
               _fmt(c1), _fmt(vol))
        )
    _emit(text, args.out)
    return 0


def _verify_ladder(max_n):
    """Every N up to 32, then N doubling up to max_n: O(log max_n) N above 32."""
    ns = list(range(2, min(max_n, 32) + 1))
    while ns[-1] < max_n:
        ns.append(min(2 * ns[-1], max_n))
    return ns


def _verify_suites(max_n):
    """Yield (suite_name, passed, detail) for every invariant suite."""
    rng = np.random.default_rng(7)

    def within(suite, worst, stage=None):
        return suite, worst <= BOUNDS[stage or suite], "max residual %.3e" % worst

    def rand(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    # linalg
    a, b, c = rand(8), rand(8), rand(3)
    ok = abs(np.trace(a @ b) - np.trace(b @ a)) <= BOUNDS["linalg-trace"] * abs(np.trace(a @ b))
    ok = ok and frobenius_norm(kron(kron(a, b), c) - kron(a, kron(b, c))) \
        <= BOUNDS["linalg-kron"] * frobenius_norm(kron(kron(a, b), c))
    yield "linalg-core", ok, "trace cyclicity, kron associativity"

    # su2 / coordinates, and the covariance max_b |[p, L_b]| / (N/2) of the
    # projector p = alpha + beta sigma.X on them, L_b = S_b (x) 1 + 1 (x) X_b / kappa:
    # [p, L_b] = beta [sigma.X, L_b], and |beta| is the same on both sign branches
    worst, covariance = 0.0, 0.0
    for twice_j in list(range(1, 8)) + [max_n - 1]:
        # stored as reports_for stores them, so max_n costs O(max_n) memory
        coords = fuzzy_coordinates(SpinLabel(twice_j), banded=twice_j + 1 > DENSE_MAX_N)
        kap = coords.kappa
        xs = [coords.X1, coords.X2, coords.X3]
        for a, b, c, s in EPS_ROWS:
            worst = max(worst, max_abs(commutator(xs[a - 1], xs[b - 1]) - 1j * kap * s * xs[c - 1]))
        one = identity_like(xs[0], coords.N)
        worst = max(worst, max_abs(xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2] - one))
        for x in xs:
            worst = max(worst, abs(normalized_trace(x)))
        sigma_x = kron(PAULI[0], xs[0]) + kron(PAULI[1], xs[1]) + kron(PAULI[2], xs[2])
        beta = abs(projector_coefficients(kap, 1)[1])
        for s, x in zip(PAULI, xs):
            l_b = kron(s / 2, one) + kron(np.eye(2), x / kap)
            covariance = max(covariance,
                             beta * max_abs(commutator(sigma_x, l_b)) / (coords.N / 2))
    yield within("su2-repr", worst)

    # calculus
    worst = 0.0
    for N in (2, 3, 4, 8):
        coords = fuzzy_coordinates(SpinLabel.from_dimension(N))
        for _ in range(5):
            f = rand(N)
            worst = max(worst, d1(coords, d0(coords, f)).max_entry() / frobenius_norm(f))
            g = rand(N)
            leib = d0(coords, f @ g) - (
                wedge(d0(coords, f), scalar_form(g)) + wedge(scalar_form(f), d0(coords, g))
            )
            worst = max(worst, leib.max_entry())
            for a, b, c, s in EPS_ROWS:
                br = derive(coords, a, derive(coords, b, f)) \
                    - derive(coords, b, derive(coords, a, f)) - 1j * s * derive(coords, c, f)
                worst = max(worst, np.max(np.abs(br)))
    yield within("diff-calculus", worst)

    # projectors (idempotency / self-adjointness / rank component) and
    # fuzzy charges, from one report per (N, sign) on the ladder
    reports = sweep(_verify_ladder(max_n))
    worst = 0.0
    for r in reports:
        sign = 1 if r.sign == "plus" else -1
        worst = max(worst, r.projector_residual, abs(r.ch0 - (1.0 + sign / r.N)))
    yield within("bundles", worst, "projector")
    yield within("covariance", covariance)

    worst = max(max(r.abs_error, r.proportionality_residual) for r in reports)
    yield within("chern-integration", worst)

    # commutative oracle
    grid = build_quadrature(64, 128)
    worst = max(
        abs(chern_number_commutative(1, False, grid) - 1.0),
        abs(chern_number_commutative(1, True, grid) + 1.0),
        abs(chern_number_commutative(2, False, grid) - 2.0),
        abs(volume_check(grid) - 1.0),
    )
    yield within("s2-oracle", worst)

    # commutative limit: gamma_pm(N) at every N >= 4, the computed c1 on the ladder
    ok = all(abs(gamma_formula(N, s) - (1.0 if s == "plus" else -1.0)) <= 2.0 / N
             for N in range(4, max_n + 1) for s in ("plus", "minus")) and all(
        abs(r.c1_computed - (1.0 if r.sign == "plus" else -1.0)) <= 2.0 / r.N
        for r in reports if r.N >= 4)
    yield "commutative-limit", ok, "gamma deviation bound 2/N"


def cmd_verify(args):
    if args.max_N < 2:
        raise UsageError("--max-N must be >= 2")
    _check_memory("--max-N %d" % args.max_N, args.max_N * REPORT_BYTES_PER_N)
    failures = 0
    for name, passed, detail in _verify_suites(args.max_N):
        print("%-18s %s  (%s)" % (name, "PASS" if passed else "FAIL", detail))
        if not passed:
            failures += 1
    if failures:
        print("%d suite(s) failed" % failures)
        return 1
    print("all suites passed")
    return 0


class UsageError(Exception):
    pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fuzzychern",
        description="Chern numbers of line bundles over the fuzzy and classical sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"), default="table")
    common.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("fuzzy", parents=[common], help="charge report for one N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--sign", choices=("plus", "minus", "both"), default="both")
    p.set_defaults(func=cmd_fuzzy)

    p = sub.add_parser("sweep", parents=[common], help="charge sweep over a range of N")
    p.add_argument("--from", dest="frm", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("commutative", parents=[common], help="classical-sphere oracle")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--transpose", action="store_true")
    p.add_argument("--grid", default="64x128")
    p.set_defaults(func=cmd_commutative)

    p = sub.add_parser("verify", help="run every invariant suite")
    p.add_argument("--max-N", dest="max_N", type=int, default=32)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvariantError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
