"""Command-line interface: single reports, sweeps, the classical oracle,
and the full invariant suite.

Exit codes: 0 success, 1 invariant/integrity failure, 2 usage error.
"""

import argparse
import json
import os
import random
import sys
from itertools import chain

import numpy as np

from .bundles import PAULI, projector_coefficients, sigma_dot_x
from .calculus import EPS_ROWS, d0, d1, derive, scalar_form, wedge
from .chern import DENSE_MAX_N, REPORT_BYTES_PER_N, gamma_formula, reports_for, sweep
from .invariants import InvariantError, check, worst
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


def render(rows, fmt):
    """Rows, dicts with the same keys, as json, csv or a table, numbers to 15
    significant digits; one dict instead of a list is one json object."""
    one = isinstance(rows, dict)
    rows = [rows] if one else rows
    if fmt == "json":
        rounded = [{k: float(_fmt(v)) if isinstance(v, float) else v for k, v in row.items()}
                   for row in rows]
        return json.dumps(rounded[0] if one else rounded, indent=2) + "\n"
    cells = [list(rows[0])] + [[_fmt(v) for v in row.values()] for row in rows]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in cells)
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n"
                   for line in cells)


def render_reports(reports, fmt):
    return render([{c: getattr(r, a) for c, a in REPORT_COLUMNS.items()} for r in reports], fmt)


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
    _emit(render_reports(reports_for(args.N, signs), args.format), args.out)
    return 0


def cmd_sweep(args):
    if args.to < args.frm:
        raise UsageError("empty N range")
    if args.frm < 2:
        raise UsageError("--from must be >= 2")
    _check_memory("--to %d" % args.to, args.to * REPORT_BYTES_PER_N)
    _emit(render_reports(sweep(range(args.frm, args.to + 1)), args.format), args.out)
    return 0


def cmd_commutative(args):
    if not 1 <= args.k <= MAX_TENSOR_POWER:
        raise UsageError("--k must be in 1..%d" % MAX_TENSOR_POWER)
    try:
        n_polar, n_azimuthal = (int(v) for v in args.grid.split("x"))
    except ValueError:
        raise UsageError("--grid must look like 64x128")
    # the oracle's peak per node (the grid itself holds only its 1-D factors)
    _check_memory("--k %d --grid %s" % (args.k, args.grid), NODE_BYTES * n_polar * n_azimuthal)
    try:
        grid = build_quadrature(n_polar, n_azimuthal)
    except ValueError as exc:
        raise UsageError("--grid %s: %s" % (args.grid, exc))
    row = {"k": args.k, "transpose": args.transpose, "grid": "%dx%d" % (n_polar, n_azimuthal),
           "c1": chern_number_commutative(args.k, args.transpose, grid),
           "volume_integral": volume_check(grid)}
    # the table is free text, not a row
    _emit(render(row, args.format) if args.format != "table" else
          "k = %d%s  grid %s\nc1 = %s\nvolume integral = %s\n"
          % (args.k, " (transposed)" if args.transpose else "", row["grid"],
             _fmt(row["c1"]), _fmt(row["volume_integral"])), args.out)
    return 0


def _verify_ladder(max_n):
    """Every N up to 32, then N doubling up to max_n: O(log max_n) N above 32."""
    ns = list(range(2, min(max_n, 32) + 1))
    while ns[-1] < max_n:
        ns.append(min(2 * ns[-1], max_n))
    return ns


def _verify_suites(max_n):
    """Yield (suite_name, check records) for every invariant suite."""
    # seeded stdlib bits, which import numpy has loaded, where numpy.random costs 6 MB
    gen = random.Random(7)

    def rand(n):
        """n x n, real and imaginary parts uniform on [-1, 1) at 53 bits."""
        z = (np.frombuffer(gen.randbytes(16 * n * n), "<u8") >> 11) * 2.0**-52 - 1.0
        return (z[:n * n] + 1j * z[n * n:]).reshape(n, n)

    # linalg
    a, b, c = rand(8), rand(8), rand(3)
    tr_ab, abc = np.trace(a @ b), kron(kron(a, b), c)
    yield "linalg-core", [
        check("linalg-trace", abs(tr_ab - np.trace(b @ a)) / abs(tr_ab), "8x8 a, b"),
        check("linalg-kron", frobenius_norm(abc - kron(a, kron(b, c))) / frobenius_norm(abc),
              "8x8 a, b, 3x3 c")]
    del abc  # the 192x192 product is not kept alive while the later suites run

    # su2 / coordinates, and the covariance max_b |[p, L_b]| / (N/2) of the
    # projector p = alpha + beta sigma.X on them, L_b = S_b (x) 1 + 1 (x) X_b / kappa:
    # [p, L_b] = beta [sigma.X, L_b], and |beta| is the same on both sign branches
    su2, covariance = [], []
    for twice_j in list(range(1, 8)) + [max_n - 1]:
        # stored as reports_for stores them, so max_n costs O(max_n) memory
        coords = fuzzy_coordinates(SpinLabel(twice_j), banded=twice_j + 1 > DENSE_MAX_N)
        kap, xs, at = coords.kappa, [coords.X1, coords.X2, coords.X3], "N=%d" % coords.N
        one = identity_like(xs[0], coords.N)
        residuals = [max_abs(commutator(xs[a - 1], xs[b - 1]) - 1j * kap * s * xs[c - 1])
                     for a, b, c, s in EPS_ROWS] + [abs(normalized_trace(x)) for x in xs]
        residuals.append(max_abs(xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2] - one))
        su2 += [check("su2-repr", r, at) for r in residuals]
        sigma_x = sigma_dot_x(coords)
        beta = abs(projector_coefficients(kap, 1)[1])
        for s, x in zip(PAULI, xs):
            commuted = commutator(sigma_x, kron(s / 2, one) + kron(np.eye(2), x / kap))
            covariance.append(check("covariance", beta * max_abs(commuted) / (coords.N / 2), at))
    yield "su2-repr", su2

    # calculus
    calculus = []
    for N in (2, 3, 4, 8):
        coords, at = fuzzy_coordinates(SpinLabel.from_dimension(N)), "N=%d" % N
        for _ in range(5):
            f, g = rand(N), rand(N)
            df = d0(coords, f)
            residuals = [d1(coords, df).max_entry() / frobenius_norm(f)]
            leib = d0(coords, f @ g) - (wedge(df, scalar_form(g))
                                        + wedge(scalar_form(f), d0(coords, g)))
            residuals.append(leib.max_entry())
            e = df.components  # e_a(f) for a = 1, 2, 3
            for a, b, c, s in EPS_ROWS:
                br = derive(coords, a, e[b - 1]) - derive(coords, b, e[a - 1]) - 1j * s * e[c - 1]
                residuals.append(np.max(np.abs(br)))
            calculus += [check("diff-calculus", r, at) for r in residuals]
    yield "diff-calculus", calculus

    # projectors (idempotency / self-adjointness / rank component), fuzzy
    # charges and their commutative limit, from one report per (N, sign) on
    # the ladder
    reports = sweep(_verify_ladder(max_n))
    signs = [1 if r.sign == "plus" else -1 for r in reports]
    ats = ["N=%d sign=%+d" % (r.N, s) for r, s in zip(reports, signs)]
    yield "bundles", [check("projector", res, at) for r, s, at in zip(reports, signs, ats)
                      for res in (r.projector_residual, abs(r.ch0 - (1.0 + s / r.N)))]
    yield "covariance", covariance
    yield "chern-integration", [check("chern-integration", res, at) for r, at in zip(reports, ats)
                                for res in (r.abs_error, r.proportionality_residual)]

    # commutative oracle
    grid = build_quadrature(64, 128)
    yield "s2-oracle", [
        check("s2-oracle", abs(chern_number_commutative(k, t, grid) - (-k if t else k)),
              "k=%d%s" % (k, " transpose" if t else ""))
        for k, t in ((1, False), (1, True), (2, False))
    ] + [check("s2-oracle", abs(volume_check(grid) - 1.0), "volume")]

    # commutative limit: gamma_pm(N) at every N >= 4, the computed c1 on the ladder;
    # generated as worst reduces them, so max_n costs O(1) records
    yield "commutative-limit", chain(
        (check("commutative-limit", N * abs(gamma_formula(N, s) - s), "N=%d sign=%+d" % (N, s))
         for N in range(4, max_n + 1) for s in (1, -1)),
        (check("commutative-limit", r.N * abs(r.c1_computed - s), at)
         for r, s, at in zip(reports, signs, ats) if r.N >= 4))


# the detail of a passing suite whose residuals are not printed
PASS_DETAILS = {"linalg-core": "trace cyclicity, kron associativity",
                "commutative-limit": "gamma deviation bound 2/N"}


def cmd_verify(args):
    if args.max_N < 2:
        raise UsageError("--max-N must be >= 2")
    _check_memory("--max-N %d" % args.max_N, args.max_N * REPORT_BYTES_PER_N)
    failures = 0
    for name, records in _verify_suites(args.max_N):
        record = worst(records)
        failures += not record.passed
        detail = "max residual %.3e" % record.residual
        detail = PASS_DETAILS.get(name, detail) if record.passed else detail + " at " + record.at
        print("%-18s %s  (%s)" % (name, "PASS" if record.passed else "FAIL", detail))
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
