"""Command-line interface: single reports, sweeps, the classical oracle,
and the full invariant suite.

Exit codes: 0 success, 1 invariant/integrity failure or a stdout closed
before the output was written (as in ``fuzzychern verify | head -1``), 2
usage error.
"""

import argparse
import json
import os
import random
import sys
from itertools import chain

import numpy as np

from .bundles import PAULI, build_fuzzy_projector, dq, projector_coefficients, sigma_dot_x
from .calculus import EPS_ROWS, d0, d1, derive
from .chern import REPORT_BYTES_PER_N, gamma_formula, reports_for, sweep
from .invariants import InvariantError, check, worst
from .linalg import Banded, commutator, frobenius_norm, kron, max_abs, normalized_trace
from .sphere_oracle import (MAX_TENSOR_POWER, NODE_BYTES, build_quadrature,
                            chern_number_commutative, volume_check)
from .su2 import FuzzyCoordinates, SpinLabel, fuzzy_coordinates

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
    _emit(render_reports(reports_for([args.N], signs), args.format), args.out)
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


def _ladder_suites(max_n):
    """The records of the linalg-core, su2-repr, diff-calculus and covariance
    suites, each taken per block of one banded ladder of N = 2..8 and max_n,
    stacked as reports_for stacks them, so max_n costs O(max_n) memory. Only
    the records outlive the call."""
    spins = [SpinLabel(twice_j) for twice_j in list(range(1, 8)) + [max_n - 1]]
    coords = fuzzy_coordinates(*spins)
    sizes, kap, xs = coords.sizes, coords.kappa, [coords.X1, coords.X2, coords.X3]
    ats, one = ["N=%d" % N for N in sizes.tolist()], Banded.from_diagonals(coords.N, {0: 1.0})
    # seeded stdlib bits, which import numpy has loaded, where numpy.random costs 6 MB
    gen = random.Random(7)

    def rand(n):
        """n complex numbers, real and imaginary parts uniform on [-1, 1) at 53 bits."""
        z = (np.frombuffer(gen.randbytes(16 * n), "<u8") >> 11) * 2.0**-52 - 1.0
        return z[:n] + 1j * z[n:]

    def records(stage, residuals, scale=1.0):
        return [check(stage, r, at) for rs in residuals
                for r, at in zip((rs / scale).tolist(), ats)]

    # linalg: traces of products of block-diagonal operands, the coordinates with
    # random rows, and kron of X_3 with small dense factors b and c, each block
    # relative to its own size
    a, b = rand(coords.N) * xs[0], rand(coords.N) * xs[1]
    tr_ab = normalized_trace(a @ b, sizes)
    small_b, small_c = rand(4).reshape(2, 2), rand(4).reshape(2, 2)
    abc = kron(kron(xs[2], small_b), small_c)
    kron_norm = frobenius_norm(abc, 4 * sizes)
    linalg = (records("linalg-trace", [abs(tr_ab - normalized_trace(b @ a, sizes)) / abs(tr_ab)])
              + records("linalg-kron", [frobenius_norm(abc - kron(xs[2], np.kron(small_b, small_c)),
                                                       4 * sizes) / kron_norm]))
    del a, b, abc  # the operands are not kept alive while the later checks run

    # su2 / coordinates, and the covariance max_b |[p, L_b]| / (N/2) of the
    # projector p = alpha + beta sigma.X on them, L_b = 1 (x) S_b + X_b / kappa (x) 1:
    # [p, L_b] = beta [sigma.X, L_b], and |beta| is the same on both sign branches
    residuals = [max_abs(commutator(xs[a - 1], xs[b - 1]) - 1j * kap * s * xs[c - 1], sizes)
                 for a, b, c, s in EPS_ROWS] + [abs(normalized_trace(x, sizes)) for x in xs]
    residuals.append(max_abs(xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2] - one, sizes))
    q = sigma_dot_x(coords)
    beta = abs(projector_coefficients(np.array([s.kappa for s in spins]), 1)[1])
    commuted = [beta * max_abs(commutator(q, kron(one, s / 2) + kron(x / kap, np.eye(2))),
                               2 * sizes) for s, x in zip(PAULI, xs)]

    # calculus on the report's own operators: derive, d0 and d1 act on the module
    # C^N (x) C^2 through the coordinates X_a (x) 1 with kappa per module row.
    # e_b(Q) = dQ_b, d(dQ) = 0, and e_b(p p) = e_b(p) p + p e_b(p) for each sign's
    # p, one b at a time, which keeps the largest temporaries to one component.
    # Each residual is divided by N/2: e_b = (1/kappa) ad X_b amplifies roundoff by about N/2
    module = FuzzyCoordinates(coords.spins, kap.repeat(2), *(kron(x, np.eye(2)) for x in xs))
    dq_form = dq(coords)
    calculus = [np.maximum.reduce([max_abs(c, 2 * sizes) for c in form.components])
                for form in (d0(module, q) - dq_form, d1(module, dq_form))]
    del dq_form  # nor is dQ, while the Leibniz checks run
    for sign in (1, -1):
        p = build_fuzzy_projector(coords, sign, sigma_x=q).realization
        pp = p @ p
        for b in (1, 2, 3):
            e = derive(module, b, p)
            calculus.append(max_abs(derive(module, b, pp) - (e @ p + p @ e), 2 * sizes))
    return {"linalg-core": linalg, "su2-repr": records("su2-repr", residuals),
            "diff-calculus": records("diff-calculus", calculus, sizes / 2),
            "covariance": records("covariance", commuted, sizes / 2)}


def _verify_suites(max_n):
    """Yield (suite_name, check records) for every invariant suite."""
    suites = _ladder_suites(max_n)
    yield "linalg-core", suites["linalg-core"]
    yield "su2-repr", suites["su2-repr"]
    yield "diff-calculus", suites["diff-calculus"]

    # projectors (idempotency / self-adjointness / rank component), fuzzy
    # charges and their commutative limit, from one report per (N, sign) on
    # the ladder
    reports = sweep(_verify_ladder(max_n))
    signs = [1 if r.sign == "plus" else -1 for r in reports]
    ats = ["N=%d sign=%+d" % (r.N, s) for r, s in zip(reports, signs)]
    yield "bundles", [check("projector", res, at) for r, s, at in zip(reports, signs, ats)
                      for res in (r.projector_residual, abs(r.ch0 - (1.0 + s / r.N)))]
    yield "covariance", suites["covariance"]
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
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: point stdout at os.devnull, so the flush at exit
        # does not raise again (the recipe of Python's signal documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvariantError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
