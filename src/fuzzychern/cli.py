"""Command-line interface: single reports, sweeps, the classical oracle,
and the full invariant suite.

Exit codes: 0 success, 1 invariant/integrity failure, 2 usage error.
"""

import argparse
import json
import sys

import numpy as np

from .bundles import build_fuzzy_projector, projector_coefficients, projector_matrix
from .calculus import CalculusContext, d0, d1, derive, scalar_form, wedge
from .chern import gamma_formula, report_for, sweep
from .linalg import commutator, frobenius_norm, kron, max_abs, normalized_trace
from .sphere_oracle import (
    build_quadrature,
    chern_number_commutative,
    curvature_density,
    volume_check,
)
from .su2 import SpinLabel, fuzzy_coordinates

REPORT_COLUMNS = ("N", "sign", "ch0", "c1_computed", "gamma_formula", "abs_error", "residual")


def _fmt(x):
    if isinstance(x, float):
        return "%.15g" % x
    return str(x)


def _report_row(r):
    return {
        "N": r.N,
        "sign": r.sign,
        "ch0": r.ch0,
        "c1_computed": r.c1_computed,
        "gamma_formula": r.gamma_formula,
        "abs_error": r.abs_error,
        "residual": r.proportionality_residual,
    }


def render_reports(reports, fmt):
    rows = [_report_row(r) for r in reports]
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
    return "\n".join(lines) + "\n"


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError("cannot write %s: %s" % (out_path, exc.strerror or exc))
    else:
        sys.stdout.write(text)


def cmd_fuzzy(args):
    if args.N < 2:
        raise UsageError("--N must be >= 2")
    signs = {"plus": [1], "minus": [-1], "both": [1, -1]}[args.sign]
    reports = [report_for(args.N, s) for s in signs]
    _emit(render_reports(reports, args.format), args.out)
    return 0


def cmd_sweep(args):
    if args.to < args.frm:
        raise UsageError("empty N range")
    if args.frm < 2:
        raise UsageError("--from must be >= 2")
    reports = sweep(range(args.frm, args.to + 1))
    _emit(render_reports(reports, args.format), args.out)
    return 0


def cmd_commutative(args):
    if not 1 <= args.k <= 12:
        raise UsageError("--k must be in 1..12")
    try:
        n_polar, n_azimuthal = (int(v) for v in args.grid.split("x"))
    except ValueError:
        raise UsageError("--grid must look like 64x128")
    try:
        grid = build_quadrature(n_polar, n_azimuthal)
    except ValueError as exc:
        raise UsageError("--grid %s: %s" % (args.grid, exc))
    c1 = chern_number_commutative(args.k, args.transpose, grid)
    vol = volume_check(grid)
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


def _verify_suites(max_n, kappa_perturbation=0.0):
    """Yield (suite_name, passed, detail) for every invariant suite."""
    rng = np.random.default_rng(7)

    def rand(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    # linalg
    a, b = rand(8), rand(8)
    ok = abs(np.trace(a @ b) - np.trace(b @ a)) <= 1e-12 * abs(np.trace(a @ b))
    c = rand(3)
    ok = ok and frobenius_norm(
        kron(kron(a, b), c) - kron(a, kron(b, c))
    ) <= 1e-14 * frobenius_norm(kron(kron(a, b), c))
    yield "linalg-core", ok, "trace cyclicity, kron associativity"

    # su2 / coordinates
    worst = 0.0
    for twice_j in list(range(1, 8)) + [max_n - 1]:
        coords = fuzzy_coordinates(SpinLabel(twice_j))
        kap = coords.kappa
        xs = [coords.X1, coords.X2, coords.X3]
        pairs = {(0, 1): (2, 1), (1, 2): (0, 1), (0, 2): (1, -1)}
        for (p, q), (r, s) in pairs.items():
            worst = max(worst, np.max(np.abs(
                commutator(xs[p], xs[q]) - 1j * kap * s * xs[r])))
        worst = max(worst, np.max(np.abs(
            xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2] - np.eye(coords.N))))
        for x in xs:
            worst = max(worst, abs(normalized_trace(x)))
    yield "su2-repr", worst <= 1e-12, "max residual %.3e" % worst

    # calculus
    worst = 0.0
    for N in (2, 3, 4, 8):
        coords = fuzzy_coordinates(SpinLabel.from_dimension(N))
        ctx = CalculusContext(coords)
        for _ in range(5):
            f = rand(N)
            worst = max(worst, d1(ctx, d0(ctx, f)).max_entry() / frobenius_norm(f))
            g = rand(N)
            leib = d0(ctx, f @ g) - (
                wedge(d0(ctx, f), scalar_form(g)) + wedge(scalar_form(f), d0(ctx, g))
            )
            worst = max(worst, leib.max_entry())
            for (p, q), (r, s) in {(1, 2): (3, 1), (2, 3): (1, 1), (1, 3): (2, -1)}.items():
                br = derive(ctx, p, derive(ctx, q, f)) - derive(ctx, q, derive(ctx, p, f)) \
                    - 1j * s * derive(ctx, r, f)
                worst = max(worst, np.max(np.abs(br)))
    yield "diff-calculus", worst <= 1e-11, "max residual %.3e" % worst

    # projectors (idempotency / self-adjointness / rank component)
    worst = 0.0
    for N in range(2, max_n + 1):
        coords = fuzzy_coordinates(SpinLabel.from_dimension(N))
        for sign in (1, -1):
            if kappa_perturbation:
                # negative-control hook: coefficients from a wrong kappa
                kap = coords.kappa * (1.0 + kappa_perturbation)
                p = projector_matrix(coords, *projector_coefficients(kap, sign))
                worst = max(worst, max_abs(p @ p - p))
                continue
            proj = build_fuzzy_projector(coords, sign)
            worst = max(worst, proj.idempotency_residual(),
                        proj.selfadjointness_residual(),
                        abs(proj.ch0().real - (1.0 + sign / N)))
    yield "bundles", worst <= 1e-12, "max residual %.3e" % worst

    # fuzzy charges
    worst = 0.0
    for N in range(2, max_n + 1):
        for sign in (1, -1):
            r = report_for(N, sign)
            worst = max(worst, r.abs_error, r.proportionality_residual)
    yield "chern-integration", worst <= 1e-9, "max residual %.3e" % worst

    # commutative oracle
    grid = build_quadrature(64, 128)
    worst = max(
        abs(chern_number_commutative(1, False, grid) - 1.0),
        abs(chern_number_commutative(1, True, grid) + 1.0),
        abs(chern_number_commutative(2, False, grid) - 2.0),
        abs(volume_check(grid) - 1.0),
    )
    yield "s2-oracle", worst <= 1e-8, "max residual %.3e" % worst

    # commutative limit
    ok = all(
        abs(gamma_formula(N, s) - (1.0 if s == "plus" else -1.0)) <= 2.0 / N
        for N in range(4, max_n + 1) for s in ("plus", "minus")
    )
    yield "commutative-limit", ok, "gamma deviation bound 2/N"


def cmd_verify(args):
    if args.max_N < 2:
        raise UsageError("--max-N must be >= 2")
    failures = 0
    for name, passed, detail in _verify_suites(args.max_N, args.perturb_kappa):
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
    p.add_argument("--perturb-kappa", dest="perturb_kappa", type=float, default=0.0,
                   help=argparse.SUPPRESS)  # negative-control test hook
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


if __name__ == "__main__":
    sys.exit(main())
