"""One benchmark process. ``run.py`` starts it with the BLAS thread count set
in its environment and reads the JSON object it prints as its last line.

    worker.py --workload NAME --seed N --t0 T --window S [--traced-window S]
              [--spans PATH]
    worker.py --fuzzy-ladder --t0 T
    worker.py --oracle-ladder K --t0 T

``--t0`` is the parent's ``time.perf_counter()`` just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so ``setup_s`` runs from
process start through imports, input construction and the first (cold) op.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FUZZY_LADDER = (32, 128, 256, 512)
FUZZY_WARMUP = 128
ORACLE_GRID = (64, 128)
MAX_FAILURE_MESSAGES = 5


def load_program():
    """Import every fuzzychern layer from this checkout's src/."""
    sys.path.insert(0, str(SRC))
    fc = SimpleNamespace(**{
        layer: importlib.import_module("%s.%s" % (spans.PACKAGE, layer)) for layer in spans.LAYERS
    })
    where = Path(fc.chern.__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise SystemExit("fuzzychern was imported from %s, not from %s" % (where, SRC))
    return fc


def provenance():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name", "unknown"), blas.get("version", "unknown")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_MESSAGES:
                self.failures.append(problem)


def timed_op(wl, run, tally):
    """Run one op; return (seconds, end time, correct). Checking is not timed."""
    inp = wl.next_input()
    start = time.perf_counter()
    try:
        out = run(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        end = time.perf_counter()
        problem = "%s: %s" % (type(exc).__name__, exc)
    else:
        end = time.perf_counter()
        problem = wl.check(inp, out)
    tally.record(problem)
    return end - start, end, problem is None


def window(wl, run, seconds, tally, tracer=None):
    """Closed loop, one op at a time, until ``seconds`` have passed.

    Returns the latencies of correct ops and the window's length."""
    latencies = []
    start = end = time.perf_counter()
    while end - start < seconds:
        if tracer is not None:
            tracer.op += 1
        latency, end, ok = timed_op(wl, run, tally)
        if ok:
            latencies.append(latency)
    return latencies, end - start


def run_workload(fc, args):
    tally = Tally()
    tracer = spans.Tracer() if args.traced_window else None
    installed = tracer.install() if tracer else []
    wl = workloads.WORKLOADS[args.workload](fc, args.seed)
    run = tracer.wrap(spans.OP_SPAN, wl.run) if tracer else wl.run
    if tracer:
        tracer.op = 0
    _, end, _ = timed_op(wl, run, tally)
    result = {"setup_s": end - args.t0}
    if tracer:
        tracer.uninstall()
    result["latencies"], result["window_s"] = window(wl, wl.run, args.window, tally)
    if tracer:
        tracer.install()
        result["traced_latencies"], _ = window(wl, run, args.traced_window, tally, tracer)
        tracer.uninstall()
        result.update(tracer.summary(), installed=installed)
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = peak_rss_mb()
    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    return result


def fuzzy_ladder(fc):
    """One ``report_for(N, +1)`` per N after one untimed warm-up op; seconds by N."""
    tally = Tally()

    def op(N):
        start = time.perf_counter()
        report = fc.chern.report_for(N, 1)
        seconds = time.perf_counter() - start
        tally.record(workloads.check_charge(N, 1, report.c1_computed,
                                            report.proportionality_residual))
        return seconds

    op(FUZZY_WARMUP)  # starts the BLAS threads
    seconds = {str(N): op(N) for N in FUZZY_LADDER}
    return {"seconds": seconds, "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures}


def oracle_ladder(fc, k):
    """One ``chern_number_commutative(k)`` in a fresh process, so peak RSS is k's own."""
    tally = Tally()
    grid = fc.sphere_oracle.build_quadrature(*ORACLE_GRID)
    start = time.perf_counter()
    c1 = fc.sphere_oracle.chern_number_commutative(k, False, grid)
    seconds = time.perf_counter() - start
    problem = None
    if not abs(c1 - k) <= workloads.ORACLE_TOL:
        problem = "oracle k=%d: c1 = %.12g" % (k, c1)
    tally.record(problem)
    return {"seconds": seconds, "peak_rss_mb": peak_rss_mb(), "attempted": tally.attempted,
            "failed": tally.failed, "failures": tally.failures}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--window", type=float, default=0.0)
    parser.add_argument("--traced-window", type=float, default=0.0)
    parser.add_argument("--fuzzy-ladder", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--oracle-ladder", type=int, default=0)
    args = parser.parse_args(argv)
    if not (args.workload or args.fuzzy_ladder or args.oracle_ladder):
        parser.error("give --workload, --fuzzy-ladder or --oracle-ladder")
    fc = load_program()
    if args.fuzzy_ladder:
        result = fuzzy_ladder(fc)
    elif args.oracle_ladder:
        result = oracle_ladder(fc, args.oracle_ladder)
    else:
        result = run_workload(fc, args)
    result["provenance"] = provenance()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
