"""fuzzychern benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) in worker processes with the BLAS
thread count set to nproc, checks every op's result, prints every metric with
its unit and the run's provenance, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The same summary is written to .bench_out/.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7  # set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples beyond it
TIME_LIMIT_S = 170  # the whole run, every worker included

# spans whose per-op self time is a per-layer metric
SELF_SPANS = (
    "calculus.d0", "calculus.derive", "calculus.wedge", "calculus.d1", "calculus.module_trace",
    "bundles.curvature", "bundles.build_fuzzy_projector",
    "chern.volume_form", "chern.extract_coefficient", "chern.chern_number",
    "su2.fuzzy_coordinates",
    "linalg.kron", "linalg.hs_inner", "linalg.commutator",
    "sphere_oracle.projectors_and_derivatives", "sphere_oracle.curvature_densities",
    "sphere_oracle.chern_number_commutative", "sphere_oracle.build_quadrature",
    "cli.main",
)
# spans whose calls per op are a per-layer metric
CALL_SPANS = (
    "calculus.d0", "calculus.derive", "calculus.wedge", "chern.volume_form",
    "bundles.build_fuzzy_projector", "linalg.kron",
)
ORACLE_LADDER = (1, 2, 3, 4, 5)


class BenchError(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


class Workers:
    """Starts worker processes one after another under one overall deadline."""

    def __init__(self, seconds_left):
        self.deadline = time.monotonic() + seconds_left

    def run(self, args, threads):
        env = dict(os.environ)
        env.update({var: str(threads) for var in BLAS_VARS})
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time limit reached before starting a worker")
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)]
        cmd += ["--t0", repr(time.perf_counter())]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("worker %s passed the time limit" % " ".join(map(str, args)))
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError("worker %s exited with %d:\n%s"
                             % (" ".join(map(str, args)), proc.returncode, proc.stderr[-2000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(value, percentile, samples beyond): the highest whole percentile p whose
    nearest-rank value leaves at least TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, 0
    p = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(p * n / 100))
    return xs[rank - 1], p, n - rank


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def src_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / spans.PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def end_to_end(args, workers, threads):
    first = [workers.run(["--workload", args.workload, "--seed", args.seed], threads)
             for _ in range(SETUP_RUNS - 1)]
    main = workers.run(["--workload", args.workload, "--seed", args.seed,
                        "--window", args.seconds], threads)
    # with no correct op, an op took at least the whole window
    lat = main["latencies"] or [main["window_s"]]
    value, p, beyond = tail(lat)
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in first + [main]), "s"),
        "ops_per_s": (len(main["latencies"]) / main["window_s"], "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = {
        "op_tail_s": "p%d, %d of %d samples beyond" % (p, beyond, len(main["latencies"])),
        "setup_s": "median of %d set-ups" % SETUP_RUNS,
    }
    extra = {"op_tail_percentile": p, "op_tail_samples_beyond": beyond,
             "op_samples": len(main["latencies"]), "setup_runs": SETUP_RUNS}
    return metrics, notes, extra, first + [main]


def per_layer(args, workers, threads):
    half = args.seconds / 2.0
    spans_path = OUT_DIR / ("spans-%s-seed%d.json" % (args.workload, args.seed))
    traced = workers.run(["--workload", args.workload, "--seed", args.seed,
                          "--window", half, "--traced-window", half,
                          "--spans", spans_path], threads)
    blas1 = workers.run(["--workload", args.workload, "--seed", args.seed,
                         "--window", half], 1)
    fuzzy = workers.run(["--fuzzy-ladder"], threads)
    oracle = {k: workers.run(["--oracle-ladder", k], threads) for k in ORACLE_LADDER}

    ops = max(traced["ops"], 1)
    stats = traced["spans"]
    empty = {"self_s": 0.0, "calls": 0, "errors": 0, "setup_self_s": 0.0}
    metrics = {}
    for name in SELF_SPANS:
        metrics[name + ".self_s"] = (stats.get(name, empty)["self_s"] / ops, "s")
    for name in CALL_SPANS:
        metrics[name + ".calls"] = (stats.get(name, empty)["calls"] / ops, "count")
    metrics["sphere_oracle.build_quadrature.setup_s"] = (
        stats.get("sphere_oracle.build_quadrature", empty)["setup_self_s"], "s")
    wall = traced["op_wall_s"] or math.inf
    accounted = 0.0
    for layer in spans.LAYERS:
        own = [s for name, s in stats.items() if name.split(".")[0] == layer]
        self_s = sum(s["self_s"] for s in own)
        accounted += self_s
        metrics[layer + ".share"] = (self_s / wall, "ratio")
        metrics[layer + ".errors"] = (sum(s["errors"] for s in own), "count")
    untraced = statistics.median(traced["latencies"] or [half])
    metrics["trace.overhead"] = (
        statistics.median(traced["traced_latencies"] or [half]) / untraced - 1.0, "ratio")
    metrics["trace.accounted_share"] = (accounted / wall, "ratio")
    missing = [name for name in SELF_SPANS + CALL_SPANS if name not in traced["installed"]]
    metrics["trace.missing_spans"] = (len(set(missing)), "count")
    metrics["blas1.op_p50_s"] = (statistics.median(blas1["latencies"] or [half]), "s")
    for N, seconds in fuzzy["seconds"].items():
        metrics["scaling.fuzzy_N%s_s" % N] = (seconds, "s")
    for k, result in oracle.items():
        metrics["scaling.oracle_k%d_s" % k] = (result["seconds"], "s")
        metrics["scaling.oracle_k%d_peak_rss_mb" % k] = (result["peak_rss_mb"], "MB")
    notes = {"trace.missing_spans": ", ".join(sorted(set(missing))) or "none"}
    extra = {"traced_ops": traced["ops"], "spans_file": str(spans_path.relative_to(ROOT)),
             "installed_spans": traced["installed"]}
    return metrics, notes, extra, [traced, blas1, fuzzy, *oracle.values()]


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="fuzzychern benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    if not (SRC / spans.PACKAGE / "__init__.py").is_file():
        print("error: no fuzzychern sources under %s" % SRC, file=sys.stderr)
        return 2

    wanted = declared_metrics(args.trace)
    threads = nproc()
    OUT_DIR.mkdir(exist_ok=True)
    workers = Workers(TIME_LIMIT_S)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes, extra, results = measure(args, workers, threads)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    absent = [name for name in wanted if name not in metrics]
    if absent:
        print("error: BENCHMARK.json names metrics this run does not make: %s"
              % ", ".join(absent), file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [msg for r in results for msg in r["failures"]]
    provenance = dict(results[0]["provenance"], git_sha=git_sha(), src_sha256=src_sha256(),
                      nproc=threads, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, **extra)
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    notes["fail_ratio"] = "%d failed of %d attempted" % (failed, attempted)

    print("workload %s  seed %d  seconds %d  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-45s %14.6g %-6s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    for msg in failures:
        print("failure: " + msg)

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                           for name in wanted}}
    record = dict(summary, provenance=provenance, failures=failures,
                  all_metrics={n: {"value": v, "unit": u} for n, (v, u) in metrics.items()})
    label = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / ("BENCH_%s.json" % label), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
