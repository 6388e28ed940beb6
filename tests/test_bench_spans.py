"""Every layer span the benchmark reports still names a function it wraps.

A renamed or removed function would otherwise show up only in the traced
benchmark run, as ``trace.missing_spans``.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_METRICS = (".self_s", ".calls", ".setup_s")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def test_every_benchmark_span_resolves_to_a_wrapped_function():
    spans = load_spans()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = {m["name"].rsplit(".", 1)[0] for m in declared if m["name"].endswith(SPAN_METRICS)}
    wrapped = set()
    for layer in spans.LAYERS:
        module = importlib.import_module("%s.%s" % (spans.PACKAGE, layer))
        wrapped.update("%s.%s" % (layer, attr.lstrip("_"))
                       for attr, _ in spans.layer_functions(module, layer))
    assert len(named) == 19
    assert sorted(named - wrapped) == []
