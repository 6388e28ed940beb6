"""Spans around calls into fuzzychern's modules, installed from outside.

The package binds names with ``from .x import y``, so a function lives under
several module attributes (``calculus.d0`` is also ``bundles.d0``,
``chern.d0`` and ``cli.d0``). ``Tracer.install`` replaces every attribute of
every loaded ``fuzzychern`` module that is the wrapped function object, and
``uninstall`` puts the originals back. Nothing under ``src/`` is edited.

A span is ``[name index, parent span index, op, start, end, raised]``; op is
-1 during input construction, 0 for the cold op, then 1, 2, ... per op. Spans stay
in memory and are written out once, at the end of the run.
"""

import functools
import inspect
import json
import sys
import time

PACKAGE = "fuzzychern"
LAYERS = ("linalg", "su2", "calculus", "bundles", "chern", "sphere_oracle", "cli")
# private functions that get a span too, named without the underscore
PRIVATE = {"sphere_oracle": ("_projectors_and_derivatives",)}
# the benchmark's own span around each op; its self time is not a layer's
OP_SPAN = "bench.op"


def layer_functions(module, layer):
    """(attribute, function) for each public plain function defined in module."""
    out = []
    for attr, fn in vars(module).items():
        if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            continue
        if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
            continue
        # a generator does its work after the call returns; its caller's span holds it
        if inspect.isgeneratorfunction(fn):
            continue
        out.append((attr, fn))
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.op = -1  # -1 while setting up, then the number of the running op
        self._index = {}
        self._stack = []
        self._patches = []

    def wrap(self, name, fn):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        idx = self._index[name]
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [idx, stack[-1] if stack else -1, tracer.op, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every layer function at every import site; return the span names."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        installed = []
        for layer in LAYERS:
            module = sys.modules[PACKAGE + "." + layer]
            for attr, fn in layer_functions(module, layer):
                name = "%s.%s" % (layer, attr.lstrip("_"))
                wrapper = self.wrap(name, fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
                            self._patches.append((m, key, fn))
                installed.append(name)
        return installed

    def uninstall(self):
        for module, key, fn in reversed(self._patches):
            setattr(module, key, fn)
        self._patches.clear()

    def summary(self):
        """Per span name: self time, calls and errors inside timed ops (op >= 1),
        and self time during set-up (op <= 0); plus op count and op wall time."""
        child = [0.0] * len(self.spans)
        for idx, parent, op, start, end, raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = {}
        ops = set()
        op_wall = 0.0
        for i, (idx, parent, op, start, end, raised) in enumerate(self.spans):
            name = self.names[idx]
            entry = by_name.setdefault(
                name, {"self_s": 0.0, "calls": 0, "errors": 0, "setup_self_s": 0.0}
            )
            self_s = end - start - child[i]
            if op <= 0:
                entry["setup_self_s"] += self_s
                continue
            entry["self_s"] += self_s
            entry["calls"] += 1
            entry["errors"] += int(raised)
            if name == OP_SPAN:
                ops.add(op)
                op_wall += end - start
        return {"spans": by_name, "ops": len(ops), "op_wall_s": op_wall}

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name_index", "parent", "op", "start", "end", "raised"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
