"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` rebinds each boundary function, wherever a ``pebbling``
module binds it, to a wrapper that records a span: name, start and end in
nanoseconds, the index of the enclosing span, and one count taken from the
call.  ``Tracer.remove`` puts the originals back.  The benchmark's own
``region`` spans (one per operation, one per input build) are the roots.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


def _nodes(args, kwargs, result):
    return result.nodes_expanded


def _configs(args, kwargs, result):
    return result.configs_checked


def _text_in(args, kwargs, result):
    return len(args[0]) if args and isinstance(args[0], str) else 0


def _text_out(args, kwargs, result):
    return len(result)


# attribute name -> (span name, count taken from the call)
BOUNDARIES = {
    "is_cover_solvable": ("solver", _nodes),
    "is_reachable": ("solver", _nodes),
    "cover_pebbling_number": ("numbers", _configs),
    "pebbling_number": ("numbers", _configs),
    "reachability_number": ("numbers", _configs),
    "reduce_to_cover_solvability": ("reductions.build", None),
    "reduce_to_number_threshold": ("reductions.build", None),
    "number_witness_config": ("reductions.build", None),
    "x4c_solve": ("reductions.x4c_solve", None),
    "verify_solution": ("core.verify", None),
    "parse_instance": ("formats.parse", _text_in),
    "parse_certificate": ("formats.parse", _text_in),
    "parse_x4c": ("formats.parse", _text_in),
    "certificate_to_movelist": ("formats.parse", None),
    "write_certificate": ("formats.write", _text_out),
    "write_instance": ("formats.write", _text_out),
}
GRAPH_SPAN = "core.graph_build"


class Tracer:
    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, count]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[4] = count(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def region(self, name: str):
        record = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def install(self) -> None:
        """Wrap every boundary in every loaded ``pebbling`` module."""
        modules = [m for k, m in sys.modules.items() if k == "pebbling" or k.startswith("pebbling.")]
        wrappers: dict[int, object] = {}
        classes: set[int] = set()
        for module in modules:
            for attr, (name, count) in BOUNDARIES.items():
                fn = module.__dict__.get(attr)
                if callable(fn) and not isinstance(fn, type):
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self._wrap(fn, name, count)
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrappers[id(fn)])
            graph = module.__dict__.get("Graph")
            if isinstance(graph, type) and "__init__" in graph.__dict__ and id(graph) not in classes:
                classes.add(id(graph))
                self._patched.append((graph, "__init__", graph.__dict__["__init__"]))
                graph.__init__ = self._wrap(graph.__dict__["__init__"], GRAPH_SPAN, None)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                handle.write(json.dumps([i, name, start, end, parent, count]) + "\n")


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from ``spans[lo:hi]``, one traced round.

    A layer's time is its self time: span time minus the time of its child
    spans.  A span inside another span of the same name (``is_reachable``
    calling ``is_cover_solvable``) is folded into the outer one for calls
    and counts.  Every metric is returned: a boundary that recorded no span
    gives 0 calls, 0 s and 0 for its ratios; ``absent_layers`` tells which
    of the layers a workload uses recorded no span.
    """
    own = range(lo, hi)
    child_ns = [0] * (hi - lo)
    for i in own:
        parent = spans[i][3]
        if parent >= lo:
            child_ns[parent - lo] += spans[i][2] - spans[i][1]

    def inside(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= lo:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    by_name: dict[str, list[int]] = {}
    for i in own:
        by_name.setdefault(spans[i][0], []).append(i)

    def self_s(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] - child_ns[i - lo] for i in by_name.get(name, ())) / 1e9

    def outer(name: str) -> list[int]:
        return [i for i in by_name.get(name, ()) if not inside(i, name)]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    calls = outer("solver")
    busy = self_s("solver")
    nodes = sum(spans[i][4] for i in calls)
    out["solver.calls"] = (len(calls), "count")
    out["solver.busy_s"] = (busy, "s")
    out["solver.per_call_us"] = (ratio(busy, len(calls)) * 1e6, "us")
    out["solver.nodes"] = (nodes, "count")
    out["solver.nodes_per_s"] = (ratio(nodes, busy), "1/s")
    out["solver.root_decided"] = (sum(1 for i in calls if spans[i][4] == 0), "count")

    sweeps = outer("numbers")
    configs = sum(spans[i][4] for i in sweeps)
    solver_calls = sum(1 for i in calls if inside(i, "numbers"))
    out["numbers.sweep_s"] = (sum(spans[i][2] - spans[i][1] for i in sweeps) / 1e9, "s")
    out["numbers.self_s"] = (self_s("numbers"), "s")
    out["numbers.configs"] = (configs, "count")
    out["numbers.solver_calls_per_config"] = (ratio(solver_calls, configs), "calls/config")

    for name, metric in (
        ("reductions.build", "reductions.build_s"),
        ("reductions.x4c_solve", "reductions.x4c_solve_s"),
        (GRAPH_SPAN, "core.graph_build_s"),
        ("core.verify", "core.verify_s"),
        ("formats.parse", "formats.parse_s"),
        ("formats.write", "formats.write_s"),
    ):
        out[metric] = (self_s(name), "s")
    spans_io = by_name.get("formats.parse", []) + by_name.get("formats.write", [])
    out["formats.bytes"] = (sum(spans[i][4] for i in spans_io), "bytes")
    return out


def absent_layers(spans: list[list], lo: int, hi: int, expected) -> list[str]:
    """The span names in ``expected`` that no span in ``spans[lo:hi]`` has."""
    seen = {spans[i][0] for i in range(lo, hi)}
    return [name for name in expected if name not in seen]
