"""Spans and counts at the boundaries of the package's public functions.

The tracer replaces each traced function at every module attribute that is
bound to it, so callers that imported the name (`from .core import ...`)
reach the wrapper as well as callers that go through the module. Nothing
under src/ changes. Spans and counts are recorded only while an operation is
open, so set-up and output checks never show in them.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager

# layer -> public functions timed as spans named "<layer>.<function>"
TIMED = {
    "formats": ("parse_instance", "format_instance", "parse_clustering", "format_clustering"),
    "kernel": ("lossy_kernelize", "lift_solution", "save_context", "load_context"),
    "dimreduce": ("reduce_dimension", "greedy_partition"),
    "core": ("extract_full_blocks", "clustering_cost", "truncated_cost"),
    "exact_large": ("solve_large",),
    "assign": ("assign_to_medians", "min_cost_flow"),
    "oracle": ("brute_force_opt", "best_equal_partition"),
}


def _partition_count(inst) -> int:
    s = inst.n // inst.k
    return math.factorial(inst.n) // (math.factorial(s) ** inst.k * math.factorial(inst.k))


def _flow_counts(args, kwargs, result) -> dict:
    net = args[0] if args else kwargs["net"]
    volume = args[1] if len(args) > 1 else kwargs["volume"]
    return {"assign.flow_nodes": net.num_nodes, "assign.flow_arcs": len(net.arcs),
            "assign.flow_volume": volume}


def _kernel_counts(args, kwargs, result) -> dict:
    kern = result[0]
    return {"kernel.kernel_points": kern.n, "kernel.kernel_clusters": kern.k,
            "kernel.kernel_dim": kern.dim}


def _brute_counts(args, kwargs, result) -> dict:
    inst = args[0] if args else kwargs["inst"]
    return {"oracle.partition_count": _partition_count(inst)}


# span name -> counts read off the arguments and result of that call
COUNTS = {
    "kernel.lossy_kernelize": _kernel_counts,
    "dimreduce.greedy_partition": lambda a, kw, r: {"dimreduce.parts": len(r)},
    "core.extract_full_blocks": lambda a, kw, r: {"core.blocks_removed": len(r[0])},
    "assign.min_cost_flow": _flow_counts,
    "oracle.brute_force_opt": _brute_counts,
}


class Tracer:
    """Per-operation span times and counts, plus the raw spans for the trace file."""

    def __init__(self):
        self.ops: list[dict[str, float]] = []  # per operation: metric name -> sum
        self.spans: list[dict] = []
        self._current: dict[str, float] | None = None
        self._stack: list[int] = []
        self._cells: list[tuple[str, list[int]]] = []  # call-site counters
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def operation(self):
        self._current = {}
        for _, cell in self._cells:
            cell[0] = 0
        try:
            yield
        finally:
            for name, cell in self._cells:
                if cell[0]:
                    self.add(name, cell[0])
            self.ops.append(self._current)
            self._current = None
            self._stack.clear()

    def add(self, name: str, value: float) -> None:
        if self._current is not None:
            self._current[name] = self._current.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        if self._current is None:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"op": len(self.ops), "id": sid, "parent": parent, "name": name,
                               "start_ms": (start - self._t0) * 1e3,
                               "end_ms": (end - self._t0) * 1e3})
            self.add(name + "_ms", (end - start) * 1e3)

    # -- installation ------------------------------------------------------

    def _timed(self, name: str, fn):
        counts = COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if self._current is None:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counts is not None:
                for key, value in counts(args, kwargs, result).items():
                    self.add(key, value)
            return result

        return wrapper

    def _counted(self, name: str, fn, count=None):
        # a plain cell, flushed when the operation closes, keeps the cost of
        # counting calls in a hot loop (budget checks) small
        cell = [0]
        self._cells.append((name, cell))

        if count is None:
            def wrapper(*args):
                cell[0] += 1
                return fn(*args)
        else:
            def wrapper(*args, **kwargs):
                cell[0] += count(args, kwargs)
                return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every function in TIMED wherever an eqclus module binds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "eqclus" or key.startswith("eqclus."))]
        for layer, names in TIMED.items():
            home = sys.modules[f"eqclus.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._timed(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        # counts that belong to one call site, not to the function called
        dimreduce = sys.modules["eqclus.dimreduce"]
        dimreduce.distance_leq_budget = self._counted(
            "dimreduce.budget_checks", dimreduce.distance_leq_budget)
        exact_large = sys.modules["eqclus.exact_large"]
        exact_large.assign_to_medians = self._counted(
            "exact_large.candidates", exact_large.assign_to_medians,
            lambda a, kw: len(a[1] if len(a) > 1 else kw["medians"]))

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans, then one record of summed times and counts per operation (JSON Lines)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for i, totals in enumerate(self.ops):
                fh.write(json.dumps({"op": i, "totals": totals}) + "\n")
