"""Span tracer for the benchmark's traced run.

It wraps module-level functions of the package from outside: each call
becomes a span (name, layer, start, end, parent, op id) held in memory, and
a few hot helpers only bump a counter. Nothing under ``src/`` knows about
it. Spans are written once, when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

LAYERS = ("cli", "inference", "search", "fitting", "kemeny_lp", "model", "kendall")

# (module, attribute) -> (span name, layer). The attribute is patched in the
# module whose globals the caller resolves it from, e.g. search imports
# fit_given_order by name, so search.fit_given_order is the bound-free
# conditional fit while fitting.fit_given_order is untouched.
SPANS = {
    ("cli", "ingest"): ("cli.ingest", "cli"),
    ("cli", "_dump_json"): ("cli.write", "cli"),
    ("inference", "fit_method"): ("inference.fit_method", "inference"),
    ("inference", "bootstrap"): ("inference.bootstrap", "inference"),
    ("inference", "_resample"): ("inference.resample", "inference"),
    ("inference", "_bootstrap_replicate"): ("inference.replicate", "inference"),
    ("inference", "compute_stats"): ("model.compute_stats", "model"),
    ("inference", "astar"): ("search.astar", "search"),
    ("inference", "greedy"): ("search.greedy", "search"),
    ("inference", "greedy_local"): ("search.greedy_local", "search"),
    ("inference", "fv"): ("search.fv", "search"),
    ("search", "_fit_p_core"): ("fitting.p_bound", "fitting"),
    ("search", "fit_given_order"): ("fitting.order_fit", "fitting"),
    ("fitting", "fit_theta"): ("fitting.theta", "fitting"),
    ("search", "lp_free_cost"): ("kemeny_lp.lp", "kemeny_lp"),
    ("kemeny_lp", "solve_dense_lp"): ("kemeny_lp.simplex", "kemeny_lp"),
    ("kendall", "average_ranks"): ("kendall.average_ranks", "kendall"),
    ("kendall", "adjacent_neighbors"): ("kendall.adjacent_neighbors", "kendall"),
}

# Called about ten times per theta solve: a span each would cost more than
# the call, so these only count.
COUNTS = {
    ("fitting", "_expected_distance_total"): "fitting.theta.slope_evals",
}

ROOT = ("cli.main", "cli")


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent, op]
        self.counts: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.replicate_ok = 0
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter_ns(), 0, parent, self._op])
        self._stack.append(index)
        return index

    def _exit(self, index: int):
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def _span(self, fn, name, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if name == "inference.replicate" and result[2] is None:
                self.replicate_ok += 1
            return result
        return wrapper

    def _counter(self, fn, name):
        per_op = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            per_op[self._op] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, modules: dict):
        for (mod, attr), (name, layer) in SPANS.items():
            self._patch(modules[mod], attr, self._span(getattr(modules[mod], attr), name, layer))
        for (mod, attr), name in COUNTS.items():
            self._patch(modules[mod], attr, self._counter(getattr(modules[mod], attr), name))

    def _patch(self, module, attr, wrapper):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def run_op(self, fn, *args):
        """Run one op under a root span and return its result."""
        self._op += 1
        index = self._enter(*ROOT)
        try:
            return fn(*args)
        finally:
            self._exit(index)

    # ------------------------------------------------------------------
    # Derived numbers

    def self_times(self) -> list[int]:
        """Self time of every span: its duration less its children's."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def op_summary(self):
        """Per op: root wall ns and self ns per layer (integers, so the
        layer self times of an op sum to its wall time exactly)."""
        own = self.self_times()
        ops: dict[int, dict] = {}
        for (name, layer, start, end, parent, op), self_ns in zip(self.spans, own):
            entry = ops.setdefault(op, {"wall_ns": 0, "self_ns": dict.fromkeys(LAYERS, 0)})
            entry["self_ns"][layer] += self_ns
            if parent < 0:
                entry["wall_ns"] += end - start
        return ops

    def write(self, path, op_labels: list[str]):
        """Write spans and counts once, gzip-compressed JSON."""
        doc = {
            "fields": ["name", "layer", "start_ns", "end_ns", "parent", "op"],
            "ops": op_labels,
            "spans": self.spans,
            "counts": {name: dict(per_op) for name, per_op in self.counts.items()},
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
