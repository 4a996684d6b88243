"""Spans and counters around rll's public functions, installed from outside.

A wrapper replaces the function in every rll.* module namespace that binds
it, so calls through `from .x import f` and calls inside the defining module
are both seen.  Timed functions record a span (name, start, end, parent span,
row id) in memory; hot functions only count calls, because timing each of
their calls would distort the trace.  Four sizes are read off results.
"""

from __future__ import annotations

import sys
import time

# every call of these is timed as a span
SPANS = (
    "cli.main",
    "corpus.run_suite",
    "expr.parse",
    "expr.fl_closure",
    "automaton.default_coloring",
    "semantics.member",
    "semantics.build_eval_game",
    "semantics.solve_zielonka",
    "decide.decide",
    "decide.saturate",
    "proof.check_local",
    "proof.build_trace_automaton",
    "proof.check_progress",
    "proof.accepts_lasso",
    "proof.check",
    "proof.parse_proof",
    "proof.serialize_proof",
)
COUNTS = ("expr.canonical", "expr.subformula_leq", "expr.expr_sort_key")
# size metric -> (span whose result it measures, attribute whose length it is);
# totals are kept per row so that two passes can be compared row by row
SIZES = {
    "decide.proof_nodes": ("decide.saturate", "order"),
    "proof.trace_states": ("proof.build_trace_automaton", "states"),
    "semantics.game_positions": ("semantics.build_eval_game", "positions"),
    "expr.closure_members": ("expr.fl_closure", "members"),
}


def _rll_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "rll" or name.startswith("rll."))]


def _rebind(original, replacement):
    for module in _rll_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Holds the spans, counts and sizes of one traced pass."""

    def __init__(self):
        self.spans = []  # (name index, start, end, parent index or -1, row)
        self.stack = [-1]
        self.counts = [0] * len(COUNTS)
        self.sizes = {}  # row -> {size metric: total}
        self.row = None
        self.missing = []

    def install(self):
        """Wrap every listed function that rll currently defines."""
        size_of = {span: (metric, attr) for metric, (span, attr) in SIZES.items()}
        for i, name in enumerate(SPANS):
            f = self._lookup(name)
            if f is not None:
                _rebind(f, self._span_wrapper(f, i, size_of.get(name)))
        for i, name in enumerate(COUNTS):
            f = self._lookup(name)
            if f is not None:
                _rebind(f, self._count_wrapper(f, i))

    def _lookup(self, name):
        module, _, func = name.partition(".")
        f = getattr(sys.modules.get("rll." + module), func, None)
        if f is None:
            self.missing.append(name)
        return f

    def _span_wrapper(self, f, index, size):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            start = clock()
            try:
                result = f(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, tracer.row)
            if size is not None:
                items = getattr(result, size[1], None)
                if items is not None:
                    totals = tracer.sizes.setdefault(tracer.row, {})
                    totals[size[0]] = totals.get(size[0], 0) + len(items)
            return result

        return wrapper

    def _count_wrapper(self, f, index):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[index] += 1
            return f(*args, **kwargs)

        return wrapper

    def summary(self):
        """Per-span calls and self time (duration minus the time covered by
        child spans), the call counts, the size totals, and the time covered
        by root spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for index, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(SPANS)
        self_s = [0.0] * len(SPANS)
        rooted = 0.0
        for k, (index, start, end, parent, _) in enumerate(spans):
            calls[index] += 1
            self_s[index] += end - start - child[k]
            if parent < 0:
                rooted += end - start
        out = {}
        for i, name in enumerate(SPANS):
            out[name + ".calls"] = calls[i]
            out[name + ".self_s"] = self_s[i]
        for i, name in enumerate(COUNTS):
            out[name + ".calls"] = self.counts[i]
        for metric in SIZES:
            out[metric] = sum(t.get(metric, 0) for t in self.sizes.values())
        return out, rooted

    def span_records(self):
        return [
            {"name": SPANS[index], "start": start, "end": end, "parent": parent, "row": row}
            for index, start, end, parent, row in self.spans
        ]
