"""Span and counter tracing of rowfinite from the outside.

``Tracer.install`` replaces public functions and methods of the imported
rowfinite modules with timing wrappers, including the names ``rowfinite.cli``
imports directly; ``uninstall`` puts the originals back.  A wrapped call is a
frame on a stack: its duration counts towards its metric key (outermost call
only, so nested or recursive calls are not counted twice) and towards its
parent's child time, and its self time (duration minus child time) towards
its layer, the first component of the key.

Calls at layer boundaries are recorded as spans ``(name, start, end, parent,
op)`` in memory and written out by ``dump``.  Leaf calls that run tens of
thousands of times per pass (row arithmetic, expression evaluation, row
production) are aggregated into counters and times only, so the trace of a
pass stays small.  Wrapper overhead is charged to the caller's self time; its
total is reported as ``trace.overhead_s``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from bisect import bisect_left
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

# (module, owner attribute or None, function attribute, metric key, span?)
_TARGETS = (
    ("rows", "FiniteRow", "axpy", "rows.axpy", False),
    ("rows", "FiniteRow", "scale", "rows.scale", False),
    ("rows", "FiniteRow", "dot_prefix", "rows.dot_prefix", False),
    ("sources", "CoeffExpr", "evaluate", "sources.evaluate", False),
    ("sources", "RowSource", "row_at", "sources.row_at", False),
    ("sources", None, "load_equation", "sources.load", True),
    ("sources", None, "build_family", "sources.load", True),
    ("sources", None, "parse_coeff_expr", "sources.load", True),
    ("cli", None, "load_equation", "sources.load", True),
    ("cli", None, "build_family", "sources.load", True),
    ("elimination", None, "run", "elimination.run", True),
    ("cli", None, "run", "elimination.run", True),
    ("elimination", "EliminationState", "push_row", "elimination.push", True),
    ("elimination", "EliminationState", "reduce_with_transform", "elimination.clear", True),
    ("elimination", "EliminationState", "jordan_clear", "elimination.cross_clear", True),
    ("elimination", "EliminationState", "insert_with_permutation", "elimination.place", True),
    ("elimination", "EliminationState", "verify_left_association", "elimination.check", True),
    ("elimination", None, "check_invariants", "elimination.check", True),
    ("cli", None, "check_invariants", "elimination.check", True),
    ("solver", None, "general_solution", "solver.general", True),
    ("solver", None, "particular_solution", "solver.particular", True),
    ("solver", None, "consistency_check", "solver.consistency", True),
    ("solver", None, "homogeneous_general", "solver.homogeneous", True),
    ("solver", None, "fundamental_set", "solver.fundamental", True),
    ("hessenberg", None, "hess_spec_from_source", "hessenberg.spec", True),
    ("hessenberg", None, "general_prefix", "hessenberg.prefix", True),
    ("cli", None, "main", "cli.main", True),
)

LAYERS = ("sources", "rows", "elimination", "solver", "hessenberg", "cli")

# per-layer metrics: name -> unit, in report order
METRICS = {
    "elimination.q_nnz": "count",
    "elimination.h_nnz": "count",
    "elimination.q_share": "1",
    "elimination.pushes": "count",
    "elimination.clear.s": "s",
    "elimination.cross_clears": "count",
    "elimination.rows_cross_cleared": "count",
    "elimination.cross_clear.s": "s",
    "elimination.rows_shifted": "count",
    "elimination.zero_rows": "count",
    "elimination.place.s": "s",
    "elimination.check.s": "s",
    "rows.axpy.calls": "count",
    "rows.axpy.entries": "count",
    "rows.axpy.s": "s",
    "rows.scale.calls": "count",
    "rows.max_bits": "bits",
    "rows.dot_prefix.calls": "count",
    "rows.dot_prefix.s": "s",
    "solver.particular.s": "s",
    "solver.consistency.s": "s",
    "solver.homogeneous.s": "s",
    "solver.fundamental.s": "s",
    "sources.evaluate.calls": "count",
    "sources.evaluate.s": "s",
    "sources.row_at.calls": "count",
    "sources.row_at.s": "s",
    "sources.load.s": "s",
    "hessenberg.coeff.calls": "count",
    "hessenberg.prefix.s": "s",
    "cli.self.s": "s",
    "cli.out_bytes": "bytes",
    **{f"{layer}.self.s": "s" for layer in LAYERS if layer != "cli"},
    **{f"cmd.{command}.s": "s"
       for command in ("reduce", "solve", "fundamental", "hess", "verify")},
    "trace.overhead_s": "s",
    "raw.wall_s": "s",
}


def _nnz(row) -> int:
    return len(row.support)


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Collects spans, per-key call counts and times, per-layer self times
    and engine counters for the ops run while installed."""

    def __init__(self):
        self._patches: List[tuple] = []
        self.spans: List[Optional[tuple]] = []
        self.op = -1
        self.stack: List[list] = []
        self.active: Dict[str, int] = defaultdict(int)
        self.time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._states: list = []

    def reset(self) -> None:
        """Start a new pass; spans are kept across passes.  The hooks hold
        these containers, so they are cleared in place, never replaced."""
        for bucket in (self.stack, self.active, self.time, self.calls,
                       self.self_time, self.counts, self._states):
            bucket.clear()

    # -- hooks: counters at the same boundaries as the spans -------------------

    def _before(self, key: str) -> Optional[Callable]:
        counts = self.counts
        if key == "rows.axpy":
            def before(args):
                counts["rows.axpy.entries"] += _nnz(args[0]) + _nnz(args[-1])
            return before
        if key == "elimination.place":
            def before(args):
                state, g = args[0], args[1]
                if g.is_zero:
                    counts["elimination.zero_rows"] += 1
                elif state.mu and g.length < state.mu[-1]:
                    counts["elimination.rows_shifted"] += (
                        len(state.mu) - bisect_left(state.mu, g.length))
            return before
        return None

    def _after(self, key: str) -> Optional[Callable]:
        counts = self.counts
        if key == "elimination.cross_clear":
            def after(result):
                counts["elimination.rows_cross_cleared"] += len(result)
                return result
            return after
        if key == "elimination.run":
            def after(result):
                self._states.append(result)
                return result
            return after
        if key == "hessenberg.spec":
            def after(spec):
                coeff = spec.coeff

                def counted(n, j):
                    counts["hessenberg.coeff.calls"] += 1
                    return coeff(n, j)
                return dataclasses.replace(spec, coeff=counted)
            return after
        return None

    def _wrap(self, fn: Callable, key: str, span: bool) -> Callable:
        layer = key.split(".")[0]
        before, after = self._before(key), self._after(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack, active = tracer.stack, tracer.active
            parent = stack[-1][1] if stack else -1
            sid = -1
            if span:
                sid = len(tracer.spans)
                tracer.spans.append(None)
            outermost = not active[key]
            active[key] += 1
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[key] -= 1
                duration = end - start
                tracer.self_time[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if outermost:
                    tracer.time[key] += duration
                tracer.calls[key] += 1
                if span:
                    tracer.spans[sid] = (key, start, end, parent, tracer.op)
            return result if after is None else after(result)

        return wrapper

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap the targets in ``modules`` (rowfinite modules by layer)."""
        wrapped: Dict[int, Callable] = {}
        for module, owner, attr, key, span in _TARGETS:
            target = modules[module]
            if owner is not None:
                target = getattr(target, owner, None)
            fn = getattr(target, attr, None) if target is not None else None
            if fn is None:
                continue   # renamed or removed: its metrics read 0
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, key, span)
            self._patches.append((target, attr, fn))
            setattr(target, attr, wrapped[id(fn)])

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._patches):
            setattr(target, attr, fn)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def scan_states(self) -> None:
        """Count H and Q nonzeros and coefficient bits of every state ``run``
        returned during the last op (outside the op's timing)."""
        for state in self._states:
            self.counts["elimination.h_nnz"] += sum(map(_nnz, state.h_rows))
            self.counts["elimination.q_nnz"] += sum(map(_nnz, state.q_rows))
            bits = max((_bits(v) for row in state.h_rows + state.q_rows
                        for _, v in row.items()), default=0)
            self.counts["rows.max_bits"] = max(self.counts["rows.max_bits"], bits)
        self._states.clear()

    def pass_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass since the last ``reset``."""
        t, calls, counts = self.time, self.calls, self.counts
        q, h = counts["elimination.q_nnz"], counts["elimination.h_nnz"]
        out = {
            "elimination.q_nnz": q,
            "elimination.h_nnz": h,
            "elimination.q_share": q / (q + h) if q + h else 0.0,
            "elimination.pushes": calls["elimination.push"],
            "elimination.clear.s": t["elimination.clear"],
            "elimination.cross_clears": calls["elimination.cross_clear"],
            "elimination.rows_cross_cleared": counts["elimination.rows_cross_cleared"],
            "elimination.cross_clear.s": t["elimination.cross_clear"],
            "elimination.rows_shifted": counts["elimination.rows_shifted"],
            "elimination.zero_rows": counts["elimination.zero_rows"],
            "elimination.place.s": t["elimination.place"],
            "elimination.check.s": t["elimination.check"],
            "rows.axpy.calls": calls["rows.axpy"],
            "rows.axpy.entries": counts["rows.axpy.entries"],
            "rows.axpy.s": t["rows.axpy"],
            "rows.scale.calls": calls["rows.scale"],
            "rows.max_bits": counts["rows.max_bits"],
            "rows.dot_prefix.calls": calls["rows.dot_prefix"],
            "rows.dot_prefix.s": t["rows.dot_prefix"],
            "solver.particular.s": t["solver.particular"],
            "solver.consistency.s": t["solver.consistency"],
            "solver.homogeneous.s": t["solver.homogeneous"],
            "solver.fundamental.s": t["solver.fundamental"],
            "sources.evaluate.calls": calls["sources.evaluate"],
            "sources.evaluate.s": t["sources.evaluate"],
            "sources.row_at.calls": calls["sources.row_at"],
            "sources.row_at.s": t["sources.row_at"],
            "sources.load.s": t["sources.load"],
            "hessenberg.coeff.calls": counts["hessenberg.coeff.calls"],
            "hessenberg.prefix.s": t["hessenberg.prefix"],
            "cli.self.s": self.self_time["cli"],
        }
        for layer in LAYERS:
            if layer != "cli":
                out[f"{layer}.self.s"] = self.self_time[layer]
        return out

    def dump(self, path: str) -> None:
        """Write every span recorded so far as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, op = span
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
