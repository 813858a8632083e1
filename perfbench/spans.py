"""In-memory span tracing around the layer boundaries of odtalloc.

The tracer never edits the package: it replaces the public functions that
``odtalloc.cli`` and ``odtalloc.solver`` bind at module level, plus
``RngStream.uniforms`` and ``CostMatrix.__post_init__``, with wrappers
that record a span per call (name, start, end, parent, op) and restores
the originals on ``uninstall``.
Calls resolve these names through module globals at call time, so a
wrapped ``solver.solve_exact`` is also what ``support_is_unique`` and the
CLI's reduced path reach.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    op: int  # the benchmark op that caused it; -1 during set-up


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from synchronous calls on one thread, recorded through a
    stack, so children never overlap one another or outlast their parent.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [(span.end - span.start) - child for span, child in zip(spans, covered)]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _plan_counts(args, result) -> dict:
    plan = result[0] if isinstance(result, tuple) else result
    return {"solver.plan_entries": len(plan.entries), "solver.plans": 1}


def _matrix_counts(args, result) -> dict:
    matrix = args[0]  # the CostMatrix whose __post_init__ ran
    return {"cost.matrix_bytes": matrix.n_tasks * matrix.n_agents * 8}


# counts taken at a boundary from the call's arguments or result
_COUNTERS = {
    "rng.uniforms": lambda args, result: {"rng.draws": args[1]},
    "solver.solve_exact": _plan_counts,
    "solver.solve_entropic": _plan_counts,
    "cost.CostMatrix": _matrix_counts,
}


class Tracer:
    """Records spans and boundary counts in memory for one benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.clock(), 0.0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counts[(key, self.op)] += amount
            return result

        return traced

    def install(self) -> None:
        import odtalloc.cli
        import odtalloc.solver
        from odtalloc.cost import CostMatrix
        from odtalloc.rng import RngStream

        wrapped = {}
        for module in (odtalloc.cli, odtalloc.solver):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("odtalloc."):
                    continue
                if id(value) not in wrapped:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrapped[id(value)] = self.wrap(f"{layer}.{value.__name__}", value)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])
        # every dense cost matrix, whichever layer builds it, passes through here
        for owner, attr, name in (
            (RngStream, "uniforms", "rng.uniforms"),
            (CostMatrix, "__post_init__", "cost.CostMatrix"),
        ):
            original = vars(owner)[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


LAYER_UNITS = {
    "solver.exact_s": "s",
    "solver.unique_s": "s",
    "solver.exact_calls": "count",
    "solver.entropic_s": "s",
    "solver.plan_entries": "count",
    "rng.draws": "count",
    "rng.draw_s": "s",
    "measures.load_s": "s",
    "cli.self_s": "s",
    "cli.write_mb": "MB",
    "solver.stability_s": "s",
    "cost.build_s": "s",
    "cost.matrix_mb": "MB",
    "scenarios.generate_s": "s",
    "traced.ops_per_s": "1/s",
}
# layer times taken as the inclusive duration of these spans
_INCLUSIVE = {
    "solver.support_is_unique": "solver.unique_s",
    "solver.solve_entropic": "solver.entropic_s",
    "rng.uniforms": "rng.draw_s",
    "measures.load_tasks_csv": "measures.load_s",
    "measures.load_agents_csv": "measures.load_s",
    "solver.check_stability": "solver.stability_s",
    "cost.cost_matrix": "cost.build_s",
    "cost.reduced_cost_matrix": "cost.build_s",
    "cost.reduction_constant": "cost.build_s",
}


def layer_metrics(
    tracer: Tracer, n_ops: int, setup_reps: int, write_bytes: int, ops_per_s: float
) -> dict:
    """Per-op layer figures from the timed ops' spans and counts.

    ``solver.exact_s`` covers primary solves only; the re-solve inside
    ``support_is_unique`` counts towards ``solver.unique_s``.  Set-up spans
    (op -1) feed ``scenarios.generate_s`` alone, per set-up repetition.
    """
    spans = tracer.spans
    totals = defaultdict(float)
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        duration = span.end - span.start
        if span.op < 0:
            if span.name == "scenarios.generate":
                totals["scenarios.generate_s"] += duration
            continue
        if span.name in _INCLUSIVE:
            totals[_INCLUSIVE[span.name]] += duration
        elif span.name == "solver.solve_exact":
            totals["solver.exact_calls"] += 1
            if not has_ancestor(spans, index, "solver.support_is_unique"):
                totals["solver.exact_s"] += duration
        if span.name.startswith("cli."):
            totals["cli.self_s"] += own
    for (key, op), amount in tracer.counts.items():
        if op >= 0:
            totals[key] += amount
    metrics = {name: totals[name] / n_ops for name in LAYER_UNITS}
    metrics["solver.plan_entries"] = totals["solver.plan_entries"] / max(totals["solver.plans"], 1)
    metrics["cost.matrix_mb"] = totals["cost.matrix_bytes"] / 1e6 / n_ops
    metrics["cli.write_mb"] = write_bytes / 1e6 / n_ops
    metrics["scenarios.generate_s"] = totals["scenarios.generate_s"] / setup_reps
    metrics["traced.ops_per_s"] = ops_per_s
    return metrics
