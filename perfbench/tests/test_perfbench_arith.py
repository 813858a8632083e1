"""The benchmark's own arithmetic: span self time, the tail-percentile rule, speed readings, tracing."""

import pytest

from spans import Span, Tracer, has_ancestor, layer_metrics, self_times
from speed import REFERENCE_KERNEL_S, Speedometer
from stats import percentile, tail_percentile


def test_self_time_subtracts_nested_children():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("solver.support_is_unique", 1.0, 4.0, 0, 0),
        Span("rng.uniforms", 2.0, 3.0, 1, 0),
        Span("cost.cost_matrix", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert has_ancestor(spans, 2, "cli.main")
    assert not has_ancestor(spans, 3, "solver.support_is_unique")


def test_p95_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(199))) is None
    samples = list(range(200))
    assert tail_percentile(samples) == 189  # rank 190; samples 190..199 lie beyond
    assert tail_percentile(samples[::-1]) == 189
    assert tail_percentile([]) is None


def test_nearest_rank_percentile():
    assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.95) == 4.0


def test_pace_and_nearest_slowdown():
    meter = Speedometer(clock=None)
    meter.samples = [REFERENCE_KERNEL_S * s for s in (1.0, 2.0, 4.0, 1.0, 1.0)]
    meter.times = [0.0, 1.0, 2.0, 10.0, 11.0]
    assert meter.pace() == pytest.approx((1 + 0.5 + 0.25 + 1 + 1) / 5)
    assert meter.pace(since=3) == pytest.approx(1.0)
    assert meter.pace(since=5) == pytest.approx(1.0)  # none since: the last sample stands in
    assert meter.slowdown_near(1.2, count=3) == pytest.approx(2.0)  # samples at 0, 1 and 2
    assert meter.slowdown_near(9.0, count=2) == pytest.approx(1.0)  # samples at 10 and 11
    assert meter.slowdown_near(2.9, count=2) == pytest.approx(3.0)  # samples at 1 and 2
    assert meter.slowdown_near(5.0, count=99) == pytest.approx(1.0)  # every sample


def test_tracer_records_layers_and_restores_the_package(tmp_path):
    import odtalloc.cli
    import odtalloc.solver
    from odtalloc.rng import RngStream

    from odtalloc.cost import CostMatrix

    originals = (odtalloc.cli.main, odtalloc.solver.solve_exact, RngStream.uniforms,
                 CostMatrix.__post_init__)
    assert odtalloc.cli.main(
        ["gen", "--kind", "grid", "--tasks", "3", "--agents", "3", "--out", str(tmp_path)]
    ) == 0
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        code = odtalloc.cli.main(
            ["solve", "--tasks", str(tmp_path / "tasks.csv"), "--agents",
             str(tmp_path / "agents.csv"), "--out", str(tmp_path / "run")]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    assert (odtalloc.cli.main, odtalloc.solver.solve_exact, RngStream.uniforms,
            CostMatrix.__post_init__) == originals

    names = [span.name for span in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent is None
    solves = [i for i, name in enumerate(names) if name == "solver.solve_exact"]
    assert len(solves) == 2  # the primary solve and the uniqueness re-solve
    assert [has_ancestor(tracer.spans, i, "solver.support_is_unique") for i in solves] == [False, True]

    metrics = layer_metrics(tracer, n_ops=1, setup_reps=1, write_bytes=0, ops_per_s=1.0)
    assert metrics["solver.exact_calls"] == 2
    assert metrics["rng.draws"] == 9  # one uniform per cell of the 3x3 perturbation
    # the trip-cost matrix and the perturbed copy the uniqueness check solves
    assert metrics["cost.matrix_mb"] == pytest.approx(2 * 3 * 3 * 8 / 1e6)
    assert 0.0 < metrics["cli.self_s"] < tracer.spans[0].end - tracer.spans[0].start
