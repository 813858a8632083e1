import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from odtalloc.analysis import (
    _interp_knots,
    check_nestedness_1d,
    cross_difference,
    verify_monge,
    verify_nondegeneracy,
    verify_twist,
)
from odtalloc.cost import factors, reduced_cost_matrix, trip_cost
from odtalloc.errors import DimensionMismatch
from odtalloc.measures import DiscreteMeasure, TaskSet
from odtalloc.rng import rng_stream
from odtalloc.scenarios import ScenarioSpec, generate
from odtalloc.solver import solve_exact
from oracles import monotone_map_1d

ROOT8 = 2.0 * math.sqrt(2.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: verify_nondegeneracy(0, 10), "need dim >= 1"),
        (lambda: verify_nondegeneracy(2, 0), "samples >= 1"),
        (lambda: check_nestedness_1d(TaskSet([[0.0]], [[1.0]]), DiscreteMeasure([[0.5]]), grid=1),
         "grid must have at least 2 points"),
    ],
    ids=["nondegeneracy_dim", "nondegeneracy_samples", "nestedness_grid"],
)
def test_malformed_input_is_rejected(build, message):
    with pytest.raises(DimensionMismatch, match=message):
        build()


class TestTwist:
    def test_known_pair_ratio(self):
        # gradient difference is [2(y'-y); 2(y'-y)], norm 2*sqrt(2)*|y'-y|
        from odtalloc.cost import grad_x

        delta = grad_x([3.0], [7.0], [0.0]) - grad_x([3.0], [7.0], [1.0])
        assert_allclose(delta, [2.0, 2.0])
        assert_allclose(np.linalg.norm(delta) / 1.0, ROOT8)

    def test_ratio_is_constant(self):
        for dim in (1, 2, 3):
            report = verify_twist(dim, 1000, seed=7)
            assert report.passed
            assert abs(report.worst_case - ROOT8) <= 1e-9
            assert report.samples_checked == 1000

    def test_seeded_reproducibility(self):
        a = verify_twist(2, 50, seed=3)
        b = verify_twist(2, 50, seed=3)
        assert a.worst_case == b.worst_case

    def test_requires_samples(self):
        with pytest.raises(DimensionMismatch):
            verify_twist(2, 0)

    def test_json_shape(self):
        payload = verify_twist(1, 5, seed=1).to_json()
        assert set(payload) == {"condition", "passed", "samples", "worst_case", "witness"}
        assert payload["condition"] == "twist"


class TestNondegeneracy:
    def test_scalar_singular_value(self):
        # column [-2; -2] has norm 2*sqrt(2)
        report = verify_nondegeneracy(1, 10, seed=2)
        assert report.passed
        assert abs(report.worst_case - ROOT8) <= 1e-9

    def test_all_dims(self):
        for dim in (1, 2, 3):
            for seed in (0, 99):
                report = verify_nondegeneracy(dim, 25, seed=seed)
                assert report.passed
                assert abs(report.worst_case - ROOT8) <= 1e-9


class TestCrossDifference:
    def test_correlation_cost_ordered_pair(self):
        # -(s - s')(y - y') with s=0, s'=1, y=0, y'=1 gives -1
        value = cross_difference(lambda s, y: -s * y, 0.0, 1.0, 0.0, 1.0)
        assert value == -1.0

    def test_equal_first_argument_cancels(self):
        value = cross_difference(
            lambda x, y: trip_cost([x], [2 * x], [y]), 1.5, 1.5, 0.0, 3.0
        )
        assert value == 0.0

    def test_ordered_draws_nonpositive(self):
        rng = rng_stream(17)
        for _ in range(1000):
            s_lo, s_hi = sorted(rng.normals(2))
            y_lo, y_hi = sorted(rng.normals(2))
            value = cross_difference(lambda s, y: -s * y, s_lo, s_hi, y_lo, y_hi)
            assert value <= 0.0

    def test_zero_iff_tied(self):
        assert cross_difference(lambda s, y: -s * y, 1.0, 1.0, 0.0, 2.0) == 0.0
        assert cross_difference(lambda s, y: -s * y, 0.0, 2.0, 1.0, 1.0) == 0.0
        assert cross_difference(lambda s, y: -s * y, 0.0, 2.0, 0.0, 2.0) < 0.0


class TestMonge:
    def test_ordered_draws_pass(self):
        report = verify_monge(500, seed=3)
        assert report.passed and report.samples_checked == 500
        assert report.worst_case <= 0.0

    def test_witness_attains_worst_case(self):
        report = verify_monge(50, seed=4)
        (s_lo, s_hi), (y_lo, y_hi) = report.witness
        assert s_lo <= s_hi and y_lo <= y_hi
        assert abs(report.worst_case + (s_hi - s_lo) * (y_hi - y_lo)) <= 1e-12

    @pytest.mark.parametrize("samples", [0, -3])
    def test_requires_samples(self, samples):
        with pytest.raises(DimensionMismatch):
            verify_monge(samples)

    def test_json_shape(self):
        payload = verify_monge(10, seed=5).to_json()
        assert payload["condition"] == "monge" and payload["samples"] == 10
        assert [len(w) for w in payload["witness"]] == [2, 2]


class TestNestedness:
    def test_random_instances_pass(self):
        for seed in range(5):
            spec = ScenarioSpec("gaussian_mixture", 1, 15, 12, seed=seed)
            tasks, agents = generate(spec)
            report = check_nestedness_1d(tasks, agents, grid=48)
            assert report.passed

    def test_constant_index_passes(self):
        tasks = TaskSet([[0.0], [1.0], [2.0]], [[2.0], [1.0], [0.0]])
        agents = DiscreteMeasure([[0.0], [0.5], [1.0]])
        report = check_nestedness_1d(tasks, agents, grid=16)
        assert report.passed
        # all index points coincide at 2, so thresholds are flat
        assert abs(report.worst_case) <= 1e-12

    def test_single_task_gives_flat_thresholds(self):
        # one index atom at s = 0.8: every agent level maps to it
        tasks = TaskSet([[0.3]], [[0.5]])
        agents = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.2, 0.5, 0.3])
        report = check_nestedness_1d(tasks, agents, grid=16)
        assert report.passed and report.worst_case == 0.0
        assert report.witness[1].tolist() == [0.8, 0.8]

    def test_index_weight_on_the_first_atom_spaces_the_knots_evenly(self):
        # cumulative weights [1, 1, 1] have no span to scale by, so the sorted atoms sit at
        # 0, 1/2 and 1, as they do for uniform weights
        positions, values = _interp_knots(np.array([3.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert positions.tolist() == [0.0, 0.5, 1.0] and values.tolist() == [0.0, 1.0, 3.0]
        points = [[1.5], [0.0], [0.5]]
        agents = DiscreteMeasure([[0.0], [0.4], [1.0]])
        heavy = check_nestedness_1d(TaskSet(points, points, [0.0, 1.0, 0.0]), agents, grid=16)
        uniform = check_nestedness_1d(TaskSet(points, points), agents, grid=16)
        assert heavy.passed == uniform.passed
        assert_allclose(heavy.worst_case, uniform.worst_case, atol=1e-12)

    def test_degenerate_grid_levels(self):
        # coincident agent atoms make consecutive quantiles equal
        tasks = TaskSet([[0.0], [1.0]], [[0.0], [1.0]])
        agents = DiscreteMeasure([[0.5], [0.5]])
        report = check_nestedness_1d(tasks, agents, grid=8)
        assert report.passed

    def test_rejects_multidimensional(self):
        tasks = TaskSet([[0.0, 0.0]], [[1.0, 1.0]])
        agents = DiscreteMeasure([[0.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            check_nestedness_1d(tasks, agents)


class TestMonotoneMap:
    def test_two_atom_pairing(self):
        idx = DiscreteMeasure([[0.0], [2.0]])
        agents = DiscreteMeasure([[0.0], [1.0]])
        plan = monotone_map_1d(idx, agents)
        assert plan.entries.tolist() == [(0, 0, 0.5), (1, 1, 0.5)]
        # objective: 0.5*(-0*0) + 0.5*(-2*1)
        assert plan.objective == -1.0

    def test_forced_single(self):
        plan = monotone_map_1d(DiscreteMeasure([[3.0]]), DiscreteMeasure([[2.0]]))
        assert plan.entries.tolist() == [(0, 0, 1.0)]
        assert plan.objective == -6.0

    def test_unsorted_inputs_pair_by_rank(self):
        idx = DiscreteMeasure([[2.0], [0.0]])
        agents = DiscreteMeasure([[1.0], [0.0]])
        plan = monotone_map_1d(idx, agents)
        assert plan.support() == {(1, 1), (0, 0)}

    def test_oracle_sweep_matches_exact_reduced(self):
        rng = rng_stream(404)
        for trial in range(50):
            size = 2 + trial % 7
            tasks = TaskSet(
                np.array(rng.normals(size)).reshape(size, 1),
                np.array(rng.normals(size)).reshape(size, 1),
            )
            agents = DiscreteMeasure(np.array(rng.normals(size)).reshape(size, 1))
            idx = DiscreteMeasure(tasks.origins + tasks.destinations, tasks.weights)
            reduced = reduced_cost_matrix(*factors(tasks, agents)[2:])
            exact, _ = solve_exact(reduced, tasks.weights, agents.weights)
            # the comonotone coupling, priced on the cost the solve ran on
            mono = sum(m * reduced.values[i, j] for i, j, m in monotone_map_1d(idx, agents).entries)
            assert abs(mono - exact.objective) <= 1e-9

    def test_rejects_multidimensional(self):
        with pytest.raises(DimensionMismatch):
            monotone_map_1d(DiscreteMeasure([[0.0, 1.0]]), DiscreteMeasure([[0.0]]))
