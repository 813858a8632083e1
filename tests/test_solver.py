import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from odtalloc.cost import CostMatrix, cost_matrix, reduced_cost_matrix
from odtalloc.errors import IterationLimit, MassMismatch, TooLarge
from odtalloc.measures import DiscreteMeasure, TaskSet, index_pushforward
from odtalloc.rng import rng_stream
from odtalloc.solver import (
    DualPotentials,
    TransportPlan,
    brute_force_small,
    check_stability,
    purity,
    solve,
    solve_entropic,
    solve_exact,
    support_is_unique,
)

CANONICAL = CostMatrix([[0.0, 2.0], [2.0, 0.0]])
HALF = np.array([0.5, 0.5])


def _random_instance(rng, m, n, dim=2, uniform=True):
    tasks = TaskSet(
        np.array(rng.normals(m * dim)).reshape(m, dim),
        np.array(rng.normals(m * dim)).reshape(m, dim),
        None if uniform else np.array(rng.uniforms(m)) + 0.2,
    )
    agents = DiscreteMeasure(
        np.array(rng.normals(n * dim)).reshape(n, dim),
        None if uniform else np.array(rng.uniforms(n)) + 0.2,
    )
    return tasks, agents


def _balanced(tasks, agents):
    mu = np.asarray(tasks.weights)
    nu = np.asarray(agents.weights)
    return mu, nu * (mu.sum() / nu.sum())


class TestSolveExact:
    def test_canonical_diagonal(self):
        # oracle: only two permutation couplings, diagonal costs 0, other 2
        plan, duals = solve_exact(CANONICAL, HALF, HALF)
        assert plan.support() == {(0, 0), (1, 1)}
        assert plan.objective == 0.0
        assert_allclose([mass for _, _, mass in plan.entries], [0.5, 0.5])

    def test_forced_single_pair(self):
        plan, duals = solve_exact(CostMatrix([[3.5]]), [1.0], [1.0])
        assert plan.entries == ((0, 0, 1.0),)
        assert plan.objective == 3.5
        assert duals.u[0] == 0.0 and duals.v[0] == 3.5

    def test_matches_permutation_oracle(self):
        rng = rng_stream(101)
        for trial in range(30):
            size = 2 + trial % 6
            values = np.array(rng.uniforms(size * size)).reshape(size, size) * 10
            cost = CostMatrix(values)
            w = np.full(size, 1.0 / size)
            plan, _ = solve_exact(cost, w, w)
            oracle = brute_force_small(cost, w, w)
            assert abs(plan.objective - oracle.objective) <= 1e-9

    def test_matches_vertex_enumeration_oracle(self):
        rng = rng_stream(102)
        for trial in range(30):
            m = 1 + trial % 4
            n = min(8 - m, 1 + (trial // 4) % 4)
            cost = CostMatrix(np.array(rng.uniforms(m * n)).reshape(m, n))
            mu = np.array(rng.uniforms(m)) + 0.1
            mu = mu / mu.sum()
            nu = np.array(rng.uniforms(n)) + 0.1
            nu = nu / nu.sum()
            plan, _ = solve_exact(cost, mu, nu)
            oracle = brute_force_small(cost, mu, nu)
            assert abs(plan.objective - oracle.objective) <= 1e-9

    def test_marginals_and_basis_bound(self):
        rng = rng_stream(103)
        for trial in range(20):
            m, n = 3 + trial % 10, 2 + (trial * 7) % 11
            cost = CostMatrix(np.array(rng.uniforms(m * n)).reshape(m, n))
            mu = np.array(rng.uniforms(m)) + 0.05
            mu = mu / mu.sum()
            nu = np.array(rng.uniforms(n)) + 0.05
            nu = nu / nu.sum()
            plan, duals = solve_exact(cost, mu, nu)
            assert np.abs(plan.row_sums() - mu).max() <= 1e-9
            assert np.abs(plan.col_sums() - nu).max() <= 1e-9
            assert len(plan.entries) <= m + n - 1
            assert all(mass > 0 for _, _, mass in plan.entries)
            assert check_stability(plan, duals, cost).passed

    def test_degenerate_ties_terminate(self):
        for size in (3, 5, 7):
            cost = CostMatrix(np.ones((size, size)))
            w = np.full(size, 1.0 / size)
            plan, duals = solve_exact(cost, w, w)
            assert abs(plan.objective - 1.0) <= 1e-12
            assert check_stability(plan, duals, cost).passed

    def test_uniform_instances_are_pure_permutations(self):
        rng = rng_stream(104)
        for size in (3, 5, 8):
            tasks, agents = _random_instance(rng, size, size)
            cost = cost_matrix(tasks, agents)
            w = np.full(size, 1.0 / size)
            plan, _ = solve_exact(cost, w, w)
            assert len(plan.entries) == size
            assert_allclose([m for _, _, m in plan.entries], np.full(size, 1.0 / size))
            assert purity(plan) == 1.0

    def test_deterministic(self):
        rng = rng_stream(105)
        cost = CostMatrix(np.array(rng.uniforms(36)).reshape(6, 6))
        w = np.full(6, 1.0 / 6)
        first, _ = solve_exact(cost, w, w)
        second, _ = solve_exact(cost, w, w)
        assert first.entries == second.entries
        assert first.objective == second.objective

    def test_mass_mismatch_guard(self):
        with pytest.raises(MassMismatch):
            solve_exact(CANONICAL, [0.6, 0.6], HALF)

    def test_dual_anchor(self):
        rng = rng_stream(106)
        cost = CostMatrix(np.array(rng.uniforms(20)).reshape(4, 5))
        mu = np.full(4, 0.25)
        nu = np.full(5, 0.2)
        _, duals = solve_exact(cost, mu, nu)
        assert duals.u[0] == 0.0


class TestBruteForce:
    def test_canonical(self):
        plan = brute_force_small(CANONICAL, HALF, HALF)
        assert plan.objective == 0.0
        assert plan.support() == {(0, 0), (1, 1)}

    def test_forced(self):
        plan = brute_force_small(CostMatrix([[7.0]]), [1.0], [1.0])
        assert plan.entries == ((0, 0, 1.0),)

    def test_constant_cost(self):
        plan = brute_force_small(CostMatrix(np.ones((3, 3))), np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert abs(plan.objective - 1.0) <= 1e-12

    def test_too_large_uniform(self):
        with pytest.raises(TooLarge):
            brute_force_small(
                CostMatrix(np.ones((9, 9))), np.full(9, 1 / 9), np.full(9, 1 / 9)
            )

    def test_too_large_general(self):
        mu = np.array([0.5, 0.3, 0.1, 0.06, 0.04])
        nu = np.array([0.6, 0.2, 0.1, 0.1])
        with pytest.raises(TooLarge):
            brute_force_small(CostMatrix(np.ones((5, 4))), mu, nu)

    def test_rectangular_small(self):
        # 1x3: forced split equal to the column weights
        cost = CostMatrix([[1.0, 2.0, 3.0]])
        nu = np.array([0.2, 0.3, 0.5])
        plan = brute_force_small(cost, [1.0], nu)
        assert_allclose(plan.to_dense().ravel(), nu)
        assert abs(plan.objective - (0.2 + 0.6 + 1.5)) <= 1e-12


class TestStability:
    def test_canonical_zero_duals(self):
        plan, _ = solve_exact(CANONICAL, HALF, HALF)
        report = check_stability(plan, DualPotentials([0.0, 0.0], [0.0, 0.0]), CANONICAL)
        assert report.max_violation == 0.0
        assert report.max_slack_on_support == 0.0
        assert report.passed

    def test_perturbed_dual_fails(self):
        plan, _ = solve_exact(CANONICAL, HALF, HALF)
        report = check_stability(plan, DualPotentials([0.0, 0.0], [1.0, 0.0]), CANONICAL)
        assert report.max_violation == 1.0
        assert not report.passed

    def test_forced_equality(self):
        plan = TransportPlan(((0, 0, 1.0),), 4.0, 1, 1)
        report = check_stability(plan, DualPotentials([1.0], [3.0]), CostMatrix([[4.0]]))
        assert report.passed


class TestPurity:
    def test_permutation_plan(self):
        plan = TransportPlan(((0, 1, 0.5), (1, 0, 0.5)), 0.0, 2, 2)
        assert purity(plan) == 1.0

    def test_product_coupling(self):
        entries = tuple((i, j, 0.25) for i in range(2) for j in range(2))
        plan = TransportPlan(entries, 1.0, 2, 2)
        assert purity(plan, tol=0.1) == 0.0

    def test_half_pure(self):
        entries = ((0, 0, 0.5), (1, 0, 0.25), (1, 1, 0.25))
        plan = TransportPlan(entries, 0.0, 2, 2)
        assert purity(plan, tol=0.1) == 0.5


class TestEntropic:
    def test_large_epsilon_gives_product_coupling(self):
        # at eps = 100 * max|c| the symmetric fixed point has
        # p/q = exp(2/eps), i.e. deviation (1 - e^{-2/eps})/(2(1 + e^{-2/eps}))
        # = 1.2500e-3 exactly; the product coupling is the eps -> inf limit
        plan = solve_entropic(CANONICAL, HALF, HALF, epsilon=100 * 2.0, tol=1e-8)
        ratio = np.exp(-2.0 / 200.0)
        expected_dev = (1.0 - ratio) / (2.0 * (1.0 + ratio))
        assert np.abs(plan.to_dense() - 0.25).max() <= expected_dev + 1e-9
        huge = solve_entropic(CANONICAL, HALF, HALF, epsilon=1e9, tol=1e-8)
        assert np.abs(huge.to_dense() - 0.25).max() <= 1e-9

    def test_small_epsilon_matches_exact(self):
        spread = 2.0
        plan = solve_entropic(CANONICAL, HALF, HALF, epsilon=1e-3 * spread)
        assert abs(plan.objective - 0.0) <= 1e-3

    def test_marginals_within_tol(self):
        rng = rng_stream(201)
        tasks, agents = _random_instance(rng, 6, 5, uniform=False)
        mu, nu = _balanced(tasks, agents)
        cost = cost_matrix(tasks, agents)
        plan = solve_entropic(cost, mu, nu, epsilon=0.05, tol=1e-8)
        assert np.abs(plan.row_sums() - mu).max() < 1e-8
        assert np.abs(plan.col_sums() - nu).max() < 1e-8

    def test_iteration_limit_carries_violation(self):
        # uniform-weight instance: the scaling iteration needs many sweeps
        rng = rng_stream(202)
        values = np.array(rng.uniforms(16)).reshape(4, 4)
        cost = CostMatrix(values)
        w = np.full(4, 0.25)
        eps = 1e-3 * float(values.max() - values.min())
        with pytest.raises(IterationLimit) as err:
            solve_entropic(cost, w, w, epsilon=eps, tol=1e-12, max_iter=5)
        assert err.value.violation is not None
        assert err.value.violation > 1e-12

    def test_objective_is_unregularized(self):
        plan = solve_entropic(CANONICAL, HALF, HALF, epsilon=200.0)
        dense = plan.to_dense()
        assert_allclose(plan.objective, float((dense * CANONICAL.values).sum()), rtol=1e-12)


class TestReduction:
    def test_canonical_instance_constants(self):
        # verified against solve_exact: K = 2, reduced optimum -1, full 0
        tasks = TaskSet([[0.0], [1.0]], [[0.0], [1.0]])
        agents = DiscreteMeasure([[0.0], [1.0]])
        reduced = reduced_cost_matrix(index_pushforward(tasks), agents)
        assert_allclose(reduced.values, [[0.0, 0.0], [0.0, -2.0]])
        solution = solve(tasks, agents, "reduced")
        plan, full_objective = solution.plan, solution.objective
        assert plan.support() == {(0, 0), (1, 1)}
        assert plan.objective == -1.0
        exact, _ = solve_exact(cost_matrix(tasks, agents), tasks.weights, agents.weights)
        assert abs(full_objective - exact.objective) <= 1e-12
        assert full_objective == 0.0

    def test_forced_pair_gives_trip_cost(self):
        tasks = TaskSet([[1.0, 0.0]], [[0.0, 1.0]])
        agents = DiscreteMeasure([[0.3, 0.3]])
        full_objective = solve(tasks, agents, "reduced").objective
        expected = cost_matrix(tasks, agents).values[0, 0]
        assert abs(full_objective - expected) <= 1e-12

    def test_equivalence_sweep(self):
        rng = rng_stream(301)
        for trial in range(25):
            dim = 1 + trial % 3
            m = 2 + trial % 7
            n = 2 + (trial * 3) % 7
            tasks, agents = _random_instance(rng, m, n, dim=dim, uniform=False)
            mu, nu = _balanced(tasks, agents)
            tasks = TaskSet(tasks.origins, tasks.destinations, mu)
            agents = DiscreteMeasure(agents.points, nu)
            full_objective = solve(tasks, agents, "reduced").objective
            exact, _ = solve_exact(cost_matrix(tasks, agents), mu, nu)
            assert abs(full_objective - exact.objective) <= 1e-8

    def test_unique_support_detection(self):
        tasks = TaskSet([[0.0], [1.0]], [[0.0], [1.0]])
        agents = DiscreteMeasure([[0.0], [1.0]])
        cost = cost_matrix(tasks, agents)
        plan, _ = solve_exact(cost, tasks.weights, agents.weights)
        assert support_is_unique(cost, tasks.weights, agents.weights, plan)

    def test_tied_instance_not_unique(self):
        # constant cost: every coupling optimal, perturbation moves the support
        cost = CostMatrix(np.ones((4, 4)))
        w = np.full(4, 0.25)
        plan, _ = solve_exact(cost, w, w)
        assert not support_is_unique(cost, w, w, plan)


@st.composite
def _drawn_instances(draw):
    dim = draw(st.integers(1, 3))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def points(rows):
        return draw(hnp.arrays(float, (rows, dim), elements=st.floats(-10.0, 10.0)))

    def weights(size):
        return draw(hnp.arrays(float, size, elements=st.floats(0.1, 1.0)))

    return TaskSet(points(m), points(m), weights(m)), DiscreteMeasure(points(n), weights(n))


class TestSolve:
    def test_exact_is_the_direct_solve(self):
        tasks, agents = _random_instance(rng_stream(401), 7, 6, uniform=False)
        solution = solve(tasks, agents, "exact")
        cost = cost_matrix(tasks, agents)
        plan, duals = solve_exact(cost, tasks.weights, agents.weights)
        assert solution.plan == plan and solution.objective == plan.objective
        assert_array_equal(solution.duals.u, duals.u)
        assert_array_equal(solution.duals.v, duals.v)
        assert solution.unique == support_is_unique(cost, tasks.weights, agents.weights, plan)

    def test_reduced_duals_certify_the_trip_cost(self):
        tasks, agents = _random_instance(rng_stream(402), 9, 8, uniform=False)
        solution = solve(tasks, agents, "reduced")
        assert check_stability(solution.plan, solution.duals, cost_matrix(tasks, agents)).passed

    def test_entropic_default_epsilon(self):
        tasks, agents = _random_instance(rng_stream(403), 5, 4, uniform=False)
        cost = cost_matrix(tasks, agents)
        epsilon = 1e-3 * float(cost.values.max() - cost.values.min())
        solution = solve(tasks, agents, "entropic")
        assert solution.plan == solve_entropic(cost, tasks.weights, agents.weights, epsilon)
        assert solution.duals is None and solution.unique is False

    def test_unknown_method(self):
        tasks, agents = _random_instance(rng_stream(404), 2, 2)
        with pytest.raises(ValueError):
            solve(tasks, agents, "greedy")

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_drawn_instances())
    def test_exact_and_reduced_agree_and_certify(self, instance):
        tasks, agents = instance
        cost = cost_matrix(tasks, agents)
        exact = solve(tasks, agents, "exact")
        reduced = solve(tasks, agents, "reduced")
        assert abs(exact.objective - reduced.objective) <= 1e-9 * max(1.0, abs(exact.objective))
        assert check_stability(exact.plan, exact.duals, cost).passed
        assert check_stability(reduced.plan, reduced.duals, cost).passed
