import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp

import odtalloc.solver
from odtalloc.cost import CostMatrix, cost_matrix, reduced_cost_matrix
from odtalloc.errors import IterationLimit, MassMismatch, TooLarge
from odtalloc.measures import DiscreteMeasure, TaskSet, index_pushforward
from odtalloc.rng import rng_stream
from odtalloc.scenarios import ScenarioSpec, generate
from odtalloc.solver import (
    _UNIQUENESS_SEED,
    DualPotentials,
    TransportPlan,
    _logsumexp,
    _plan_from_mass,
    _transportation_simplex,
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


def _simplex(cost, mu, nu):
    """The simplex alone: solve_exact sends uniform square input to the assignment path."""
    mass, u, v = _transportation_simplex(cost.values, mu, nu)
    return _plan_from_mass(mass, cost.values, cost.n_tasks, cost.n_agents), DualPotentials(u, v)


def _reference_sinkhorn(cost, mu, nu, epsilon, tol):
    """The Sinkhorn loop on scipy's logsumexp, with the dense plan built every sweep.

    Returns the plan's entries, its objective and the sweep it stopped at.
    """
    C = cost.values
    with np.errstate(divide="ignore"):
        log_mu, log_nu = np.log(mu), np.log(nu)
    g = np.zeros(nu.size)
    for sweep in range(1, 10001):
        f = epsilon * (log_mu - logsumexp((g[None, :] - C) / epsilon, axis=1))
        g = epsilon * (log_nu - logsumexp((f[:, None] - C) / epsilon, axis=0))
        with np.errstate(invalid="ignore"):
            plan = np.nan_to_num(np.exp((f[:, None] + g[None, :] - C) / epsilon), nan=0.0)
        violation = max(
            float(np.abs(plan.sum(axis=1) - mu).max()),
            float(np.abs(plan.sum(axis=0) - nu).max()),
        )
        if violation < tol:
            entries = tuple(
                (int(i), int(j), float(plan[i, j])) for i, j in np.argwhere(plan > 1e-18)
            )
            return entries, float((plan * C).sum()), sweep
    raise AssertionError("the reference loop did not converge")


def _entropic_case(name):
    """(cost, mu, nu, epsilon, tol) for one case of the reference comparison."""
    if name == "canonical":
        return CANONICAL, HALF, HALF, 0.05, 1e-8
    if name == "huge_epsilon":
        return CANONICAL, HALF, HALF, 1e9, 1e-8
    if name == "zero_weight_task":
        tasks, agents = _random_instance(rng_stream(205), 4, 3, uniform=False)
        cost = cost_matrix(tasks, agents)
        mu = np.array([0.0, 0.3, 0.3, 0.4])
        return cost, mu, np.asarray(agents.weights), 0.05 * float(np.ptp(cost.values)), 1e-8
    if name.startswith("mixture_"):
        # the benchmark's entropic instances: 2-D 10x10 mixtures, CLI defaults
        spec = ScenarioSpec("gaussian_mixture", 2, 10, 10, int(name.removeprefix("mixture_")))
        tasks, agents = generate(spec)
        cost = cost_matrix(tasks, agents)
        return cost, tasks.weights, agents.weights, 1e-3 * float(np.ptp(cost.values)), 1e-8
    # criterion-7 style: 1-D, non-uniform weights, 4-8 points, eps = 1e-3 x spread
    size = int(name.removeprefix("criterion7_"))
    tasks, agents = _random_instance(rng_stream(1100 + size), size, size, dim=1, uniform=False)
    mu, nu = _balanced(tasks, agents)
    cost = cost_matrix(tasks, agents)
    return cost, mu, nu, 1e-3 * float(np.ptp(cost.values)), 1e-9


@st.composite
def _lse_inputs(draw):
    """Finite values over wide magnitudes, with exact ties and scattered -inf entries.

    Some draws also scatter +inf or nan.
    """
    shape = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    values = st.floats(-1e300, 1e300) | st.sampled_from([-2.0, 0.0, 7.5])
    a = draw(hnp.arrays(float, shape, elements=values))
    a[draw(hnp.arrays(bool, shape))] = -np.inf
    if draw(st.integers(0, 4)) == 0:
        a[draw(hnp.arrays(bool, shape))] = draw(st.sampled_from([np.inf, np.nan]))
    if draw(st.booleans()):
        a[draw(st.integers(0, shape[0] - 1))] = -np.inf
    if draw(st.booleans()):
        a[:, draw(st.integers(0, shape[1] - 1))] = -np.inf
    return a


@st.composite
def _drawn_entropic_instances(draw):
    """2-12 tasks and agents in 1-3 D; half the draws have uniform weights, the rest unequal."""
    dim = draw(st.integers(1, 3))
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))

    def points(rows):
        return draw(hnp.arrays(float, (rows, dim), elements=st.floats(-10.0, 10.0)))

    def weights(size):
        if draw(st.booleans()):
            return None
        return draw(hnp.arrays(float, size, elements=st.floats(0.1, 1.0)))

    return TaskSet(points(m), points(m), weights(m)), DiscreteMeasure(points(n), weights(n))


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
            for plan, duals in (solve_exact(cost, w, w), _simplex(cost, w, w)):
                assert abs(plan.objective - 1.0) <= 1e-12
                assert check_stability(plan, duals, cost).passed

    def test_blands_rule_matches_default_pricing(self, monkeypatch):
        # integer costs and weights give long degenerate runs; _BLAND_AFTER = 0 prices
        # every pivot by Bland's rule, which the default threshold seldom reaches
        rng = rng_stream(107)
        instances = []
        for trial in range(60):
            m, n = 1 + trial % 19, 1 + (trial * 7) % 19
            cost = CostMatrix(np.floor(5 * np.array(rng.uniforms(m * n))).reshape(m, n))
            mu = 1 + np.floor(4 * np.array(rng.uniforms(m)))
            nu = 1 + np.floor(4 * np.array(rng.uniforms(n)))
            instances.append((cost, mu * nu.sum(), nu * mu.sum()))
        defaults = [_simplex(*instance)[0] for instance in instances]
        monkeypatch.setattr(odtalloc.solver, "_BLAND_AFTER", 0)
        for (cost, mu, nu), default in zip(instances, defaults):
            plan, duals = _simplex(cost, mu, nu)
            bound = 1e-12 * max(1.0, abs(default.objective))
            assert abs(plan.objective - default.objective) <= bound
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


def _uniform_square_costs():
    yield pytest.param(CostMatrix([[3.5]]), id="1x1")
    yield pytest.param(CostMatrix(np.ones((4, 4))), id="ones")
    ties = np.add.outer(np.arange(5.0), np.arange(5.0))
    yield pytest.param(CostMatrix(ties), id="every_permutation_ties")
    yield pytest.param(CANONICAL, id="canonical")
    means = {"means_origin": [[0.0] * 3, [4.0] * 3], "means_destination": [[2.0] * 3, [-3.0] * 3],
             "means_agent": [[1.0] * 3, [-1.0] * 3]}
    for dim in (2, 3):
        params = {key: [mean[:dim] for mean in value] for key, value in means.items()}
        for size in (6, 25, 60):
            tasks, agents = generate(ScenarioSpec("gaussian_mixture", dim, size, size, size, params))
            yield pytest.param(cost_matrix(tasks, agents), id=f"mixture{dim}d_{size}_full")
            reduced = reduced_cost_matrix(index_pushforward(tasks), agents)
            yield pytest.param(reduced, id=f"mixture{dim}d_{size}_reduced")


class TestAssignmentPath:
    """solve_exact on uniform square input, against the simplex and the permutation oracle."""

    @pytest.mark.parametrize("cost", list(_uniform_square_costs()))
    def test_matches_simplex(self, cost):
        w = np.full(cost.n_tasks, 1.0 / cost.n_tasks)
        plan, duals = solve_exact(cost, w, w)
        reference, reference_duals = _simplex(cost, w, w)
        assert abs(plan.objective - reference.objective) <= 1e-12 * abs(reference.objective)
        assert check_stability(plan, duals, cost).passed
        assert check_stability(reference, reference_duals, cost).passed
        assert duals.u[0] == 0.0
        # the simplex's own uniqueness surrogate: the same perturbation, re-solved by the simplex
        noise = np.array(rng_stream(_UNIQUENESS_SEED).uniforms(cost.values.size))
        scale = 1e-10 * max(1.0, float(np.abs(cost.values).max()))
        perturbed = CostMatrix(cost.values + scale * noise.reshape(cost.values.shape))
        if _simplex(perturbed, w, w)[0].support() == reference.support():
            assert plan.entries == reference.entries

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: hnp.arrays(
                float, (n, n),
                elements=st.one_of(st.floats(-100.0, 100.0), st.integers(-2, 2).map(float)),
            )
        )
    )
    def test_equals_brute_force(self, values):
        cost = CostMatrix(values)
        n = cost.n_tasks
        w = np.full(n, 1.0 / n)
        plan, duals = solve_exact(cost, w, w)
        oracle = brute_force_small(cost, w, w)
        assert abs(plan.objective - oracle.objective) <= 1e-12 * max(1.0, abs(oracle.objective))
        assert sorted(j for _, j, _ in plan.entries) == list(range(n))
        assert all(mass == w[0] for _, _, mass in plan.entries)
        assert check_stability(plan, duals, cost).passed


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

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_tol_rejected(self, tol):
        plan, duals = solve_exact(CANONICAL, HALF, HALF)
        with pytest.raises(ValueError):
            check_stability(plan, duals, CANONICAL, tol=tol)


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

    @pytest.mark.parametrize(
        "case",
        ["canonical", "huge_epsilon", "zero_weight_task"]
        + [f"criterion7_{size}" for size in (4, 5, 7)],
    )
    def test_matches_reference_loop(self, case):
        # the sweeps finish these before a Newton attempt succeeds (criterion7_5 fails two)
        cost, mu, nu, epsilon, tol = _entropic_case(case)
        entries, objective, sweeps = _reference_sinkhorn(cost, mu, nu, epsilon, tol)
        plan = solve_entropic(cost, mu, nu, epsilon, tol=tol, max_iter=sweeps)
        assert plan.entries == entries
        assert plan.objective == objective
        with pytest.raises(IterationLimit if sweeps > 1 else ValueError):  # max_iter 0 is invalid
            solve_entropic(cost, mu, nu, epsilon, tol=tol, max_iter=sweeps - 1)

    @pytest.mark.parametrize("case", ["criterion7_6", "criterion7_8", "mixture_20", "mixture_34"])
    def test_newton_finish_matches_converged_reference(self, case):
        # Newton steps finish these in fewer sweeps than the reference takes, so the
        # plans differ in their bits but must be the same coupling within the tolerance
        cost, mu, nu, epsilon, tol = _entropic_case(case)
        entries, objective, sweeps = _reference_sinkhorn(cost, mu, nu, epsilon, tol)
        reference = TransportPlan(entries, objective, cost.n_tasks, cost.n_agents)
        plan = solve_entropic(cost, mu, nu, epsilon, tol=tol, max_iter=sweeps - 1)
        assert np.abs(plan.row_sums() - mu).max() < tol
        assert np.abs(plan.col_sums() - nu).max() < tol
        assert np.abs(plan.to_dense() - reference.to_dense()).max() <= 10 * tol
        assert abs(plan.objective - objective) <= 1e-7 * abs(objective)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_drawn_entropic_instances())
    def test_default_epsilon_converges(self, instance):
        # at 1e-3 x the cost spread the sweeps alone stall on many of these
        tasks, agents = instance
        plan = solve(tasks, agents, "entropic").plan
        assert np.abs(plan.row_sums() - tasks.weights).max() < 1e-8
        assert np.abs(plan.col_sums() - agents.weights).max() < 1e-8

    @pytest.mark.parametrize(
        "tol, max_iter, epsilon",
        [
            pytest.param(tol, max_iter, 0.05, id=f"{tol}-{max_iter}")
            for tol, max_iter in [
                (np.nan, 10), (-1.0, 10), (0.0, 10), (np.inf, 10), (1e-8, 0), (1e-8, -5)
            ]
        ]
        + [pytest.param(1e-8, 10, eps, id=f"epsilon_{eps}") for eps in (np.nan, np.inf, 0.0, -1.0)],
    )
    def test_bad_tol_or_max_iter_rejected(self, tol, max_iter, epsilon):
        with pytest.raises(ValueError):
            solve_entropic(CANONICAL, HALF, HALF, epsilon=epsilon, tol=tol, max_iter=max_iter)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_lse_inputs())
    def test_logsumexp_is_scipys_bit_for_bit(self, a):
        for axis in (0, 1):
            expected = logsumexp(a, axis=axis)
            got = _logsumexp(a.copy(), axis, np.empty(a.shape, dtype=bool))
            assert np.array_equal(got, expected, equal_nan=True)


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

    def test_tied_instance_not_unique_at_large_costs(self):
        cost = CostMatrix(np.full((4, 4), 1e8))
        w = np.full(4, 0.25)
        plan, _ = solve_exact(cost, w, w)
        assert not support_is_unique(cost, w, w, plan)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 1000.0])
    def test_tied_general_weights_not_unique(self, scale):
        # c_ij = scale * (i + j): every feasible plan has the same objective
        rows, cols = np.indices((4, 5))
        cost = CostMatrix(scale * (rows + cols))
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        nu = np.array([0.25, 0.15, 0.2, 0.1, 0.3])
        plan, _ = solve_exact(cost, mu, nu)
        assert not support_is_unique(cost, mu, nu, plan)


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
        for solution in (exact, reduced):
            assert check_stability(solution.plan, solution.duals, cost).passed
            assert np.abs(solution.plan.row_sums() - tasks.weights).max() <= 1e-9
            assert np.abs(solution.plan.col_sums() - agents.weights).max() <= 1e-9
