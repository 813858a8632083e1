import importlib
import math
import pkgutil
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

import odtalloc
import odtalloc.solver
from odtalloc.cost import (
    CostMatrix,
    cost_matrix,
    factors,
    gaussian_prices,
    reduced_cost_matrix,
)
from odtalloc.errors import (
    AllocationError,
    AllZero,
    DimensionMismatch,
    IterationLimit,
    MassMismatch,
)
from odtalloc.measures import COORD_LIMIT, DiscreteMeasure, TaskSet
from odtalloc.rng import rng_stream
from odtalloc.scenarios import ScenarioSpec, generate
from odtalloc.solver import (
    _UNIQUENESS_SEED,
    ENTRY,
    METHODS,
    DualPotentials,
    TransportPlan,
    _assignment,
    _candidate_lp,
    _logsumexp,
    _northwest_corner,
    _plan_cost,
    check_stability,
    solve,
    solve_entropic,
    solve_exact,
    support_is_unique,
)
from oracles import (
    TooLarge,
    brute_force_small,
    lp_optimum,
    northwest_walk,
    optimal_supports,
    purity,
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


def _general(cost, mu, nu):
    """The general path alone: solve_exact sends uniform square input to the assignment path."""
    task, agent, mass, u, v = _candidate_lp(cost.values, mu, nu)
    cells = zip(task.tolist(), agent.tolist(), mass.tolist())
    entries = sorted((i, j, w) for i, j, w in cells if w > 1e-14)
    objective = math.fsum(w * cost.values[i, j] for i, j, w in entries)
    return TransportPlan(entries, objective, cost.n_tasks, cost.n_agents), DualPotentials(u, v)


def _all_rows_assignment(cost):
    """The assignment path with Bellman-Ford relaxing through every row in every round."""
    n = cost.shape[0]
    _, sigma = linear_sum_assignment(cost)
    on_support = cost[np.arange(n), sigma]
    edge = cost[:, sigma] - on_support[None, :]
    paths = np.empty_like(edge)
    u = np.zeros(n)
    for _ in range(n):
        np.add(edge, u[None, :], out=paths)
        relaxed = paths.min(axis=1)
        if np.array_equal(relaxed, u):
            break
        u = relaxed
    u -= u[0]
    v = np.empty(n)
    v[sigma] = on_support - u
    return sigma, u, v


def _perturbed_cost_unique(cost, mu, nu, plan):
    """The uniqueness surrogate that re-solves the perturbed cost itself, not its reduced costs."""
    noise = np.array(rng_stream(_UNIQUENESS_SEED).uniforms(cost.values.size))
    scale = 1e-10 * max(1.0, float(np.abs(cost.values).max()))
    perturbed = CostMatrix(cost.values + scale * noise.reshape(cost.values.shape))
    return solve_exact(perturbed, mu, nu)[0].support() == plan.support()


def _textbook_logsumexp(a, axis):
    """log(sum(exp(a - max))) + max, shifting by 0 where a slice's maximum is not finite."""
    a_max = a.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(a - shift).sum(axis=axis)) + shift.squeeze(axis)


def _reference_sinkhorn(cost, mu, nu, epsilon, tol, lse):
    """The Sinkhorn loop on the log-sum-exp ``lse``, with the dense plan built every sweep.

    Returns the plan's entries, its objective and the sweep it stopped at.
    """
    C = cost.values
    with np.errstate(divide="ignore"):
        log_mu, log_nu = np.log(mu), np.log(nu)
    g = np.zeros(nu.size)
    for sweep in range(1, 10001):
        f = epsilon * (log_mu - lse((g[None, :] - C) / epsilon, axis=1))
        g = epsilon * (log_nu - lse((f[:, None] - C) / epsilon, axis=0))
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
            return entries, float(np.cumsum([w * C[i, j] for i, j, w in entries])[-1]), sweep
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
    if name == "zero_weight_small_epsilon":
        # the sweeps stall here, so every stage of the attempt meets the zero weight's
        # log(0) and -inf potential, under tier-1's warnings-as-errors
        cost, mu, nu, _, tol = _entropic_case("zero_weight_task")
        return cost, mu, nu, 1e-4 * float(np.ptp(cost.values)), tol
    if name == "plateau":
        # agent 1 is cheap only for task 2, which outweighs it: the optimum sends task 2's
        # excess 0.03 to agent 0 at cost 4, and every other entry of agent 1 sits at
        # exp(-5 / eps) = 0, so the potentials must travel far from where the sweeps stall
        cost = CostMatrix([[0.0, 1.0], [1.0, 2.0], [4.0, 0.0]])
        return cost, np.array([0.3, 0.45, 0.25]), np.array([0.78, 0.22]), 4e-3, 1e-8
    if name.startswith("small_epsilon_"):
        # eps = 1e-5 x the spread, 2-40 points a side in 1-3 D, cubed-uniform weights of
        # which about a tenth are zero, so tiny weights sit next to zero ones
        rng = rng_stream(int(name.removeprefix("small_epsilon_")))
        m, n, dim = (int(k) for k in np.array([2, 2, 1]) + rng.uniforms(3) * np.array([39, 39, 3]))
        tasks = TaskSet(*np.array(rng.normals(2 * m * dim)).reshape(2, m, dim))
        agents = DiscreteMeasure(np.array(rng.normals(n * dim)).reshape(n, dim))
        cost = cost_matrix(tasks, agents)
        mu, nu = rng.uniforms(m) ** 3, rng.uniforms(n) ** 3
        mu[rng.uniforms(m) < 0.1] = 0.0
        nu[rng.uniforms(n) < 0.1] = 0.0
        return cost, mu / mu.sum(), nu / nu.sum(), 1e-5 * float(np.ptp(cost.values)), 1e-8
    if name.startswith("tiny_epsilon_"):
        # as small_epsilon_ but from numpy's generator: 2-20 points a side, and eps drawn
        # at 10^U(-7.5, -3) x the spread, where the sweeps stall furthest from the optimum
        rng = np.random.default_rng(int(name.removeprefix("tiny_epsilon_")))
        m, n, dim = rng.integers(2, 21), rng.integers(2, 21), rng.integers(1, 4)
        tasks = TaskSet(rng.normal(size=(m, dim)), rng.normal(size=(m, dim)))
        cost = cost_matrix(tasks, DiscreteMeasure(rng.normal(size=(n, dim))))

        def weights(size):
            w = rng.random(size) ** 3
            w[rng.random(size) < 0.1] = 0.0
            return w / w.sum() if w.any() else np.full(size, 1.0 / size)

        mu, nu = weights(m), weights(n)
        return cost, mu, nu, 10.0 ** rng.uniform(-7.5, -3.0) * float(np.ptp(cost.values)), 1e-8
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


@st.composite
def _tied_instances(draw):
    # integer costs 0-2 x 10^k and integer weights 0-4 leave degenerate bases
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8 - m))
    scale = 10.0 ** draw(st.integers(0, 6))
    values = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                           min_size=m, max_size=m))
    mu = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(any))
    nu = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    return scale, values, mu, nu


@st.composite
def _stored_certificates(draw):
    """(plan, duals, cost, mu, nu) on an m x n cost, m, n <= 6, whose plan may repeat cells.

    Half the draws split each entry of ``solve_exact``'s plan in two and shuffle
    the halves, so the certificate passes; the rest hold random cells whose masses
    may be zero, negative or nan (or none at all), random weights and random
    duals, some of them nan.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cost = CostMatrix(draw(hnp.arrays(float, (m, n), elements=st.floats(-1e3, 1e3))))
    if draw(st.booleans()):
        mu, nu = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
        plan, duals = solve_exact(cost, mu, nu)
        cut = draw(hnp.arrays(float, len(plan.entries), elements=st.floats(0.0, 1.0)))
        entries = np.concatenate([plan.entries, plan.entries])
        entries["mass"] *= np.concatenate([cut, 1.0 - cut])
        entries = entries[draw(st.permutations(range(len(entries))))]
        return TransportPlan(entries, plan.objective, m, n), duals, cost, mu, nu
    masses = st.floats(-2.0, 2.0) | st.just(0.0) | st.just(np.nan)
    cells = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), masses), max_size=12))
    duals = [
        draw(hnp.arrays(float, size, elements=st.floats(-1e3, 1e3) | st.just(np.nan)))
        for size in (m, n)
    ]
    mu = draw(hnp.arrays(float, m, elements=st.floats(0.1, 1.0)))
    nu = draw(hnp.arrays(float, n, elements=st.floats(0.1, 1.0)))
    plan = TransportPlan(cells, draw(st.floats(-1e3, 1e3)), m, n)
    return plan, DualPotentials(*duals), cost, mu / mu.sum(), nu / nu.sum()


@st.composite
def _weight_pairs(draw):
    """(mu, nu), each summing to 1: random, integer or uniform weights, zeros included."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "integer", "uniform"]))
    if kind == "uniform":
        return np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    weight = st.floats(0.0, 1.0) if kind == "random" else st.integers(0, 4).map(float)
    mu, nu = (draw(hnp.arrays(float, size, elements=weight).filter(np.any)) for size in (m, n))
    return mu / mu.sum(), nu / nu.sum()


class TestSolveExact:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_weight_pairs())
    def test_northwest_corner_is_a_feasible_staircase(self, weights):
        mu, nu = weights
        m, n = mu.size, nu.size
        row, col = np.divmod(_northwest_corner(mu, nu), n)
        assert row.size == m + n - 1
        assert (row[0], col[0], row[-1], col[-1]) == (0, 0, m - 1, n - 1)
        steps = np.column_stack([np.diff(row), np.diff(col)])
        assert ((steps == [1, 0]).all(axis=1) | (steps == [0, 1]).all(axis=1)).all()
        # cell (i, j) carries what row i and column j share of [0, total]
        row_end, col_end = np.cumsum(mu), np.cumsum(nu)
        row_end[-1] = col_end[-1] = max(row_end[-1], col_end[-1])
        start = np.maximum(np.append(0.0, row_end)[row], np.append(0.0, col_end)[col])
        mass = np.minimum(row_end[row], col_end[col]) - start
        assert (mass >= 0.0).all()
        assert_allclose(np.bincount(row, mass, minlength=m), mu, rtol=0.0, atol=1e-12)
        assert_allclose(np.bincount(col, mass, minlength=n), nu, rtol=0.0, atol=1e-12)

    def test_northwest_corner_is_the_walk_where_no_totals_tie(self):
        # weights from a continuum leave no row end equal to a column end, so the merge of
        # running totals and the walk over remaining weights take the same cells
        rng = rng_stream(110)
        for trial in range(400):
            m, n = 1 + trial % 23, 1 + (trial * 7) % 19
            mu, nu = np.array(rng.uniforms(m)), np.array(rng.uniforms(n))
            mu, nu = mu / mu.sum(), nu / nu.sum()
            assert _northwest_corner(mu, nu).tolist() == northwest_walk(mu, nu)

    def test_canonical_diagonal(self):
        # oracle: only two permutation couplings, diagonal costs 0, other 2
        plan, duals = solve_exact(CANONICAL, HALF, HALF)
        assert plan.support() == {(0, 0), (1, 1)}
        assert plan.objective == 0.0
        assert_allclose([mass for _, _, mass in plan.entries], [0.5, 0.5])

    def test_forced_single_pair(self):
        plan, duals = solve_exact(CostMatrix([[3.5]]), [1.0], [1.0])
        assert plan.entries.tolist() == [(0, 0, 1.0)]
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
        # ties leave basis cells with residual mass, which the plan drops and so must
        # its objective: <c, plan> of the oracle's stored entries, not of its basis
        tied = [(
            CostMatrix(1e6 * np.array([[1, 1, 0], [1, 0, 1], [2, 0, 0], [0, 1, 2], [0, 1, 0]])),
            np.array([4, 3, 2, 2, 4]) / 15,
            np.array([4, 3, 3]) / 10,
        )]
        for trial in range(60):
            m = 2 + trial % 4
            n = 2 + (trial // 4) % (7 - m)
            scale = 10.0 ** (trial % 7)
            cost = CostMatrix(scale * np.floor(3 * np.array(rng.uniforms(m * n))).reshape(m, n))
            mu = np.floor(5 * np.array(rng.uniforms(m)))  # integer weights 0-4
            nu = np.floor(5 * np.array(rng.uniforms(n)))
            if mu.sum() and nu.sum():
                tied.append((cost, mu / mu.sum(), nu / nu.sum()))
        for cost, mu, nu in tied:
            plan, _ = solve_exact(cost, mu, nu)
            oracle = float((brute_force_small(cost, mu, nu).to_dense() * cost.values).sum())
            assert abs(plan.objective - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_tied_zero_cost_plan_states_zero_objective(self):
        # every stored entry lies on a zero-cost cell; the basis keeps residual mass on
        # costly cells, which the plan drops and so must not count in its objective
        cost = CostMatrix(1e6 * np.array([[1, 1, 0], [1, 0, 1], [2, 0, 0], [0, 1, 2], [0, 1, 0]]))
        plan, _ = solve_exact(cost, np.array([4, 3, 2, 2, 4]) / 15, np.array([4, 3, 3]) / 10)
        assert all(cost.values[i, j] == 0.0 for i, j, _ in plan.entries)
        assert plan.objective == 0.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_tied_instances())
    @example((10.0, [[1, 2, 2, 0, 1, 1], [0, 2, 1, 2, 1, 0]], [2, 2], [1, 0, 0, 3, 0, 2]))
    @example((1e4, [[0, 0, 2], [2, 1, 1], [0, 1, 1], [2, 0, 2], [1, 1, 0]], [4, 0, 0, 4, 2], [1, 3, 1]))
    def test_objective_is_the_cost_of_the_stored_entries(self, instance):
        scale, values, mu, nu = (np.array(part) for part in instance)
        cost = CostMatrix(scale * values)
        plan, _ = solve_exact(cost, mu / mu.sum(), nu / nu.sum())
        stored = math.fsum(mass * cost.values[i, j] for i, j, mass in plan.entries)
        # at most 7 non-negative terms: the sums differ by a few ulps, and not at all at 0
        assert abs(plan.objective - stored) <= 1e-14 * stored

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
            assert check_stability(plan, duals, cost, mu, nu).passed
            bare, no_duals = solve_exact(cost, mu, nu, duals=False)  # the LP's plan alone
            assert bare.entries.tobytes() == plan.entries.tobytes() and no_duals is None
            assert bare.objective.hex() == plan.objective.hex()

    def test_degenerate_ties_terminate(self):
        for size in (3, 5, 7):
            cost = CostMatrix(np.ones((size, size)))
            w = np.full(size, 1.0 / size)
            for plan, duals in (solve_exact(cost, w, w), _general(cost, w, w)):
                assert abs(plan.objective - 1.0) <= 1e-12
                assert check_stability(plan, duals, cost, w, w).passed

    def test_integer_degenerate_instances_match_the_full_grid_lp(self):
        # integer costs and weights leave long runs of degenerate bases; the oracle is
        # HiGHS on every cell, where solve_exact's LP sees a candidate set
        rng = rng_stream(107)
        for trial in range(60):
            m, n = 1 + trial % 19, 1 + (trial * 7) % 19
            cost = CostMatrix(np.floor(5 * np.array(rng.uniforms(m * n))).reshape(m, n))
            mu = 1 + np.floor(4 * np.array(rng.uniforms(m)))
            nu = 1 + np.floor(4 * np.array(rng.uniforms(n)))
            mu, nu = mu * nu.sum(), nu * mu.sum()
            plan, duals = solve_exact(cost, mu, nu)
            oracle = lp_optimum(cost, mu, nu)
            assert abs(plan.objective - oracle) <= 1e-12 * max(1.0, abs(oracle))
            assert check_stability(plan, duals, cost, mu, nu).passed

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
        assert np.array_equal(first.entries, second.entries)
        assert first.objective == second.objective

    def test_mass_mismatch_guard(self):
        with pytest.raises(MassMismatch):
            solve_exact(CANONICAL, [0.6, 0.6], HALF)

    def test_totals_that_differ_within_the_tolerance_solve(self):
        # the LP sees the agent weights scaled to the task total: HiGHS's feasibility
        # tolerance, 1e-10, would reject totals that differ by up to 1e-9 as infeasible
        rng = rng_stream(109)
        cost = CostMatrix(np.array(rng.uniforms(63)).reshape(9, 7))
        mu = np.array(rng.uniforms(9)) + 0.1
        nu = np.array(rng.uniforms(7)) + 0.1
        for gap in (9e-10, -9e-10):
            off = nu / nu.sum()
            off[0] += gap
            plan, duals = solve_exact(cost, mu / mu.sum(), off)
            assert check_stability(plan, duals, cost, mu / mu.sum(), off).passed

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
            reduced = reduced_cost_matrix(*factors(tasks, agents)[2:])
            yield pytest.param(reduced, id=f"mixture{dim}d_{size}_reduced")


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_exact(CANONICAL, [1.0], HALF),
        lambda: solve_exact(CANONICAL, HALF, np.full(3, 1 / 3)),
        lambda: solve_entropic(CANONICAL, [1.0], HALF, epsilon=0.1),
        lambda: check_stability(*solve_exact(CANONICAL, HALF, HALF), CANONICAL, HALF, [1.0]),
    ],
    ids=["exact_tasks", "exact_agents", "entropic", "stability"],
)
def test_weights_of_the_wrong_size_are_rejected(call):
    with pytest.raises(DimensionMismatch, match="cost is 2x2, weights are"):
        call()


@pytest.mark.parametrize(
    "weights",
    [[1.5, -0.5], [-math.inf, 2.0], [math.nan, 1.0], [math.inf, 1.0], [0.0, 0.0]],
    ids=["negative", "minus_inf", "nan", "inf", "all_zero"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda w: solve_exact(CANONICAL, w, HALF),
        lambda w: solve_exact(CANONICAL, HALF, w),
        lambda w: solve_exact(CostMatrix([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]]), w, np.full(3, 1 / 3)),
        lambda w: solve_entropic(CANONICAL, w, HALF, epsilon=0.1),
        lambda w: check_stability(*solve_exact(CANONICAL, HALF, HALF), CANONICAL, HALF, w),
        lambda w: support_is_unique(CANONICAL, w, HALF, *solve_exact(CANONICAL, HALF, HALF)),
    ],
    ids=["exact_tasks", "exact_agents", "exact_lp", "entropic", "stability", "unique"],
)
def test_malformed_weights_are_rejected_as_a_measure_rejects_them(call, weights):
    with pytest.raises(AllocationError) as expected:
        DiscreteMeasure(np.zeros((2, 1)), weights)
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        call(weights)


_EMPTY = CostMatrix(np.zeros((0, 0)))
_EMPTY_PLAN = TransportPlan(np.empty(0, ENTRY), 0.0, 0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_exact(_EMPTY, [], []),
        lambda: solve_entropic(_EMPTY, [], [], epsilon=0.1),
        lambda: check_stability(_EMPTY_PLAN, DualPotentials([], []), _EMPTY, [], []),
        lambda: support_is_unique(_EMPTY, [], [], _EMPTY_PLAN, DualPotentials([], [])),
    ],
    ids=["exact", "entropic", "stability", "unique"],
)
def test_a_0x0_cost_is_rejected_for_its_empty_weights(call):
    with pytest.raises(AllZero, match="empty weight vector"):
        call()


@pytest.mark.parametrize("uniform", [True, False], ids=["assignment", "lp"])
@pytest.mark.parametrize("method", METHODS)
def test_every_solver_plan_states_the_cost_of_its_entries(method, uniform):
    tasks, agents = _random_instance(rng_stream(407), 8, 8 if uniform else 6, uniform=uniform)
    mu, nu = tasks.weights, agents.weights
    cost = cost_matrix(tasks, agents)
    if method == "exact":
        plan = solve_exact(cost, mu, nu)[0]
    else:
        plan = solve_entropic(cost, mu, nu, 1e-2 * float(np.ptp(cost.values)))
    assert plan.objective.hex() == _plan_cost(plan.entries, cost.values).hex()


class TestAssignmentPath:
    """solve_exact on uniform square input, against the general path and the permutation oracle."""

    @pytest.mark.parametrize("cost", list(_uniform_square_costs()))
    def test_matches_the_general_path(self, cost):
        w = np.full(cost.n_tasks, 1.0 / cost.n_tasks)
        plan, duals = solve_exact(cost, w, w)
        reference, reference_duals = _general(cost, w, w)
        assert abs(plan.objective - reference.objective) <= 1e-12 * abs(reference.objective)
        assert check_stability(plan, duals, cost, w, w).passed
        assert check_stability(reference, reference_duals, cost, w, w).passed
        assert duals.u[0] == 0.0
        # the general path's own uniqueness surrogate: the same perturbation, re-solved by it
        noise = np.array(rng_stream(_UNIQUENESS_SEED).uniforms(cost.values.size))
        scale = 1e-10 * max(1.0, float(np.abs(cost.values).max()))
        perturbed = CostMatrix(cost.values + scale * noise.reshape(cost.values.shape))
        if _general(perturbed, w, w)[0].support() == reference.support():
            assert np.array_equal(plan.entries, reference.entries)

    def test_duals_match_all_rows_bellman_ford(self):
        # relaxing only through the rows whose u fell gives the all-rows u and v bit for bit
        rng = rng_stream(108)
        for trial in range(1200):
            size = 1 + trial % 40
            kind = trial % 3
            if kind == 0:  # integer ties, scaled; some zero costs are -0.0
                values = np.floor(4 * rng.uniforms(size * size)).reshape(size, size)
                values *= 10.0 ** (-3 + 11 * rng.uniform())
                values[(values == 0.0) & (rng.uniforms(size * size).reshape(size, size) < 0.5)] = -0.0
            elif kind == 1:  # rank 2, as the reduced cost of 2-D points
                x = np.array(rng.normals(2 * size)).reshape(size, 2)
                y = np.array(rng.normals(2 * size)).reshape(size, 2)
                values = -(x @ y.T)
            else:  # city-box magnitudes, where the float spacing is near 1e-8
                values = 1e8 + 1e8 * rng.uniforms(size * size).reshape(size, size)
            w = np.full(size, 1.0 / size)
            sigma, u, v = _assignment(values)
            ref_sigma, ref_u, ref_v = _all_rows_assignment(values)
            assert u.tobytes() == ref_u.tobytes() and v.tobytes() == ref_v.tobytes()
            assert sigma.tobytes() == ref_sigma.tobytes()
            cost = CostMatrix(values)
            plan, duals = solve_exact(cost, w, w)
            assert plan.entries["task"].tolist() == list(range(size))
            assert plan.entries["agent"].tobytes() == sigma.tobytes()
            assert plan.entries["mass"].tobytes() == w.tobytes()
            assert duals.u.tobytes() == u.tobytes() and duals.v.tobytes() == v.tobytes()
            assert check_stability(plan, duals, cost, w, w).passed
            bare, no_duals = solve_exact(cost, w, w, duals=False)  # the search alone
            assert bare.entries.tobytes() == plan.entries.tobytes() and no_duals is None
            assert bare.objective.hex() == plan.objective.hex()

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
        assert check_stability(plan, duals, cost, w, w).passed


class TestBruteForce:
    def test_canonical(self):
        plan = brute_force_small(CANONICAL, HALF, HALF)
        assert plan.objective == 0.0
        assert plan.support() == {(0, 0), (1, 1)}

    def test_forced(self):
        plan = brute_force_small(CostMatrix([[7.0]]), [1.0], [1.0])
        assert plan.entries.tolist() == [(0, 0, 1.0)]

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


def test_package_ships_no_test_oracles():
    # the reference implementations live in tests/oracles.py, reached only by the tests
    moved = {"brute_force_small", "_tree_masses", "_enumerate_permutations", "TooLarge",
             "monotone_map_1d", "purity", "indifference_set_distance"}
    modules = [importlib.import_module(f"odtalloc.{info.name}")
               for info in pkgutil.iter_modules(odtalloc.__path__)]
    for module in [odtalloc, *modules]:
        assert not moved & set(vars(module)), module.__name__
    assert not moved & set(odtalloc.__all__)


class TestStability:
    def test_canonical_zero_duals(self):
        plan, _ = solve_exact(CANONICAL, HALF, HALF)
        zero = DualPotentials([0.0, 0.0], [0.0, 0.0])
        report = check_stability(plan, zero, CANONICAL, HALF, HALF)
        assert report.max_violation == 0.0
        assert report.max_slack_on_support == 0.0
        assert report.passed

    def test_perturbed_dual_fails(self):
        plan, _ = solve_exact(CANONICAL, HALF, HALF)
        duals = DualPotentials([0.0, 0.0], [1.0, 0.0])
        report = check_stability(plan, duals, CANONICAL, HALF, HALF)
        assert report.max_violation == 1.0
        assert not report.passed

    def test_forced_equality(self):
        plan = TransportPlan(((0, 0, 1.0),), 4.0, 1, 1)
        duals = DualPotentials([1.0], [3.0])
        report = check_stability(plan, duals, CostMatrix([[4.0]]), [1.0], [1.0])
        assert report.passed

    def test_nan_slack_on_support_fails(self):
        # the nan slack is on the plan's second entry, after a zero slack
        plan, _ = solve_exact(CANONICAL, HALF, HALF)
        duals = DualPotentials([0.0, np.nan], [0.0, 0.0])
        report = check_stability(plan, duals, CANONICAL, HALF, HALF)
        assert np.isnan(report.max_slack_on_support)
        assert not report.passed

    def test_halved_masses_fail_on_the_marginals(self):
        plan, duals = solve_exact(CANONICAL, HALF, HALF)
        halved = TransportPlan(tuple((i, j, mass / 2) for i, j, mass in plan.entries), 0.0, 2, 2)
        report = check_stability(halved, duals, CANONICAL, HALF, HALF)
        assert report.max_marginal_error == 0.25
        assert report.objective_ok and not report.passed

    def test_misstated_objective_fails(self):
        plan, duals = solve_exact(CANONICAL, HALF, HALF)
        misstated = TransportPlan(plan.entries, 1.0, 2, 2)
        report = check_stability(misstated, duals, CANONICAL, HALF, HALF)
        assert report.recomputed_objective == 0.0 and report.max_marginal_error == 0.0
        assert not report.objective_ok and not report.passed

    def test_negative_mass_fails(self):
        # 0.6 / -0.1 / -0.1 / 0.6 meets both marginals, and every cost and dual is zero
        entries = ((0, 0, 0.6), (0, 1, -0.1), (1, 0, -0.1), (1, 1, 0.6))
        zero = DualPotentials([0.0, 0.0], [0.0, 0.0])
        report = check_stability(
            TransportPlan(entries, 0.0, 2, 2), zero, CostMatrix(np.zeros((2, 2))), HALF, HALF
        )
        assert report.max_violation == report.max_slack_on_support == 0.0
        assert report.max_marginal_error <= 1e-15 and report.objective_ok
        assert not report.passed

    def test_empty_plan_fails(self):
        zero = DualPotentials([0.0, 0.0], [0.0, 0.0])
        report = check_stability(TransportPlan((), 0.0, 2, 2), zero, CANONICAL, HALF, HALF)
        assert report.max_marginal_error == 0.5
        assert not report.passed

    def test_index_outside_the_cost_is_rejected(self):
        # numpy wraps row -3 to row 0 of a 3x3 cost, so the shifted plan would be certified
        third = np.full(3, 1.0 / 3)
        cost = CostMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        plan, duals = solve_exact(cost, third, third)
        shifted = [(i - 3, j, mass) for i, j, mass in plan.entries]
        with pytest.raises(DimensionMismatch):
            TransportPlan(shifted, plan.objective, 3, 3)
        with pytest.raises(DimensionMismatch):
            TransportPlan([(0, 0, 0.5), (0, 5, 0.5)], 0.0, 3, 3)
        with pytest.raises(DimensionMismatch):
            TransportPlan([(2, 0, 1.0)], 0.0, 2, 3)
        assert check_stability(plan, duals, cost, third, third).passed

    def test_plan_shape_must_match_the_cost(self):
        third = np.full(3, 1.0 / 3)
        cost = CostMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        plan, duals = solve_exact(cost, third, third)
        for n_tasks, n_agents in ((4, 3), (3, 4)):
            wide = TransportPlan(plan.entries, plan.objective, n_tasks, n_agents)
            with pytest.raises(DimensionMismatch):
                check_stability(wide, duals, cost, third, third)

    @settings(max_examples=200, deadline=None)
    @given(_stored_certificates())
    def test_entries_agree_with_the_dense_plan(self, case):
        # the reference reads every figure off the dense plan, as check_stability once did
        plan, duals, cost, mu, nu = case
        task, agent, mass = plan.entries["task"], plan.entries["agent"], plan.entries["mass"]
        dense = np.zeros((plan.n_tasks, plan.n_agents))
        np.add.at(dense, (task, agent), mass)
        rows, cols = dense.sum(axis=1), dense.sum(axis=0)
        bound = 1e-8 * max(1.0, float(np.abs(cost.values).max()))
        with np.errstate(invalid="ignore"):
            gap = duals.u[:, None] + duals.v[None, :] - cost.values
            slack = float(np.abs(gap[task, agent]).max(initial=0.0))
            marginal = max(float(np.abs(rows - mu).max()), float(np.abs(cols - nu).max()))
            recomputed = float((dense * cost.values).sum())
        objective_ok = abs(plan.objective - recomputed) <= bound
        passed = (gap.max() <= bound and slack <= bound and marginal <= 1e-9
                  and not np.isnan(mass).any() and (mass >= 0.0).all() and objective_ok)
        # summed in another order, a sum may move by a few ulps of the size of its terms
        ulps = 8 * np.finfo(float).eps * (1.0 + np.nansum(np.abs(mass)))
        cost_ulps = 8 * np.finfo(float).eps * (1.0 + np.nansum(np.abs(dense * cost.values)))

        assert_allclose(plan.row_sums(), rows, rtol=0.0, atol=ulps)
        assert_allclose(plan.col_sums(), cols, rtol=0.0, atol=ulps)
        report = check_stability(plan, duals, cost, mu, nu)
        np.testing.assert_equal(report.max_violation, gap.max())
        np.testing.assert_equal(report.max_slack_on_support, slack)
        assert_allclose(report.max_marginal_error, marginal, rtol=0.0, atol=ulps)
        assert_allclose(report.recomputed_objective, recomputed, rtol=0.0, atol=cost_ulps)
        assert (report.objective_ok, report.passed) == (objective_ok, passed)

    def test_holds_one_cost_sized_array(self):
        # beyond its inputs, check_stability builds only the gap (u_i + v_j) - c_ij
        tasks, agents = generate(ScenarioSpec("gaussian_mixture", 2, 600, 600, seed=7))
        solution = solve(tasks, agents)
        cost = cost_matrix(tasks, agents)
        inputs = (solution.plan, solution.duals, cost, tasks.weights, agents.weights)
        tracemalloc.start()
        try:
            report = check_stability(*inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak <= 1.2 * cost.values.nbytes

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_tol_rejected(self, tol):
        plan, duals = solve_exact(CANONICAL, HALF, HALF)
        with pytest.raises(ValueError):
            check_stability(plan, duals, CANONICAL, HALF, HALF, tol=tol)


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

    @pytest.mark.parametrize("case", ["canonical", "huge_epsilon", "zero_weight_task"])
    def test_matches_reference_loop(self, case):
        # the sweeps finish these before the violation stalls, so no Newton attempt runs;
        # on the same textbook log-sum-exp the two loops agree bit for bit
        cost, mu, nu, epsilon, tol = _entropic_case(case)
        entries, objective, sweeps = _reference_sinkhorn(
            cost, mu, nu, epsilon, tol, _textbook_logsumexp
        )
        plan = solve_entropic(cost, mu, nu, epsilon, tol=tol, max_iter=sweeps)
        assert plan.entries.tolist() == list(entries)
        assert plan.objective == objective
        with pytest.raises(IterationLimit if sweeps > 1 else ValueError):  # max_iter 0 is invalid
            solve_entropic(cost, mu, nu, epsilon, tol=tol, max_iter=sweeps - 1)

    @pytest.mark.parametrize(
        "case", [f"criterion7_{size}" for size in range(4, 9)] + ["mixture_20", "mixture_34"]
    )
    def test_newton_finish_matches_converged_reference(self, case):
        # Newton steps finish these in fewer sweeps than the reference takes, so the
        # plans differ in their bits but must be the same coupling within the tolerance
        cost, mu, nu, epsilon, tol = _entropic_case(case)
        entries, objective, sweeps = _reference_sinkhorn(cost, mu, nu, epsilon, tol, logsumexp)
        reference = TransportPlan(entries, objective, cost.n_tasks, cost.n_agents)
        plan = solve_entropic(cost, mu, nu, epsilon, tol=tol, max_iter=sweeps - 1)
        assert np.abs(plan.row_sums() - mu).max() < tol
        assert np.abs(plan.col_sums() - nu).max() < tol
        assert np.abs(plan.to_dense() - reference.to_dense()).max() <= 10 * tol
        assert abs(plan.objective - objective) <= 1e-7 * abs(objective)

    @pytest.mark.parametrize(
        "case",
        ["criterion7_6", "plateau", "zero_weight_small_epsilon"]
        + [f"mixture_{seed}" for seed in range(1, 13)],
    )
    def test_first_newton_attempt_finishes(self, case, monkeypatch):
        # the sweeps stall far from the optimum here, where a Newton direction is up to
        # 1e9 x eps long; the eps-continuation starts Newton near each stage's optimum,
        # and the trust radius, which grows while trials are taken, carries it there
        outcomes = []
        finish = odtalloc.solver._newton_finish

        def counted(*args):
            plan = finish(*args)
            outcomes.append(plan is not None)
            return plan

        monkeypatch.setattr(odtalloc.solver, "_newton_finish", counted)
        cost, mu, nu, epsilon, tol = _entropic_case(case)
        plan = solve_entropic(cost, mu, nu, epsilon, tol=tol)
        assert outcomes == [True]
        assert np.abs(plan.row_sums() - mu).max() < tol
        assert np.abs(plan.col_sums() - nu).max() < tol

    @pytest.mark.parametrize("case", [f"mixture_{seed}" for seed in range(1, 13)])
    def test_benchmark_mixtures_take_few_newton_directions(self, case, monkeypatch):
        # the eps-continuation hands Newton potentials it converges on quadratically;
        # started from the stalled potentials at eps, it took 14-27 directions here
        directions = 0
        direction = odtalloc.solver._newton_direction

        def counted(*args):
            nonlocal directions
            directions += 1
            return direction(*args)

        monkeypatch.setattr(odtalloc.solver, "_newton_direction", counted)
        cost, mu, nu, epsilon, tol = _entropic_case(case)
        solve_entropic(cost, mu, nu, epsilon, tol=tol)
        assert 1 <= directions <= 16

    def test_unsolvable_newton_system_hands_back_to_the_sweeps(self, monkeypatch):
        # a LinAlgError from the Newton system fails the attempt, and the sweeps go on
        # from their own potentials: the plan is the one of the sweeps alone, bit for bit
        cost, mu, nu, epsilon, tol = _entropic_case("criterion7_4")
        monkeypatch.setattr(odtalloc.solver, "_newton_finish", lambda *args: None)
        sweeps_alone = solve_entropic(cost, mu, nu, epsilon, tol=tol)
        monkeypatch.undo()
        solves = 0

        def singular(*args):
            nonlocal solves
            solves += 1
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        plan = solve_entropic(cost, mu, nu, epsilon, tol=tol)
        assert solves >= 1
        assert np.array_equal(plan.entries, sweeps_alone.entries)
        assert plan.objective == sweeps_alone.objective

    def test_failed_attempts_widen_the_wait(self, monkeypatch):
        # tol below the rounding floor: every attempt fails, and each failure doubles the
        # wait before the next, so attempts stay logarithmic in max_iter
        attempts = 0
        finish = odtalloc.solver._newton_finish

        def counted(*args):
            nonlocal attempts
            attempts += 1
            return finish(*args)

        monkeypatch.setattr(odtalloc.solver, "_newton_finish", counted)
        cost, mu, nu, epsilon, _ = _entropic_case("mixture_1")
        with pytest.raises(IterationLimit):
            solve_entropic(cost, mu, nu, epsilon, tol=1e-18, max_iter=2000)
        assert 1 <= attempts <= 1 + np.log2(2000 / odtalloc.solver._STALL_SWEEPS)

    def test_failed_attempts_start_one_stage_higher(self, monkeypatch):
        # the case above: the k-th attempt starts at stage _EPS_STAGES + k - 1
        tops = []
        finish = odtalloc.solver._newton_finish

        def spied(g, sweeps, epsilon, tol, top):
            tops.append(top)
            return finish(g, sweeps, epsilon, tol, top)

        monkeypatch.setattr(odtalloc.solver, "_newton_finish", spied)
        cost, mu, nu, epsilon, _ = _entropic_case("mixture_1")
        with pytest.raises(IterationLimit):
            solve_entropic(cost, mu, nu, epsilon, tol=1e-18, max_iter=2000)
        assert len(tops) >= 2
        assert tops == [odtalloc.solver._EPS_STAGES + k for k in range(len(tops))]

    @pytest.mark.parametrize("epsilon", [5e-324, 1e300, 1e306, 1.7e308])
    def test_overflowing_potentials_end_in_iteration_limit(self, epsilon):
        # at either end of the float range the potentials, or a stage's at 4^k x eps,
        # overflow; under tier-1's warnings-as-errors a numpy warning would fail this
        cost, mu, nu, _, _ = _entropic_case("mixture_1")
        with pytest.raises(IterationLimit):
            solve_entropic(cost, mu, nu, epsilon, tol=1e-18, max_iter=2000)

    @pytest.mark.parametrize("epsilon", [5e-324, 1e308])
    def test_nan_violation_ends_the_solve(self, epsilon, monkeypatch):
        # the first sweep overflows the potentials to nan, which no later sweep undoes
        sweeps = 0
        sweep = odtalloc.solver._Sweeps.sweep

        def counted(*args):
            nonlocal sweeps
            sweeps += 1
            return sweep(*args)

        monkeypatch.setattr(odtalloc.solver._Sweeps, "sweep", counted)
        cost, mu, nu, _, _ = _entropic_case("mixture_1")
        with pytest.raises(IterationLimit) as err:
            solve_entropic(cost, mu, nu, epsilon)
        assert np.isnan(err.value.violation)
        assert sweeps <= 2

    def test_tiny_epsilon_draws_are_near_the_exact_optimum(self):
        # eps down to 10^-7.5 x the spread: a first attempt stalls on a plateau here, and
        # the next ones, starting a stage higher each, must still finish the solve
        limits, outside = [], []
        for seed in range(40):
            cost, mu, nu, epsilon, tol = _entropic_case(f"tiny_epsilon_{seed}")
            try:
                plan = solve_entropic(cost, mu, nu, epsilon, tol=tol, max_iter=5000)
            except IterationLimit:
                limits.append(seed)
                continue
            optimum = solve_exact(cost, mu, nu)[0].objective
            slack = 2.0 * (mu.size + nu.size) * tol * float(np.abs(cost.values).max())
            gap = plan.objective - optimum
            if not -slack <= gap <= epsilon * np.log(mu.size * nu.size) + slack:
                outside.append(seed)
        assert limits == []
        assert outside == []

    @pytest.mark.parametrize("case", [f"small_epsilon_{seed}" for seed in (1, 2, 57, 233)])
    def test_small_epsilon_is_near_the_exact_optimum(self, case):
        # the first seeds to end in IterationLimit when Newton started at eps itself:
        # 1 has a tiny (< 1e-5) agent weight, 2 zero weights but no tiny one, 57 and 233 neither
        cost, mu, nu, epsilon, tol = _entropic_case(case)
        plan = solve_entropic(cost, mu, nu, epsilon, tol=tol, max_iter=5000)
        assert np.abs(plan.row_sums() - mu).max() < tol
        assert np.abs(plan.col_sums() - nu).max() < tol
        # the entropic optimum costs at most eps x log(m n) above the LP optimum; the
        # slack covers moving the (m + n) x tol of mass that the marginals may be off by
        optimum = solve_exact(cost, mu, nu)[0].objective
        slack = 2.0 * (mu.size + nu.size) * tol * float(np.abs(cost.values).max())
        gap = plan.objective - optimum
        assert -slack <= gap <= epsilon * np.log(mu.size * nu.size) + slack

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
    def test_logsumexp_is_scipys_within_rounding(self, a):
        # special values exactly; finite ones within 4 ulps of the slice's largest magnitude
        for axis in (0, 1):
            expected = logsumexp(a, axis=axis)
            got = _logsumexp(a.copy(), axis)
            finite = np.isfinite(expected)
            assert np.array_equal(got[~finite], expected[~finite], equal_nan=True)
            magnitude = np.abs(np.where(np.isfinite(a), a, 0.0)).max(axis=axis)
            scale = np.maximum.reduce([magnitude, np.abs(expected), np.ones_like(expected)])
            error = np.abs(got[finite] - expected[finite])
            assert np.all(error <= 4 * np.spacing(scale[finite]))


def _small_integer_instances():
    """150 instances (cost, mu, nu, the supports of every optimal vertex), m + n <= 8.

    Integer costs 0-2 and integer weights, so vertex enumeration finds the
    optimal supports exactly; a third of the squares are uniform.
    """
    rng = rng_stream(305)
    for trial in range(150):
        m = 1 + trial % 5
        n = 1 + (trial // 5) % (8 - m)
        cost = CostMatrix(np.floor(3 * np.array(rng.uniforms(m * n))).reshape(m, n))
        if m == n and trial % 3 == 0:
            mu = nu = np.ones(m)  # uniform square: the assignment path
        else:
            mu = 1 + np.floor(4 * np.array(rng.uniforms(m)))
            nu = 1 + np.floor(4 * np.array(rng.uniforms(n)))
            mu, nu = mu * nu.sum(), nu * mu.sum()
        yield cost, mu, nu, optimal_supports(cost, mu, nu)


class TestReduction:
    def test_canonical_instance_constants(self):
        # about the agents' mean z = 0.5, verified against solve_exact: alpha = beta = 0.5,
        # so K = 1, the reduced optimum is -0.5 and the full one 0
        tasks = TaskSet([[0.0], [1.0]], [[0.0], [1.0]])
        agents = DiscreteMeasure([[0.0], [1.0]])
        alpha, beta, p, q = factors(tasks, agents)
        reduced = reduced_cost_matrix(p, q)
        assert_allclose(reduced.values, [[-0.5, 0.5], [0.5, -0.5]])
        assert_array_equal(alpha, [0.5, 0.5])
        assert_array_equal(beta, [0.5, 0.5])
        plan = solve(tasks, agents, "exact").plan
        assert plan.support() == {(0, 0), (1, 1)}
        assert solve_exact(reduced, tasks.weights, agents.weights)[0].objective == -0.5
        exact, _ = solve_exact(cost_matrix(tasks, agents), tasks.weights, agents.weights)
        assert abs(plan.objective - exact.objective) <= 1e-12
        assert plan.objective == 0.0

    def test_forced_pair_gives_trip_cost(self):
        tasks = TaskSet([[1.0, 0.0]], [[0.0, 1.0]])
        agents = DiscreteMeasure([[0.3, 0.3]])
        full_objective = solve(tasks, agents, "exact").plan.objective
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
            full_objective = solve(tasks, agents, "exact").plan.objective
            exact, _ = solve_exact(cost_matrix(tasks, agents), mu, nu)
            assert abs(full_objective - exact.objective) <= 1e-8

    def test_unique_support_detection(self):
        tasks = TaskSet([[0.0], [1.0]], [[0.0], [1.0]])
        agents = DiscreteMeasure([[0.0], [1.0]])
        cost = cost_matrix(tasks, agents)
        plan, duals = solve_exact(cost, tasks.weights, agents.weights)
        assert support_is_unique(cost, tasks.weights, agents.weights, plan, duals)

    def test_tied_instance_not_unique(self):
        # constant cost: every coupling optimal, perturbation moves the support
        cost = CostMatrix(np.ones((4, 4)))
        w = np.full(4, 0.25)
        plan, duals = solve_exact(cost, w, w)
        assert not support_is_unique(cost, w, w, plan, duals)

    def test_tied_instance_not_unique_at_large_costs(self):
        cost = CostMatrix(np.full((4, 4), 1e8))
        w = np.full(4, 0.25)
        plan, duals = solve_exact(cost, w, w)
        assert not support_is_unique(cost, w, w, plan, duals)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 1000.0])
    def test_tied_general_weights_not_unique(self, scale):
        # c_ij = scale * (i + j): every feasible plan has the same objective
        rows, cols = np.indices((4, 5))
        cost = CostMatrix(scale * (rows + cols))
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        nu = np.array([0.25, 0.15, 0.2, 0.1, 0.3])
        plan, duals = solve_exact(cost, mu, nu)
        assert not support_is_unique(cost, mu, nu, plan, duals)

    def test_a_single_optimal_support_is_reported_unique(self):
        # vertex enumeration finds every optimal support exactly; where there is one, the
        # plan has it and is reported unique
        singles = 0
        for cost, mu, nu, supports in _small_integer_instances():
            if len(supports) == 1:
                singles += 1
                plan, duals = solve_exact(cost, mu, nu)
                assert plan.support() == set(*supports)
                assert support_is_unique(cost, mu, nu, plan, duals)
        assert singles >= 50

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the perturbed re-solve reports ties as unique (ROADMAP item 2)")
    def test_several_optimal_supports_are_reported_not_unique(self):
        # where there are two or more, the plan has one of them and is reported not unique
        tied = []
        for cost, mu, nu, supports in _small_integer_instances():
            if len(supports) > 1:
                plan, duals = solve_exact(cost, mu, nu)
                assert plan.support() in supports
                tied.append(support_is_unique(cost, mu, nu, plan, duals))
        assert len(tied) >= 50
        assert not any(tied)

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform_square", "general_weights"])
    def test_unique_matches_perturbed_cost_resolve(self, uniform):
        # shifting rows and columns leaves the optimal set alone: re-solving the reduced
        # costs reports what re-solving the cost itself does on generic mixtures
        rng = rng_stream(303 if uniform else 304)
        for trial in range(24):
            size = 2 + (trial * 7) % 29
            m, n = (size, size) if uniform else (size, 2 + (trial * 5) % 23)
            tasks, agents = generate(ScenarioSpec("gaussian_mixture", 1 + trial % 3, m, n, 500 + trial))
            if not uniform:
                tasks = TaskSet(tasks.origins, tasks.destinations, rng.uniforms(m) + 0.2)
                agents = DiscreteMeasure(agents.points, rng.uniforms(n) + 0.2)
            p, q = factors(tasks, agents)[2:]
            costs = (cost_matrix(tasks, agents), reduced_cost_matrix(p, q))
            for cost in costs:
                plan, duals = solve_exact(cost, tasks.weights, agents.weights)
                assert support_is_unique(cost, tasks.weights, agents.weights, plan, duals) == (
                    _perturbed_cost_unique(cost, tasks.weights, agents.weights, plan)
                )


@st.composite
def _drawn_instances(draw):
    dim = draw(st.integers(1, 3))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def points(rows):
        return draw(hnp.arrays(float, (rows, dim), elements=st.floats(-10.0, 10.0)))

    def weights(size):
        return draw(hnp.arrays(float, size, elements=st.floats(0.1, 1.0)))

    return TaskSet(points(m), points(m), weights(m)), DiscreteMeasure(points(n), weights(n))


@st.composite
def _instances_at_the_limit(draw):
    """1-4 points a side in 1-2 D, every coordinate anywhere in [-COORD_LIMIT, COORD_LIMIT],
    weights in [0, 1] with some weight on each side."""
    dim = draw(st.integers(1, 2))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def points(rows):
        return draw(hnp.arrays(float, (rows, dim), elements=st.floats(-COORD_LIMIT, COORD_LIMIT)))

    def weights(size):
        elements = st.floats(0.0, 1.0)
        return draw(hnp.arrays(float, size, elements=elements).filter(lambda w: w.sum() > 0.0))

    return TaskSet(points(m), points(m), weights(m)), DiscreteMeasure(points(n), weights(n))


@st.composite
def _instances_far_from_the_origin(draw):
    """1-4 points a side in 1-2 D at offset + U(-1, 1), unequal weights in [0.1, 1], where
    the offset has norm 1e3-1e8 and a random direction, as projected city coordinates do."""
    dim = draw(st.integers(1, 2))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    direction = np.array([math.cos(angle), math.sin(angle)][:dim])
    offset = 10.0 ** draw(st.floats(3.0, 8.0)) * direction / np.linalg.norm(direction)

    def points(rows):
        return offset + draw(hnp.arrays(float, (rows, dim), elements=st.floats(-1.0, 1.0)))

    def weights(size):
        return draw(hnp.arrays(float, size, elements=st.floats(0.1, 1.0)))

    return TaskSet(points(m), points(m), weights(m)), DiscreteMeasure(points(n), weights(n))


class TestSolve:
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("method", METHODS)
    def test_entries_are_one_sorted_read_only_array(self, method, uniform):
        tasks, agents = _random_instance(rng_stream(406), 7, 7 if uniform else 6, uniform=uniform)
        entries = solve(tasks, agents, method).plan.entries
        assert type(entries) is np.ndarray and entries.dtype == ENTRY and entries.ndim == 1
        assert not entries.flags.writeable
        with pytest.raises(ValueError):
            entries["mass"][0] = 0.0
        cells = entries[["task", "agent"]].tolist()
        assert all(a < b for a, b in zip(cells, cells[1:]))  # (task, agent) strictly increases
        assert entries["mass"].min() > (1e-18 if method == "entropic" else 1e-14)

    @pytest.mark.parametrize("uniform, arrays", [(True, 3.3), (False, 4.8)],
                             ids=["uniform_square", "general_weights"])
    def test_working_set(self, uniform, arrays):
        # an exact solve's peak is the cost, the uniqueness re-solve's perturbed copy and
        # the working arrays of one solve; a temporary kept alive past its use breaks it
        m, n = (300, 300) if uniform else (300, 250)
        tasks, agents = generate(ScenarioSpec("gaussian_mixture", 2, m, n, seed=7))
        if not uniform:
            rng = rng_stream(7)
            tasks = TaskSet(tasks.origins, tasks.destinations, rng.uniforms(m) + 0.2)
            agents = DiscreteMeasure(agents.points, rng.uniforms(n) + 0.2)
        solve(tasks, agents)  # lazy imports stay out of the peak
        tracemalloc.start()
        try:
            solve(tasks, agents)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 8 * m * n

    def test_exact_is_the_direct_solve(self):
        # the direct solve of the trip-cost matrix is the oracle; solve lifts its duals from
        # the rank-n cost, so they are the oracle's up to the one shift a tree basis leaves
        tasks, agents = _random_instance(rng_stream(401), 7, 6, uniform=False)
        solution = solve(tasks, agents, "exact")
        cost = cost_matrix(tasks, agents)
        plan, duals = solve_exact(cost, tasks.weights, agents.weights)
        assert len(plan.entries) == 7 + 6 - 1  # a nondegenerate basis: its duals are unique
        assert np.array_equal(solution.plan.entries, plan.entries)
        assert (solution.plan.n_tasks, solution.plan.n_agents) == (plan.n_tasks, plan.n_agents)
        assert abs(solution.plan.objective - plan.objective) <= 1e-14 * abs(plan.objective)
        shift = solution.duals.u[0]
        bound = 1e-14 * float(np.abs(cost.values).max())
        assert_allclose(solution.duals.u - shift, duals.u, rtol=0.0, atol=bound)
        assert_allclose(solution.duals.v + shift, duals.v, rtol=0.0, atol=bound)
        unique = support_is_unique(cost, tasks.weights, agents.weights, plan, duals)
        assert solution.unique == unique

    def test_reduced_duals_certify_the_trip_cost(self):
        tasks, agents = _random_instance(rng_stream(402), 9, 8, uniform=False)
        solution = solve(tasks, agents, "exact")
        cost, mu, nu = cost_matrix(tasks, agents), tasks.weights, agents.weights
        assert check_stability(solution.plan, solution.duals, cost, mu, nu).passed

    def test_entropic_default_epsilon(self):
        tasks, agents = _random_instance(rng_stream(403), 5, 4, uniform=False)
        cost = cost_matrix(tasks, agents)
        epsilon = 1e-3 * float(cost.values.max() - cost.values.min())
        solution = solve(tasks, agents, "entropic")
        plan = solve_entropic(cost, tasks.weights, agents.weights, epsilon)
        assert np.array_equal(solution.plan.entries, plan.entries)
        assert (solution.plan.objective, solution.plan.n_tasks, solution.plan.n_agents) == (
            plan.objective, plan.n_tasks, plan.n_agents)
        assert solution.duals is None and solution.unique is False

    def test_every_method_states_the_trip_cost(self):
        tasks, agents = _random_instance(rng_stream(405), 6, 5, uniform=False)
        mu, nu = tasks.weights, agents.weights
        cost = cost_matrix(tasks, agents)
        alpha, beta, p, q = factors(tasks, agents)
        reduced = solve_exact(reduced_cost_matrix(p, q), mu, nu)[0]
        lifted = float(nu @ beta) + float(mu @ alpha) + 2.0 * reduced.objective
        assert solve(tasks, agents, "exact").plan.objective.hex() == lifted.hex()
        exact = solve_exact(cost, mu, nu)[0]
        assert abs(lifted - exact.objective) <= 1e-14 * abs(exact.objective)
        epsilon = 1e-3 * float(cost.values.max() - cost.values.min())
        entropic = solve_entropic(cost, mu, nu, epsilon)
        assert solve(tasks, agents, "entropic").plan.objective == entropic.objective

    def test_unknown_method(self):
        # reduced is the CLI's other spelling of exact, and no method of the library
        assert METHODS == ("exact", "entropic")
        tasks, agents = _random_instance(rng_stream(404), 2, 2)
        for method in ("greedy", "reduced"):
            with pytest.raises(ValueError):
                solve(tasks, agents, method)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_instances_at_the_limit())
    def test_coordinates_at_the_limit_solve_and_certify(self, instance):
        # warnings are errors here, so an overflow in any step fails the test
        tasks, agents = instance
        cost, mu, nu = cost_matrix(tasks, agents), tasks.weights, agents.weights
        for method in METHODS:
            solution = solve(tasks, agents, method)
            masses = [mass for _, _, mass in solution.plan.entries]
            assert np.isfinite(solution.plan.objective) and np.isfinite(masses).all()
            if method != "entropic":
                assert np.isfinite(solution.duals.u).all() and np.isfinite(solution.duals.v).all()
                assert check_stability(solution.plan, solution.duals, cost, mu, nu).passed

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_instances_far_from_the_origin())
    def test_reduced_certifies_far_from_the_origin(self, instance):
        # the split is taken about the agents' mean, so no term grows with the offset
        tasks, agents = instance
        cost, mu, nu = cost_matrix(tasks, agents), tasks.weights, agents.weights
        exact = solve_exact(cost, mu, nu)[0].objective
        solution = solve(tasks, agents, "exact")
        assert check_stability(solution.plan, solution.duals, cost, mu, nu).passed
        assert abs(solution.plan.objective - exact) <= 1e-12 * max(1.0, abs(exact))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_drawn_instances())
    def test_exact_and_reduced_agree_and_certify(self, instance):
        tasks, agents = instance
        cost, mu, nu = cost_matrix(tasks, agents), tasks.weights, agents.weights
        oracle, oracle_duals = solve_exact(cost, mu, nu)
        solution = solve(tasks, agents, "exact")
        objective = oracle.objective
        assert abs(objective - solution.plan.objective) <= 1e-9 * max(1.0, abs(objective))
        if support_is_unique(cost, mu, nu, oracle, oracle_duals):
            assert np.array_equal(solution.plan.entries, oracle.entries)
        assert check_stability(solution.plan, solution.duals, cost, mu, nu).passed
        assert np.abs(solution.plan.row_sums() - tasks.weights).max() <= 1e-9
        assert np.abs(solution.plan.col_sums() - agents.weights).max() <= 1e-9


@st.composite
def _priced_uniform_squares(draw):
    """A uniform square cost, n <= 8, of reals or of tying integers 0-2, and finite column
    prices within 10 x max|c|, often at the extremes."""
    n = draw(st.integers(1, 8))
    elements = draw(st.sampled_from([st.floats(-100.0, 100.0), st.integers(0, 2).map(float)]))
    values = draw(hnp.arrays(float, (n, n), elements=elements))
    factor = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-10.0, 10.0]))
    prices = draw(hnp.arrays(float, n, elements=factor)) * float(np.abs(values).max())
    return values, prices


def _same_solution(a, b):
    return (
        np.array_equal(a.plan.entries, b.plan.entries)
        and a.plan.objective.hex() == b.plan.objective.hex()
        and a.duals.u.tobytes() == b.duals.u.tobytes()
        and a.duals.v.tobytes() == b.duals.v.tobytes()
        and a.unique == b.unique
    )


def _cold_solve(monkeypatch, tasks, agents, method):
    with monkeypatch.context() as patch:
        patch.setattr(odtalloc.solver, "_WARM_START_MIN", math.inf)
        return solve(tasks, agents, method)


def _line_of_agents(offset):
    agents = generate(ScenarioSpec("gaussian_mixture", 2, 60, 60, 3))[1].points.copy()
    agents[:, 1] = offset
    return agents


class TestWarmStart:
    """solve prices the columns of a large assignment; the search starts from the prices."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_priced_uniform_squares())
    def test_prices_are_a_hint_never_an_input(self, drawn):
        values, prices = drawn
        cost = CostMatrix(values)
        w = np.full(cost.n_tasks, 1.0 / cost.n_tasks)
        cold, cold_duals = solve_exact(cost, w, w)
        warm, warm_duals = solve_exact(cost, w, w, prices)
        # cost - prices rounds each entry by up to 1.1e-16 x 11 max|c|, so the shifted search's
        # optimum can miss the true one by 2n such errors: relative to max|c|, as an objective
        # near 0 (1e-68 against 1e-80 in one drawn case) has no relative precision left
        bound = 1e-12 * max(abs(cold.objective), float(np.abs(values).max()))
        assert abs(warm.objective - cold.objective) <= bound
        assert check_stability(warm, warm_duals, cost, w, w).passed
        if warm.support() == cold.support():
            assert np.array_equal(warm.entries, cold.entries)
            assert warm_duals.u.tobytes() == cold_duals.u.tobytes()
            assert warm_duals.v.tobytes() == cold_duals.v.tobytes()

    @pytest.mark.parametrize(
        "kind,dim,size,seed,params",
        [
            ("gaussian_mixture", 2, 300, 1, {}),
            ("gaussian_mixture", 2, 300, 7, {}),
            ("city_box", 2, 300, 1, {"units": "meters"}),
            ("gaussian_mixture", 1, 200, 1, {}),
            ("gaussian_mixture", 3, 200, 1, {}),
        ],
    )
    def test_warm_is_cold_where_the_optimum_is_unique(self, monkeypatch, kind, dim, size, seed,
                                                      params):
        tasks, agents = generate(ScenarioSpec(kind, dim, size, size, seed, params))
        prices = gaussian_prices(*factors(tasks, agents)[2:], tasks.weights, agents.weights)
        assert np.isfinite(prices).all()  # the warm path runs
        warm = solve(tasks, agents, "exact")
        assert warm.unique
        assert _same_solution(warm, _cold_solve(monkeypatch, tasks, agents, "exact"))

    @pytest.mark.parametrize(
        "points,finite",
        [
            (_line_of_agents(0.0), False),  # y - z is exactly 0 on the line's axis
            (_line_of_agents(0.75), True),  # z rounds off the line: y - z is -3.3e-16
            (np.tile([0.5, -1.25], (60, 1)), False),
            (np.tile([0.3, 0.7], (60, 1)), True),  # every price is the same
        ],
        ids=["line_at_0", "line_at_0.75", "point_exact_mean", "point_rounded_mean"],
    )
    def test_agents_that_do_not_spread_fall_back_quietly(self, monkeypatch, points, finite):
        # warnings are errors here, so a nan or inf price that warns fails the test
        tasks = generate(ScenarioSpec("gaussian_mixture", 2, 60, 60, 3))[0]
        agents = DiscreteMeasure(points)
        prices = gaussian_prices(*factors(tasks, agents)[2:], tasks.weights, agents.weights)
        assert bool(np.isfinite(prices).all()) == finite
        cold = _cold_solve(monkeypatch, tasks, agents, "exact")
        assert _same_solution(solve(tasks, agents, "exact"), cold)

    def test_prices_of_the_wrong_size_are_rejected(self):
        with pytest.raises(DimensionMismatch, match="3 prices for 2 agents"):
            solve_exact(CANONICAL, HALF, HALF, np.zeros(3))
