"""Exact and entropic solvers for the discrete coupling problem.

The exact path is a transportation (network) simplex over the dense
task x agent grid: the basis is a spanning tree on the bipartite node set,
duals come from the tree with u_0 = 0, the entering cell is the most
negative reduced cost, and Bland's rule takes over after a run of
degenerate pivots so termination is guaranteed.  The entropic path is
log-domain Sinkhorn scaling.  Both return plans whose row/column sums
reproduce the prescribed marginals.  ``solve`` is the one entry point for
a task set and agents: it builds the cost, runs a method and certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .cost import CostMatrix, cost_matrix, marginal_terms, reduced_cost_matrix, reduction_constant
from .errors import DimensionMismatch, IterationLimit, MassMismatch, TooLarge
from .measures import DiscreteMeasure, TaskSet, index_pushforward
from .rng import rng_stream

_MASS_DROP = 1e-14  # plan entries at or below this are not stored
_UNIQUENESS_SEED = 0x0D7A110C  # fixed seed for the perturbation re-solve
_MAX_PIVOTS = 2_000_000  # the simplex raises IterationLimit beyond this

METHODS = ("exact", "entropic", "reduced")


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling over task x agent indices.

    ``objective`` is <c, pi> for the cost matrix the plan was solved
    against.  Zero-mass entries are never stored; an exact solve stores at
    most n_tasks + n_agents - 1 entries (a basic feasible solution).
    """

    entries: tuple[tuple[int, int, float], ...]
    objective: float
    n_tasks: int
    n_agents: int

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_tasks, self.n_agents))
        for i, j, mass in self.entries:
            dense[i, j] += mass
        return dense

    def row_sums(self) -> np.ndarray:
        return self.to_dense().sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.to_dense().sum(axis=0)

    def support(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.entries}


@dataclass(frozen=True)
class DualPotentials:
    """Per-task and per-agent dual values certifying optimality/stability."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).ravel()
        v = np.asarray(self.v, dtype=float).ravel()
        u.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class StabilityReport:
    max_violation: float
    max_slack_on_support: float
    passed: bool


def _checked_weights(cost: CostMatrix, mu_w, nu_w) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mu_w, dtype=float).ravel()
    nu = np.asarray(nu_w, dtype=float).ravel()
    if mu.size != cost.n_tasks or nu.size != cost.n_agents:
        raise DimensionMismatch(
            f"cost is {cost.n_tasks}x{cost.n_agents}, weights are {mu.size}/{nu.size}"
        )
    if abs(mu.sum() - nu.sum()) > 1e-9:
        raise MassMismatch(f"total masses differ: {mu.sum()!r} vs {nu.sum()!r}")
    return mu, nu


def _northwest_corner(mu: np.ndarray, nu: np.ndarray):
    """Initial basis by the north-west-corner rule.

    When a cell exhausts row and column simultaneously the row is treated
    as the exhausted side, which leaves a zero-mass basic cell in the next
    row and keeps the basis at exactly m + n - 1 cells (a spanning tree).
    """
    m, n = mu.size, nu.size
    mass = {}
    remaining_row = mu.copy()
    remaining_col = nu.copy()
    i = j = 0
    while True:
        alloc = min(remaining_row[i], remaining_col[j])
        mass[(i, j)] = alloc
        remaining_row[i] -= alloc
        remaining_col[j] -= alloc
        if i == m - 1 and j == n - 1:
            break
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif remaining_row[i] <= remaining_col[j]:
            i += 1
        else:
            j += 1
    return mass


class _SimplexState:
    """Spanning-tree basis kept as a rooted tree.

    Nodes are rows 0..m-1 and columns m..m+n-1; a basic cell (i, j) is the
    edge i -- m+j.  The tree is rooted at row 0 with parent/depth arrays so
    the pivot cycle is found by walking to the lowest common ancestor, and
    duals are repaired only on the subtree that gets re-hung.
    """

    def __init__(self, cost: np.ndarray, mu: np.ndarray, nu: np.ndarray):
        self.cost = cost
        self.m, self.n = cost.shape
        total = self.m + self.n
        self.mass = _northwest_corner(mu, nu)
        self.adj = [set() for _ in range(total)]
        for i, j in self.mass:
            self.adj[i].add(self.m + j)
            self.adj[self.m + j].add(i)
        self.parent = [0] * total
        self.depth = [0] * total
        self.u = np.zeros(self.m)
        self.v = np.zeros(self.n)
        self._root_from(0, 0)

    def _dual_of(self, node: int, anchor: int) -> None:
        """Set node's dual from the tree constraint u_i + v_j = c_ij."""
        m = self.m
        if node >= m:
            self.v[node - m] = self.cost[anchor, node - m] - self.u[anchor]
        else:
            self.u[node] = self.cost[node, anchor - m] - self.v[anchor - m]

    def _root_from(self, start: int, start_parent: int) -> None:
        """(Re)hang start's subtree below start_parent, repairing parent/depth/duals.

        The walk skips each node's parent; start == start_parent roots the tree.
        """
        self.parent[start] = start_parent
        if start == start_parent:
            self.depth[start] = 0
            self.u[0] = 0.0
        else:
            self.depth[start] = self.depth[start_parent] + 1
            self._dual_of(start, start_parent)
        stack = [start]
        while stack:
            a = stack.pop()
            for b in self.adj[a]:
                if b != self.parent[a]:
                    self.parent[b] = a
                    self.depth[b] = self.depth[a] + 1
                    self._dual_of(b, a)
                    stack.append(b)

    def _edge(self, a: int, b: int) -> tuple[int, int]:
        return (a, b - self.m) if a < self.m else (b, a - self.m)

    def cycle(self, enter_i: int, enter_j: int) -> list[tuple[int, int]]:
        """Cells of the unique basis cycle closed by the entering cell.

        In cycle order starting at the entering cell: even positions
        receive mass, odd positions donate.
        """
        a, b = enter_i, self.m + enter_j
        up_a, up_b = [a], [b]
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
            up_a.append(a)
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
            up_b.append(b)
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
            up_a.append(a)
            up_b.append(b)
        node_path = up_a + up_b[-2::-1]  # enter_i .. lca .. m+enter_j
        cells = [(enter_i, enter_j)]
        cells.extend(self._edge(p, q) for p, q in zip(node_path, node_path[1:]))
        return cells

    def pivot(self, enter_i: int, enter_j: int) -> float:
        """Bring (enter_i, enter_j) into the basis; returns the moved mass."""
        cells = self.cycle(enter_i, enter_j)
        donors = cells[1::2]
        theta = min(self.mass[c] for c in donors)
        leave = min(c for c in donors if self.mass[c] <= theta)
        for pos, cell in enumerate(cells):
            if pos == 0:
                continue
            if pos % 2 == 1:
                self.mass[cell] = max(0.0, self.mass[cell] - theta)
            else:
                self.mass[cell] += theta
        self.mass[(enter_i, enter_j)] = theta
        del self.mass[leave]

        # tree surgery: the leaving edge cuts off the subtree below child; re-hang
        # it from the entering endpoint inside it, found by walking up to child's depth
        leave_a, leave_b = leave[0], self.m + leave[1]
        child = leave_a if self.depth[leave_a] > self.depth[leave_b] else leave_b
        enter_a, enter_b = enter_i, self.m + enter_j
        node = enter_a
        while self.depth[node] > self.depth[child]:
            node = self.parent[node]
        self.adj[leave_a].discard(leave_b)
        self.adj[leave_b].discard(leave_a)
        self.adj[enter_a].add(enter_b)
        self.adj[enter_b].add(enter_a)
        if node == child:
            self._root_from(enter_a, enter_b)
        else:
            self._root_from(enter_b, enter_a)
        return theta


def _transportation_simplex(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray):
    """Optimal basis masses and duals for the balanced transportation LP."""
    state = _SimplexState(cost, mu, nu)
    m, n = cost.shape
    tol = 1e-11 * max(1.0, float(np.abs(cost).max()))
    bland_trigger = 3 * (m + n)
    degenerate_run = 0
    reduced = np.empty_like(cost)

    for _ in range(_MAX_PIVOTS):
        np.subtract(cost, state.u[:, None], out=reduced)
        np.subtract(reduced, state.v[None, :], out=reduced)
        if degenerate_run >= bland_trigger:
            candidates = np.argwhere(reduced < -tol)
            if candidates.size == 0:
                return state.mass, state.u, state.v
            enter_i, enter_j = map(int, candidates[0])  # row-major smallest
        else:
            flat = int(np.argmin(reduced))
            enter_i, enter_j = divmod(flat, n)
            if reduced[enter_i, enter_j] >= -tol:
                return state.mass, state.u, state.v
        theta = state.pivot(enter_i, enter_j)
        degenerate_run = degenerate_run + 1 if theta <= 1e-15 else 0
    raise IterationLimit(f"transportation simplex did not terminate within {_MAX_PIVOTS} pivots")


def _plan_from_mass(mass, cost: np.ndarray, m: int, n: int) -> TransportPlan:
    entries = tuple(
        (i, j, value)
        for (i, j), value in sorted(mass.items())
        if value > _MASS_DROP
    )
    objective = float(sum(value * cost[i, j] for (i, j), value in mass.items()))
    return TransportPlan(entries, objective, m, n)


def solve_exact(cost: CostMatrix, mu_w, nu_w) -> tuple[TransportPlan, DualPotentials]:
    """Globally optimal basic feasible solution of the transportation LP.

    Deterministic: ties in the entering cell resolve row-major, ties in the
    leaving ratio by smallest row then column index.
    """
    mu, nu = _checked_weights(cost, mu_w, nu_w)
    mass, u, v = _transportation_simplex(cost.values, mu, nu)
    plan = _plan_from_mass(mass, cost.values, mu.size, nu.size)
    return plan, DualPotentials(u, v)


def solve_entropic(
    cost: CostMatrix,
    mu_w,
    nu_w,
    epsilon: float,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> TransportPlan:
    """Entropy-regularized approximation via log-domain Sinkhorn scaling.

    Alternating potential updates with logsumexp (max) stabilization;
    terminates once the worst marginal violation of the implied plan is
    below ``tol``.  The reported objective is against the original cost
    matrix, with no entropy term.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    mu, nu = _checked_weights(cost, mu_w, nu_w)
    C = cost.values
    with np.errstate(divide="ignore"):
        log_mu = np.log(mu)
        log_nu = np.log(nu)
    f = np.zeros(mu.size)
    g = np.zeros(nu.size)
    violation = np.inf
    for _ in range(max_iter):
        f = epsilon * (log_mu - logsumexp((g[None, :] - C) / epsilon, axis=1))
        g = epsilon * (log_nu - logsumexp((f[:, None] - C) / epsilon, axis=0))
        with np.errstate(invalid="ignore"):
            plan = np.exp((f[:, None] + g[None, :] - C) / epsilon)
        plan = np.nan_to_num(plan, nan=0.0)
        violation = max(
            float(np.abs(plan.sum(axis=1) - mu).max()),
            float(np.abs(plan.sum(axis=0) - nu).max()),
        )
        if violation < tol:
            break
    else:
        raise IterationLimit(
            f"marginal violation {violation:.3e} after {max_iter} iterations",
            violation=violation,
        )
    entries = tuple(
        (int(i), int(j), float(plan[i, j]))
        for i, j in np.argwhere(plan > 1e-18)
    )
    objective = float((plan * C).sum())
    return TransportPlan(entries, objective, mu.size, nu.size)


def _enumerate_permutations(cost: np.ndarray) -> tuple[tuple, float]:
    from itertools import permutations

    size = cost.shape[0]
    best_perm, best_total = None, np.inf
    for perm in permutations(range(size)):
        total = sum(cost[i, perm[i]] for i in range(size))
        if total < best_total:
            best_perm, best_total = perm, total
    return best_perm, best_total


def _tree_masses(edges, mu: np.ndarray, nu: np.ndarray):
    """Masses forced by a candidate spanning-tree basis, or None if infeasible."""
    m, n = mu.size, nu.size
    degree = [0] * (m + n)
    incident = [[] for _ in range(m + n)]
    for idx, (i, j) in enumerate(edges):
        degree[i] += 1
        degree[m + j] += 1
        incident[i].append(idx)
        incident[m + j].append(idx)
    if any(d == 0 for d in degree):
        return None  # not spanning
    supply = list(mu) + list(nu)
    alive = [True] * len(edges)
    masses = [0.0] * len(edges)
    leaves = [node for node in range(m + n) if degree[node] == 1]
    for _ in range(len(edges)):
        if not leaves:
            return None  # cycle: not a tree
        node = leaves.pop()
        edge_idx = next((e for e in incident[node] if alive[e]), None)
        if edge_idx is None:
            return None
        i, j = edges[edge_idx]
        other = m + j if node == i else i
        masses[edge_idx] = supply[node]
        if masses[edge_idx] < -1e-12:
            return None  # infeasible vertex
        supply[other] -= supply[node]
        supply[node] = 0.0
        alive[edge_idx] = False
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    return [max(0.0, mass) for mass in masses]


def brute_force_small(cost: CostMatrix, mu_w, nu_w) -> TransportPlan:
    """Exhaustive oracle for small instances.

    Uniform square instances (N = n_tasks = n_agents <= 8) minimize over
    all permutation couplings.  Otherwise, with n_tasks + n_agents <= 8,
    every spanning-tree basis of the transportation polytope is enumerated
    and the best feasible vertex returned.
    """
    from itertools import combinations

    mu, nu = _checked_weights(cost, mu_w, nu_w)
    C = cost.values
    m, n = C.shape
    uniform = (
        m == n
        and np.allclose(mu, 1.0 / m, atol=1e-12)
        and np.allclose(nu, 1.0 / n, atol=1e-12)
    )
    if uniform:
        if m > 8:
            raise TooLarge(f"permutation oracle bounded at 8x8, got {m}x{n}")
        perm, total = _enumerate_permutations(C)
        entries = tuple(sorted((i, perm[i], 1.0 / m) for i in range(m)))
        return TransportPlan(entries, total / m, m, n)

    if m + n > 8:
        raise TooLarge(f"vertex enumeration bounded at m+n<=8, got {m}+{n}")
    cells = [(i, j) for i in range(m) for j in range(n)]
    best_masses, best_edges, best_total = None, None, np.inf
    for edges in combinations(cells, m + n - 1):
        masses = _tree_masses(edges, mu, nu)
        if masses is None:
            continue
        total = sum(mass * C[i, j] for (i, j), mass in zip(edges, masses))
        if total < best_total - 1e-15:
            best_masses, best_edges, best_total = masses, edges, total
    entries = tuple(
        (i, j, mass)
        for (i, j), mass in sorted(zip(best_edges, best_masses))
        if mass > _MASS_DROP
    )
    return TransportPlan(entries, float(best_total), m, n)


def check_stability(
    plan: TransportPlan, duals: DualPotentials, cost: CostMatrix, tol: float = 1e-8
) -> StabilityReport:
    """No-blocking-pair check: u_i + v_j <= c_ij everywhere, equality on support.

    ``tol`` is relative to max(1, max|c_ij|), the scale the simplex prices with:
    costs near 1e8 (city boxes in meters) have a float spacing above 1e-8.
    """
    if duals.u.size != cost.n_tasks or duals.v.size != cost.n_agents:
        raise DimensionMismatch("dual sizes do not match the cost matrix")
    bound = tol * max(1.0, float(np.abs(cost.values).max()))
    gap = duals.u[:, None] + duals.v[None, :] - cost.values
    max_violation = float(gap.max())
    if plan.entries:
        max_slack = max(abs(float(gap[i, j])) for i, j, _ in plan.entries)
    else:
        max_slack = 0.0
    return StabilityReport(
        max_violation=max_violation,
        max_slack_on_support=max_slack,
        passed=(max_violation <= bound and max_slack <= bound),
    )


def purity(plan: TransportPlan, tol: float = 1e-9) -> float:
    """Fraction of task weight whose row is carried by a single plan entry.

    A row counts as pure when its largest entry holds at least (1 - tol)
    of the row mass.
    """
    row_mass = {}
    row_max = {}
    for i, _, mass in plan.entries:
        row_mass[i] = row_mass.get(i, 0.0) + mass
        row_max[i] = max(row_max.get(i, 0.0), mass)
    total = sum(row_mass.values())
    if total <= 0.0:
        return 0.0
    pure = sum(
        mass for i, mass in row_mass.items() if row_max[i] >= (1.0 - tol) * mass
    )
    return pure / total


def support_is_unique(cost: CostMatrix, mu_w, nu_w, plan: TransportPlan) -> bool:
    """Perturbation surrogate for uniqueness of the optimal support.

    Re-solves with entry-wise cost perturbation 1e-10 U(0,1) from a fixed
    seed; reports unique only when the support is unchanged.  Discrete
    instances can tie, so this is a pragmatic check, not a proof.
    """
    rng = rng_stream(_UNIQUENESS_SEED)
    noise = np.array(rng.uniforms(cost.n_tasks * cost.n_agents)).reshape(
        cost.n_tasks, cost.n_agents
    )
    perturbed = CostMatrix(cost.values + 1e-10 * noise)
    re_plan, _ = solve_exact(perturbed, mu_w, nu_w)
    return re_plan.support() == plan.support()


@dataclass(frozen=True)
class Solution:
    """A plan with its trip-cost objective, trip-cost duals and ``support_is_unique``.

    ``entropic`` solutions carry no duals and are never marked unique.
    """

    plan: TransportPlan
    objective: float
    duals: DualPotentials | None
    unique: bool


def solve(
    tasks: TaskSet,
    agents: DiscreteMeasure,
    method: str = "exact",
    epsilon: float | None = None,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> Solution:
    """Allocate ``agents`` to ``tasks`` by one of ``METHODS``.

    ``exact`` runs the simplex on the trip-cost matrix.  ``reduced`` runs it
    on the rank-n cost of s = o + d and lifts objective and duals back
    through ``marginal_terms``.  ``entropic`` runs Sinkhorn on the trip-cost
    matrix; ``epsilon`` defaults to 1e-3 x the cost spread, and ``tol`` and
    ``max_iter`` apply to it alone.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "reduced":
        reduced = reduced_cost_matrix(index_pushforward(tasks), agents)
        plan, duals = solve_exact(reduced, tasks.weights, agents.weights)
        alpha, beta = marginal_terms(tasks, agents)
        return Solution(
            plan,
            reduction_constant(tasks, agents) + 2.0 * plan.objective,
            DualPotentials(alpha + 2.0 * duals.u, beta + 2.0 * duals.v),
            support_is_unique(reduced, tasks.weights, agents.weights, plan),
        )
    cost = cost_matrix(tasks, agents)
    if method == "exact":
        plan, duals = solve_exact(cost, tasks.weights, agents.weights)
        unique = support_is_unique(cost, tasks.weights, agents.weights, plan)
        return Solution(plan, plan.objective, duals, unique)
    if epsilon is None:
        epsilon = 1e-3 * max(float(cost.values.max() - cost.values.min()), 1e-12)
    plan = solve_entropic(
        cost, tasks.weights, agents.weights, epsilon=epsilon, tol=tol, max_iter=max_iter
    )
    return Solution(plan, plan.objective, None, False)
