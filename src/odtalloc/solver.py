"""Exact and entropic solvers for the discrete coupling problem.

The exact path has two solvers, chosen from the input.  A uniform square
instance (n tasks, n agents, every weight equal) has a permutation as an
optimal coupling (Birkhoff), so it is solved as an assignment by scipy's
``linear_sum_assignment`` (Crouse 2016), on a large one after its columns
are shifted by the prices of a Gaussian map, which keeps the optimal set,
and its duals are recovered by Bellman-Ford on the row potentials.  Every
other instance goes to a transportation (network) simplex over the dense
task x agent grid: the basis is a spanning tree on the bipartite node set,
duals come from the tree with u_0 = 0, the entering cell is the most
negative reduced cost, and Bland's rule takes over after a run of
degenerate pivots so termination is guaranteed.  The entropic path is
log-domain Sinkhorn scaling (stabilised as in Schmitzer 2019) on the
textbook max-shifted log-sum-exp; its convergence check reuses the next
sweep's log-sum-exp.  Once the sweeps
stall, Newton steps on the dual finish the solve (Sinkhorn-Newton, Brauer,
Clason, Lorenz & Wirth 2017): a Schur-complement solve with numpy's LAPACK,
a trust radius on each step's first trial, and a line search that takes a
fall of the max marginal violation.  Each attempt is an eps-continuation:
sweeps and Newton steps at 64, 16, 4 and 1 x eps in turn, so Newton starts
near each stage's optimum, where it converges quadratically; an attempt
that fails hands back to the sweeps, the wait before the next doubles, and
the next starts one stage higher (256 x eps, then 1024 x eps, ...).  Only
the assignment path imports scipy, inside the function.  Both return plans
whose row/column sums reproduce the prescribed marginals.  ``solve`` is the
one entry point for a task set and agents: exact on the rank-n reduced cost,
entropic on the trip-cost matrix, and every plan states its trip cost;
``check_stability`` certifies against the trip-cost matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostMatrix, cost_matrix, gaussian_prices, marginal_terms, reduced_cost_matrix
from .errors import DimensionMismatch, IterationLimit, MassMismatch
from .measures import DiscreteMeasure, TaskSet
from .rng import rng_stream

_MASS_DROP = 1e-14  # plan entries at or below this are not stored, nor counted in the objective
_MASS_TOL = 1e-9  # the total masses, and a certified plan's row and column sums, match to this
_UNIQUENESS_SEED = 0x0D7A110C  # fixed seed for the perturbation re-solve
_MAX_PIVOTS = 2_000_000  # the simplex raises IterationLimit beyond this
_BLAND_AFTER = 3  # Bland's rule prices after this many x (m + n) degenerate pivots in a row
_STALL_SWEEPS = 3  # Newton starts when Sinkhorn's violation has not halved over this many sweeps
_EPS_STAGES = 3  # the first Newton attempt starts at eps x _EPS_STAGE_FACTOR^_EPS_STAGES
_EPS_STAGE_FACTOR = 4.0  # eps shrinks by this factor from one stage to the next
_STAGE_SWEEPS = 2  # Sinkhorn sweeps at each stage's eps before its Newton steps
_STAGE_TOL = 0.1  # a stage above eps ends below this x the smallest positive point mass
_NEWTON_STEPS = 60  # Newton steps per stage before the attempt is given up
_NEWTON_REACH = 5.0  # a step's first trial moves no potential by more than this x eps
_NEWTON_HALVINGS = 20  # trials per step before the attempt is given up
_NEWTON_RIDGE = 1e-10  # diagonal ridge of the Newton system, relative to the largest marginal
# tasks x agents from which solve prices an assignment, near break-even (mean of 10 seeds, LSA
_WARM_START_MIN = 2500  # alone vs prices + LSA: 96 vs 116 us at 50x50, 199 vs 172 at 60x60)

METHODS = ("exact", "entropic", "reduced")
ENTRY = np.dtype([("task", np.intp), ("agent", np.intp), ("mass", np.float64)])  # a plan entry


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling over task x agent indices.

    ``entries`` is a read-only ``ENTRY`` array (or its (task, agent, mass) records);
    an index outside n_tasks x n_agents raises ``DimensionMismatch``.  Solvers store
    each cell once, sorted by (task, agent), with mass above 1e-14 (exact) or 1e-18
    (entropic).  ``objective`` is <c, pi> for the cost the plan was solved against.
    """

    entries: np.ndarray
    objective: float
    n_tasks: int
    n_agents: int

    def __post_init__(self):
        entries = self.entries
        if not isinstance(entries, np.ndarray):
            entries = np.fromiter(entries, ENTRY)
        task, agent = entries["task"], entries["agent"]
        if ((task < 0) | (task >= self.n_tasks) | (agent < 0) | (agent >= self.n_agents)).any():
            raise DimensionMismatch(f"a plan entry lies outside {self.n_tasks}x{self.n_agents}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_tasks, self.n_agents))
        np.add.at(dense, (self.entries["task"], self.entries["agent"]), self.entries["mass"])
        return dense

    def row_sums(self) -> np.ndarray:
        return self.to_dense().sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.to_dense().sum(axis=0)

    def support(self) -> set[tuple[int, int]]:
        return set(zip(self.entries["task"].tolist(), self.entries["agent"].tolist()))


def _entries(task, agent, mass) -> np.ndarray:
    entries = np.empty(len(mass), ENTRY)
    entries["task"], entries["agent"], entries["mass"] = task, agent, mass
    return entries


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
    max_marginal_error: float
    recomputed_objective: float  # <c, plan>, recomputed from the plan's entries
    objective_ok: bool  # the plan's stated objective is within the bound of <c, plan>
    passed: bool


def _checked_weights(cost: CostMatrix, mu_w, nu_w) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mu_w, dtype=float).ravel()
    nu = np.asarray(nu_w, dtype=float).ravel()
    if mu.size != cost.n_tasks or nu.size != cost.n_agents:
        raise DimensionMismatch(
            f"cost is {cost.n_tasks}x{cost.n_agents}, weights are {mu.size}/{nu.size}"
        )
    if abs(mu.sum() - nu.sum()) > _MASS_TOL:
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

    def pivot(self, enter_i: int, enter_j: int) -> float:
        """Bring (enter_i, enter_j) into the basis; returns the moved mass.

        The cycle closed by the entering cell is walked from both endpoints up
        to their lowest common ancestor.  In cycle order, from the entering
        cell, even cells receive mass and odd cells donate.
        """
        m = self.m
        enter_a, enter_b = enter_i, m + enter_j
        a, b = enter_a, enter_b
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
        node_path = up_a + up_b[-2::-1]  # enter_a .. lca .. enter_b
        cells = [(enter_i, enter_j)]
        cells.extend(
            (p, q - m) if p < m else (q, p - m) for p, q in zip(node_path, node_path[1:])
        )
        donors = cells[1::2]
        theta = min(self.mass[c] for c in donors)
        leave = min(c for c in donors if self.mass[c] <= theta)
        for cell in donors:
            self.mass[cell] = max(0.0, self.mass[cell] - theta)
        for cell in cells[2::2]:
            self.mass[cell] += theta
        self.mass[(enter_i, enter_j)] = theta
        del self.mass[leave]

        # tree surgery: the leaving edge cuts off the entering endpoint on its leg of
        # the cycle; re-hang that endpoint's side below the other endpoint
        leave_a, leave_b = leave[0], m + leave[1]
        self.adj[leave_a].discard(leave_b)
        self.adj[leave_b].discard(leave_a)
        self.adj[enter_a].add(enter_b)
        self.adj[enter_b].add(enter_a)
        if cells.index(leave) < len(up_a):  # on the enter_a .. lca leg
            self._root_from(enter_a, enter_b)
        else:
            self._root_from(enter_b, enter_a)
        return theta


def _transportation_simplex(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray):
    """Optimal basis (task, agent, mass) columns, in basis order, and duals of the balanced LP."""
    state = _SimplexState(cost, mu, nu)
    m, n = cost.shape
    tol = 1e-11 * max(1.0, float(np.abs(cost).max()))
    bland_trigger = _BLAND_AFTER * (m + n)
    degenerate_run = 0
    reduced = np.empty_like(cost)

    for _ in range(_MAX_PIVOTS):
        np.subtract(cost, state.u[:, None], out=reduced)
        np.subtract(reduced, state.v[None, :], out=reduced)
        if degenerate_run >= bland_trigger:
            flat = int(np.argmax(reduced < -tol))  # row-major first improving cell
        else:
            flat = int(np.argmin(reduced))
        enter_i, enter_j = divmod(flat, n)
        if reduced[enter_i, enter_j] >= -tol:
            cells = np.array([*state.mass], dtype=np.intp).reshape(-1, 2)
            mass = np.fromiter(state.mass.values(), float, len(state.mass))
            return cells[:, 0], cells[:, 1], mass, state.u, state.v
        theta = state.pivot(enter_i, enter_j)
        degenerate_run = degenerate_run + 1 if theta <= 1e-15 else 0
    raise IterationLimit(f"transportation simplex did not terminate within {_MAX_PIVOTS} pivots")


def _assignment(cost: np.ndarray, prices=None):
    """Optimal permutation (task i to agent sigma[i]) and duals for a uniform square instance.

    Duals: with v_sigma(k) = c_k,sigma(k) - u_k the constraint u_i + v_j <= c_ij
    reads u_i <= u_k + c_i,sigma(k) - c_k,sigma(k), a shortest-path problem over
    the rows that has no negative cycle because sigma is optimal.  Bellman-Ford
    from u = 0 settles it in at most n - 1 rounds; the round cap stops a
    negative cycle made of rounding error.  The first round is the row
    minimum of the edges from u = 0.  A later round can lower u_i only through
    a row k whose u_k fell in the round before, since every other path was in
    the last minimum already, so it relaxes through those rows alone.  Each
    round's u is bit for bit the one a round through all rows gives: a
    minimum is exact, and the self edge c_i,sigma(i) - c_i,sigma(i) = 0 keeps
    u_i in row i's minimum.  u_0 = 0, as the simplex anchors it.
    """
    from scipy.optimize import linear_sum_assignment  # ~0.2 s to import: only when used

    n = cost.shape[0]
    finite = prices is not None and np.isfinite(prices).all()
    _, sigma = linear_sum_assignment(cost - prices if finite else cost)
    on_support = cost[np.arange(n), sigma]
    edge = cost.T[sigma] - on_support[:, None]  # edge[k, i] = c_i,sigma(k) - c_k,sigma(k)
    u = edge.min(axis=0) + 0.0  # as edge + 0.0 would, + 0.0 turns a -0.0 minimum into 0.0
    moved = np.flatnonzero(u < 0.0)
    for _ in range(n - 1):
        if moved.size == 0:
            break
        paths = edge[moved]  # a copy: fancy indexing
        paths += u[moved, None]
        relaxed = paths.min(axis=0)
        moved = np.flatnonzero(relaxed < u)
        np.minimum(u, relaxed, out=u)
    u -= u[0]
    v = np.empty(n)
    v[sigma] = on_support - u
    return sigma, u, v


def solve_exact(cost: CostMatrix, mu_w, nu_w, prices=None) -> tuple[TransportPlan, DualPotentials]:
    """Globally optimal basic feasible solution of the transportation LP.

    A square cost with every entry of ``mu_w`` and ``nu_w`` equal is solved as
    an assignment; the plan is a permutation.  Finite ``prices``, one per agent,
    shift its columns first: every plan's cost moves by one constant, so the
    optimal set and the duals of ``cost`` are kept, and ties resolve as scipy's
    search does on the shifted matrix.  Any other input runs the simplex, which
    ignores ``prices``; ties in its entering cell resolve row-major, in the
    leaving ratio by smallest row then column index.  Both are deterministic.
    The plan keeps the masses above ``_MASS_DROP``; its objective sums them
    left to right in the solver's order, before they are sorted.
    """
    mu, nu = _checked_weights(cost, mu_w, nu_w)
    if prices is not None and np.shape(prices) != nu.shape:
        raise DimensionMismatch(f"{np.size(prices)} prices for {nu.size} agents")
    if mu.size == nu.size and np.all(mu == mu[0]) and np.all(nu == mu[0]):
        sigma, u, v = _assignment(cost.values, prices)
        entries = _entries(np.arange(mu.size), sigma, mu)
    else:
        task, agent, mass, u, v = _transportation_simplex(cost.values, mu, nu)
        entries = _entries(task, agent, mass)
    entries = entries[entries["mass"] > _MASS_DROP]
    products = entries["mass"] * cost.values[entries["task"], entries["agent"]]
    objective = float(np.cumsum(np.append(0.0, products))[-1])
    entries = entries[np.lexsort((entries["agent"], entries["task"]))]
    return TransportPlan(entries, objective, mu.size, nu.size), DualPotentials(u, v)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a - max))) + max along ``axis`` of a real 2-D ``a``, which is overwritten.

    The shift is 0 where a slice's maximum is not finite (an all -inf slice meets log(0),
    a +inf entry exp(inf)), so the special values are scipy's: -inf for an all -inf slice,
    +inf for one holding +inf, nan for one holding nan; finite values are within a few ulps.
    """
    a_max = np.maximum.reduce(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        s = np.add.reduce(np.exp(np.subtract(a, shift, out=a), out=a), axis=axis, keepdims=True)
        return (np.log(s) + shift).reshape(-1)


def _entropic_plan(f, g, C, epsilon, out=None) -> np.ndarray:
    """The dense plan exp((f_i + g_j - C_ij) / eps), written into ``out`` if given.

    A -inf potential gives a zero row or column.  A Newton trial can overflow
    an entry to inf (or meet inf - inf, nan), under the caller's error state;
    its sums are then inf or nan, which the line search rejects.
    """
    out = np.add(f[:, None], g[None, :], out=out)
    np.subtract(out, C, out=out)
    np.divide(out, epsilon, out=out)
    return np.exp(out, out=out)


def _marginals(P, mu, nu):
    """Row sums, column sums and the max marginal violation of a dense plan."""
    r, c = P.sum(axis=1), P.sum(axis=0)
    return r, c, max(float(np.abs(r - mu).max()), float(np.abs(c - nu).max()))


def _newton_direction(P, r, c, a, b, epsilon, scratch):
    """Solve [[diag(r), P], [P^T, diag(c)]] (df, dg) = eps (a, b), both diagonals ridged.

    The one system solved is the Schur complement onto the columns,
    diag(c) - P^T diag(1/r) P, so the side with fewer points is put in the
    columns.  The ridge, 1e-10 x max(r, c), fixes the (1, -1) null direction
    of the potentials and keeps rows of P that underflowed to 0 solvable.
    ``scratch`` is a free buffer of P's shape.
    """
    if P.shape[0] < P.shape[1]:
        dg, df = _newton_direction(P.T, c, r, b, a, epsilon, scratch.T)
        return df, dg
    ridge = _NEWTON_RIDGE * max(float(r.max()), float(c.max()))
    r = r + ridge
    scaled = np.divide(P, r[:, None], out=scratch)
    schur = P.T @ scaled
    np.negative(schur, out=schur)
    schur.reshape(-1)[:: schur.shape[0] + 1] += c + ridge  # the diagonal, as a view
    dg = np.linalg.solve(schur, epsilon * (b - scaled.T @ a))
    df = (epsilon * a - P @ dg) / r
    return df, dg


class _Sweeps:
    """Log-domain Sinkhorn sweeps on one cost matrix and one pair of marginals, at any eps.

    Every sweep overwrites ``work``, the one buffer of C's shape; between sweeps it is free.
    """

    def __init__(self, C: np.ndarray, mu: np.ndarray, nu: np.ndarray):
        self.C, self.mu, self.nu = C, mu, nu
        self.log_mu, self.log_nu = np.log(mu), np.log(nu)  # -inf for a zero weight
        # empty_like keeps C's memory order, which the reductions' summation order follows
        self.work = np.empty_like(C)

    def row_lse(self, g, epsilon):
        """log sum_j exp((g_j - C_ij) / eps), one value per row."""
        work = self.work
        np.divide(np.subtract(g[None, :], self.C, out=work), epsilon, out=work)
        return _logsumexp(work, 1)

    def sweep(self, lse_row, epsilon):
        """One f-update and one g-update, from ``row_lse`` of the previous g.

        Returns f, g, ``row_lse`` of the new g, which the next sweep starts
        from, and the column log-sum-exp the g-update used.
        """
        work = self.work
        f = epsilon * (self.log_mu - lse_row)
        np.divide(np.subtract(f[:, None], self.C, out=work), epsilon, out=work)
        lse_col = _logsumexp(work, 0)
        g = epsilon * (self.log_nu - lse_col)
        return f, g, self.row_lse(g, epsilon), lse_col


def _newton_loop(f, g, sweeps, epsilon, tol):
    """Newton's method on the dual at ``epsilon`` from (f, g) (Brauer et al. 2017).

    The root sought is P1 = mu, P^T 1 = nu for P = ``_entropic_plan(f, g)``:
    the maximum of the concave dual D(f, g) = f.mu + g.nu - eps sum(P), whose
    gradient is (mu - P1, nu - P^T 1) and whose Hessian is minus
    [[diag(P1), P], [P^T, diag(P^T 1)]] / eps.  Far from the maximum the
    Newton direction can be huge (its largest component up to 1e9 x eps where
    the sweeps stall), so each step's first trial is held to a trust radius:
    it moves no potential by more than the radius, twice the last step's
    move but never below ``_NEWTON_REACH`` x eps, where no plan entry can
    change by more than a factor e^10.  A trial is taken when the max
    marginal violation, the quantity ``tol`` bounds, falls; otherwise the
    step halves, at most ``_NEWTON_HALVINGS`` times.  An attempt that stalls
    on a plateau far from the maximum, where the violation stays flat, is
    not rescued here but by the next attempt starting at a larger eps.

    Returns (f, g, P) once the violation of P, the plan of f and g, is below
    ``tol``; returns None when a step finds no trial that lowers the
    violation or ``_NEWTON_STEPS`` steps do not reach ``tol``.  The
    potentials passed in are not touched; ``sweeps.work`` is overwritten, and
    P may be it.  Trials may overflow to inf or nan under the caller's error
    state; their violation is then inf or nan, which is never taken.
    """
    C, mu, nu = sweeps.C, sweeps.mu, sweeps.nu
    P, trial = _entropic_plan(f, g, C, epsilon), sweeps.work
    r, c, violation = _marginals(P, mu, nu)
    radius = _NEWTON_REACH * epsilon
    for _ in range(_NEWTON_STEPS):
        if violation < tol:
            return f, g, P
        try:
            df, dg = _newton_direction(P, r, c, mu - r, nu - c, epsilon, trial)
        except np.linalg.LinAlgError:
            return None
        reach = max(float(np.abs(df).max()), float(np.abs(dg).max()))
        if not reach < np.inf:  # also nan
            return None
        step = min(1.0, radius / reach) if reach > 0.0 else 1.0
        for _ in range(_NEWTON_HALVINGS):
            trial_f, trial_g = f + step * df, g + step * dg
            _entropic_plan(trial_f, trial_g, C, epsilon, out=trial)
            trial_r, trial_c, trial_violation = _marginals(trial, mu, nu)
            if trial_violation < violation:
                break
            step *= 0.5
        else:
            return None
        radius = max(_NEWTON_REACH * epsilon, 2.0 * step * reach)
        f, g, P, trial = trial_f, trial_g, trial, P
        r, c, violation = trial_r, trial_c, trial_violation
    return (f, g, P) if violation < tol else None


def _newton_finish(g, sweeps, epsilon, tol, top):
    """Finish a solve from stalled Sinkhorn potentials by Newton steps under eps-continuation.

    Where the sweeps stall, plan entries sit many eps above their optimal
    values, and a Newton step on the exponential lowers such an entry by only
    about a factor e, so Newton alone converges linearly there.  The attempt
    therefore starts at a larger eps, where the stalled potentials are a few
    eps from that problem's optimum, and steps down (eps-scaling, Schmitzer
    2019).  For eps_k = ``_EPS_STAGE_FACTOR``^k x eps, k = ``top`` down to 0,
    it runs ``_STAGE_SWEEPS`` sweeps at eps_k from the current g (the
    first stage from the stalled sweeps' g; a sweep sets f from g), then
    ``_newton_loop`` at eps_k: above eps until the violation is below
    ``_STAGE_TOL`` x the smallest positive point mass (or ``tol``, if that is
    larger), so every point carries its own mass to within a tenth, and at
    eps itself to ``tol``.  A target of a tenth of the mean point mass can
    leave mass off between two groups of points that only the plan's
    vanishing entries at eps connect, and Newton at eps then crawls.  The
    sweeps rebase the potentials on each new eps.
    Carried over as they are, the potentials would raise every plan entry to
    the power ``_EPS_STAGE_FACTOR``, so a 300-point row loses nearly all its
    mass, and Newton spends its first steps at the trust radius winning it back.

    The caller sets ``top`` to ``_EPS_STAGES`` for its first attempt and one
    higher for each attempt after a failed one: where the sweeps stall far
    from the optimum (eps below about 1e-5 x the cost spread, tiny weights),
    the first stage can stall on a plateau of the violation too, where the
    entries that would carry mass across are exp(-big / eps); a larger eps
    raises them.

    Returns the plan at eps, whose own row and column sums are within ``tol``,
    or None when any stage fails.  The caller's g is not touched;
    ``sweeps.work`` is overwritten, and the plan returned may be it.
    """
    masses = np.concatenate([sweeps.mu, sweeps.nu])
    stage_tol = max(tol, _STAGE_TOL * float(masses[masses > 0].min()))
    for k in range(top, -1, -1):
        stage_eps = _EPS_STAGE_FACTOR**k * epsilon
        lse_row = sweeps.row_lse(g, stage_eps)
        for _ in range(_STAGE_SWEEPS):
            f, g, lse_row, _ = sweeps.sweep(lse_row, stage_eps)
        stage = _newton_loop(f, g, sweeps, stage_eps, stage_tol if k else tol)
        if stage is None:
            return None
        f, g, plan = stage
    return plan


def solve_entropic(
    cost: CostMatrix,
    mu_w,
    nu_w,
    epsilon: float,
    tol: float = 1e-8,
    max_iter: int = 10000,
) -> TransportPlan:
    """Entropy-regularized approximation via log-domain Sinkhorn scaling.

    Alternating potential updates through ``_logsumexp`` (``_Sweeps``);
    terminates once the worst marginal violation of the implied plan is below
    ``tol``.  The check costs no extra pass over the m x n grid: a row sum is
    exp(f_i / eps + lse_i), where lse_i is the log-sum-exp the next f-update
    needs anyway, and a column sum is exp(g_j / eps + lse_j) with the
    log-sum-exp the g-update just used.

    At small ``epsilon`` the sweeps fall into a slow 1/k tail.  When the
    violation has not halved over the last ``_STALL_SWEEPS`` sweeps,
    ``_newton_finish`` takes over from the current potentials: a few sweeps,
    then Newton steps, at 64, 16, 4 and 1 x ``epsilon`` in turn.  It
    returns a plan whose own row and column sums are within ``tol``, or
    gives up, and then the sweeps go on from their own potentials.  The
    first attempt can start at sweep ``_STALL_SWEEPS`` + 1.  Each failed one
    doubles the wait before the next, so a solve that ends in
    ``IterationLimit`` makes at most 1 + log2(``max_iter`` /
    ``_STALL_SWEEPS``) attempts, and starts the next one stage higher, at
    256, then 1024 x ``epsilon``, and so on.  A solve the sweeps finish
    before any attempt succeeds gives the plan of the sweeps alone, bit for
    bit.  ``max_iter`` counts the main loop's sweeps only, not an attempt's; a
    nan violation, which no later sweep undoes, ends the solve at once.  The
    dense plan is built once, on exit, and the reported objective is against
    the original cost matrix, with no entropy term.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    mu, nu = _checked_weights(cost, mu_w, nu_w)
    C = cost.values
    # a zero weight gives a -inf potential; an eps near either end of the float range,
    # or a stage's 4^k x eps near the top, overflows the potentials to inf or nan, whose
    # violation is never below tol, so such a solve ends in IterationLimit
    with np.errstate(all="ignore"):
        sweeps = _Sweeps(C, mu, nu)
        lse_row = sweeps.row_lse(np.zeros(nu.size), epsilon)
        violations, plan = [], None
        wait, top = _STALL_SWEEPS, _EPS_STAGES
        next_attempt = wait + 1
        for sweep in range(1, max_iter + 1):
            f, g, lse_row, lse_col = sweeps.sweep(lse_row, epsilon)
            violation = max(
                float(np.abs(np.exp(f / epsilon + lse_row) - mu).max()),
                float(np.abs(np.exp(g / epsilon + lse_col) - nu).max()),
            )
            if violation < tol:
                plan = _entropic_plan(f, g, C, epsilon)
                break
            if np.isnan(violation):  # a nan potential stays nan in every later sweep
                break
            violations.append(violation)
            if sweep >= next_attempt and violation > 0.5 * violations[-1 - _STALL_SWEEPS]:
                plan = _newton_finish(g, sweeps, epsilon, tol, top)
                if plan is not None:
                    break
                wait, top = 2 * wait, top + 1
                next_attempt = sweep + wait
        if plan is None:
            raise IterationLimit(
                f"marginal violation {violation:.3e} after {sweep} iterations",
                violation=violation,
            )
    rows, cols = np.nonzero(plan > 1e-18)
    objective = float((plan * C).sum())
    return TransportPlan(_entries(rows, cols, plan[rows, cols]), objective, mu.size, nu.size)


def check_stability(
    plan: TransportPlan, duals: DualPotentials, cost: CostMatrix, mu_w, nu_w, tol: float = 1e-8
) -> StabilityReport:
    """Optimality certificate: u_i + v_j <= c_ij everywhere, equality on support.

    It also needs nonnegative masses, row and column sums within ``_MASS_TOL``
    of ``mu_w`` and ``nu_w``, and ``plan.objective`` equal to <c, plan>.  ``tol``
    is relative to max(1, max|c_ij|), the scale the simplex prices with:
    costs near 1e8 (city boxes in meters) have a float spacing above 1e-8.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    mu, nu = _checked_weights(cost, mu_w, nu_w)
    if (plan.n_tasks, plan.n_agents, duals.u.size, duals.v.size) != 2 * cost.values.shape:
        raise DimensionMismatch("plan shape or dual sizes do not match the cost matrix")
    bound = tol * max(1.0, float(np.abs(cost.values).max()))
    with np.errstate(over="ignore", invalid="ignore"):
        gap = duals.u[:, None] + duals.v[None, :] - cost.values
        max_violation = float(gap.max())
        max_slack = float(np.abs(gap[plan.entries["task"], plan.entries["agent"]]).max(initial=0.0))
        nonnegative = bool(plan.entries["mass"].min(initial=0.0) >= 0.0)  # a nan mass fails too
        dense = plan.to_dense()
        marginal_error = _marginals(dense, mu, nu)[2]
        recomputed = float((dense * cost.values).sum())  # an inf or nan fails the check below
    objective_ok = abs(plan.objective - recomputed) <= bound
    passed = max_violation <= bound and max_slack <= bound and marginal_error <= _MASS_TOL
    return StabilityReport(
        max_violation, max_slack, marginal_error, recomputed, objective_ok,
        passed and nonnegative and objective_ok,
    )


def support_is_unique(
    cost: CostMatrix, mu_w, nu_w, plan: TransportPlan, duals: DualPotentials
) -> bool:
    """Perturbation surrogate for uniqueness of the optimal support.

    Re-solves on the reduced costs c_ij - u_i - v_j of ``plan``'s duals plus
    an entry-wise perturbation 1e-10 x max(1, max|c_ij|) x U(0,1) from a
    fixed seed, and reports unique only when the support is unchanged.  A
    row or column shift changes every feasible plan's cost by the same
    constant, so the reduced costs have the optimal set of ``cost``; the
    re-solve starts near zero on ``plan``'s support, where an assignment
    re-solve ends its augmenting paths at once.  The scale is the one the
    simplex prices with (its tolerance is 1e-11 of it), so the noise clears
    that tolerance and the float spacing at any cost magnitude.  Discrete
    instances can tie, so this is a pragmatic check, not a proof.
    """
    scale = 1e-10 * max(1.0, float(np.abs(cost.values).max()))
    noise = rng_stream(_UNIQUENESS_SEED).uniforms(cost.n_tasks * cost.n_agents)
    noise *= scale
    perturbed = np.subtract(cost.values, duals.u[:, None])
    perturbed -= duals.v[None, :]
    perturbed += noise.reshape(cost.n_tasks, cost.n_agents)
    re_plan, _ = solve_exact(CostMatrix(perturbed), mu_w, nu_w)
    return np.array_equal(re_plan.entries[["task", "agent"]], plan.entries[["task", "agent"]])


@dataclass(frozen=True)
class Solution:
    """A plan whose objective is its trip cost, the trip-cost duals and ``support_is_unique``.

    ``entropic`` solutions carry no duals and are never marked unique.
    """

    plan: TransportPlan
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

    ``exact`` runs ``solve_exact`` on ``reduced_cost_matrix``, the rank-n
    form: an assignment when the instance is uniform and square, the
    simplex otherwise.  From ``_WARM_START_MIN`` cells on it passes the
    ``gaussian_prices``, which an assignment starts from.
    ``support_is_unique`` runs on the reduced duals, and objective and
    duals are then lifted to the trip cost through ``marginal_terms``, both
    taken about the agents' mean.  ``reduced`` is another name for
    ``exact`` and gives the same ``Solution``.
    ``entropic`` runs Sinkhorn on the trip-cost matrix; ``epsilon``
    defaults to 1e-3 x the cost spread, but no less than 1e-6 x the
    largest |cost|, and ``tol`` and ``max_iter`` apply to it alone.  Every
    plan's ``objective`` is its trip cost.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    mu, nu = tasks.weights, agents.weights
    if method == "entropic":
        cost = cost_matrix(tasks, agents)
        if epsilon is None:
            # (f + g - c) / eps carries a rounding error near 1e-16 x max|c| / eps, which the
            # floor keeps near 1e-10, well below tol; a constant cost has spread 0
            values = cost.values
            spread = float(values.max() - values.min())
            epsilon = 1e-3 * max(spread, 1e-3 * float(np.abs(values).max()), 1e-12)
        plan = solve_entropic(cost, mu, nu, epsilon=epsilon, tol=tol, max_iter=max_iter)
        return Solution(plan, None, False)
    cost = reduced_cost_matrix(tasks, agents)
    prices = gaussian_prices(tasks, agents) if mu.size * nu.size >= _WARM_START_MIN else None
    plan, duals = solve_exact(cost, mu, nu, prices)
    unique = support_is_unique(cost, mu, nu, plan, duals)
    alpha, beta = marginal_terms(tasks, agents)
    objective = float(nu @ beta) + float(mu @ alpha) + 2.0 * plan.objective
    duals = DualPotentials(alpha + 2.0 * duals.u, beta + 2.0 * duals.v)
    plan = TransportPlan(plan.entries, objective, plan.n_tasks, plan.n_agents)
    return Solution(plan, duals, unique)
