"""Exact and entropic solvers for the discrete coupling problem.

The exact path has two solvers, chosen from the input.  A uniform square
instance (n tasks, n agents, every weight equal) has a permutation as an
optimal coupling (Birkhoff), so it is solved as an assignment by scipy's
``linear_sum_assignment`` (Crouse 2016), on a large one after its columns
are shifted by the prices of a Gaussian map, which keeps the optimal set,
and its duals are recovered by Bellman-Ford on the row potentials.  Every
other instance is a linear program that scipy's HiGHS dual simplex solves on
a candidate set of cells, chosen by dual prices and grown until the duals
price the whole task x agent grid nonnegative; the duals are shifted to
u_0 = 0, and the masses are read off the support.  The entropic path is
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
the exact paths import scipy, inside the functions.  Both return plans
whose row/column sums reproduce the prescribed marginals.  ``solve`` is the
one entry point for a task set and agents: exact on the rank-n reduced cost,
entropic on the trip-cost matrix, and every plan states its trip cost;
``check_stability`` certifies against the trip-cost matrix.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .cost import CostMatrix, cost_matrix, factors, gaussian_prices, reduced_cost_matrix
from .errors import DimensionMismatch, IterationLimit, MassMismatch
from .measures import DiscreteMeasure, TaskSet
from .rng import rng_stream

_MASS_DROP = 1e-14  # plan entries at or below this are not stored, nor counted in the objective
_MASS_TOL = 1e-9  # the total masses, and a certified plan's row and column sums, match to this
_UNIQUENESS_SEED = 0x0D7A110C  # fixed seed for the perturbation re-solve
_CANDIDATES = 4  # the exact LP starts from this many lowest reduced costs a row and a column
_LP_COST_EXP = 11  # HiGHS gets the costs scaled by a power of two to a largest |c| in [2^11, 2^12)
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

METHODS = ("exact", "entropic")
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
        return np.bincount(self.entries["task"], self.entries["mass"], minlength=self.n_tasks)

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.entries["agent"], self.entries["mass"], minlength=self.n_agents)

    def support(self) -> set[tuple[int, int]]:
        return set(zip(self.entries["task"].tolist(), self.entries["agent"].tolist()))


def _entries(task, agent, mass) -> np.ndarray:
    entries = np.empty(len(mass), ENTRY)
    entries["task"], entries["agent"], entries["mass"] = task, agent, mass
    return entries


def _plan_cost(entries: np.ndarray, values: np.ndarray) -> float:
    """<c, plan> over the stored entries: mass x cost summed left to right in entry order."""
    products = entries["mass"] * values[entries["task"], entries["agent"]]
    return float(np.cumsum(np.append(0.0, products))[-1])


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


def _northwest_corner(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The flat cells i * n + j of the north-west-corner basis, a feasible spanning tree.

    The walk from (0, 0) to (m-1, n-1) is the merge of the row ends
    cumsum(mu) with the column ends cumsum(nu): each step goes down past a
    row end or right past a column end, whichever comes first, and the mass
    of a cell is the gap between its two ends.  On a tie the row steps first
    (a stable sort puts the row ends ahead), which leaves a zero-mass cell in
    the next row and keeps the basis at exactly m + n - 1 cells.
    """
    m, n = mu.size, nu.size
    ends = np.concatenate([np.cumsum(mu)[:-1], np.cumsum(nu)[:-1]])
    down = np.argsort(ends, kind="stable") < m - 1  # step k passes a row end: one row down
    row = np.concatenate([[0], np.cumsum(down)])
    return row * n + np.arange(m + n - 1) - row


def _peeled_masses(task, agent, mu: np.ndarray, nu: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The masses a forest support forces from the weights alone, peeling leaves in index order.

    Nodes are rows 0..m-1 and columns m..m+n-1.  The lowest-numbered leaf
    gives what is left of its weight to its one open cell, which closes,
    and that weight leaves the node at the cell's other end.  The masses then
    depend only on the support and the weights, not on the path the LP took
    there.  A cell on a cycle, which a basic solution has not, keeps its
    entry of ``mass``.
    """
    m = mu.size
    ends = np.column_stack([task, agent + m]).tolist()
    supply = np.concatenate([mu, nu]).tolist()
    incident = [[] for _ in supply]
    for k, (row, col) in enumerate(ends):
        incident[row].append(k)
        incident[col].append(k)
    degree = [len(cells) for cells in incident]
    leaves = [node for node, d in enumerate(degree) if d == 1]  # sorted: a heap
    is_open = [True] * len(ends)
    mass = mass.copy()
    while leaves:
        node = heapq.heappop(leaves)
        if degree[node] != 1:  # its last cell closed from the other end
            continue
        k = next(k for k in incident[node] if is_open[k])
        is_open[k] = False
        other = sum(ends[k]) - node
        mass[k] = supply[node]
        supply[other] -= supply[node]
        degree[node] = 0
        degree[other] -= 1
        if degree[other] == 1:
            heapq.heappush(leaves, other)
    return mass


def _candidate_lp(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray, prices=None):
    """Optimal (task, agent, mass) columns, sorted by (task, agent), and duals of the balanced LP.

    A shortlist solve (Gottschlich & Schuhmacher 2014) on scipy's HiGHS dual
    simplex (Huangfu & Hall 2018).  The first candidate set holds the
    ``_CANDIDATES`` lowest reduced costs c_ij - u_i - v_j of every row and
    every column, with v the ``prices`` (or 0) and u_i the row
    minimum of c_ij - v_j, and the north-west-corner basis, so it is
    feasible.  Each round solves the LP on the candidate cells and prices
    the full grid with its duals at 1e-11 x max(1, max|c|); every row and
    every column with a cell below minus that adds its most negative cell,
    until none has one.  A round that adds no cell, or a HiGHS status other
    than optimal, raises ``IterationLimit``.

    HiGHS's tolerances are absolute, so the costs it gets are scaled by a
    power of two to a largest |c| in [2^11, 2^12), and its tolerances are
    set to their floor, 1e-10: about 1e-14 of the largest cost, well below
    the 1e-10 noise of ``support_is_unique``.  Column weights are scaled to
    the row total, so the LP is balanced.  The duals are HiGHS's, scaled
    back and shifted to u_0 = 0.  The support is the cells above
    ``_MASS_DROP``, and its masses are ``_peeled_masses`` of the weights.
    """
    from scipy.optimize import linprog  # as in _assignment: only when used
    from scipy.sparse import csc_array

    m, n = cost.shape
    top = float(np.abs(cost).max())
    tol = 1e-11 * max(1.0, top)
    shift = _LP_COST_EXP + 1 - int(np.frexp(top)[1])  # 2^shift x top lies in [2^11, 2^12)
    total = float(nu.sum())  # totals may differ by _MASS_TOL, HiGHS's tolerance is 1e-10
    balanced = nu * (float(mu.sum()) / total) if total > 0.0 else nu
    b_eq = np.concatenate([mu, balanced])
    options = {"dual_feasibility_tolerance": 1e-10, "primal_feasibility_tolerance": 1e-10}

    v = np.zeros(n) if prices is None else prices
    reduced = cost - v[None, :]
    reduced -= reduced.min(axis=1, keepdims=True)
    k_row, k_col = min(_CANDIDATES, n), min(_CANDIDATES, m)
    # copies: a view of the k lowest would keep all m x n indices alive through the LP rounds
    in_rows = np.argpartition(reduced, k_row - 1, axis=1)[:, :k_row].copy()
    in_cols = np.argpartition(reduced, k_col - 1, axis=0)[:k_col].copy()
    cells = np.unique(np.concatenate([
        (np.arange(m)[:, None] * n + in_rows).ravel(),
        (in_cols * n + np.arange(n)[None, :]).ravel(),
        _northwest_corner(mu, balanced),
    ]))
    while True:
        task, agent = np.divmod(cells, n)
        a_eq = csc_array(
            (np.ones(2 * cells.size), np.column_stack([task, agent + m]).ravel(),
             np.arange(0, 2 * cells.size + 1, 2)),
            shape=(m + n, cells.size),
        )
        res = linprog(np.ldexp(cost.take(cells), shift), A_eq=a_eq, b_eq=b_eq,
                      method="highs-ds", options=options)
        if res.status != 0:
            raise IterationLimit(f"the exact LP stopped on {cells.size} candidate cells: "
                                 f"{res.message}")
        duals = np.ldexp(res.eqlin.marginals, -shift)
        u, v = duals[:m] - duals[0], duals[m:] + duals[0]
        np.subtract(cost, u[:, None], out=reduced)
        reduced -= v[None, :]
        row_best = reduced.argmin(axis=1)
        col_best = reduced.argmin(axis=0)
        rows = np.flatnonzero(reduced[np.arange(m), row_best] < -tol)
        cols = np.flatnonzero(reduced[col_best, np.arange(n)] < -tol)
        if rows.size == 0 and cols.size == 0:
            break
        added = np.concatenate([rows * n + row_best[rows], col_best[cols] * n + cols])
        grown = np.union1d(cells, added)
        if grown.size == cells.size:
            raise IterationLimit(f"the exact LP stalled on {cells.size} candidate cells: "
                                 f"a candidate prices below -{tol:.3e}")
        cells = grown
    keep = res.x > _MASS_DROP
    task, agent = task[keep], agent[keep]
    return task, agent, _peeled_masses(task, agent, mu, nu, res.x[keep]), u, v


def _assignment(cost: np.ndarray, prices=None, duals=True):
    """Optimal permutation (task i to agent sigma[i]) and duals for a uniform square instance.

    With ``duals`` false it returns (sigma, None, None) right after the search.

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
    u_i in row i's minimum.  u_0 = 0, as the general path anchors it.
    """
    from scipy.optimize import linear_sum_assignment  # ~0.2 s to import: only when used

    n = cost.shape[0]
    _, sigma = linear_sum_assignment(cost if prices is None else cost - prices)
    if not duals:
        return sigma, None, None
    on_support = cost[np.arange(n), sigma]
    edge = cost.T[sigma]  # a copy: fancy indexing
    edge -= on_support[:, None]  # edge[k, i] = c_i,sigma(k) - c_k,sigma(k)
    u = edge.min(axis=0) + 0.0  # as edge + 0.0 would, + 0.0 turns a -0.0 minimum into 0.0
    moved = np.flatnonzero(u < 0.0)
    for _ in range(n - 1):
        if moved.size == 0:
            break
        paths = edge[moved]  # a copy: fancy indexing
        paths += u[moved, None]
        relaxed = paths.min(axis=0)
        del paths  # else it lives while the next round's copy is made
        moved = np.flatnonzero(relaxed < u)
        np.minimum(u, relaxed, out=u)
    u -= u[0]
    v = np.empty(n)
    v[sigma] = on_support - u
    return sigma, u, v


def solve_exact(
    cost: CostMatrix, mu_w, nu_w, prices=None, *, duals: bool = True
) -> tuple[TransportPlan, DualPotentials | None]:
    """Globally optimal basic feasible solution of the transportation LP.

    A square cost with every entry of ``mu_w`` and ``nu_w`` equal is solved as
    an assignment; the plan is a permutation.  Finite ``prices``, one per agent,
    shift its columns first: every plan's cost moves by one constant, so the
    optimal set and the duals of ``cost`` are kept, and ties resolve as scipy's
    search does on the shifted matrix.  Any other input runs ``_candidate_lp``,
    whose first candidates ``prices`` choose; ties resolve as HiGHS's dual
    simplex does on the candidate set.  Both are deterministic.  The plan
    keeps the masses above ``_MASS_DROP``, sorted by (task, agent); its
    objective sums them left to right in that order.  With ``duals`` false
    the duals returned are None, and an assignment skips their Bellman-Ford
    recovery; the plan is the same, since the search ends before it.  The
    LP's duals price its own candidates, so it computes them either way.
    """
    mu, nu = _checked_weights(cost, mu_w, nu_w)
    if prices is not None and np.shape(prices) != nu.shape:
        raise DimensionMismatch(f"{np.size(prices)} prices for {nu.size} agents")
    if prices is not None and not np.isfinite(prices).all():
        prices = None
    if mu.size == nu.size and np.all(mu == mu[0]) and np.all(nu == mu[0]):
        sigma, u, v = _assignment(cost.values, prices, duals)
        entries = _entries(np.arange(mu.size), sigma, mu)
    else:
        task, agent, mass, u, v = _candidate_lp(cost.values, mu, nu, prices)
        entries = _entries(task, agent, mass)
    entries = entries[entries["mass"] > _MASS_DROP]
    objective = _plan_cost(entries, cost.values)
    plan = TransportPlan(entries, objective, mu.size, nu.size)
    return plan, DualPotentials(u, v) if duals else None


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
    is relative to max(1, max|c_ij|), the scale the exact LP prices with:
    costs near 1e8 (city boxes in meters) have a float spacing above 1e-8.
    The plan is read only through its entries: the sums are ``row_sums`` and
    ``col_sums``, and <c, plan> is summed in entry order, as ``solve_exact``
    sums its objective.  The one array of the cost's size it builds is the
    gap (u_i + v_j) - c_ij.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    mu, nu = _checked_weights(cost, mu_w, nu_w)
    if (plan.n_tasks, plan.n_agents, duals.u.size, duals.v.size) != 2 * cost.values.shape:
        raise DimensionMismatch("plan shape or dual sizes do not match the cost matrix")
    bound = tol * max(1.0, float(np.abs(cost.values).max()))
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.add.outer(duals.u, duals.v)
        gap -= cost.values
        max_violation = float(gap.max())
        max_slack = float(np.abs(gap[plan.entries["task"], plan.entries["agent"]]).max(initial=0.0))
        nonnegative = bool(plan.entries["mass"].min(initial=0.0) >= 0.0)  # a nan mass fails too
        marginal_error = max(float(np.abs(plan.row_sums() - mu).max()),
                             float(np.abs(plan.col_sums() - nu).max()))
        recomputed = _plan_cost(plan.entries, cost.values)  # an inf or nan fails the check below
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
    constant, so the reduced costs have the optimal set of ``cost``.  They
    are near zero on ``plan``'s support, but not only there: an assignment's
    Bellman-Ford duals also leave each row's cell at the agent of its
    shortest-path parent at zero (1.99 near-zero cells a row on 300x300
    mixtures), and the noise makes that cell the cheaper one in about half
    the rows, so the re-solve's search still augments: 1.0-1.6 ms at
    300x300 on a shared 2-core Xeon, against 0.5 ms where the plan's own
    cell wins every row.  The re-solve reads only its plan, so it asks
    ``solve_exact`` for no duals.
    The scale is the one the exact LP prices with (its tolerance is 1e-11 of
    it, and HiGHS's about 1e-14), so the noise clears those tolerances and
    the float spacing at any cost magnitude.  Discrete instances can tie,
    so this is a pragmatic check, not a proof.
    """
    scale = 1e-10 * max(1.0, float(np.abs(cost.values).max()))
    noise = rng_stream(_UNIQUENESS_SEED).uniforms(cost.n_tasks * cost.n_agents)
    noise *= scale
    perturbed = np.subtract(cost.values, duals.u[:, None])
    perturbed -= duals.v[None, :]
    perturbed += noise.reshape(cost.n_tasks, cost.n_agents)
    del noise  # else it lives through the re-solve
    re_plan, _ = solve_exact(CostMatrix(perturbed), mu_w, nu_w, duals=False)
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

    ``exact`` builds the trip cost's ``factors`` (alpha, beta, p, q) about
    the agents' mean once, and runs ``solve_exact`` on their
    ``reduced_cost_matrix``, the rank-n form: an assignment when the
    instance is uniform and square, the candidate-set LP otherwise.  From
    ``_WARM_START_MIN`` cells on it passes the ``gaussian_prices`` of p and
    q, which both start from.  ``support_is_unique`` runs on the reduced
    duals, and objective and duals are then lifted to the trip cost
    through alpha and beta.
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
    alpha, beta, p, q = factors(tasks, agents)
    cost = reduced_cost_matrix(p, q)
    prices = gaussian_prices(p, q, mu, nu) if mu.size * nu.size >= _WARM_START_MIN else None
    plan, duals = solve_exact(cost, mu, nu, prices)
    unique = support_is_unique(cost, mu, nu, plan, duals)
    objective = float(nu @ beta) + float(mu @ alpha) + 2.0 * plan.objective
    duals = DualPotentials(alpha + 2.0 * duals.u, beta + 2.0 * duals.v)
    plan = TransportPlan(plan.entries, objective, plan.n_tasks, plan.n_agents)
    return Solution(plan, duals, unique)
