"""Reference implementations that the tests check the solvers against.

Exhaustive search over couplings (``brute_force_small``), the supports of
every optimal vertex (``optimal_supports``), the full-grid LP optimum
(``lp_optimum``), the north-west-corner walk over remaining weights
(``northwest_walk``), the 1-D comonotone coupling (``monotone_map_1d``) and
plan purity.  None of them is
reached by the package or the CLI, so they live with the tests.
"""

from __future__ import annotations

import numpy as np

from odtalloc.cost import CostMatrix
from odtalloc.errors import AllocationError, DimensionMismatch
from odtalloc.measures import DiscreteMeasure
from odtalloc.solver import TransportPlan, _checked_weights


class TooLarge(AllocationError):
    """Instance exceeds the size bound of an exhaustive routine."""


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

    best_masses, best_edges, best_total = None, None, np.inf
    for edges, masses in _vertices(m, n, mu, nu):
        total = sum(mass * C[i, j] for (i, j), mass in zip(edges, masses))
        if total < best_total - 1e-15:
            best_masses, best_edges, best_total = masses, edges, total
    # a plan stores masses above 1e-14 only, and states the cost of what it stores
    entries = sorted((i, j, mass) for (i, j), mass in zip(best_edges, best_masses) if mass > 1e-14)
    return TransportPlan(entries, sum(mass * C[i, j] for i, j, mass in entries), m, n)


def _vertices(m: int, n: int, mu: np.ndarray, nu: np.ndarray):
    """(basis cells, masses) of every feasible spanning-tree basis, for m + n <= 8."""
    from itertools import combinations

    if m + n > 8:
        raise TooLarge(f"vertex enumeration bounded at m+n<=8, got {m}+{n}")
    cells = [(i, j) for i in range(m) for j in range(n)]
    for edges in combinations(cells, m + n - 1):
        masses = _tree_masses(edges, mu, nu)
        if masses is not None:
            yield edges, masses


def optimal_supports(cost: CostMatrix, mu_w, nu_w) -> set[frozenset]:
    """The supports (cells of positive mass) of every optimal vertex, m + n <= 8.

    Totals are compared exactly, so ties are found only where the costs and
    weights are small integers, whose vertex masses and totals are exact.
    """
    mu, nu = _checked_weights(cost, mu_w, nu_w)
    C = cost.values
    supports = {}
    for edges, masses in _vertices(*C.shape, mu, nu):
        total = sum(mass * C[i, j] for (i, j), mass in zip(edges, masses))
        support = frozenset(cell for cell, mass in zip(edges, masses) if mass > 0.0)
        supports.setdefault(total, set()).add(support)
    return supports[min(supports)]


def lp_optimum(cost: CostMatrix, mu_w, nu_w) -> float:
    """The optimal value of the transportation LP over every cell, by HiGHS ``linprog``."""
    from scipy.optimize import linprog

    mu, nu = _checked_weights(cost, mu_w, nu_w)
    m, n = cost.values.shape
    a_eq = np.vstack([np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))])
    res = linprog(cost.values.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu, nu]), method="highs")
    if res.status != 0:
        raise AssertionError(f"the oracle LP failed: {res.message}")
    return float(res.fun)


def northwest_walk(mu: np.ndarray, nu: np.ndarray) -> list[int]:
    """The flat cells i * n + j of the north-west-corner basis, allocated cell by cell.

    Each cell takes what is left of its row or its column, whichever is less,
    and the walk leaves the side that ran out, the row on a tie, so the basis
    has exactly m + n - 1 cells.
    """
    m, n = mu.size, nu.size
    row_left, col_left = mu.copy(), nu.copy()
    cells, i, j = [0], 0, 0
    while (i, j) != (m - 1, n - 1):
        mass = min(row_left[i], col_left[j])
        row_left[i] -= mass
        col_left[j] -= mass
        if j == n - 1 or (i < m - 1 and row_left[i] <= col_left[j]):
            i += 1
        else:
            j += 1
        cells.append(i * n + j)
    return cells


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


def monotone_map_1d(
    index_measure: DiscreteMeasure, agents: DiscreteMeasure
) -> TransportPlan:
    """Comonotone coupling of 1-D index and agent measures.

    Sorts both sides ascending (stable) and pairs mass north-west-corner
    style.  For the correlation cost -(s y) the cross difference is <= 0 on
    ordered pairs, so this coupling is optimal and serves as an independent
    oracle for 1-D reduced solves.  The reported objective is against
    -(s_i y_j).
    """
    if index_measure.dim != 1 or agents.dim != 1:
        raise DimensionMismatch("monotone map is defined for 1-D measures")
    s = index_measure.points.ravel()
    y = agents.points.ravel()
    s_order = np.argsort(s, kind="stable")
    y_order = np.argsort(y, kind="stable")
    s_left = list(np.asarray(index_measure.weights)[s_order])
    y_left = list(np.asarray(agents.weights)[y_order])
    entries = []
    objective = 0.0
    a = b = 0
    while a < len(s_left) and b < len(y_left):
        mass = min(s_left[a], y_left[b])
        if mass > 0.0:
            i, j = int(s_order[a]), int(y_order[b])
            entries.append((i, j, mass))
            objective += mass * -(s[i] * y[j])
        s_left[a] -= mass
        y_left[b] -= mass
        if s_left[a] <= y_left[b]:
            a += 1
        else:
            b += 1
    entries.sort()
    return TransportPlan(tuple(entries), objective, len(s), len(y))
