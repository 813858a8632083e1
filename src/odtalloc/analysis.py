"""Numeric verifiers for the structural properties of the trip cost.

The trip cost has constant curvature in the (task, agent) pairing: the
gradient-in-x map separates distinct agent positions at the fixed rate
2*sqrt(2), the mixed Hessian is the constant stack [-2I; -2I] of rank n,
and the correlation cost -(s.y) has nonpositive cross differences on
ordered pairs.  These checks sample the claims numerically and report a
worst case plus the witness achieving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import grad_x, mixed_hessian, reduced_cost
from .errors import DimensionMismatch
from .measures import DiscreteMeasure, TaskSet
from .rng import rng_stream


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one sampled condition check."""

    condition_name: str
    passed: bool
    samples_checked: int
    worst_case: float
    witness: tuple | None = None

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = [
                np.asarray(w, dtype=float).ravel().tolist() for w in self.witness
            ]
        return {
            "condition": self.condition_name,
            "passed": bool(self.passed),
            "samples": int(self.samples_checked),
            "worst_case": float(self.worst_case),
            "witness": witness,
        }


def verify_twist(dim: int, samples: int, seed: int = 0) -> ConditionReport:
    """Check injectivity of y -> grad_x c(x, y) on random triples.

    Records the worst separation ratio |grad_x(x,y) - grad_x(x,y')| /
    |y - y'|, which is the constant 2*sqrt(2) for this cost.  Pairs with
    |y - y'| < 1e-9 are rejected and redrawn.
    """
    if dim < 1 or samples < 1:
        raise DimensionMismatch(f"need dim >= 1 and samples >= 1, got {dim} and {samples}")
    rng = rng_stream(seed)
    worst = math.inf
    witness = None
    for _ in range(samples):
        o = np.array(rng.normals(dim))
        d = np.array(rng.normals(dim))
        while True:
            y = np.array(rng.normals(dim))
            y2 = np.array(rng.normals(dim))
            gap = float(np.linalg.norm(y - y2))
            if gap >= 1e-9:
                break
        ratio = float(np.linalg.norm(grad_x(o, d, y) - grad_x(o, d, y2))) / gap
        if ratio < worst:
            worst = ratio
            witness = (np.concatenate([o, d]), y, y2)
    return ConditionReport("twist", worst > 1e-9, samples, worst, witness)


def verify_nondegeneracy(dim: int, samples: int, seed: int = 0) -> ConditionReport:
    """Check rank(mixed Hessian) = n by singular values on random triples.

    The n-th singular value of the stacked [-2I; -2I] is 2*sqrt(2)
    regardless of the evaluation point; the numeric rank threshold is
    1e-8 times the largest singular value.
    """
    if dim < 1 or samples < 1:
        raise DimensionMismatch(f"need dim >= 1 and samples >= 1, got {dim} and {samples}")
    rng = rng_stream(seed)
    worst = math.inf
    witness = None
    passed = True
    for _ in range(samples):
        o = np.array(rng.normals(dim))
        d = np.array(rng.normals(dim))
        y = np.array(rng.normals(dim))
        singular = np.linalg.svd(mixed_hessian(o, d, y), compute_uv=False)
        rank = int(np.sum(singular > 1e-8 * singular[0]))
        if rank != dim:
            passed = False
        nth = float(singular[dim - 1])
        if nth < worst:
            worst = nth
            witness = (np.concatenate([o, d]), y)
    return ConditionReport("nondegeneracy", passed, samples, worst, witness)


def cross_difference(c, x, x2, y, y2) -> float:
    """c(x,y) + c(x',y') - c(x,y') - c(x',y) for a cost handle c."""
    return float(c(x, y) + c(x2, y2) - c(x, y2) - c(x2, y))


def verify_monge(samples: int, seed: int = 0) -> ConditionReport:
    """Check that the 1-D correlation cost -(s y) has nonpositive cross differences.

    Draws ordered pairs s < s', y < y' and records the largest
    c(s,y) + c(s',y') - c(s,y') - c(s',y), which is -(s' - s)(y' - y) <= 0.
    """
    if samples < 1:
        raise DimensionMismatch(f"need samples >= 1, got {samples}")
    rng = rng_stream(seed)
    worst = -math.inf
    witness = None
    for _ in range(samples):
        s_lo, s_hi = sorted(rng.normals(2))
        y_lo, y_hi = sorted(rng.normals(2))
        value = cross_difference(
            lambda s, y: reduced_cost([s], [y]), s_lo, s_hi, y_lo, y_hi
        )
        if value > worst:
            worst = value
            witness = ([s_lo, s_hi], [y_lo, y_hi])
    return ConditionReport("monge", worst <= 1e-12, samples, worst, witness)


def _interp_knots(points: np.ndarray, weights: np.ndarray):
    """Sorted atoms with positions from cumulative weight, endpoints at 0 and 1.

    Convention (fixed for reproducibility): sort atoms ascending (stable),
    take cumulative weights c_k, and place atom k at (c_k - c_0)/(c_last - c_0).
    With uniform weights this is linear interpolation between order
    statistics with inclusive endpoints.
    """
    order = np.argsort(points, kind="stable")
    values = points[order]
    cum = np.cumsum(weights[order])
    if values.size == 1:
        return np.array([0.0, 1.0]), np.array([values[0], values[0]])
    span = cum[-1] - cum[0]
    if span <= 0.0:
        positions = np.linspace(0.0, 1.0, values.size)
    else:
        positions = (cum - cum[0]) / span
    return positions, values


def check_nestedness_1d(
    tasks: TaskSet, agents: DiscreteMeasure, grid: int = 64
) -> ConditionReport:
    """Verify that mass-balanced sub-level sets of grad_y c are nested in 1-D.

    For agent level y the set {x : grad_y c(x, y) <= k} is {s >= (4y-k)/2}
    in the index s = o + d, so calibrating k by mass balance makes the
    threshold t(y) the (1 - F_nu(y))-quantile of the index distribution.
    Nestedness holds iff t is non-increasing along increasing y; the report
    records the largest observed increase.
    """
    if tasks.dim != 1 or agents.dim != 1:
        raise DimensionMismatch("nestedness check is defined for 1-D instances")
    if grid < 2:
        raise DimensionMismatch("grid must have at least 2 points")
    s_pos, s_val = _interp_knots((tasks.origins + tasks.destinations).ravel(), tasks.weights)
    y_pos, y_val = _interp_knots(agents.points.ravel(), np.asarray(agents.weights))
    levels = np.linspace(0.0, 1.0, grid)
    y_grid = np.interp(levels, y_pos, y_val)  # quantiles of the agents
    thresholds = np.interp(1.0 - np.interp(y_grid, y_val, y_pos), s_pos, s_val)
    increases = np.diff(thresholds)
    worst = float(increases.max()) if increases.size else 0.0
    passed = worst <= 1e-12
    witness = None
    if increases.size:
        k = int(np.argmax(increases))
        witness = (np.array([y_grid[k], y_grid[k + 1]]), np.array([thresholds[k], thresholds[k + 1]]))
    return ConditionReport("nestedness", passed, grid, worst, witness)
