"""Trip-cost functional, its derivatives, the index-form reduction, and the
optional prior-dynamics (Gramian) cost.

The round trip of an agent parked at y serving the task (o, d) costs

    pickup |o - y|^2  +  shipping |o - d|^2  +  return |d - y|^2,

all squared Euclidean norms.  Expanding the squares shows that, against any
coupling with fixed marginals, this equals a marginal-only constant plus
twice the correlation cost -(o + d) . y, which is what the reduced solver
path exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotControllable, SingularGramian
from .measures import DiscreteMeasure, TaskSet


def _vec(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0:
        raise DimensionMismatch(f"{name} is empty")
    return v


def _vecs_same_dim(*pairs) -> list[np.ndarray]:
    out = [_vec(x, name) for x, name in pairs]
    dims = {v.size for v in out}
    if len(dims) != 1:
        raise DimensionMismatch(
            "dimension mismatch: " + ", ".join(f"{n}={v.size}" for v, (_, n) in zip(out, pairs))
        )
    return out


def trip_cost(o, d, y) -> float:
    """Round-trip cost |o-y|^2 + |o-d|^2 + |d-y|^2."""
    o, d, y = _vecs_same_dim((o, "origin"), (d, "destination"), (y, "agent"))
    return float(
        np.dot(o - y, o - y) + np.dot(o - d, o - d) + np.dot(d - y, d - y)
    )


def grad_x(o, d, y) -> np.ndarray:
    """Gradient of the trip cost in the stacked task variable (o, d).

    Stacked [2(o - y) + 2(o - d); 2(d - y) + 2(d - o)], a 2n-vector.
    """
    o, d, y = _vecs_same_dim((o, "origin"), (d, "destination"), (y, "agent"))
    return np.concatenate([2.0 * (o - y) + 2.0 * (o - d), 2.0 * (d - y) + 2.0 * (d - o)])


def grad_y(o, d, y) -> np.ndarray:
    """Gradient of the trip cost in the agent position: 4y - 2(o + d)."""
    o, d, y = _vecs_same_dim((o, "origin"), (d, "destination"), (y, "agent"))
    return 4.0 * y - 2.0 * (o + d)


def mixed_hessian(o, d, y) -> np.ndarray:
    """Mixed second derivative d^2 c / dx dy: the constant stack [-2I; -2I]."""
    o, d, y = _vecs_same_dim((o, "origin"), (d, "destination"), (y, "agent"))
    n = o.size
    eye = np.eye(n)
    return np.vstack([-2.0 * eye, -2.0 * eye])


def reduced_cost(s, y) -> float:
    """Pointwise correlation cost -(s . y) for an index point s = o + d."""
    s, y = _vecs_same_dim((s, "index"), (y, "agent"))
    return float(-np.dot(s, y))


@dataclass(frozen=True)
class CostMatrix:
    """Dense cost matrix, rows = tasks, columns = agents."""

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch("cost matrix has non-finite entries")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_tasks(self) -> int:
        return self.values.shape[0]

    @property
    def n_agents(self) -> int:
        return self.values.shape[1]


def cost_matrix(tasks: TaskSet, agents: DiscreteMeasure) -> CostMatrix:
    """Trip cost of every (task, agent) pair."""
    if tasks.dim != agents.dim:
        raise DimensionMismatch(f"tasks dim {tasks.dim} != agents dim {agents.dim}")
    o, d, y = tasks.origins, tasks.destinations, agents.points
    pickup = ((o[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    shipping = ((o - d) ** 2).sum(axis=1)[:, None]
    returning = ((d[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    return CostMatrix(pickup + shipping + returning)


def reduced_cost_matrix(index_measure: DiscreteMeasure, agents: DiscreteMeasure) -> CostMatrix:
    """Correlation cost -(s_i . y_j) of every (index, agent) pair; may be negative."""
    if index_measure.dim != agents.dim:
        raise DimensionMismatch(
            f"index dim {index_measure.dim} != agents dim {agents.dim}"
        )
    return CostMatrix(-(index_measure.points @ agents.points.T))


def marginal_terms(tasks: TaskSet, agents: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The marginal-only parts (alpha, beta) of the trip cost's split.

    c_ij = alpha_i + beta_j + 2 c_hat_ij, with c_hat_ij = -(o_i + d_i) . y_j,
    alpha_i = 2|o_i|^2 + 2|d_i|^2 - 2 o_i.d_i and beta_j = 2|y_j|^2.
    """
    o, d = tasks.origins, tasks.destinations
    alpha = 2.0 * (o**2).sum(axis=1) + 2.0 * (d**2).sum(axis=1) - 2.0 * (o * d).sum(axis=1)
    beta = 2.0 * (agents.points**2).sum(axis=1)
    return alpha, beta


def reduction_constant(tasks: TaskSet, agents: DiscreteMeasure) -> float:
    """Marginal-only constant K linking the full and reduced objectives.

    K = sum_j nu_j beta_j + sum_i mu_i alpha_i (see ``marginal_terms``);
    for every coupling pi with these marginals, <c, pi> = K + 2 <c_hat, pi>.
    """
    if tasks.dim != agents.dim:
        raise DimensionMismatch(f"tasks dim {tasks.dim} != agents dim {agents.dim}")
    alpha, beta = marginal_terms(tasks, agents)
    return float(agents.weights @ beta) + float(tasks.weights @ alpha)


@dataclass(frozen=True)
class DynamicsSpec:
    """Constant linear prior dynamics xdot = A x + B u on [t0, t1]."""

    A: np.ndarray
    B: np.ndarray
    t0: float = 0.0
    t1: float = 1.0
    quadrature_steps: int = 1000

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch(f"B has {B.shape[0]} rows for {A.shape[0]} states")
        if not self.t1 > self.t0:
            raise DimensionMismatch("need t1 > t0")
        if self.quadrature_steps <= 0 or self.quadrature_steps % 2 != 0:
            raise DimensionMismatch("quadrature_steps must be a positive even integer")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def wpd_gramian(spec: DynamicsSpec) -> tuple[np.ndarray, np.ndarray]:
    """State-transition matrix Phi over [t0, t1] and the controllability Gramian.

    M = int_{t0}^{t1} Phi(t1, tau) B B^T Phi(t1, tau)^T dtau, evaluated by
    composite Simpson quadrature with ``spec.quadrature_steps`` panels; the
    result is symmetrized before the positive-definiteness check.
    """
    from scipy.linalg import expm  # here, not at import: the CLI never needs scipy.linalg

    A, B = spec.A, spec.B
    steps = spec.quadrature_steps
    h = (spec.t1 - spec.t0) / steps
    step = expm(A * h)

    gramian = np.zeros_like(A)
    transition = np.eye(A.shape[0])
    for k in range(steps + 1):  # tau = t1 - k h: Phi(t1, tau) = step^k; weights symmetric in k
        integrand = transition @ B @ B.T @ transition.T
        weight = 1.0 if k in (0, steps) else (4.0 if k % 2 == 1 else 2.0)
        gramian += weight * integrand
        phi, transition = transition, transition @ step
    gramian *= h / 3.0
    gramian = 0.5 * (gramian + gramian.T)

    eigvals = np.linalg.eigvalsh(gramian)
    if eigvals[0] <= 1e-10 * max(eigvals[-1], 0.0):
        raise NotControllable(
            f"Gramian numerically singular (eigenvalues {eigvals[0]:.3e}..{eigvals[-1]:.3e})"
        )
    return phi, gramian


def _inv_sqrt(M: np.ndarray) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    sym = 0.5 * (M + M.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals[0] < 1e-12:
        raise SingularGramian(f"eigenvalue {eigvals[0]:.3e} below floor 1e-12")
    return eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T


def whiten(x, y, phi, gramian) -> tuple[np.ndarray, np.ndarray]:
    """Map (x, y) to whitened coordinates (M^{-1/2} Phi x, M^{-1/2} y).

    In these coordinates the prior-dynamics cost is the plain quadratic
    half squared distance.
    """
    x = _vec(x, "x")
    y = _vec(y, "y")
    inv_root = _inv_sqrt(gramian)
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    return inv_root @ phi @ x, inv_root @ y


def wpd_cost(x, y, phi, gramian) -> float:
    """Minimum-energy transport cost 1/2 (y - Phi x)^T M^{-1} (y - Phi x)."""
    x = _vec(x, "x")
    y = _vec(y, "y")
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    M = np.atleast_2d(np.asarray(gramian, dtype=float))
    sym = 0.5 * (M + M.T)
    eigvals = np.linalg.eigvalsh(sym)
    if eigvals[0] < 1e-12:
        raise SingularGramian(f"eigenvalue {eigvals[0]:.3e} below floor 1e-12")
    residue = y - phi @ x
    return max(0.0, 0.5 * float(residue @ np.linalg.solve(sym, residue)))
