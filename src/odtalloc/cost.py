"""Trip-cost functional, its derivatives, the index-form reduction, and the
optional prior-dynamics (Gramian) cost.

The round trip of an agent parked at y serving the task (o, d) costs

    pickup |o - y|^2  +  shipping |o - d|^2  +  return |d - y|^2,

all squared Euclidean norms.  ``factors`` splits it about the agents' weighted
mean z into (alpha, beta, p, q), p = (o - z) + (d - z) and q = y - z, with
c_ij = alpha_i + beta_j + 2 c_hat_ij and c_hat_ij = -p_i . q_j, so every
coupling pi with marginals mu, nu has <c, pi> = mu.alpha + nu.beta
+ 2 <c_hat, pi>: the rank-n correlation cost every exact solve runs on.
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


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j|^2 of every pair of rows, summed coordinate by coordinate.

    Up to 7 coordinates this gives the bits of the broadcast form
    ``((a[:, None] - b[None]) ** 2).sum(axis=2)``, whose sum adds the
    coordinates in order; from 8 on numpy unrolls that sum and orders the
    additions differently.  No (m, n, dim) temporary is made.
    """
    out = np.subtract.outer(a[:, 0], b[:, 0])
    np.square(out, out=out)
    term = np.empty_like(out)
    for k in range(1, a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=term)
        np.square(term, out=term)
        out += term
    return out


def cost_matrix(tasks: TaskSet, agents: DiscreteMeasure) -> CostMatrix:
    """Trip cost of every (task, agent) pair, summed as (pickup + shipping) + return."""
    if tasks.dim != agents.dim:
        raise DimensionMismatch(f"tasks dim {tasks.dim} != agents dim {agents.dim}")
    o, d, y = tasks.origins, tasks.destinations, agents.points
    total = _squared_distances(o, y)  # pickup
    total += ((o - d) ** 2).sum(axis=1)[:, None]  # shipping
    total += _squared_distances(d, y)  # returning
    return CostMatrix(total)


def factors(tasks: TaskSet, agents: DiscreteMeasure):
    """The trip cost's split (alpha, beta, p, q) about the agents' weighted mean z.

    p = (o - z) + (d - z) and q = y - z, so c_ij = alpha_i + beta_j + 2 c_hat_ij
    with the rank-n correlation cost c_hat = -p.q, alpha_i = 2|o_i - z|^2
    + 2|d_i - z|^2 - 2 (o_i - z).(d_i - z) and beta_j = 2|q_j|^2.  About z every
    term is at the scale of the trip costs, also in projected city coordinates,
    where |o|^2 alone is near 1e13.  The 2 stays outside p: the exact solvers'
    tolerances scale with max |c_hat|.
    """
    if tasks.dim != agents.dim:
        raise DimensionMismatch(f"tasks dim {tasks.dim} != agents dim {agents.dim}")
    z = agents.weights @ agents.points
    o, d, q = tasks.origins - z, tasks.destinations - z, agents.points - z
    alpha = 2.0 * (o**2).sum(axis=1) + 2.0 * (d**2).sum(axis=1) - 2.0 * (o * d).sum(axis=1)
    return alpha, 2.0 * (q**2).sum(axis=1), o + d, q


def reduced_cost_matrix(p: np.ndarray, q: np.ndarray) -> CostMatrix:
    """Correlation cost c_hat_ij = -p_i . q_j of the ``factors``; may be negative.

    This is -(s_i . y_j) for s = o + d plus terms of one row or one column
    only, so it has the optimal plans of -(s . y) and of the trip cost.
    """
    return CostMatrix(-(p @ q.T))


def gaussian_prices(p: np.ndarray, q: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Column prices -psi(q_j) for the reduced cost -p.q of the ``factors``.

    psi = mean(p).q + 0.5 sum_k scale_k q_k^2, scale = sqrt(var(p) / var(q)), with
    p weighted by mu and q by nu, is the potential of the axis-wise map of the
    agents' normal fit onto the tasks' (Dowson & Landau 1982).  An axis where the
    agents do not spread can make a price inf or nan, with no warning.
    """
    mean = mu @ p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.sqrt((mu @ (p - mean) ** 2) / (nu @ q**2))
        return -(q @ mean + 0.5 * (q**2 @ scale))


@dataclass(frozen=True)
class DynamicsSpec:
    """Constant linear prior dynamics xdot = A x + B u on [t0, t1]."""

    A: np.ndarray
    B: np.ndarray
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch(f"B has {B.shape[0]} rows for {A.shape[0]} states")
        if not self.t1 > self.t0:
            raise DimensionMismatch("need t1 > t0")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def wpd_gramian(spec: DynamicsSpec) -> tuple[np.ndarray, np.ndarray]:
    """State-transition matrix Phi over [t0, t1] and the controllability Gramian.

    M = int_{t0}^{t1} Phi(t1, tau) B B^T Phi(t1, tau)^T dtau, read off one
    matrix exponential (Van Loan 1978): expm([[-A, B B^T], [0, A^T]] (t1 - t0))
    = [[F11, F12], [0, F22]] with Phi = F22^T and M = Phi F12.  The result is
    symmetrized before the positive-definiteness check.
    """
    from scipy.linalg import expm  # here, not at import: the CLI never needs scipy.linalg

    A, B = spec.A, spec.B
    n = A.shape[0]
    F = expm(np.block([[-A, B @ B.T], [np.zeros_like(A), A.T]]) * (spec.t1 - spec.t0))
    phi = F[n:, n:].T
    gramian = phi @ F[:n, n:]
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
