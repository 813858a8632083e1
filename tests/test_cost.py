import numpy as np
import pytest
from numpy.testing import assert_allclose

from odtalloc.cost import (
    CostMatrix,
    DynamicsSpec,
    cost_matrix,
    grad_x,
    grad_y,
    marginal_terms,
    mixed_hessian,
    reduced_cost,
    reduced_cost_matrix,
    reduction_constant,
    trip_cost,
    whiten,
    wpd_cost,
    wpd_gramian,
)
from odtalloc.errors import DimensionMismatch, NotControllable, SingularGramian
from odtalloc.measures import DiscreteMeasure, TaskSet, index_pushforward
from odtalloc.rng import rng_stream


def _random_triple(rng, n):
    return (
        np.array(rng.normals(n)),
        np.array(rng.normals(n)),
        np.array(rng.normals(n)),
    )


class TestTripCost:
    def test_zero(self):
        assert trip_cost([0.0], [0.0], [0.0]) == 0.0

    def test_scalar(self):
        # 1 + 1 + 0
        assert trip_cost([1.0], [0.0], [0.0]) == 2.0

    def test_midpoint_agent(self):
        # 0.25 + 1 + 0.25
        assert trip_cost([0.0, 0.0], [1.0, 0.0], [0.5, 0.0]) == 1.5

    def test_origin_destination_swap_symmetry(self):
        rng = rng_stream(11)
        for _ in range(200):
            o, d, y = _random_triple(rng, 3)
            assert_allclose(trip_cost(o, d, y), trip_cost(d, o, y), rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trip_cost([0.0, 1.0], [0.0], [0.0])


def _central_diff(fun, point, h=1e-5):
    out = np.empty_like(point)
    for k in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[k] += h
        lo[k] -= h
        out[k] = (fun(hi) - fun(lo)) / (2 * h)
    return out


class TestGradients:
    def test_grad_x_zero(self):
        assert_allclose(grad_x([0.0], [0.0], [0.0]), [0.0, 0.0])

    def test_grad_x_blocks(self):
        # blocks: 2(1-1)+2(1-0) = 2 and 2(0-1)+2(0-1) = -4
        assert_allclose(grad_x([1.0], [0.0], [1.0]), [2.0, -4.0])

    def test_grad_y_zero(self):
        assert_allclose(grad_y([0.0], [0.0], [0.0]), [0.0])

    def test_grad_y_scalar(self):
        # 4*1 - 2*(1+0)
        assert_allclose(grad_y([1.0], [0.0], [1.0]), [2.0])

    def test_grad_x_matches_finite_differences(self):
        rng = rng_stream(21)
        for _ in range(1000):
            n = 1 + rng.next_u64() % 3
            o, d, y = _random_triple(rng, n)
            fd = _central_diff(
                lambda x: trip_cost(x[:n], x[n:], y), np.concatenate([o, d])
            )
            exact = grad_x(o, d, y)
            scale = max(1.0, float(np.abs(exact).max()))
            assert np.abs(fd - exact).max() / scale < 1e-6

    def test_grad_y_matches_finite_differences(self):
        rng = rng_stream(22)
        for _ in range(1000):
            n = 1 + rng.next_u64() % 3
            o, d, y = _random_triple(rng, n)
            fd = _central_diff(lambda yy: trip_cost(o, d, yy), y.copy())
            exact = grad_y(o, d, y)
            scale = max(1.0, float(np.abs(exact).max()))
            assert np.abs(fd - exact).max() / scale < 1e-6


class TestMixedHessian:
    def test_scalar(self):
        assert_allclose(mixed_hessian([5.0], [1.0], [-2.0]), [[-2.0], [-2.0]])

    def test_two_dimensional(self):
        h = mixed_hessian([0.0, 0.0], [1.0, 1.0], [2.0, 2.0])
        expected = np.vstack([-2.0 * np.eye(2), -2.0 * np.eye(2)])
        assert_allclose(h, expected)

    def test_input_independent(self):
        rng = rng_stream(31)
        ref = mixed_hessian([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        for _ in range(20):
            o, d, y = _random_triple(rng, 2)
            assert_allclose(mixed_hessian(o, d, y), ref)

    def test_rank_is_n(self):
        for n in (1, 2, 3):
            zero = np.zeros(n)
            singular = np.linalg.svd(mixed_hessian(zero, zero, zero), compute_uv=False)
            rank = int((singular > 1e-8 * singular[0]).sum())
            assert rank == n


class TestCostMatrix:
    def test_symmetric_agents_around_midpoint(self):
        tasks = TaskSet([[1.0]], [[0.0]])
        agents = DiscreteMeasure([[0.0], [1.0]])
        assert_allclose(cost_matrix(tasks, agents).values, [[2.0, 2.0]])

    def test_zero_entry(self):
        tasks = TaskSet([[0.5]], [[0.5]])
        agents = DiscreteMeasure([[0.5]])
        assert cost_matrix(tasks, agents).values[0, 0] == 0.0

    def test_canonical_two_by_two(self):
        tasks = TaskSet([[0.0], [1.0]], [[0.0], [1.0]])
        agents = DiscreteMeasure([[0.0], [1.0]])
        assert_allclose(cost_matrix(tasks, agents).values, [[0.0, 2.0], [2.0, 0.0]])

    def test_matches_scalar_op(self):
        rng = rng_stream(41)
        tasks = TaskSet(
            np.array(rng.normals(6)).reshape(3, 2), np.array(rng.normals(6)).reshape(3, 2)
        )
        agents = DiscreteMeasure(np.array(rng.normals(8)).reshape(4, 2))
        matrix = cost_matrix(tasks, agents).values
        for i in range(3):
            for j in range(4):
                assert_allclose(
                    matrix[i, j],
                    trip_cost(tasks.origins[i], tasks.destinations[i], agents.points[j]),
                    rtol=1e-14,
                )

    def test_nonnegative_finite(self):
        rng = rng_stream(42)
        tasks = TaskSet(
            np.array(rng.normals(10)).reshape(5, 2), np.array(rng.normals(10)).reshape(5, 2)
        )
        agents = DiscreteMeasure(np.array(rng.normals(10)).reshape(5, 2))
        values = cost_matrix(tasks, agents).values
        assert np.all(values >= 0.0) and np.all(np.isfinite(values))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cost_matrix(TaskSet([[0.0]], [[1.0]]), DiscreteMeasure([[0.0, 0.0]]))


class TestReducedCost:
    def test_zero_index(self):
        assert reduced_cost([0.0], [5.0]) == 0.0

    def test_scalar(self):
        assert reduced_cost([2.0], [1.0]) == -2.0

    def test_orthogonal(self):
        assert reduced_cost([1.0, 1.0], [1.0, -1.0]) == 0.0

    def test_matrix(self):
        idx = DiscreteMeasure([[0.0], [2.0]])
        agents = DiscreteMeasure([[0.0], [1.0]])
        assert_allclose(
            reduced_cost_matrix(idx, agents).values, [[0.0, 0.0], [0.0, -2.0]]
        )


def _proportional_fitting(seed, mu, nu, iters=400):
    """Random feasible coupling by iterative row/column scaling."""
    rng = rng_stream(seed)
    plan = np.array(rng.uniforms(mu.size * nu.size)).reshape(mu.size, nu.size) + 0.1
    for _ in range(iters):
        plan *= (mu / plan.sum(axis=1))[:, None]
        plan *= (nu / plan.sum(axis=0))[None, :]
    return plan


class TestReductionConstant:
    def test_single_pair(self):
        # K = 2*0 (agent at origin) + 2*1 + 2*0 - 0 = 2; full cost 2 = K + 2*0
        tasks = TaskSet([[1.0]], [[0.0]])
        agents = DiscreteMeasure([[0.0]])
        k = reduction_constant(tasks, agents)
        assert k == 2.0
        full = cost_matrix(tasks, agents).values[0, 0]
        reduced = reduced_cost_matrix(index_pushforward(tasks), agents).values[0, 0]
        assert_allclose(full, k + 2.0 * reduced)

    def test_all_at_origin(self):
        tasks = TaskSet([[0.0, 0.0]], [[0.0, 0.0]])
        agents = DiscreteMeasure([[0.0, 0.0]])
        assert reduction_constant(tasks, agents) == 0.0

    def test_identity_on_random_feasible_couplings(self):
        rng = rng_stream(55)
        tasks = TaskSet(
            np.array(rng.normals(10)).reshape(5, 2),
            np.array(rng.normals(10)).reshape(5, 2),
            np.array(rng.uniforms(5)) + 0.1,
        )
        agents = DiscreteMeasure(
            np.array(rng.normals(10)).reshape(5, 2), np.array(rng.uniforms(5)) + 0.1
        )
        full = cost_matrix(tasks, agents).values
        reduced = reduced_cost_matrix(index_pushforward(tasks), agents).values
        constant = reduction_constant(tasks, agents)
        mu = np.asarray(tasks.weights)
        nu = np.asarray(agents.weights)
        nu = nu * (mu.sum() / nu.sum())
        for trial in range(20):
            plan = _proportional_fitting(1000 + trial, mu, nu)
            lhs = float((plan * full).sum())
            rhs = constant + 2.0 * float((plan * reduced).sum())
            assert abs(lhs - rhs) <= 1e-9

    def test_pointwise_identity(self):
        rng = rng_stream(56)
        tasks = TaskSet(
            np.array(rng.normals(8)).reshape(4, 2), np.array(rng.normals(8)).reshape(4, 2)
        )
        agents = DiscreteMeasure(np.array(rng.normals(6)).reshape(3, 2))
        full = cost_matrix(tasks, agents).values
        reduced = reduced_cost_matrix(index_pushforward(tasks), agents).values
        alpha, beta = marginal_terms(tasks, agents)
        assert_allclose(full, alpha[:, None] + beta[None, :] + 2.0 * reduced, atol=1e-12)
        o, d, y = tasks.origins, tasks.destinations, agents.points
        for i in range(4):
            for j in range(3):
                expected = (
                    2.0 * reduced[i, j]
                    + 2.0 * y[j] @ y[j]
                    + 2.0 * o[i] @ o[i]
                    + 2.0 * d[i] @ d[i]
                    - 2.0 * o[i] @ d[i]
                )
                assert abs(full[i, j] - expected) <= 1e-9


class TestGramian:
    def test_unit_integrator(self):
        phi, gram = wpd_gramian(DynamicsSpec([[0.0]], [[1.0]], 0.0, 1.0, 10))
        assert_allclose(phi, [[1.0]])
        assert_allclose(gram, [[1.0]], rtol=1e-12)

    def test_double_integrator_closed_form(self):
        # oracle: integral of [(1-t)^2, (1-t); (1-t), 1] over [0, 1]
        spec = DynamicsSpec([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 0.0, 1.0, 1000)
        phi, gram = wpd_gramian(spec)
        assert_allclose(phi, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)
        assert np.abs(gram - np.array([[1 / 3, 1 / 2], [1 / 2, 1.0]])).max() < 1e-6

    def test_identity_input_map(self):
        phi, gram = wpd_gramian(DynamicsSpec(np.zeros((2, 2)), np.eye(2), 0.0, 1.0, 10))
        assert_allclose(phi, np.eye(2))
        assert_allclose(gram, np.eye(2), rtol=1e-12)

    def test_symmetry(self):
        spec = DynamicsSpec([[0.1, 1.0], [-0.3, 0.2]], [[0.4], [1.0]], 0.0, 2.0, 200)
        _, gram = wpd_gramian(spec)
        assert np.abs(gram - gram.T).max() <= 1e-12

    def test_uncontrollable(self):
        with pytest.raises(NotControllable):
            wpd_gramian(DynamicsSpec([[0.0, 1.0], [0.0, 0.0]], [[1.0], [0.0]]))

    def test_odd_steps_rejected(self):
        with pytest.raises(DimensionMismatch):
            DynamicsSpec([[0.0]], [[1.0]], 0.0, 1.0, 7)


class TestWpdCost:
    def test_free_trajectory_endpoint(self):
        phi = np.array([[1.0, 0.5], [0.0, 1.0]])
        gram = np.eye(2)
        x = np.array([1.0, 2.0])
        assert wpd_cost(x, phi @ x, phi, gram) == 0.0

    def test_scalar(self):
        assert wpd_cost([0.0], [2.0], [[1.0]], [[1.0]]) == 2.0

    def test_whiten_identity_transform(self):
        xh, yh = whiten([1.0, 2.0], [3.0, 4.0], np.eye(2), np.eye(2))
        assert_allclose(xh, [1.0, 2.0])
        assert_allclose(yh, [3.0, 4.0])

    def test_whiten_scalar_halves(self):
        xh, yh = whiten([2.0], [4.0], [[1.0]], [[4.0]])
        assert_allclose(xh, [1.0])
        assert_allclose(yh, [2.0])

    def test_cost_equals_whitened_half_square(self):
        spec = DynamicsSpec([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 0.0, 1.0, 1000)
        phi, gram = wpd_gramian(spec)
        rng = rng_stream(77)
        for _ in range(100):
            x = np.array(rng.normals(2))
            y = np.array(rng.normals(2))
            direct = wpd_cost(x, y, phi, gram)
            xh, yh = whiten(x, y, phi, gram)
            assert abs(direct - 0.5 * float((yh - xh) @ (yh - xh))) <= 1e-9

    def test_zero_set_is_free_flow(self):
        spec = DynamicsSpec([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 0.0, 1.0, 200)
        phi, gram = wpd_gramian(spec)
        rng = rng_stream(78)
        for _ in range(50):
            x = np.array(rng.normals(2))
            y = np.array(rng.normals(2))
            value = wpd_cost(x, y, phi, gram)
            if np.linalg.norm(y - phi @ x) > 1e-5:
                assert value > 1e-10
        x = np.array(rng.normals(2))
        assert wpd_cost(x, phi @ x, phi, gram) <= 1e-10

    def test_singular_gramian(self):
        with pytest.raises(SingularGramian):
            wpd_cost([1.0, 0.0], [0.0, 1.0], np.eye(2), [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularGramian):
            whiten([1.0, 0.0], [0.0, 1.0], np.eye(2), [[1.0, 0.0], [0.0, 0.0]])
