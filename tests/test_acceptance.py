"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np

from odtalloc.analysis import (
    check_nestedness_1d,
    cross_difference,
    verify_nondegeneracy,
    verify_twist,
)
from odtalloc.cli import main as cli_main
from odtalloc.cost import (
    CostMatrix,
    DynamicsSpec,
    cost_matrix,
    factors,
    reduced_cost_matrix,
    whiten,
    wpd_cost,
    wpd_gramian,
)
from odtalloc.measures import DiscreteMeasure, TaskSet
from odtalloc.rng import rng_stream
from odtalloc.scenarios import ScenarioSpec, generate
from odtalloc.solver import (
    DualPotentials,
    check_stability,
    solve_entropic,
    solve,
    solve_exact,
    support_is_unique,
)
from oracles import brute_force_small, monotone_map_1d

ROOT8 = 2.0 * math.sqrt(2.0)


def _report(number: int, name: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict} [{detail}]")
    return ok


def _random_instance(rng, m, n, dim, uniform):
    mu = None if uniform else np.array(rng.uniforms(m)) + 0.2
    nu = None if uniform else np.array(rng.uniforms(n)) + 0.2
    tasks = TaskSet(
        np.array(rng.normals(m * dim)).reshape(m, dim),
        np.array(rng.normals(m * dim)).reshape(m, dim),
        mu,
    )
    agents = DiscreteMeasure(np.array(rng.normals(n * dim)).reshape(n, dim), nu)
    if not uniform:
        # rebalance the normalized sides to agree beyond 1e-9
        w = np.asarray(agents.weights) * (np.asarray(tasks.weights).sum() / np.asarray(agents.weights).sum())
        agents = DiscreteMeasure(agents.points, w)
    return tasks, agents


def test_criterion_1_oracle_equivalence():
    rng = rng_stream(1001)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        size = 2 + trial % 6
        values = np.array(rng.uniforms(size * size)).reshape(size, size) * 10.0
        cost = CostMatrix(values)
        w = np.full(size, 1.0 / size)
        plan, _ = solve_exact(cost, w, w)
        oracle = brute_force_small(cost, w, w)
        worst = max(worst, abs(plan.objective - oracle.objective))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert _report(
        1, "oracle equivalence", ok, f"50 instances, worst gap {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_reduction_equivalence():
    rng = rng_stream(1002)
    start = time.perf_counter()
    worst = 0.0
    unique_count = 0
    support_mismatches = 0
    for trial in range(100):
        dim = 1 + trial % 3
        m = 2 + rng.next_u64() % 49
        n = 2 + rng.next_u64() % 49
        tasks, agents = _random_instance(rng, int(m), int(n), dim, uniform=(trial % 2 == 0))
        reduced = solve(tasks, agents, "exact")
        plan_red, objective_full = reduced.plan, reduced.plan.objective
        full_cost = cost_matrix(tasks, agents)
        plan_exact, duals_exact = solve_exact(full_cost, tasks.weights, agents.weights)
        worst = max(worst, abs(objective_full - plan_exact.objective))
        if support_is_unique(full_cost, tasks.weights, agents.weights, plan_exact, duals_exact):
            unique_count += 1
            if plan_red.support() != plan_exact.support():
                support_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and support_mismatches == 0 and elapsed < 30.0
    assert _report(
        2,
        "reduction equivalence",
        ok,
        f"100 instances, worst gap {worst:.2e}, {unique_count} unique, "
        f"{support_mismatches} support mismatches, {elapsed:.1f}s",
    )


def _proportional_fitting(rng, mu, nu, iterations=500):
    plan = np.array(rng.uniforms(mu.size * nu.size)).reshape(mu.size, nu.size) + 0.1
    for _ in range(iterations):
        plan *= (mu / plan.sum(axis=1))[:, None]
        plan *= (nu / plan.sum(axis=0))[None, :]
    return plan


def test_criterion_3_pointwise_reduction_identity():
    rng = rng_stream(1003)
    worst = 0.0
    for instance in range(5):
        tasks, agents = _random_instance(rng, 5, 5, 2, uniform=False)
        mu = np.asarray(tasks.weights)
        nu = np.asarray(agents.weights)
        full = cost_matrix(tasks, agents).values
        alpha, beta, p, q = factors(tasks, agents)
        reduced = reduced_cost_matrix(p, q).values
        constant = float(nu @ beta) + float(mu @ alpha)
        for _ in range(20):
            coupling = _proportional_fitting(rng, mu, nu)
            lhs = float((coupling * full).sum())
            rhs = constant + 2.0 * float((coupling * reduced).sum())
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    assert _report(
        3, "pointwise reduction identity", ok, f"5x20 couplings, worst gap {worst:.2e}"
    )


def test_criterion_4_comonotone_structure():
    rng = rng_stream(1004)
    worst = 0.0
    crossings = 0
    for trial in range(50):
        size = 2 + trial % 9
        tasks, agents = _random_instance(rng, size, size, 1, uniform=True)
        idx = DiscreteMeasure(tasks.origins + tasks.destinations, tasks.weights)
        reduced = reduced_cost_matrix(*factors(tasks, agents)[2:])
        plan_exact, _ = solve_exact(reduced, tasks.weights, agents.weights)
        s = idx.points.ravel()
        y = agents.points.ravel()
        support = list(plan_exact.support())
        for a in range(len(support)):
            for b in range(len(support)):
                i, k = support[a]
                j, l = support[b]
                if s[i] < s[j] and y[k] > y[l]:
                    crossings += 1
        # the comonotone coupling, priced on the cost the solve ran on
        mono = sum(m * reduced.values[i, j] for i, j, m in monotone_map_1d(idx, agents).entries)
        worst = max(worst, abs(mono - plan_exact.objective))
    ok = crossings == 0 and worst <= 1e-9
    assert _report(
        4,
        "comonotone structure",
        ok,
        f"50 instances, {crossings} crossings, worst objective gap {worst:.2e}",
    )


def test_criterion_5_condition_suite():
    twist_ok = True
    for dim in (1, 2, 3):
        report = verify_twist(dim, 1000, seed=50 + dim)
        twist_ok &= report.passed and abs(report.worst_case - ROOT8) <= 1e-9
    nondeg_ok = True
    for dim in (1, 2, 3):
        report = verify_nondegeneracy(dim, 1000, seed=60 + dim)
        nondeg_ok &= report.passed and abs(report.worst_case - ROOT8) <= 1e-9
    rng = rng_stream(1005)
    cross_ok = True
    for _ in range(1000):
        s_lo, s_hi = sorted(rng.normals(2))
        y_lo, y_hi = sorted(rng.normals(2))
        cross_ok &= cross_difference(lambda s, y: -s * y, s_lo, s_hi, y_lo, y_hi) <= 0.0
    nest_ok = True
    for seed in range(20):
        tasks, agents = generate(
            ScenarioSpec("gaussian_mixture", 1, 10 + seed % 8, 8 + seed % 5, seed=seed)
        )
        nest_ok &= check_nestedness_1d(tasks, agents, grid=64).passed
    ok = twist_ok and nondeg_ok and cross_ok and nest_ok
    assert _report(
        5,
        "condition suite",
        ok,
        f"twist={twist_ok} nondegeneracy={nondeg_ok} monge={cross_ok} nestedness={nest_ok}",
    )


def test_criterion_6_duality_stability():
    rng = rng_stream(1006)
    all_pass = True
    corrupt_detected = True
    for trial in range(20):
        m = 2 + trial % 8
        n = 2 + (trial * 3) % 8
        tasks, agents = _random_instance(rng, m, n, 2, uniform=(trial % 2 == 0))
        cost = cost_matrix(tasks, agents)
        plan, duals = solve_exact(cost, tasks.weights, agents.weights)
        mu, nu = tasks.weights, agents.weights
        all_pass &= check_stability(plan, duals, cost, mu, nu, tol=1e-8).passed
        if trial < 3:
            for index in range(m):
                for delta in (1e-3, -1e-3):
                    bad_u = duals.u.copy()
                    bad_u[index] += delta
                    corrupt_detected &= not check_stability(
                        plan, DualPotentials(bad_u, duals.v), cost, mu, nu, tol=1e-8
                    ).passed
            for index in range(n):
                for delta in (1e-3, -1e-3):
                    bad_v = duals.v.copy()
                    bad_v[index] += delta
                    corrupt_detected &= not check_stability(
                        plan, DualPotentials(duals.u, bad_v), cost, mu, nu, tol=1e-8
                    ).passed
    ok = all_pass and corrupt_detected
    assert _report(
        6,
        "duality and stability",
        ok,
        f"all optimal plans stable={all_pass}, corrupted duals detected={corrupt_detected}",
    )


def test_criterion_7_entropic_consistency():
    rng = rng_stream(1007)
    worst_rel = 0.0
    worst_violation = 0.0
    for trial in range(20):
        size = 4 + trial % 5
        tasks, agents = _random_instance(rng, size, size, 1, uniform=False)
        cost = cost_matrix(tasks, agents)
        spread = float(cost.values.max() - cost.values.min())
        exact, _ = solve_exact(cost, tasks.weights, agents.weights)
        plan = solve_entropic(
            cost,
            tasks.weights,
            agents.weights,
            epsilon=1e-3 * spread,
            tol=1e-9,  # stricter than the asserted 1e-8 bound for real margin
            max_iter=10000,
        )
        violation = max(
            float(np.abs(plan.row_sums() - tasks.weights).max()),
            float(np.abs(plan.col_sums() - agents.weights).max()),
        )
        worst_violation = max(worst_violation, violation)
        scale = max(abs(exact.objective), 1e-12)
        worst_rel = max(worst_rel, abs(plan.objective - exact.objective) / scale)
    ok = worst_rel <= 0.01 and worst_violation < 1e-8
    assert _report(
        7,
        "entropic consistency",
        ok,
        f"20 instances, worst rel err {worst_rel:.2e}, worst violation {worst_violation:.2e}",
    )


def test_criterion_8_gramian_numerics():
    spec = DynamicsSpec([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 0.0, 1.0)
    phi, gramian = wpd_gramian(spec)
    closed_form = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])
    gram_err = float(np.abs(gramian - closed_form).max())
    rng = rng_stream(1008)
    worst = 0.0
    for _ in range(100):
        x = np.array(rng.normals(2))
        y = np.array(rng.normals(2))
        direct = wpd_cost(x, y, phi, gramian)
        xh, yh = whiten(x, y, phi, gramian)
        worst = max(worst, abs(direct - 0.5 * float((yh - xh) @ (yh - xh))))
    ok = gram_err <= 1e-6 and worst <= 1e-9
    assert _report(
        8,
        "prior-dynamics numerics",
        ok,
        f"Gramian err {gram_err:.2e}, whitening identity err {worst:.2e}",
    )


def test_criterion_9_desk_scale_performance():
    tasks, agents = generate(ScenarioSpec("city_box", 2, 30, 30, seed=30))
    cost = cost_matrix(tasks, agents)
    start = time.perf_counter()
    solve_exact(cost, tasks.weights, agents.weights)
    city_time = time.perf_counter() - start

    tasks_big, agents_big = generate(ScenarioSpec("gaussian_mixture", 2, 500, 500, seed=500))
    cost_big = cost_matrix(tasks_big, agents_big)
    start = time.perf_counter()
    plan, duals = solve_exact(cost_big, tasks_big.weights, agents_big.weights)
    big_time = time.perf_counter() - start
    feasible = (
        np.abs(plan.row_sums() - tasks_big.weights).max() <= 1e-9
        and np.abs(plan.col_sums() - agents_big.weights).max() <= 1e-9
    )
    ok = city_time < 1.0 and big_time < 30.0 and feasible
    assert _report(
        9,
        "desk-scale performance",
        ok,
        f"30x30 in {city_time * 1000:.0f}ms, 500x500 in {big_time:.1f}s, feasible={feasible}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    inst = tmp_path / "inst"
    assert cli_main([
        "gen", "--kind", "gaussian_mixture", "--dim", "2", "--tasks", "12",
        "--agents", "10", "--seed", "77", "--out", str(inst),
    ]) == 0
    outputs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert cli_main([
            "solve", "--tasks", str(inst / "tasks.csv"),
            "--agents", str(inst / "agents.csv"), "--method", "exact",
            "--out", str(out),
        ]) == 0
        outputs.append(out)
    plan_same = (outputs[0] / "plan.json").read_bytes() == (outputs[1] / "plan.json").read_bytes()
    plot_same = (outputs[0] / "plot.csv").read_bytes() == (outputs[1] / "plot.csv").read_bytes()
    regen = tmp_path / "regen"
    assert cli_main([
        "gen", "--kind", "gaussian_mixture", "--dim", "2", "--tasks", "12",
        "--agents", "10", "--seed", "77", "--out", str(regen),
    ]) == 0
    gen_same = (inst / "tasks.csv").read_bytes() == (regen / "tasks.csv").read_bytes()
    ok = plan_same and plot_same and gen_same
    assert _report(
        10,
        "determinism",
        ok,
        f"plan.json identical={plan_same}, plot.csv identical={plot_same}, gen identical={gen_same}",
    )
