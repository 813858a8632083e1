"""Workload definitions, instance set-up, the CLI ops and the output oracle.

Every op goes through ``odtalloc.cli.main`` in this process, the way a
user's script would call it, and writes into the same output directory
as the op before it; the benchmark checks each op's output before the
next op starts.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import odtalloc.cli
from odtalloc.cost import cost_matrix
from odtalloc.measures import load_agents_csv, load_tasks_csv

EXACT_TOL = 1e-9  # relative objective error and absolute marginal error, exact paths
ENTROPIC_TOL = 1e-8  # the CLI's default Sinkhorn stopping tolerance on marginals
DROPPED_MASS = 1e-12  # slack for entries below the entropic output floor


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    size: int  # tasks = agents
    methods: tuple[str, ...]  # one op per method, per instance
    verify: bool  # each op is a solve followed by `verify --check stability`
    pool: int  # instances generated in set-up; the timed phase makes whole passes over them


# Why each workload exists is stated in BENCHMARK.json and perfbench/NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        # simplex and the uniqueness re-solve do nearly all the work; no Sinkhorn
        Workload("mixture_exact", "gaussian_mixture", 300, ("exact", "reduced"), False, 4),
        # Sinkhorn only; at this size about 1 instance in 18 converges, the rest hit the
        # 10000-sweep cap, so a pool's mix of fast and capped ops varies little by seed
        Workload("mixture_entropic", "gaussian_mixture", 10, ("entropic",), False, 12),
        # many small calls, and the only workload that reads its outputs back
        Workload("city_rounds", "city_box", 30, ("exact",), True, 100),
    )
}


@dataclass
class Instance:
    """What the oracle needs of an instance: O(n) data, no dense cost matrix."""

    directory: Path
    reference: float  # optimal trip-cost objective, from scipy's assignment solver
    origins: np.ndarray
    destinations: np.ndarray
    agent_points: np.ndarray
    task_index: dict[str, int]
    agent_index: dict[str, int]
    task_weights: np.ndarray
    agent_weights: np.ndarray

    def trip_costs(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Trip cost of each pair (task i[k], agent j[k]), as ``cost_matrix`` defines it."""
        o, d, y = self.origins[i], self.destinations[i], self.agent_points[j]
        return ((o - y) ** 2).sum(axis=1) + ((o - d) ** 2).sum(axis=1) + ((d - y) ** 2).sum(axis=1)


@dataclass
class OpResult:
    code: int  # exit code of the solve
    latency: float
    directory: Path
    method: str
    instance: Instance
    verify_code: int | None = None  # exit code of the verify, when one ran
    error: str | None = None  # an exception cli.main let escape


def run_cli(argv: list[str]) -> int:
    """One CLI invocation with its summary line and error text discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return odtalloc.cli.main(argv)


def generate(workload: Workload, seed: int, directory: Path, size: int | None = None) -> None:
    n = str(size or workload.size)
    code = run_cli(
        ["gen", "--kind", workload.kind, "--dim", "2", "--tasks", n, "--agents", n,
         "--seed", str(seed), "--out", str(directory)]
    )
    if code != 0:
        raise RuntimeError(f"odtalloc gen exited {code} for seed {seed}")


def reference(directory: Path) -> Instance:
    """Load a generated instance and solve it independently of odtalloc's solvers.

    Generated instances are square with uniform weights, so the optimal
    coupling is a permutation and ``linear_sum_assignment`` finds it.  The
    dense matrix is dropped once solved; the oracle prices plan entries
    from the points.
    """
    tasks = load_tasks_csv(directory / "tasks.csv")
    agents = load_agents_csv(directory / "agents.csv")
    costs = cost_matrix(tasks, agents).values
    rows, cols = linear_sum_assignment(costs)
    return Instance(
        directory=directory,
        reference=float(costs[rows, cols].sum()) / len(rows),
        origins=tasks.origins,
        destinations=tasks.destinations,
        agent_points=agents.points,
        task_index={tid: i for i, tid in enumerate(tasks.ids)},
        agent_index={aid: j for j, aid in enumerate(agents.ids)},
        task_weights=tasks.weights,
        agent_weights=agents.weights,
    )


def run_op(instance: Instance, method: str, verify: bool, directory: Path, clock) -> OpResult:
    """One op: a CLI solve, and for verifying workloads the stability check of its plan."""
    solve_dir, verify_dir = directory / "solve", directory / "verify"
    tasks, agents = str(instance.directory / "tasks.csv"), str(instance.directory / "agents.csv")
    start = clock()
    result = OpResult(-1, 0.0, directory, method, instance)
    try:
        result.code = run_cli(
            ["solve", "--tasks", tasks, "--agents", agents, "--method", method,
             "--out", str(solve_dir)]
        )
        if verify and result.code == 0:
            result.verify_code = run_cli(
                ["verify", "--check", "stability", "--plan", str(solve_dir / "plan.json"),
                 "--tasks", tasks, "--agents", agents, "--out", str(verify_dir)]
            )
    except Exception as exc:  # a crash is a failed op, not the end of the run
        result.error = f"{type(exc).__name__}: {exc}"
    result.latency = clock() - start
    return result


@dataclass
class Verdict:
    failed: bool  # non-zero exit, crash, or output the oracle rejects
    wrong: bool  # the CLI reported success on output the oracle rejects, or refused our flags
    gap: float | None = None  # entropic objective over the exact optimum, minus 1


def check(result: OpResult) -> Verdict:
    """Check an op's output against the set-up reference.

    Ops reuse their output directory, so this runs before the next op;
    it reads a file only when the exit codes say the op wrote it.
    """
    if result.error is not None:
        return Verdict(failed=True, wrong=False)
    if result.code not in (0, 1) or result.verify_code not in (None, 0, 1):
        # exit 2 means the benchmark passed a bad flag or file: nothing it measured holds
        return Verdict(failed=True, wrong=True)
    if result.code == 1:
        return Verdict(failed=True, wrong=False)  # a solver domain failure, e.g. IterationLimit
    plan_path = result.directory / "solve" / "plan.json"
    plan_ok, gap = _plan_matches(json.loads(plan_path.read_text(encoding="utf-8")), result)
    # a correct plan that verify rejects is a failed op, but the solve's output was right
    return Verdict(failed=not plan_ok or result.verify_code == 1, wrong=not plan_ok, gap=gap)


def _plan_matches(plan: dict, result: OpResult) -> tuple[bool, float | None]:
    instance = result.instance
    entries = plan["entries"]
    i = np.array([instance.task_index[entry["task"]] for entry in entries], dtype=int)
    j = np.array([instance.agent_index[entry["agent"]] for entry in entries], dtype=int)
    mass = np.array([entry["mass"] for entry in entries], dtype=float)
    rows = np.bincount(i, weights=mass, minlength=instance.task_weights.size)
    cols = np.bincount(j, weights=mass, minlength=instance.agent_weights.size)
    objective = float(mass @ instance.trip_costs(i, j))
    marginal_err = max(
        float(np.abs(rows - instance.task_weights).max()),
        float(np.abs(cols - instance.agent_weights).max()),
    )
    if result.method == "entropic":
        # an entropic plan is only near-optimal: check it is what the CLI says it is
        consistent = abs(plan["objective"] - objective) <= EXACT_TOL * abs(objective)
        ok = consistent and marginal_err <= ENTROPIC_TOL + DROPPED_MASS
        return ok, plan["objective"] / instance.reference - 1.0
    scale = EXACT_TOL * abs(instance.reference)
    ok = (
        abs(plan["objective"] - instance.reference) <= scale
        and abs(objective - instance.reference) <= scale
        and marginal_err <= EXACT_TOL
    )
    return ok, None


def written_bytes(result: OpResult) -> int:
    """Bytes of the files the op wrote: a solve writes only on exit 0."""
    written = []
    if result.code == 0:
        written.append(result.directory / "solve")
    if result.verify_code is not None:
        written.append(result.directory / "verify")
    return sum(path.stat().st_size for d in written for path in d.iterdir())
