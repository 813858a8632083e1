"""Command-line front end: scenario generation, solving, and verification.

Every command writes machine-readable JSON/CSV files plus one human
summary line on stdout.  Exit codes are a stable contract: 0 for
success/pass, 1 for a domain failure (solver error, failed check), 2 for
flag or file errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    check_nestedness_1d,
    cross_difference,
    verify_nondegeneracy,
    verify_twist,
)
from .cost import cost_matrix, reduced_cost
from .errors import AllocationError, InvalidSpec, ParseError
from .measures import (
    DiscreteMeasure,
    TaskSet,
    load_agents_csv,
    load_tasks_csv,
    write_agents_csv,
    write_tasks_csv,
)
from .rng import rng_stream
from .scenarios import ScenarioSpec, generate
from .solver import (
    METHODS,
    DualPotentials,
    Solution,
    TransportPlan,
    check_stability,
    solve,
)


class _UsageFailure(Exception):
    """Internal marker: input file or flag problem, exit 2."""


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("ODTALLOC_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _UsageFailure(f"ODTALLOC_SEED={env!r} is not an integer") from None


def _load_inputs(args) -> tuple[TaskSet, DiscreteMeasure]:
    try:
        tasks = load_tasks_csv(args.tasks)
        agents = load_agents_csv(args.agents)
    except (AllocationError, OSError) as exc:
        raise _UsageFailure(str(exc)) from exc
    return tasks, agents


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_manifest(outdir, argv, inputs, seed, method, timings) -> None:
    payload = {
        "command": "odtalloc " + " ".join(argv),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "method": method,
        "timings_ms": {k: round(v, 3) for k, v in timings.items()},
        "version": __version__,
    }
    _write_json(Path(outdir) / "manifest.json", payload)


def cmd_gen(args, argv) -> int:
    seed = _resolve_seed(args.seed)
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise _UsageFailure(f"--params is not valid JSON: {exc}") from exc
    if args.spread is not None:
        params["spread"] = args.spread
    if args.box is not None:
        try:
            params["box"] = [float(v) for v in args.box.split(",")]
        except ValueError:
            raise _UsageFailure(f"--box {args.box!r} is not a comma list of numbers") from None
    if args.units is not None:
        params["units"] = args.units
    try:
        spec = ScenarioSpec(
            kind=args.kind,
            dim=args.dim,
            n_tasks=args.tasks,
            n_agents=args.agents,
            seed=seed,
            params=params,
        )
        tasks, agents = generate(spec)
    except InvalidSpec as exc:
        raise _UsageFailure(f"invalid scenario ({exc.field}): {exc}") from exc
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_tasks_csv(tasks, outdir / "tasks.csv")
    write_agents_csv(agents, outdir / "agents.csv")
    _write_json(outdir / "spec.json", spec.to_json())
    print(
        f"wrote {outdir}/tasks.csv {outdir}/agents.csv {outdir}/spec.json "
        f"(kind={spec.kind}, {spec.n_tasks} tasks, {spec.n_agents} agents, seed={seed})"
    )
    return 0


def _plan_json(
    solution: Solution, method: str, tasks: TaskSet, agents: DiscreteMeasure
) -> dict:
    task_ids = tasks.ids or tuple(str(i) for i in range(len(tasks)))
    agent_ids = agents.ids or tuple(str(j) for j in range(len(agents)))
    duals = solution.duals
    return {
        "objective": solution.objective,
        "entries": [
            {"task": task_ids[i], "agent": agent_ids[j], "mass": mass}
            for i, j, mass in solution.plan.entries
        ],
        "duals": None
        if duals is None
        else {"u": duals.u.tolist(), "v": duals.v.tolist()},
        "method": method,
        "unique": solution.unique,
    }


def _write_plot_csv(path, plan, tasks, agents) -> None:
    n = tasks.dim
    task_ids = tasks.ids or tuple(str(i) for i in range(len(tasks)))
    agent_ids = agents.ids or tuple(str(j) for j in range(len(agents)))
    header = (
        ["task_id", "agent_id", "mass"]
        + [f"o{k + 1}" for k in range(n)]
        + [f"d{k + 1}" for k in range(n)]
        + [f"y{k + 1}" for k in range(n)]
    )
    lines = [",".join(header)]
    for i, j, mass in plan.entries:
        cells = [task_ids[i], agent_ids[j], repr(float(mass))]
        cells += [repr(float(x)) for x in tasks.origins[i]]
        cells += [repr(float(x)) for x in tasks.destinations[i]]
        cells += [repr(float(x)) for x in agents.points[j]]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_solve(args, argv) -> int:
    if args.epsilon is not None and not 0.0 < args.epsilon < float("inf"):
        raise _UsageFailure(f"--epsilon must be positive and finite, got {args.epsilon!r}")
    timings = {}
    start = time.perf_counter()
    tasks, agents = _load_inputs(args)
    timings["load_ms"] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    solution = solve(tasks, agents, args.method, args.epsilon, args.tol, args.max_iter)
    timings["solve_ms"] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "plan.json", _plan_json(solution, args.method, tasks, agents))
    _write_plot_csv(outdir / "plot.csv", solution.plan, tasks, agents)
    if args.dump_cost:
        full_cost = cost_matrix(tasks, agents)
        _write_json(
            Path(args.dump_cost),
            {
                "n_tasks": full_cost.n_tasks,
                "n_agents": full_cost.n_agents,
                "values": full_cost.values.tolist(),  # row-major
            },
        )
    timings["write_ms"] = (time.perf_counter() - start) * 1000.0
    _write_manifest(outdir, argv, [args.tasks, args.agents], None, args.method, timings)
    print(
        f"wrote {outdir}/plan.json: method={args.method} objective={solution.objective!r} "
        f"entries={len(solution.plan.entries)} unique={solution.unique}"
    )
    return 0


def _verify_monge(samples: int, seed: int) -> dict:
    rng = rng_stream(seed)
    worst = -np.inf
    witness = None
    for _ in range(samples):
        s_lo, s_hi = sorted(rng.normals(2))
        y_lo, y_hi = sorted(rng.normals(2))
        value = cross_difference(
            lambda s, y: reduced_cost([s], [y]), s_lo, s_hi, y_lo, y_hi
        )
        if value > worst:
            worst = value
            witness = [[s_lo, s_hi], [y_lo, y_hi]]
    return {
        "condition": "monge",
        "passed": bool(worst <= 1e-12),
        "samples": samples,
        "worst_case": float(worst),
        "witness": witness,
    }


def _verify_stability(args) -> dict:
    if not (args.plan and args.tasks and args.agents):
        raise _UsageFailure("--check stability needs --plan, --tasks, and --agents")
    tasks, agents = _load_inputs(args)
    try:
        payload = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageFailure(f"cannot read plan file: {exc}") from exc
    task_index = {tid: i for i, tid in enumerate(tasks.ids or ())}
    agent_index = {aid: j for j, aid in enumerate(agents.ids or ())}
    try:
        entries = tuple(
            (task_index[e["task"]], agent_index[e["agent"]], float(e["mass"]))
            for e in payload["entries"]
        )
        duals_payload = payload["duals"]
    except (KeyError, TypeError) as exc:
        raise _UsageFailure(f"malformed plan file: {exc}") from exc
    if duals_payload is None:
        return {
            "condition": "stability",
            "passed": False,
            "samples": len(entries),
            "worst_case": float("inf"),
            "witness": None,
            "note": "plan carries no dual certificate",
        }
    plan = TransportPlan(entries, float(payload["objective"]), len(tasks), len(agents))
    duals = DualPotentials(np.array(duals_payload["u"]), np.array(duals_payload["v"]))
    full_cost = cost_matrix(tasks, agents)
    report = check_stability(plan, duals, full_cost, tol=args.tol)
    marginal_err = max(
        float(np.abs(plan.row_sums() - tasks.weights).max()),
        float(np.abs(plan.col_sums() - agents.weights).max()),
    )
    passed = bool(report.passed and marginal_err <= 1e-9)
    return {
        "condition": "stability",
        "passed": passed,
        "samples": len(entries),
        "worst_case": float(max(report.max_violation, report.max_slack_on_support)),
        "witness": None,
        "max_violation": report.max_violation,
        "max_slack_on_support": report.max_slack_on_support,
        "max_marginal_error": marginal_err,
    }


def cmd_verify(args, argv) -> int:
    seed = _resolve_seed(args.seed)
    timings = {}
    start = time.perf_counter()
    inputs = []
    if args.check == "twist":
        report = verify_twist(args.dim, args.samples, seed).to_json()
    elif args.check == "nondegeneracy":
        report = verify_nondegeneracy(args.dim, args.samples, seed).to_json()
    elif args.check == "monge":
        report = _verify_monge(args.samples, seed)
    elif args.check == "nestedness":
        if not (args.tasks and args.agents):
            raise _UsageFailure("--check nestedness needs --tasks and --agents")
        tasks, agents = _load_inputs(args)
        if tasks.dim != 1 or agents.dim != 1:
            raise _UsageFailure("--check nestedness needs 1-D instance files")
        inputs = [args.tasks, args.agents]
        report = check_nestedness_1d(tasks, agents, grid=args.grid).to_json()
    else:  # stability
        report = _verify_stability(args)
        inputs = [args.tasks, args.agents, args.plan]
    timings["check_ms"] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", report)
    timings["write_ms"] = (time.perf_counter() - start) * 1000.0
    _write_manifest(outdir, argv, inputs, seed, args.check, timings)
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"{args.check}: {verdict} (worst_case={report['worst_case']!r})")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odtalloc",
        description="Allocate transport agents to origin-destination tasks "
        "by discrete optimal transport.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scenario instance")
    gen.add_argument("--kind", required=True, choices=["gaussian_mixture", "grid", "city_box"])
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--tasks", type=int, default=10)
    gen.add_argument("--agents", type=int, default=10)
    gen.add_argument("--seed", type=int, default=None, help="fallback: ODTALLOC_SEED, then 0")
    gen.add_argument("--spread", type=float, default=None)
    gen.add_argument("--box", type=str, default=None, help="min0,min1,max0,max1")
    gen.add_argument("--units", choices=["meters", "degrees"], default=None)
    gen.add_argument("--params", type=str, default=None, help="extra params as JSON")
    gen.add_argument("--out", type=str, default=".")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="solve an instance from CSV files")
    solve.add_argument("--tasks", required=True)
    solve.add_argument("--agents", required=True)
    solve.add_argument("--method", choices=METHODS, default="exact")
    solve.add_argument("--epsilon", type=float, default=None,
                       help="entropic regularization (default: 1e-3 x cost spread)")
    solve.add_argument("--tol", type=float, default=1e-8)
    solve.add_argument("--max-iter", type=int, default=10000)
    solve.add_argument("--dump-cost", type=str, default=None,
                       help="also write the trip-cost matrix as row-major JSON")
    solve.add_argument("--out", type=str, default=".")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="run a structural condition check")
    verify.add_argument(
        "--check",
        required=True,
        choices=["twist", "nondegeneracy", "monge", "nestedness", "stability"],
    )
    verify.add_argument("--dim", type=int, default=2)
    verify.add_argument("--samples", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--grid", type=int, default=64)
    verify.add_argument("--tasks", default=None)
    verify.add_argument("--agents", default=None)
    verify.add_argument("--plan", default=None)
    verify.add_argument("--tol", type=float, default=1e-8,
                        help="stability tolerance, relative: scaled by max(1, max|c_ij|)")
    verify.add_argument("--out", type=str, default=".")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args, list(argv))
    except _UsageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AllocationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
