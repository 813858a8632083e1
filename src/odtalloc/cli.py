"""Command-line front end: scenario generation, solving, and verification.

Every command writes machine-readable JSON/CSV files plus one human
summary line on stdout.  Exit codes are a stable contract, decided only in
``main``: 0 for success/pass, 1 only when a solver gives up or a check
fails, 2 for every rejected flag, file or input.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import shlex
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .analysis import (
    ConditionReport,
    check_nestedness_1d,
    verify_monge,
    verify_nondegeneracy,
    verify_twist,
)
from .cost import cost_matrix
from .errors import AllocationError, InvalidSpec, IterationLimit
from .measures import (
    DiscreteMeasure,
    TaskSet,
    _write_file,
    load_agents_csv,
    load_tasks_csv,
    write_agents_csv,
    write_tasks_csv,
)
from .scenarios import KINDS, PARAM_KEYS, ScenarioSpec, generate
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


def _read_input(path, inputs: dict) -> bytes:
    """The bytes of an input file, opened once per command.

    ``inputs`` maps each path read so far to its bytes; the manifest's
    digests are of these bytes, the ones that were parsed.
    """
    data = inputs.get(path)
    if data is None:
        with open(path, "rb") as fh:
            data = inputs[path] = fh.read()
    return data


def _load_inputs(args, inputs: dict) -> tuple[TaskSet, DiscreteMeasure]:
    tasks = load_tasks_csv(args.tasks, _read_input(args.tasks, inputs))
    return tasks, load_agents_csv(args.agents, _read_input(args.agents, inputs))


def _write_json(path, payload) -> None:
    _write_file(path, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


def _write_manifest(outdir, argv, inputs: dict, seed, method, timings) -> None:
    payload = {
        "command": "odtalloc " + shlex.join(argv),
        "inputs": {str(p): hashlib.sha256(data).hexdigest() for p, data in inputs.items()},
        "seed": seed,
        "method": method,
        "timings_ms": {k: round(v, 3) for k, v in timings.items()},
        "version": __version__,
    }
    _write_json(Path(outdir) / "manifest.json", payload)


def cmd_gen(args, argv) -> int:
    params = {}
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise _UsageFailure(f"--params is not valid JSON: {exc}") from exc
    try:
        spec = ScenarioSpec(
            kind=args.kind,
            dim=args.dim,
            n_tasks=args.tasks,
            n_agents=args.agents,
            seed=args.seed,
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
        f"(kind={spec.kind}, {spec.n_tasks} tasks, {spec.n_agents} agents, seed={spec.seed})"
    )
    return 0


def _json_list(items: list[str], indent: str) -> str:
    """The ``indent=2`` JSON list of the already encoded ``items``, in a block at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _write_plan_json(
    path, solution: Solution, method: str, tasks: TaskSet, agents: DiscreteMeasure,
    masses: list[str],
) -> None:
    """Write ``plan.json``: ``json.dumps(plan, indent=2)`` and a newline, byte for byte.

    The document has one fixed shape (objective, entries, duals, method,
    unique), so it is written from an ``indent=2`` template rather than
    walked as a dict of dicts.  Each task and agent id is encoded once, not
    once per entry: an entropic plan holds several entries per task and
    per agent.  Each dual list is one join.  ``masses`` holds each entry's
    mass as its repr, made once for this file and ``plot.csv``.
    """
    task_ids = [*map(encode_basestring_ascii, tasks.ids)]
    agent_ids = [*map(encode_basestring_ascii, agents.ids)]
    cells = solution.plan.entries
    entries = [
        f'{{\n      "task": {task_ids[i]},\n      "agent": {agent_ids[j]},\n'
        f'      "mass": {mass}\n    }}'
        for i, j, mass in zip(cells["task"].tolist(), cells["agent"].tolist(), masses)
    ]
    duals = "null"
    if solution.duals is not None:
        u, v = (_json_list([*map(float.__repr__, d.tolist())], "    ")
                for d in (solution.duals.u, solution.duals.v))
        duals = f'{{\n    "u": {u},\n    "v": {v}\n  }}'
    document = (
        f'{{\n  "objective": {float.__repr__(solution.plan.objective)},\n'
        f'  "entries": {_json_list(entries, "  ")},\n'
        f'  "duals": {duals},\n'
        f'  "method": {encode_basestring_ascii(method)},\n'
        f'  "unique": {"true" if solution.unique else "false"}\n}}\n'
    )
    _write_file(path, document.encode("utf-8"))


def _csv_id(text: str) -> str:
    """``text`` as a field of a ``csv.writer`` row with ``lineterminator="\\n"``.

    Only an empty id, or one holding ``,``, ``"``, ``\\r`` or ``\\n``, goes
    through csv, which quotes it or not as its version does (3.11 leaves a
    bare ``\\r`` unquoted); csv writes any other id as it is.
    """
    if text and set(text).isdisjoint(',"\r\n'):
        return text
    buffer = io.StringIO(newline="")
    csv.writer(buffer, lineterminator="\n").writerow([text, ""])
    return buffer.getvalue()[:-2]  # without the empty second field's "," and the line end


def _write_plot_csv(path, plan, tasks, agents, masses: list[str]) -> None:
    """Write ``plot.csv``: a ``task_id,agent_id,mass,o..,d..,y..`` line per plan entry.

    Byte for byte what ``csv.writer(lineterminator="\\n")`` writes for those
    rows, floats as their repr.  Each id and each task's and agent's run of
    coordinates is formatted once, not once per entry, and each line is one
    f-string of those parts and the entry's mass from ``masses``.
    """
    header = ["task_id", "agent_id", "mass"]
    header += [f"{end}{k + 1}" for end in "ody" for k in range(tasks.dim)]
    task_ids = [*map(_csv_id, tasks.ids)]
    agent_ids = [*map(_csv_id, agents.ids)]
    trips = zip(tasks.origins.tolist(), tasks.destinations.tolist())
    task_coords = [",".join(map(repr, o + d)) for o, d in trips]
    agent_coords = [",".join(map(repr, row)) for row in agents.points.tolist()]
    lines = [",".join(header) + "\n"]
    lines += [
        f"{task_ids[i]},{agent_ids[j]},{mass},{task_coords[i]},{agent_coords[j]}\n"
        for i, j, mass in zip(plan.entries["task"].tolist(), plan.entries["agent"].tolist(), masses)
    ]
    _write_file(path, "".join(lines).encode("utf-8"))


def cmd_solve(args, argv) -> int:
    if args.epsilon is not None and not 0.0 < args.epsilon < float("inf"):
        raise _UsageFailure(f"--epsilon must be positive and finite, got {args.epsilon!r}")
    if not 0.0 < args.tol < float("inf"):
        raise _UsageFailure(f"--tol must be positive and finite, got {args.tol!r}")
    if args.max_iter < 1:
        raise _UsageFailure(f"--max-iter must be at least 1, got {args.max_iter}")
    timings = {}
    inputs = {}
    start = time.perf_counter()
    tasks, agents = _load_inputs(args, inputs)
    timings["load_ms"] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    method = "exact" if args.method == "reduced" else args.method
    solution = solve(tasks, agents, method, args.epsilon, args.tol, args.max_iter)
    timings["solve_ms"] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.dump_cost:  # first: a dump that cannot be written leaves no plan files behind
        full_cost = cost_matrix(tasks, agents)
        _write_json(
            Path(args.dump_cost),
            {
                "n_tasks": full_cost.n_tasks,
                "n_agents": full_cost.n_agents,
                "values": full_cost.values.tolist(),  # row-major
            },
        )
    plan_start = time.perf_counter()
    masses = [*map(float.__repr__, solution.plan.entries["mass"].tolist())]
    _write_plan_json(outdir / "plan.json", solution, args.method, tasks, agents, masses)
    plot_start = time.perf_counter()
    _write_plot_csv(outdir / "plot.csv", solution.plan, tasks, agents, masses)
    plot_end = time.perf_counter()
    timings["write_ms"] = (time.perf_counter() - start) * 1000.0
    timings["plan_ms"] = (plot_start - plan_start) * 1000.0
    timings["plot_ms"] = (plot_end - plot_start) * 1000.0
    _write_manifest(outdir, argv, inputs, None, args.method, timings)
    print(
        f"wrote {outdir}/plan.json: method={args.method} objective={solution.plan.objective!r} "
        f"entries={len(solution.plan.entries)} unique={solution.unique}"
    )
    return 0


def _plan_text(data: bytes) -> str:
    """A plan file's text as ``read_text`` gives it: UTF-8, newlines translated to \\n."""
    text = data.decode("utf-8")
    if "\r" in text:  # keeps json's error positions those of the text read
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _json_number(value, what: str) -> float:
    """A finite float from a JSON number; json.loads also gives NaN and +-Infinity."""
    if type(value) not in (int, float):  # json.loads gives these exact types
        raise ValueError(f"{what} {value!r} is not a JSON number")
    value = float(value)
    if not abs(value) < float("inf"):
        raise ValueError(f"plan {what} {value!r} is not finite")
    return value


def _verify_stability(args, inputs: dict) -> dict:
    if not (args.plan and args.tasks and args.agents):
        raise _UsageFailure("--check stability needs --plan, --tasks, and --agents")
    tasks, agents = _load_inputs(args, inputs)
    task_index = {tid: i for i, tid in enumerate(tasks.ids)}
    agent_index = {aid: j for j, aid in enumerate(agents.ids)}
    try:
        payload = json.loads(_plan_text(_read_input(args.plan, inputs)))
        entries = [
            (task_index[e["task"]], agent_index[e["agent"]], _json_number(e["mass"], "mass"))
            for e in payload["entries"]
        ]
        smallest = min((mass for _, _, mass in entries), default=0.0)
        if smallest < 0.0:
            raise ValueError(f"plan mass {smallest!r} is negative")
        objective = _json_number(payload["objective"], "objective")
        duals = payload["duals"]
        if duals is not None:
            duals = DualPotentials(*([_json_number(x, "dual") for x in duals[k]] for k in "uv"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _UsageFailure(f"cannot read plan file: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _UsageFailure(f"malformed plan file: {exc}") from exc
    if duals is None:
        report = ConditionReport("stability", False, len(entries), float("inf")).to_json()
        report["note"] = "plan carries no dual certificate"
        return report
    plan = TransportPlan(entries, objective, len(tasks), len(agents))
    stability = check_stability(
        plan, duals, cost_matrix(tasks, agents), tasks.weights, agents.weights, tol=args.tol
    )
    worst = max(stability.max_violation, stability.max_slack_on_support)
    report = ConditionReport("stability", stability.passed, len(entries), worst).to_json()
    report["max_violation"] = stability.max_violation
    report["max_slack_on_support"] = stability.max_slack_on_support
    report["max_marginal_error"] = stability.max_marginal_error
    if not stability.objective_ok:
        report["note"] = (
            f"plan objective {objective!r} differs from <c, plan> = "
            f"{stability.recomputed_objective!r}"
        )
    return report


def cmd_verify(args, argv) -> int:
    if not 0.0 < args.tol < float("inf"):
        raise _UsageFailure(f"--tol must be positive and finite, got {args.tol!r}")
    if args.samples < 1:
        raise _UsageFailure(f"--samples must be at least 1, got {args.samples}")
    if args.grid < 2:
        raise _UsageFailure(f"--grid must be at least 2, got {args.grid}")
    timings = {}
    start = time.perf_counter()
    inputs = {}
    if args.check == "twist":
        report = verify_twist(args.dim, args.samples, args.seed).to_json()
    elif args.check == "nondegeneracy":
        report = verify_nondegeneracy(args.dim, args.samples, args.seed).to_json()
    elif args.check == "monge":
        report = verify_monge(args.samples, args.seed).to_json()
    elif args.check == "nestedness":
        if not (args.tasks and args.agents):
            raise _UsageFailure("--check nestedness needs --tasks and --agents")
        tasks, agents = _load_inputs(args, inputs)
        report = check_nestedness_1d(tasks, agents, grid=args.grid).to_json()
    else:  # stability
        report = _verify_stability(args, inputs)
    timings["check_ms"] = (time.perf_counter() - start) * 1000.0

    start = time.perf_counter()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    strict = {  # strict JSON has no inf or nan: a figure that is not finite is written null
        k: None if type(v) is float and not math.isfinite(v) else v for k, v in report.items()
    }
    _write_json(outdir / "report.json", strict)
    timings["write_ms"] = (time.perf_counter() - start) * 1000.0
    _write_manifest(outdir, argv, inputs, args.seed, args.check, timings)
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
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--tasks", type=int, default=10)
    gen.add_argument("--agents", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    keys = "; ".join(f"{kind}: {', '.join(names) or 'none'}" for kind, names in PARAM_KEYS.items())
    gen.add_argument("--params", help=f"a JSON object of the kind's keys ({keys})")
    gen.add_argument("--out", type=str, default=".")

    solve = sub.add_parser("solve", help="solve an instance from CSV files")
    solve.add_argument("--tasks", required=True)
    solve.add_argument("--agents", required=True)
    solve.add_argument("--method", choices=(*METHODS, "reduced"), default="exact",
                       help="reduced is another name for exact")
    solve.add_argument("--epsilon", type=float, default=None,
                       help="entropic regularization "
                            "(default: 1e-3 x cost spread, at least 1e-6 x max cost)")
    solve.add_argument("--tol", type=float, default=1e-8)
    solve.add_argument("--max-iter", type=int, default=10000)
    solve.add_argument("--dump-cost", type=str, default=None,
                       help="also write the trip-cost matrix as row-major JSON")
    solve.add_argument("--out", type=str, default=".")

    verify = sub.add_parser("verify", help="run a structural condition check")
    verify.add_argument(
        "--check",
        required=True,
        choices=["twist", "nondegeneracy", "monge", "nestedness", "stability"],
    )
    verify.add_argument("--dim", type=int, default=2)
    verify.add_argument("--samples", type=int, default=1000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--grid", type=int, default=64)
    verify.add_argument("--tasks", default=None)
    verify.add_argument("--agents", default=None)
    verify.add_argument("--plan", default=None)
    verify.add_argument("--tol", type=float, default=1e-8,
                        help="stability tolerance, relative: scaled by max(1, max|c_ij|)")
    verify.add_argument("--out", type=str, default=".")
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv=None) -> int:
    """Run one command and return its exit code; never raises SystemExit.

    The parser is built once per process and reused: parse_args keeps no
    state between calls.  The command runs through its module-level name,
    looked up per call, so a replaced ``cmd_*`` is the one that runs.
    """
    global _parser
    if argv is None:
        argv = sys.argv[1:]
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    command = {"gen": cmd_gen, "solve": cmd_solve, "verify": cmd_verify}[args.command]
    try:
        return command(args, list(argv))
    except IterationLimit as exc:  # the one domain failure: a solver gave up
        print(f"error: IterationLimit: {exc}", file=sys.stderr)
        return 1
    except (_UsageFailure, AllocationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
