"""Command-line front end: scenario generation, solving, and verification.

Every command writes machine-readable JSON/CSV files plus one human
summary line on stdout.  Exit codes are a stable contract, decided only in
``main``: 0 for success/pass, 1 only when a solver gives up or a check
fails, 2 for every rejected flag, file or input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

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
    _write_csv,
    _write_file,
    load_agents_csv,
    load_tasks_csv,
    write_agents_csv,
    write_tasks_csv,
)
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


class _NotPlain(Exception):
    """Internal marker: a value ``_indented_json`` leaves to ``json.dumps``."""


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_json(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


_CONSTANTS = {True: "true", False: "false", None: "null"}.__getitem__
# the JSON of a scalar, by exact type, as the json module writes it; json
# writes a float subclass such as np.float64 by float.__repr__ too
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    float: _float_json,
    np.float64: _float_json,
    int: int.__repr__,
    bool: _CONSTANTS,
    type(None): _CONSTANTS,
}


def _encode(value, parts: list, newline: str) -> None:
    """Append the ``indent=2`` JSON of ``value`` to ``parts``; ``newline`` ends with its indent.

    Scalars inside a container are written in the container's loop, so only
    containers recurse.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise _NotPlain
            to_json = _SCALAR_JSON.get(type(item))
            if to_json is None:
                parts.append(f"{separator}{encode_basestring_ascii(key)}: ")
                _encode(item, parts, inner)
            else:
                parts.append(f"{separator}{encode_basestring_ascii(key)}: {to_json(item)}")
            separator = "," + inner
        parts.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            to_json = _SCALAR_JSON.get(type(item))
            if to_json is None:
                parts.append(separator)
                _encode(item, parts, inner)
            else:
                parts.append(separator + to_json(item))
            separator = "," + inner
        parts.append(newline + "]")
    else:
        to_json = _SCALAR_JSON.get(kind)
        if to_json is None:
            raise _NotPlain
        parts.append(to_json(value))


def _indented_json(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, without json's indenting encoder.

    ``indent`` makes the json module encode in Python, token by token, with
    an isinstance chain per value; dispatching on exact types takes about
    60-70% of its time.  A document holding any other type (another
    subclass, a non-string key) goes to ``json.dumps`` whole, so its output
    and its errors are json's own.
    """
    parts = []
    try:
        _encode(payload, parts, "\n")
    except _NotPlain:
        return json.dumps(payload, indent=2)
    return "".join(parts)


def _write_json(path, payload) -> None:
    _write_file(path, (_indented_json(payload) + "\n").encode("utf-8"))


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
    seed = _resolve_seed(args.seed)
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise _UsageFailure(f"--params is not valid JSON: {exc}") from exc
    box = None
    if args.box is not None:
        try:
            box = [float(v) for v in args.box.split(",")]
        except ValueError:
            raise _UsageFailure(f"--box {args.box!r} is not a comma list of numbers") from None
    if isinstance(params, dict):  # ScenarioSpec rejects any other --params
        for key, value in (("spread", args.spread), ("box", box), ("units", args.units)):
            if value is not None:
                params[key] = value
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
    duals = solution.duals
    return {
        "objective": solution.objective,
        "entries": [
            {"task": tasks.ids[i], "agent": agents.ids[j], "mass": mass}
            for i, j, mass in solution.plan.entries
        ],
        "duals": None
        if duals is None
        else {"u": duals.u.tolist(), "v": duals.v.tolist()},
        "method": method,
        "unique": solution.unique,
    }


def _write_plot_csv(path, plan, tasks, agents) -> None:
    header = ["task_id", "agent_id", "mass"]
    header += [f"{end}{k + 1}" for end in "ody" for k in range(tasks.dim)]
    # Python floats, which csv writes as their shortest round-trip repr
    origins, destinations = tasks.origins.tolist(), tasks.destinations.tolist()
    points = agents.points.tolist()
    rows = (
        [tasks.ids[i], agents.ids[j], float(mass), *origins[i], *destinations[i], *points[j]]
        for i, j, mass in plan.entries
    )
    _write_csv(path, header, rows, lineterminator="\n")


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
    _write_manifest(outdir, argv, inputs, None, args.method, timings)
    print(
        f"wrote {outdir}/plan.json: method={args.method} objective={solution.objective!r} "
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
    if type(value) not in (int, float):  # json.loads gives these exact types
        raise ValueError(f"{what} {value!r} is not a JSON number")
    return float(value)


def _verify_stability(args, inputs: dict) -> dict:
    if not (args.plan and args.tasks and args.agents):
        raise _UsageFailure("--check stability needs --plan, --tasks, and --agents")
    tasks, agents = _load_inputs(args, inputs)
    task_index = {tid: i for i, tid in enumerate(tasks.ids)}
    agent_index = {aid: j for j, aid in enumerate(agents.ids)}
    try:
        payload = json.loads(_plan_text(_read_input(args.plan, inputs)))
        entries = tuple(
            (task_index[e["task"]], agent_index[e["agent"]], _json_number(e["mass"], "mass"))
            for e in payload["entries"]
        )
        for _, _, mass in entries:
            if not 0.0 <= mass < float("inf"):
                raise ValueError(f"plan mass {mass!r} is negative or not finite")
        objective = _json_number(payload["objective"], "objective")
        plan = TransportPlan(entries, objective, len(tasks), len(agents))
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
    stability = check_stability(plan, duals, cost_matrix(tasks, agents), tol=args.tol)
    dense = plan.to_dense()
    marginal_err = max(
        float(np.abs(dense.sum(axis=1) - tasks.weights).max()),
        float(np.abs(dense.sum(axis=0) - agents.weights).max()),
    )
    worst = max(stability.max_violation, stability.max_slack_on_support)
    report = ConditionReport(
        "stability", stability.passed and marginal_err <= 1e-9, len(entries), worst
    ).to_json()
    report["max_violation"] = stability.max_violation
    report["max_slack_on_support"] = stability.max_slack_on_support
    report["max_marginal_error"] = marginal_err
    return report


def cmd_verify(args, argv) -> int:
    if not 0.0 < args.tol < float("inf"):
        raise _UsageFailure(f"--tol must be positive and finite, got {args.tol!r}")
    if args.samples < 1:
        raise _UsageFailure(f"--samples must be at least 1, got {args.samples}")
    if args.grid < 2:
        raise _UsageFailure(f"--grid must be at least 2, got {args.grid}")
    seed = _resolve_seed(args.seed)
    timings = {}
    start = time.perf_counter()
    inputs = {}
    if args.check == "twist":
        report = verify_twist(args.dim, args.samples, seed).to_json()
    elif args.check == "nondegeneracy":
        report = verify_nondegeneracy(args.dim, args.samples, seed).to_json()
    elif args.check == "monge":
        report = verify_monge(args.samples, seed).to_json()
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
    gen.add_argument("--box", type=str, default=None,
                     help="min0,min1,max0,max1, e.g. --box -0.1,51.4,0.1,51.6")
    gen.add_argument("--units", choices=["meters", "degrees"], default=None)
    gen.add_argument("--params", type=str, default=None, help="extra params as JSON")
    gen.add_argument("--out", type=str, default=".")

    solve = sub.add_parser("solve", help="solve an instance from CSV files")
    solve.add_argument("--tasks", required=True)
    solve.add_argument("--agents", required=True)
    solve.add_argument("--method", choices=METHODS, default="exact")
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
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--grid", type=int, default=64)
    verify.add_argument("--tasks", default=None)
    verify.add_argument("--agents", default=None)
    verify.add_argument("--plan", default=None)
    verify.add_argument("--tol", type=float, default=1e-8,
                        help="stability tolerance, relative: scaled by max(1, max|c_ij|)")
    verify.add_argument("--out", type=str, default=".")
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def _joined_box(argv: list[str]) -> list[str]:
    """``argv`` with ``--box <value>`` written ``--box=<value>`` where the value is negative.

    argparse reads a value that starts with '-' and is not a plain negative
    number, such as the box -0.1,51.4,0.1,51.6 west of Greenwich, as a flag.
    A value counts as negative when '-' is followed by a digit or '.'.
    """
    joined = []
    for token in argv:
        negative = len(token) > 1 and token[0] == "-" and token[1] in "0123456789."
        if negative and joined and joined[-1] == "--box":
            joined[-1] = "--box=" + token
        else:
            joined.append(token)
    return joined


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
        args = _parser.parse_args(_joined_box(argv))
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
