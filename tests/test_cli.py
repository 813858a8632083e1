import argparse
import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odtalloc.cli
import odtalloc.measures
from odtalloc.cli import main
from odtalloc.cost import cost_matrix
from odtalloc.errors import IterationLimit
from odtalloc.measures import (
    COORD_LIMIT,
    DiscreteMeasure,
    TaskSet,
    load_agents_csv,
    load_tasks_csv,
    write_agents_csv,
    write_tasks_csv,
)
from odtalloc.scenarios import ScenarioSpec, generate
from odtalloc.solver import (
    METHODS,
    DualPotentials,
    Solution,
    TransportPlan,
    solve,
    solve_exact,
    support_is_unique,
)


def run(*argv):
    return main(list(argv))


def _strict_report(out: Path) -> dict:
    """``out``/report.json read as strict JSON parsers read it: NaN and +-Infinity raise."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads((out / "report.json").read_text(), parse_constant=reject)


@pytest.fixture
def canonical(tmp_path):
    out = tmp_path / "inst"
    code = run(
        "gen", "--kind", "grid", "--dim", "1", "--tasks", "2", "--agents", "2",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    return out


SRC = Path(odtalloc.__file__).resolve().parents[1]


def test_cli_import_loads_no_scipy():
    # gen, verify and entropic solves never need scipy; exact solves import it lazily
    code = "import sys, odtalloc.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_package_runs_as_module():
    done = subprocess.run(
        [sys.executable, "-m", "odtalloc", "--version"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == odtalloc.__version__ + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--kind", "grid", "--dim", "0"], "invalid scenario (dim)"),
        (["gen", "--kind", "city_box", "--params", '{"units": "feet"}'],
         "invalid scenario (units)"),
        (["verify", "--check", "nondegeneracy", "--dim", "0"], "need dim >= 1"),
        (["verify", "--check", "nestedness", "--agents", "agents.csv"],
         "--check nestedness needs --tasks and --agents"),
    ],
    ids=["gen_dim", "gen_units", "nondegeneracy_dim", "nestedness_without_tasks"],
)
def test_rejected_input_exits_2(tmp_path, capsys, argv, message):
    assert run(*argv, "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_cli_example_runs(tmp_path, monkeypatch):
    # every odtalloc line of the fenced block under "## CLI", in order, in a fresh directory
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("odtalloc ")]
    assert len(lines) >= 7
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(*shlex.split(line)[1:]) == 0, line


def test_readme_names_only_options_the_parser_has():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    text = "\n".join(line for line in readme.splitlines() if "pip install" not in line)
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    options, parsers = set(), [odtalloc.cli.build_parser()]
    while parsers:  # the top-level parser and each subcommand's
        for action in parsers.pop()._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert "--params" in named and "--max-iter" in named
    assert named <= options, sorted(named - options)


@st.composite
def _table(draw, names):
    """An ``id,<names>,weight`` CSV text; in a third of the tables one row lacks a cell,
    has one more, or holds a bad value."""
    number = st.integers(-9, 9).map(str) | st.floats(-10.0, 10.0).map(repr)
    rows = [
        [f"r{i}", *(draw(number) for _ in names), repr(draw(st.floats(0.1, 1.0)))]
        for i in range(draw(st.integers(1, 4)))
    ]
    flaw = draw(st.sampled_from([""] * 14 + ["drop", "extra", "x", "nan", "-1", "0", "1e200"]))
    cells = draw(st.sampled_from(rows))
    if flaw == "drop":
        cells.pop()
    elif flaw == "extra":
        cells.append("1")
    elif flaw:
        cells[draw(st.integers(1, len(cells) - 1))] = flaw
    return "".join(",".join(row) + "\n" for row in [["id", *names, "weight"], *rows])


@st.composite
def _csv_pairs(draw):
    """Tasks and agents CSV texts with 1-3 coordinates a side; half the pairs differ in it."""
    task_dim = draw(st.integers(1, 3))
    agent_dim = draw(st.sampled_from([task_dim, task_dim % 3 + 1]))
    tasks = draw(_table([f"{end}{k + 1}" for end in "od" for k in range(task_dim)]))
    return tasks, draw(_table([f"y{k + 1}" for k in range(agent_dim)]))


@st.composite
def _instance_csvs(draw):
    """Well-formed tasks and agents CSV texts: 1-5 rows a side, 1-3 coordinates, any weights."""
    dim = draw(st.integers(1, 3))
    number = st.floats(-10.0, 10.0).map(repr)

    def table(prefix, names):
        rows = [
            [f"{prefix}{i}", *(draw(number) for _ in names), repr(draw(st.floats(0.1, 1.0)))]
            for i in range(draw(st.integers(1, 5)))
        ]
        return "".join(",".join(row) + "\n" for row in [["id", *names, "weight"], *rows])

    tasks = table("t", [f"{end}{k + 1}" for end in "od" for k in range(dim)])
    return tasks, table("a", [f"y{k + 1}" for k in range(dim)])


class TestGen:
    def test_writes_three_files(self, canonical):
        for name in ("tasks.csv", "agents.csv", "spec.json"):
            assert (canonical / name).exists()
        spec = json.loads((canonical / "spec.json").read_text())
        assert spec["kind"] == "grid" and spec["seed"] == 1

    def test_rerun_identical_bytes(self, canonical, tmp_path):
        again = tmp_path / "again"
        assert run(
            "gen", "--kind", "grid", "--dim", "1", "--tasks", "2", "--agents", "2",
            "--seed", "1", "--out", str(again),
        ) == 0
        for name in ("tasks.csv", "agents.csv", "spec.json"):
            assert (canonical / name).read_bytes() == (again / name).read_bytes()

    def test_missing_kind_is_usage_error(self, capsys):
        assert run("gen") == 2
        capsys.readouterr()

    def test_invalid_spec_is_usage_error(self, tmp_path, capsys):
        code = run(
            "gen", "--kind", "city_box", "--dim", "3", "--tasks", "2", "--agents", "2",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("gaussian_mixture", "[1]", "params"),
            ("gaussian_mixture", '{"spread": "x"}', "spread"),
            ("gaussian_mixture", '{"means_agent": [1]}', "means_agent"),
            ("gaussian_mixture", '{"spread": "2"}', "spread"),
            ("gaussian_mixture", '{"spread": true}', "spread"),
            ("gaussian_mixture",
             '{"means_origin": [["1", "2"]], "means_destination": [[0, 0]]}', "means_origin"),
            ("city_box", '{"box": [0, 0, "a", 1]}', "box"),
            ("city_box", '{"box": ["0", "0", "10", "10"]}', "box"),
            ("city_box", '{"box": [0, 0, true, 1]}', "box"),
        ],
    )
    def test_malformed_params_are_usage_errors(self, tmp_path, capsys, kind, params, field):
        assert run("gen", "--kind", kind, "--params", params, "--out", str(tmp_path / "x")) == 2
        assert f"invalid scenario ({field})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flags, field",
        [
            ("gaussian_mixture", ["--params", '{"spread": 1e308}'], "spread"),
            ("gaussian_mixture", ["--params", '{"spread": Infinity}'], "spread"),
            ("city_box", ["--params", '{"box": [-1e308, 0, 1e308, 1]}'], "box"),
            ("city_box", ["--params", '{"box": [0, 0, Infinity, 1]}'], "box"),
        ],
    )
    def test_overflowing_points_are_rejected_by_field(self, tmp_path, capsys, kind, flags, field):
        # caught by the spec, not later by the measure as an out-of-range coordinate
        out = tmp_path / "x"
        assert run("gen", "--kind", kind, *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid scenario ({field}):")
        assert "Warning" not in err and "coordinate" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, flags, error",
        [
            # a key the kind does not read; of several, the first in sorted order
            ("gaussian_mixture", ["--params", '{"sprad": 5}'], "invalid scenario (sprad)"),
            ("gaussian_mixture", ["--params", '{"spread": 2, "units": "meters", "box": [0, 1]}'],
             "invalid scenario (box)"),
            ("city_box", ["--params", '{"spread": 3}'], "invalid scenario (spread)"),
            ("city_box", ["--params", '{"box": [0, 0, 1, 1], "means_agent": [[0, 0]]}'],
             "invalid scenario (means_agent)"),
            ("grid", ["--params", '{"box": [1, 2]}'], "invalid scenario (box)"),
            ("grid", ["--params", '{"spread": 1.0}'], "invalid scenario (spread)"),
            # params keys are not flags
            ("city_box", ["--spread", "3"], "unrecognized arguments: --spread 3"),
            ("grid", ["--box", "1,2"], "unrecognized arguments: --box 1,2"),
            ("city_box", ["--units", "degrees"], "unrecognized arguments: --units degrees"),
            # a subset of the kind's keys is read and recorded as given
            ("gaussian_mixture", ["--params", '{"spread": 0.5}'], None),
            ("gaussian_mixture", ["--params", '{"means_origin": [[0, 0], [4, 4]], '
                                  '"means_destination": [[1, 1], [2, 2]], '
                                  '"means_agent": [[3, 3]]}'], None),
            ("city_box", ["--params", '{"box": [-0.1, 51.4, 0.1, 51.6], "units": "degrees"}'],
             None),
            ("city_box", ["--params", '{"box": [0, 0, 5, 5]}'], None),
            ("grid", ["--params", "{}"], None),
        ],
    )
    def test_params_hold_only_the_kinds_keys(self, tmp_path, capsys, kind, flags, error):
        out = tmp_path / "x"
        code = run("gen", "--kind", kind, "--tasks", "3", "--agents", "2", *flags,
                   "--out", str(out))
        if error is None:
            assert code == 0
            assert json.loads((out / "spec.json").read_text())["params"] == json.loads(flags[1])
        else:
            assert code == 2
            assert error in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("grid", None),
            ("gaussian_mixture", '{"means_origin": [[0, 0], [9, 9]], '
                                 '"means_destination": [[1, 1], [3, 3]], "spread": 2.5}'),
            ("city_box", '{"box": [-0.1, 51.4, 0.1, 51.6], "units": "degrees"}'),
        ],
    )
    def test_spec_json_regenerates_its_instance(self, tmp_path, kind, params):
        # spec.json holds every input of the draw: read back, it gives the same files
        out, again = tmp_path / "gen", tmp_path / "again"
        flags = [] if params is None else ["--params", params]
        assert run("gen", "--kind", kind, "--tasks", "12", "--agents", "9", "--seed", "5",
                   *flags, "--out", str(out)) == 0
        spec = ScenarioSpec(**json.loads((out / "spec.json").read_text()))
        tasks, agents = generate(spec)
        again.mkdir()
        write_tasks_csv(tasks, again / "tasks.csv")
        write_agents_csv(agents, again / "agents.csv")
        for name in ("tasks.csv", "agents.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_city_box_points_lie_in_box(self, tmp_path):
        # a box west of Greenwich, its numbers read as meters
        out = tmp_path / "x"
        assert run("gen", "--kind", "city_box", "--tasks", "20", "--agents", "15", "--params",
                   '{"box": [-0.1, 51.4, 0.1, 51.6], "units": "meters"}', "--out", str(out)) == 0
        tasks, agents = load_tasks_csv(out / "tasks.csv"), load_agents_csv(out / "agents.csv")
        for points in (tasks.origins, tasks.destinations, agents.points):
            assert np.all((points >= [-0.1, 51.4]) & (points <= [0.1, 51.6]))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--params", ""], "error: --params is not valid JSON"),
            (["--params", "{"], "error: --params is not valid JSON"),
        ],
    )
    def test_malformed_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        assert run("gen", "--kind", "city_box", *flags, "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err


class TestSolve:
    def test_exact_objective_zero(self, canonical, tmp_path):
        out = tmp_path / "sol"
        code = run(
            "solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--method", "exact",
            "--out", str(out),
        )
        assert code == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["objective"] == 0.0
        assert plan["method"] == "exact"
        assert plan["unique"] is True
        assert {e["task"] for e in plan["entries"]} == {"t0", "t1"}
        assert (out / "manifest.json").exists()
        assert (out / "plot.csv").exists()

    def test_reduced_matches_exact(self, canonical, tmp_path):
        # the oracle is the direct solve of the trip-cost matrix
        tasks, agents = load_tasks_csv(canonical / "tasks.csv"), load_agents_csv(
            canonical / "agents.csv")
        cost, mu, nu = cost_matrix(tasks, agents), tasks.weights, agents.weights
        oracle, duals = solve_exact(cost, mu, nu)
        assert run(
            "solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--method", "exact",
            "--out", str(tmp_path / "e"),
        ) == 0
        exact = json.loads((tmp_path / "e" / "plan.json").read_text())
        assert abs(exact["objective"] - oracle.objective) <= 1e-8
        assert support_is_unique(cost, mu, nu, oracle, duals)
        assert [(e["task"], e["agent"], e["mass"]) for e in exact["entries"]] == [
            (tasks.ids[t], agents.ids[a], mass) for t, a, mass in oracle.entries.tolist()]

    @pytest.mark.parametrize("tasks_n, agents_n", [(12, 9), (60, 60)], ids=["general", "warm"])
    def test_reduced_is_exact_under_another_name(self, tmp_path, tasks_n, agents_n):
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--tasks", str(tasks_n), "--agents",
                   str(agents_n), "--seed", "5", "--out", str(inst)) == 0
        files = {}
        for method in ("exact", "reduced"):
            assert run("solve", "--tasks", str(inst / "tasks.csv"), "--agents",
                       str(inst / "agents.csv"), "--method", method,
                       "--out", str(tmp_path / method)) == 0
            files[method] = [(tmp_path / method / name).read_bytes()
                             for name in ("plan.json", "plot.csv")]
        assert b'"method": "reduced"' in files["reduced"][0]
        renamed = files["reduced"][0].replace(b'"method": "reduced"', b'"method": "exact"')
        assert [renamed, files["reduced"][1]] == files["exact"]
        manifest = json.loads((tmp_path / "reduced" / "manifest.json").read_text())
        assert manifest["method"] == "reduced"

    def test_entropic_large_epsilon_near_product(self, canonical, tmp_path):
        out = tmp_path / "ent"
        code = run(
            "solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--method", "entropic",
            "--epsilon", "1e30", "--out", str(out),
        )
        assert code == 0
        plan = json.loads((out / "plan.json").read_text())
        masses = {(e["task"], e["agent"]): e["mass"] for e in plan["entries"]}
        assert len(masses) == 4
        assert all(abs(m - 0.25) <= 1e-6 for m in masses.values())

    def test_plot_csv_columns(self, canonical, tmp_path):
        out = tmp_path / "plot"
        run(
            "solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(out),
        )
        lines = (out / "plot.csv").read_text().strip().splitlines()
        assert lines[0] == "task_id,agent_id,mass,o1,d1,y1"
        assert len(lines) == 3

    def test_plot_csv_quotes_ids(self, tmp_path):
        tasks, agents = tmp_path / "tasks.csv", tmp_path / "agents.csv"
        tasks.write_text('id,o1,d1,weight\n"t,1",0,0,1\nt2,1,1,1\n')
        agents.write_text('id,y1,weight\n"a""x",0,1\nb,1,1\n')
        out = tmp_path / "sol"
        assert run("solve", "--tasks", str(tasks), "--agents", str(agents), "--out", str(out)) == 0
        with open(out / "plot.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["task_id", "agent_id", "mass", "o1", "d1", "y1"]
        assert [row[:2] for row in rows[1:]] == [["t,1", 'a"x'], ["t2", "b"]]
        assert all(len(row) == 6 for row in rows)

    def test_byte_identical_reruns(self, canonical, tmp_path):
        outs = [tmp_path / "d1", tmp_path / "d2"]
        for out in outs:
            assert run(
                "solve", "--tasks", str(canonical / "tasks.csv"),
                "--agents", str(canonical / "agents.csv"), "--out", str(out),
            ) == 0
        assert (outs[0] / "plan.json").read_bytes() == (outs[1] / "plan.json").read_bytes()
        assert (outs[0] / "plot.csv").read_bytes() == (outs[1] / "plot.csv").read_bytes()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = run(
            "solve", "--tasks", str(tmp_path / "none.csv"),
            "--agents", str(tmp_path / "none2.csv"),
        )
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "row", ["a0,0.0,nan", "a0,0.0,inf", "a0,1.0,1.0", 'a1,0.0,"0.5', 'a1,"0.5"1,0.5'],
        ids=["nan_weight", "inf_weight", "duplicate_id", "unclosed_quote", "text_after_quote"],
    )
    def test_malformed_agents_are_usage_errors(self, canonical, tmp_path, capsys, row):
        agents = tmp_path / "agents.csv"
        agents.write_text(f"id,y1,weight\n{row}\na0,1.0,1.0\n")
        assert run(
            "solve", "--tasks", str(canonical / "tasks.csv"), "--agents", str(agents),
            "--out", str(tmp_path / "sol"),
        ) == 2
        assert not (tmp_path / "sol").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["exact", "entropic"])
    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
    def test_bad_epsilon_is_usage_error(self, canonical, tmp_path, capsys, method, epsilon):
        assert run(
            "solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--method", method,
            "--epsilon", epsilon, "--out", str(tmp_path / "sol"),
        ) == 2
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["exact", "reduced", "entropic"])
    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "inf"),
         ("--max-iter", "-5"), ("--max-iter", "0")],
    )
    def test_bad_tol_or_max_iter_is_usage_error(
        self, canonical, tmp_path, capsys, method, flag, value
    ):
        assert run(
            "solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--method", method,
            "--epsilon", "1", flag, value, "--out", str(tmp_path / "sol"),
        ) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "sol").exists()

    def test_non_decimal_numbers_are_usage_errors(self, canonical, tmp_path, capsys):
        agents = tmp_path / "agents.csv"
        agents.write_text("id,y1,weight\na,1_5,1\nb,\u0663,1_0\n", encoding="utf-8")
        assert run("solve", "--tasks", str(canonical / "tasks.csv"), "--agents", str(agents),
                   "--out", str(tmp_path / "out")) == 2
        assert "line 2: not a '.'-decimal number: '1_5'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["tasks", "agents"])
    def test_non_utf8_input_is_usage_error(self, canonical, tmp_path, capsys, which):
        files = {"tasks": canonical / "tasks.csv", "agents": canonical / "agents.csv"}
        files[which] = tmp_path / f"{which}.csv"
        files[which].write_bytes((canonical / f"{which}.csv").read_bytes() + b"x\xff,1,1\n")
        assert run(
            "solve", "--tasks", str(files["tasks"]), "--agents", str(files["agents"]),
            "--out", str(tmp_path / "sol"),
        ) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["tasks", "agents"])
    def test_byte_order_mark_is_ignored(self, canonical, tmp_path, which):
        # spreadsheets' "CSV UTF-8" export starts the file with a byte-order mark
        files = {"tasks": canonical / "tasks.csv", "agents": canonical / "agents.csv"}
        marked = tmp_path / f"{which}.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + files[which].read_bytes())
        outs = {}
        for name, path in (("plain", files[which]), ("marked", marked)):
            outs[name] = tmp_path / name
            assert run("solve", *(f"--{w}={path if w == which else files[w]}" for w in files),
                       "--out", str(outs[name])) == 0
        for name in ("plan.json", "plot.csv"):
            assert (outs["marked"] / name).read_bytes() == (outs["plain"] / name).read_bytes()
        digests = json.loads((outs["marked"] / "manifest.json").read_text())["inputs"]
        assert digests[str(marked)] == hashlib.sha256(marked.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "agents_text",
        ["id,y1,y2,weight\na0,0,0,1\na1,1,1,1\n", "id,y1,weight\na0,1e200,1\na1,0,1\n"],
        ids=["dimension_mismatch", "cost_overflow"],
    )
    def test_unsolvable_input_is_usage_error(self, canonical, tmp_path, capsys, agents_text):
        agents = tmp_path / "agents.csv"
        agents.write_text(agents_text)
        assert run(
            "solve", "--tasks", str(canonical / "tasks.csv"), "--agents", str(agents),
            "--out", str(tmp_path / "sol"),
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "sol").exists()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_csv_pairs())
    def test_drawn_csvs_solve_or_are_usage_errors(self, pair):
        # 1 is kept for a solver that gives up, which no instance this small reaches
        with tempfile.TemporaryDirectory() as scratch:
            tasks, agents = Path(scratch, "tasks.csv"), Path(scratch, "agents.csv")
            tasks.write_text(pair[0])
            agents.write_text(pair[1])
            code = run("solve", "--tasks", str(tasks), "--agents", str(agents),
                       "--out", str(Path(scratch, "sol")))
        assert code in (0, 2)

    @pytest.mark.parametrize("method", [*METHODS, "reduced"])
    def test_overflowing_cost_is_one_error_line(self, canonical, tmp_path, method):
        # an agent at 1e200 and a task at 1e308 lie beyond COORD_LIMIT; in a subprocess, so
        # numpy warnings reach the stderr that is checked
        agents = tmp_path / "agents.csv"
        agents.write_text("id,y1,weight\na0,1e200,1\na1,0,1\n")
        tasks = tmp_path / "tasks.csv"
        tasks.write_text("id,o1,d1,weight\nt0,1e308,1e308,1\n")
        for task_file, agent_file, value in ((canonical / "tasks.csv", agents, "1e+200"),
                                             (tasks, canonical / "agents.csv", "1e+308")):
            done = subprocess.run(
                [sys.executable, "-m", "odtalloc.cli", "solve", "--tasks", str(task_file),
                 "--agents", str(agent_file), "--method", method, "--out", str(tmp_path / "sol")],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                timeout=60,
            )
            assert done.returncode == 2
            assert done.stderr == f"error: coordinate {value} is outside [-1e+100, 1e+100]\n"
            assert not (tmp_path / "sol").exists()

    def test_overflowing_reduced_lift_is_one_error_line(self, tmp_path):
        # the trip cost 1.8e307 is finite, but K and 2 x the reduced dual would overflow; both
        # methods reject the coordinates; in a subprocess, so numpy warnings reach the stderr
        (tmp_path / "tasks.csv").write_text("id,o1,d1,weight\nt0,6e153,6e153,1\n")
        (tmp_path / "agents.csv").write_text("id,y1,weight\na0,9e153,1\n")
        files = ["--tasks", str(tmp_path / "tasks.csv"), "--agents", str(tmp_path / "agents.csv")]
        for method in ("reduced", "exact"):
            out = tmp_path / method
            done = subprocess.run(
                [sys.executable, "-m", "odtalloc.cli", "solve", *files, "--method", method,
                 "--out", str(out)],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
                timeout=60,
            )
            assert done.returncode == 2
            assert done.stderr == "error: coordinate 6e+153 is outside [-1e+100, 1e+100]\n"
            assert not out.exists()

    @pytest.mark.parametrize("method", [*METHODS, "reduced"])
    def test_instances_near_the_float_limit_are_one_error_line(self, tmp_path, capsys, method):
        # the 3x2 1-D instance crashed the simplex, and the uniform 2x2 2-D one has trip costs
        # near 1e307; warnings are errors here, so a numpy warning fails the test
        instances = [
            ("id,o1,d1,weight\n"
             "t0,7.721975438853418e+152,7.721975438853418e+152,0.3445428322963644\n"
             "t1,3.7065299993566365e+153,3.7065299993566365e+153,0.10626377797328006\n"
             "t2,4.476994084606754e+153,4.476994084606754e+153,0.5491933897303555\n",
             "id,y1,weight\n"
             "a0,9.152939566387362e+153,0.5718737151900283\n"
             "a1,-3.700050679949915e+153,0.42812628480997184\n",
             "7.721975438853418e+152"),
            ("id,o1,o2,d1,d2,weight\nt0,1.2e153,-3e152,4e152,9e152,1\nt1,-8e152,1e153,0,5e152,1\n",
             "id,y1,y2,weight\na0,1e153,1e153,1\na1,-1e153,2e152,1\n",
             "1.2e+153"),
        ]
        for tasks_text, agents_text, value in instances:
            (tmp_path / "tasks.csv").write_text(tasks_text)
            (tmp_path / "agents.csv").write_text(agents_text)
            assert run("solve", "--tasks", str(tmp_path / "tasks.csv"), "--agents",
                       str(tmp_path / "agents.csv"), "--method", method,
                       "--out", str(tmp_path / "sol")) == 2
            err = capsys.readouterr().err
            assert err == f"error: coordinate {value} is outside [-1e+100, 1e+100]\n"
            assert not (tmp_path / "sol").exists()

    def test_index_point_beyond_the_limit_solves_reduced_and_checks_nestedness(self, tmp_path):
        # o = d = 6e99 lie within COORD_LIMIT, the index point o + d does not; no step
        # builds a measure of o + d, so both commands take the input as exact does
        (tmp_path / "tasks.csv").write_text("id,o1,d1,weight\nt0,6e99,6e99,1\nt1,0.5,0.5,1\n")
        (tmp_path / "agents.csv").write_text("id,y1,weight\na0,0.0,1\na1,1.0,1\n")
        files = ["--tasks", str(tmp_path / "tasks.csv"), "--agents", str(tmp_path / "agents.csv")]
        tasks, agents = load_tasks_csv(tmp_path / "tasks.csv"), load_agents_csv(
            tmp_path / "agents.csv")
        oracle = solve_exact(cost_matrix(tasks, agents), tasks.weights, agents.weights)[0]
        assert run("solve", *files, "--method", "exact", "--out", str(tmp_path / "exact")) == 0
        plan = json.loads((tmp_path / "exact" / "plan.json").read_text())
        assert run("verify", "--check", "stability", *files, "--plan",
                   str(tmp_path / "exact" / "plan.json"), "--out", str(tmp_path / "s")) == 0
        # both plans tie in floats on the full matrix, so the oracle's plan is not asserted: its
        # re-solve calls it unique, yet the rank-n solve picks the other plan
        assert abs(plan["objective"] - oracle.objective) <= 1e-12 * abs(oracle.objective)
        assert run("verify", "--check", "nestedness", *files, "--out", str(tmp_path / "v")) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_reduced_certifies_in_projected_city_coordinates(self, tmp_path, seed):
        # a 1 km box at UTM-like eastings and northings: |o|^2 is near 1e13, trip costs 1e6
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "city_box", "--tasks", "30", "--agents", "30",
                   "--params", '{"box": [500000, 5000000, 501000, 5001000]}', "--seed", str(seed),
                   "--out", str(inst)) == 0
        files = ["--tasks", str(inst / "tasks.csv"), "--agents", str(inst / "agents.csv")]
        tasks, agents = load_tasks_csv(inst / "tasks.csv"), load_agents_csv(inst / "agents.csv")
        cost, mu, nu = cost_matrix(tasks, agents), tasks.weights, agents.weights
        oracle, duals = solve_exact(cost, mu, nu)
        assert run("solve", *files, "--method", "exact", "--out", str(tmp_path / "exact")) == 0
        plan = json.loads((tmp_path / "exact" / "plan.json").read_text())
        assert run("verify", "--check", "stability", *files, "--plan",
                   str(tmp_path / "exact" / "plan.json"), "--out", str(tmp_path / "s")) == 0
        assert abs(plan["objective"] - oracle.objective) <= 1e-12 * abs(oracle.objective)
        assert plan["unique"] == support_is_unique(cost, mu, nu, oracle, duals)
        if plan["unique"]:
            assert [(e["task"], e["agent"], e["mass"]) for e in plan["entries"]] == [
                (tasks.ids[t], agents.ids[a], mass) for t, a, mass in oracle.entries.tolist()]

    @pytest.mark.parametrize("epsilon", ["1e300", "1e306"])
    def test_overflowing_potentials_are_one_error_line(self, tmp_path, epsilon):
        # the Newton attempts' larger eps overflow the potentials, and no attempt can reach
        # tol 1e-18; in a subprocess, so numpy warnings reach the stderr that is checked
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--tasks", "10", "--agents", "10",
                   "--seed", "1", "--out", str(inst)) == 0
        done = subprocess.run(
            [sys.executable, "-m", "odtalloc.cli", "solve", "--tasks", str(inst / "tasks.csv"),
             "--agents", str(inst / "agents.csv"), "--method", "entropic", "--epsilon", epsilon,
             "--tol", "1e-18", "--out", str(tmp_path / "sol")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: IterationLimit: ")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "sol").exists()

    @pytest.mark.parametrize("epsilon", ["1e308", "1e-320"])
    def test_nan_potentials_end_after_one_sweep(self, tmp_path, epsilon):
        # the first sweep's potentials overflow to inf - inf, and nan never recovers
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--tasks", "10", "--agents", "10",
                   "--seed", "1", "--out", str(inst)) == 0
        done = subprocess.run(
            [sys.executable, "-m", "odtalloc.cli", "solve", "--tasks", str(inst / "tasks.csv"),
             "--agents", str(inst / "agents.csv"), "--method", "entropic", "--epsilon", epsilon,
             "--out", str(tmp_path / "sol")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
        )
        assert done.returncode == 1
        assert done.stderr == "error: IterationLimit: marginal violation nan after 1 iterations\n"
        assert not (tmp_path / "sol").exists()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_instance_csvs())
    def test_repeated_solves_write_identical_files(self, pair):
        with tempfile.TemporaryDirectory() as scratch:
            tasks, agents = Path(scratch, "tasks.csv"), Path(scratch, "agents.csv")
            tasks.write_text(pair[0])
            agents.write_text(pair[1])
            for method in METHODS:
                outs = [Path(scratch, f"{method}{k}") for k in range(2)]
                for out in outs:
                    assert run("solve", "--tasks", str(tasks), "--agents", str(agents),
                               "--method", method, "--out", str(out)) == 0
                for name in ("plan.json", "plot.csv"):
                    assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_exact_plan_does_not_depend_on_blas_threads(self, tmp_path):
        # tied instances, so the plan is the one the solver picks among optima; the prices use
        # matrix-vector products and the rank-n cost the product (o + d) @ y.T, which a
        # threaded BLAS could round differently, the more so on a larger product; random
        # weights take the candidate-set LP, uniform square ones the priced assignment
        rng = np.random.default_rng(11)
        for m, n, weighted in ((60, 60, False), (300, 300, False), (120, 100, True)):
            sites = rng.integers(0, 6, size=(8, 2)).astype(float)
            tasks = TaskSet(sites[rng.integers(0, 8, m)], sites[rng.integers(0, 8, m)],
                            rng.uniform(0.2, 1.2, m) if weighted else None)
            agents = DiscreteMeasure(rng.integers(0, 6, (n, 2)).astype(float),
                                     rng.uniform(0.2, 1.2, n) if weighted else None)
            write_tasks_csv(tasks, tmp_path / "tasks.csv")
            write_agents_csv(agents, tmp_path / "agents.csv")
            plans = []
            for threads in ("1", "2"):
                out = tmp_path / f"{m}x{n}_threads{threads}"
                subprocess.run(
                    [sys.executable, "-m", "odtalloc", "solve", "--tasks",
                     str(tmp_path / "tasks.csv"), "--agents", str(tmp_path / "agents.csv"),
                     "--method", "exact", "--out", str(out)],
                    capture_output=True, check=True, timeout=60,
                    env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads,
                         "OMP_NUM_THREADS": threads},
                )
                plans.append((out / "plan.json").read_bytes())
            assert json.loads(plans[0])["unique"] is False
            assert plans[0] == plans[1]

    def test_exact_lp_that_gives_up_is_domain_failure(self, tmp_path, monkeypatch, capsys):
        # 8 tasks, 7 agents: not uniform square, so the candidate-set LP solves it; a HiGHS
        # run held to one iteration ends with a status other than optimal
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--tasks", "8", "--agents", "7",
                   "--seed", "3", "--out", str(inst)) == 0
        linprog = scipy.optimize.linprog

        def one_iteration(*args, options, **kwargs):
            return linprog(*args, options={**options, "maxiter": 1}, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", one_iteration)
        assert run(
            "solve", "--tasks", str(inst / "tasks.csv"), "--agents", str(inst / "agents.csv"),
            "--out", str(tmp_path / "sol"),
        ) == 1
        assert "IterationLimit" in capsys.readouterr().err
        assert not (tmp_path / "sol").exists()

    def test_exact_lp_that_stalls_is_domain_failure(self, tmp_path, monkeypatch, capsys):
        # 2 tasks, 3 agents, weighted: the first candidate set already holds all 6 cells; a
        # linprog that moves row 0's dual up by 1 in HiGHS's scaled units lowers row 0's
        # reduced costs by 2^-shift, far below -tol, on cells the set already has
        linprog = scipy.optimize.linprog

        def shifted(*args, **kwargs):
            res = linprog(*args, **kwargs)
            res.eqlin.marginals[0] += 1.0
            return res

        monkeypatch.setattr(scipy.optimize, "linprog", shifted)
        tasks = TaskSet([[0.0, 0.0], [1.0, 0.5]], [[1.0, 1.0], [0.0, 2.0]], [0.3, 0.7])
        agents = DiscreteMeasure([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0]], [0.2, 0.5, 0.3])
        with pytest.raises(IterationLimit, match="the exact LP stalled on 6 candidate cells"):
            solve(tasks, agents, "exact")
        write_tasks_csv(tasks, tmp_path / "tasks.csv")
        write_agents_csv(agents, tmp_path / "agents.csv")
        assert run(
            "solve", "--tasks", str(tmp_path / "tasks.csv"), "--agents", str(tmp_path / "agents.csv"),
            "--out", str(tmp_path / "sol"),
        ) == 1
        err = capsys.readouterr().err
        assert "IterationLimit" in err and "stalled" in err
        assert not (tmp_path / "sol").exists()

    def test_dump_cost_matrix(self, canonical, tmp_path):
        out = tmp_path / "dump"
        dump = tmp_path / "cost.json"
        assert run(
            "solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"),
            "--dump-cost", str(dump), "--out", str(out),
        ) == 0
        payload = json.loads(dump.read_text())
        assert payload["n_tasks"] == 2 and payload["n_agents"] == 2
        assert payload["values"] == [[0.0, 2.0], [2.0, 0.0]]
        assert dump.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()

    def test_dump_cost_that_cannot_be_written_leaves_no_plan(self, canonical, tmp_path, capsys):
        out = tmp_path / "sol"
        assert run(
            "solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"),
            "--dump-cost", str(tmp_path / "missing" / "cost.json"), "--out", str(out),
        ) == 2
        assert "cost.json" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_manifest_splits_write_time(self, canonical, tmp_path):
        out = tmp_path / "sol"
        assert run("solve", "--tasks", str(canonical / "tasks.csv"),
                   "--agents", str(canonical / "agents.csv"), "--out", str(out)) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings_ms"]
        assert list(timings) == ["load_ms", "solve_ms", "write_ms", "plan_ms", "plot_ms"]
        assert timings["plan_ms"] >= 0.0 and timings["plot_ms"] >= 0.0
        assert timings["plan_ms"] + timings["plot_ms"] <= timings["write_ms"]

    def test_manifest_digests_track_inputs(self, canonical, tmp_path):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        run("solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(out1))
        tasks_file = canonical / "tasks.csv"
        tasks_file.write_text(tasks_file.read_text().replace("1.0,1.0", "1.0,2.0"))
        run("solve", "--tasks", str(tasks_file),
            "--agents", str(canonical / "agents.csv"), "--out", str(out2))
        d1 = json.loads((out1 / "manifest.json").read_text())["inputs"]
        d2 = json.loads((out2 / "manifest.json").read_text())["inputs"]
        assert d1[str(tasks_file)] != d2[str(tasks_file)]
        assert d1[str(canonical / "agents.csv")] == d2[str(canonical / "agents.csv")]

    def test_golden_output_bytes(self, tmp_path):
        # unequal task weights take the candidate-set LP; both quoted ids need RFC 4180;
        # the duals are lifted from the rank-n cost's, which the tree anchors at 0 in task 0
        tasks, agents = tmp_path / "tasks.csv", tmp_path / "agents.csv"
        tasks.write_text('id,o1,d1,weight\n"t,1",0.1,1,1\nt2,2,3.5,3\n')
        agents.write_text('id,y1,weight\na1,0,1\n"a""2",3,1\n')
        out = tmp_path / "sol"
        assert run("solve", "--tasks", str(tasks), "--agents", str(agents), "--out", str(out)) == 0
        assert run(
            "verify", "--check", "stability", "--plan", str(out / "plan.json"),
            "--tasks", str(tasks), "--agents", str(agents), "--out", str(out),
        ) == 0
        assert (out / "plan.json").read_bytes() == _GOLDEN_PLAN.encode()
        assert (out / "plot.csv").read_bytes() == (
            "task_id,agent_id,mass,o1,d1,y1\n"
            '"t,1",a1,0.25,0.1,1.0,0.0\n'
            "t2,a1,0.25,2.0,3.5,0.0\n"
            't2,"a""2",0.5,2.0,3.5,3.0\n'
        ).encode()
        assert (out / "report.json").read_bytes() == _GOLDEN_REPORT.encode()


_GOLDEN_PLAN = """{
  "objective": 6.829999999999999,
  "entries": [
    {
      "task": "t,1",
      "agent": "a1",
      "mass": 0.25
    },
    {
      "task": "t2",
      "agent": "a1",
      "mass": 0.25
    },
    {
      "task": "t2",
      "agent": "a\\"2",
      "mass": 0.5
    }
  ],
  "duals": {
    "u": [
      3.02,
      19.7
    ],
    "v": [
      -1.1999999999999993,
      -16.2
    ]
  },
  "method": "exact",
  "unique": true
}
"""

_GOLDEN_REPORT = """{
  "condition": "stability",
  "passed": true,
  "samples": 3,
  "worst_case": 6.661338147750939e-16,
  "witness": null,
  "max_violation": 6.661338147750939e-16,
  "max_slack_on_support": 6.661338147750939e-16,
  "max_marginal_error": 0.0
}
"""


class TestVerify:
    def test_twist_passes(self, tmp_path):
        out = tmp_path / "v"
        assert run(
            "verify", "--check", "twist", "--dim", "3", "--samples", "1000",
            "--seed", "7", "--out", str(out),
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert abs(report["worst_case"] - 2.0 * np.sqrt(2.0)) <= 1e-9

    def test_nondegeneracy_passes(self, tmp_path):
        assert run(
            "verify", "--check", "nondegeneracy", "--dim", "2", "--samples", "200",
            "--seed", "1", "--out", str(tmp_path / "v"),
        ) == 0

    def test_monge_passes(self, tmp_path):
        out = tmp_path / "v"
        assert run(
            "verify", "--check", "monge", "--samples", "1000", "--seed", "3",
            "--out", str(out),
        ) == 0
        assert json.loads((out / "report.json").read_text())["worst_case"] <= 0.0

    def test_nestedness_on_generated_instance(self, tmp_path):
        inst = tmp_path / "inst"
        run("gen", "--kind", "gaussian_mixture", "--dim", "1", "--tasks", "12",
            "--agents", "9", "--seed", "5", "--out", str(inst))
        assert run(
            "verify", "--check", "nestedness", "--tasks", str(inst / "tasks.csv"),
            "--agents", str(inst / "agents.csv"), "--out", str(tmp_path / "v"),
        ) == 0

    def test_stability_pass_and_corrupted_fail(self, canonical, tmp_path):
        sol = tmp_path / "sol"
        run("solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(sol))
        assert run(
            "verify", "--check", "stability", "--plan", str(sol / "plan.json"),
            "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(tmp_path / "ok"),
        ) == 0
        payload = json.loads((sol / "plan.json").read_text())
        payload["duals"]["v"][0] += 1e-3
        corrupted = tmp_path / "corrupt.json"
        corrupted.write_text(json.dumps(payload))
        assert run(
            "verify", "--check", "stability", "--plan", str(corrupted),
            "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(tmp_path / "bad"),
        ) == 1

    @pytest.mark.parametrize("method", ["exact", "reduced"])
    def test_city_box_plans_pass_stability(self, tmp_path, method):
        # trip costs near 1e8 m^2: an absolute 1e-8 is below their float spacing
        inst = tmp_path / "city"
        assert run("gen", "--kind", "city_box", "--tasks", "30", "--agents", "30",
                   "--seed", "1000", "--out", str(inst)) == 0
        files = ["--tasks", str(inst / "tasks.csv"), "--agents", str(inst / "agents.csv")]
        sol = tmp_path / "sol"
        assert run("solve", *files, "--method", method, "--out", str(sol)) == 0
        assert run("verify", "--check", "stability", "--plan", str(sol / "plan.json"),
                   *files, "--out", str(tmp_path / "ok")) == 0

        scale = np.abs(cost_matrix(load_tasks_csv(inst / "tasks.csv"),
                                   load_agents_csv(inst / "agents.csv")).values).max()
        payload = json.loads((sol / "plan.json").read_text())
        payload["duals"]["v"][0] += 1e-6 * scale
        corrupted = tmp_path / "corrupt.json"
        corrupted.write_text(json.dumps(payload))
        assert run("verify", "--check", "stability", "--plan", str(corrupted),
                   *files, "--out", str(tmp_path / "bad")) == 1

    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
    def test_bad_tol_is_usage_error(self, canonical, tmp_path, capsys, value):
        sol = tmp_path / "sol"
        run("solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(sol))
        assert run(
            "verify", "--check", "stability", "--plan", str(sol / "plan.json"),
            "--tasks", str(canonical / "tasks.csv"), "--agents", str(canonical / "agents.csv"),
            "--tol", value, "--out", str(tmp_path / "v"),
        ) == 2
        assert "--tol" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("check", ["twist", "nondegeneracy", "monge"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_samples_is_usage_error(self, tmp_path, capsys, check, samples):
        assert run(
            "verify", "--check", check, "--samples", samples, "--out", str(tmp_path / "v"),
        ) == 2
        assert "--samples" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("grid", ["1", "0", "-1"])
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, grid):
        inst = tmp_path / "inst"
        run("gen", "--kind", "gaussian_mixture", "--dim", "1", "--tasks", "12",
            "--agents", "9", "--seed", "5", "--out", str(inst))
        assert run(
            "verify", "--check", "nestedness", "--tasks", str(inst / "tasks.csv"),
            "--agents", str(inst / "agents.csv"), "--grid", grid, "--out", str(tmp_path / "v"),
        ) == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize(
        "check, dim", [("twist", "0"), ("twist", "-2"), ("nondegeneracy", "0")]
    )
    def test_bad_dim_is_usage_error(self, tmp_path, check, dim):
        # in a subprocess with a timeout, so a check that never ends fails instead of stalling
        done = subprocess.run(
            [sys.executable, "-m", "odtalloc.cli", "verify", "--check", check, "--dim", dim,
             "--samples", "5", "--out", str(tmp_path / "v")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
        )
        assert done.returncode == 2
        assert "dim" in done.stderr
        assert not (tmp_path / "v").exists()

    def test_nestedness_needs_1d_files(self, tmp_path, capsys):
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--out", str(inst)) == 0
        assert run(
            "verify", "--check", "nestedness", "--tasks", str(inst / "tasks.csv"),
            "--agents", str(inst / "agents.csv"), "--out", str(tmp_path / "v"),
        ) == 2
        assert "1-D" in capsys.readouterr().err

    def test_stability_needs_files(self, capsys):
        assert run("verify", "--check", "stability") == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "case",
        ["mass_not_a_number", "no_objective", "no_dual_u", "not_utf8", "short_dual_u",
         # numbers given as anything but a JSON number
         "mass_string", "mass_padded_string", "mass_true", "mass_huge_int", "objective_string",
         "dual_u_strings", "dual_u_nested",
         # JSON's NaN and -Infinity, which json.loads reads as floats
         "dual_u_nan", "dual_v_minus_infinity"],
    )
    def test_malformed_plan_is_usage_error(self, canonical, tmp_path, capsys, case):
        sol = tmp_path / "sol"
        run("solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(sol))
        payload = json.loads((sol / "plan.json").read_text())
        entry, duals = payload["entries"][0], payload["duals"]
        if case == "mass_not_a_number":
            entry["mass"] = "x"
        elif case == "mass_string":
            entry["mass"] = repr(entry["mass"])
        elif case == "mass_padded_string":
            entry["mass"] = f"  {entry['mass']!r} "
        elif case == "mass_true":
            entry["mass"] = True
        elif case == "mass_huge_int":
            entry["mass"] = 10**400
        elif case == "objective_string":
            payload["objective"] = "1e5"
        elif case == "dual_u_strings":
            duals["u"] = [repr(x) for x in duals["u"]]
        elif case == "dual_u_nested":
            duals["u"] = [[x] for x in duals["u"]]
        elif case == "dual_u_nan":
            duals["u"][1] = float("nan")
        elif case == "dual_v_minus_infinity":
            duals["v"][0] = -float("inf")
        elif case == "no_objective":
            del payload["objective"]
        elif case == "no_dual_u":
            del payload["duals"]["u"]
        elif case == "short_dual_u":
            payload["duals"]["u"].pop()
        data = json.dumps(payload).encode()
        if case == "not_utf8":
            data = b"\xff" + data
        broken = tmp_path / "broken.json"
        broken.write_bytes(data)
        assert run(
            "verify", "--check", "stability", "--plan", str(broken),
            "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(tmp_path / "v"),
        ) == 2
        expected = "dual sizes" if case == "short_dual_u" else "plan file"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [-0.25, float("nan"), float("inf")])
    def test_plan_mass_not_in_a_coupling_is_usage_error(self, tmp_path, capsys, bad):
        # masses 0.75 / -0.25 / -0.25 / 0.75 meet both marginals, and every cost and
        # dual is 0, so only the sign of a mass tells this plan from a coupling
        (tmp_path / "tasks.csv").write_text("id,o1,d1,weight\nt1,0,0,1\nt2,0,0,1\n")
        (tmp_path / "agents.csv").write_text("id,y1,weight\na1,0,1\na2,0,1\n")
        masses = {("t1", "a1"): 0.75, ("t1", "a2"): bad, ("t2", "a1"): -0.25, ("t2", "a2"): 0.75}
        plan = {
            "objective": 0.0,
            "entries": [{"task": t, "agent": a, "mass": m} for (t, a), m in masses.items()],
            "duals": {"u": [0.0, 0.0], "v": [0.0, 0.0]},
        }
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        assert run(
            "verify", "--check", "stability", "--plan", str(tmp_path / "plan.json"),
            "--tasks", str(tmp_path / "tasks.csv"), "--agents", str(tmp_path / "agents.csv"),
            "--out", str(tmp_path / "v"),
        ) == 2
        assert "malformed plan file" in capsys.readouterr().err
        assert not (tmp_path / "v").exists()

    def test_entropic_plan_fails_stability_with_note(self, canonical, tmp_path, capsys):
        files = ["--tasks", str(canonical / "tasks.csv"), "--agents", str(canonical / "agents.csv")]
        sol = tmp_path / "sol"
        assert run("solve", *files, "--method", "entropic", "--out", str(sol)) == 0
        assert json.loads((sol / "plan.json").read_text())["duals"] is None
        assert run("verify", "--check", "stability", "--plan", str(sol / "plan.json"),
                   *files, "--out", str(tmp_path / "v")) == 1
        report = _strict_report(tmp_path / "v")
        assert report["passed"] is False and report["worst_case"] is None
        assert report["note"] == "plan carries no dual certificate"
        assert "stability: FAIL (worst_case=inf)" in capsys.readouterr().out

    def test_crlf_plan_verifies_like_lf_plan(self, canonical, tmp_path):
        files = ["--tasks", str(canonical / "tasks.csv"), "--agents", str(canonical / "agents.csv")]
        sol = tmp_path / "sol"
        assert run("solve", *files, "--out", str(sol)) == 0
        lf = (sol / "plan.json").read_bytes()
        assert b"\n" in lf and b"\r" not in lf
        (tmp_path / "crlf.json").write_bytes(lf.replace(b"\n", b"\r\n"))
        reports = []
        for name, plan in (("lf", sol / "plan.json"), ("crlf", tmp_path / "crlf.json")):
            assert run("verify", "--check", "stability", "--plan", str(plan), *files,
                       "--out", str(tmp_path / name)) == 0
            reports.append((tmp_path / name / "report.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("objective", [1e5, float("nan")])
    def test_stated_objective_is_checked(self, tmp_path, capsys, objective):
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--tasks", "10", "--agents", "10",
                   "--seed", "1", "--out", str(inst)) == 0
        files = ["--tasks", str(inst / "tasks.csv"), "--agents", str(inst / "agents.csv")]
        assert run("solve", *files, "--out", str(tmp_path / "sol")) == 0
        payload = json.loads((tmp_path / "sol" / "plan.json").read_text())
        stated = payload["objective"]
        payload["objective"] = objective
        (tmp_path / "plan.json").write_text(json.dumps(payload))
        code = run("verify", "--check", "stability", "--plan", str(tmp_path / "plan.json"),
                   *files, "--out", str(tmp_path / "v"))
        if objective != objective:  # JSON NaN
            assert code == 2
            assert "malformed plan file" in capsys.readouterr().err
            assert not (tmp_path / "v").exists()
            return
        assert code == 1
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report["passed"] is False
        assert report["worst_case"] <= 1e-9 and report["max_marginal_error"] <= 1e-9
        assert "100000.0" in report["note"]
        recomputed = float(report["note"].rsplit(" = ", 1)[1])
        assert abs(recomputed - stated) <= 1e-12 * abs(stated)

    @pytest.mark.parametrize("method", ["exact", "reduced"])
    @pytest.mark.parametrize(
        "kind, size, seed", [("gaussian_mixture", "10", "1"), ("gaussian_mixture", "40", "3"),
                             ("city_box", "30", "1000"), ("grid", "16", "2")]
    )
    def test_own_plans_state_their_objective(self, tmp_path, method, kind, size, seed):
        inst = tmp_path / "inst"
        assert run("gen", "--kind", kind, "--tasks", size, "--agents", size, "--seed", seed,
                   "--out", str(inst)) == 0
        files = ["--tasks", str(inst / "tasks.csv"), "--agents", str(inst / "agents.csv")]
        assert run("solve", *files, "--method", method, "--out", str(tmp_path / "sol")) == 0
        assert run("verify", "--check", "stability", "--plan", str(tmp_path / "sol" / "plan.json"),
                   *files, "--out", str(tmp_path / "v")) == 0
        assert "note" not in json.loads((tmp_path / "v" / "report.json").read_text())

    def test_split_cell_verifies_like_one_entry(self, tmp_path):
        # a cell listed twice adds up: its two halves give the one-entry file's figures
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--tasks", "10", "--agents", "10",
                   "--seed", "1", "--out", str(inst)) == 0
        files = ["--tasks", str(inst / "tasks.csv"), "--agents", str(inst / "agents.csv")]
        assert run("solve", *files, "--out", str(tmp_path / "sol")) == 0
        payload = json.loads((tmp_path / "sol" / "plan.json").read_text())
        first = payload["entries"][0]
        first["mass"] /= 2
        payload["entries"].insert(1, dict(first))
        (tmp_path / "split.json").write_text(json.dumps(payload))
        figures = ("max_violation", "max_slack_on_support", "max_marginal_error")
        reports = []
        plans = (("one", tmp_path / "sol" / "plan.json"), ("split", tmp_path / "split.json"))
        for name, plan in plans:
            assert run("verify", "--check", "stability", "--plan", str(plan), *files,
                       "--out", str(tmp_path / name)) == 0
            report = json.loads((tmp_path / name / "report.json").read_text())
            reports.append([report[key] for key in figures])
        assert reports[0] == reports[1]

    def test_overflowing_plan_cost_fails_quietly(self, canonical, tmp_path, capsys):
        # 1e308 x the cost 2 of t0 -> a1 overflows <c, plan>; a numpy warning would raise here
        sol = tmp_path / "sol"
        files = ["--tasks", str(canonical / "tasks.csv"), "--agents", str(canonical / "agents.csv")]
        assert run("solve", *files, "--out", str(sol)) == 0
        payload = json.loads((sol / "plan.json").read_text())
        payload["entries"].append({"task": "t0", "agent": "a1", "mass": 1e308})
        (tmp_path / "plan.json").write_text(json.dumps(payload))
        assert run("verify", "--check", "stability", "--plan", str(tmp_path / "plan.json"),
                   *files, "--out", str(tmp_path / "v")) == 1
        assert "<c, plan> = inf" in _strict_report(tmp_path / "v")["note"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case", ["duals", "masses"])
    def test_overflowing_certificate_fails_quietly(self, canonical, tmp_path, capsys, case):
        # duals of 1e308 overflow u_i + v_j, two masses of 1e308 in t0's row its row sum;
        # a numpy warning would raise here
        sol = tmp_path / "sol"
        files = ["--tasks", str(canonical / "tasks.csv"), "--agents", str(canonical / "agents.csv")]
        assert run("solve", *files, "--out", str(sol)) == 0
        payload = json.loads((sol / "plan.json").read_text())
        if case == "duals":
            payload["duals"] = {"u": [1e308, 1e308], "v": [1e308, 1e308]}
        else:
            payload["entries"] = [{"task": "t0", "agent": agent, "mass": 1e308}
                                  for agent in ("a0", "a1")]
        (tmp_path / "plan.json").write_text(json.dumps(payload))
        assert run("verify", "--check", "stability", "--plan", str(tmp_path / "plan.json"),
                   *files, "--out", str(tmp_path / "v")) == 1
        report = _strict_report(tmp_path / "v")  # the overflowed figures are null
        figures = ["worst_case", "max_violation", "max_slack_on_support", "max_marginal_error"]
        overflowed = figures[:3] if case == "duals" else figures[3:]
        assert [key for key in figures if report[key] is None] == overflowed
        captured = capsys.readouterr()
        assert captured.err == ""
        assert ("worst_case=inf" in captured.out) == (case == "duals")

    def test_overflowing_index_point_is_one_error_line(self, tmp_path):
        # o + d of t0 overflows; in a subprocess, so numpy warnings reach the stderr checked
        (tmp_path / "tasks.csv").write_text("id,o1,d1,weight\nt0,1e308,1e308,1\nt1,0.5,0.5,1\n")
        (tmp_path / "agents.csv").write_text("id,y1,weight\na0,0.0,1\na1,1.0,1\n")
        done = subprocess.run(
            [sys.executable, "-m", "odtalloc.cli", "verify", "--check", "nestedness",
             "--tasks", str(tmp_path / "tasks.csv"), "--agents", str(tmp_path / "agents.csv"),
             "--out", str(tmp_path / "v")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr == "error: coordinate 1e+308 is outside [-1e+100, 1e+100]\n"
        assert not (tmp_path / "v").exists()

    def test_plan_marginals_revalidated(self, canonical, tmp_path):
        sol = tmp_path / "sol"
        run("solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(sol))
        payload = json.loads((sol / "plan.json").read_text())
        payload["entries"][0]["mass"] = 0.4  # breaks market clearing
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        assert run(
            "verify", "--check", "stability", "--plan", str(broken),
            "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(tmp_path / "mv"),
        ) == 1


class TestRepeatedCalls:
    """Many main calls in one process share one parser; no call may see another's flags."""

    def test_parser_built_once(self, canonical, tmp_path, monkeypatch):
        built = []
        build = odtalloc.cli.build_parser
        monkeypatch.setattr(odtalloc.cli, "_parser", None)
        monkeypatch.setattr(odtalloc.cli, "build_parser", lambda: built.append(1) or build())
        for k in range(3):
            assert run(
                "solve", "--tasks", str(canonical / "tasks.csv"),
                "--agents", str(canonical / "agents.csv"), "--out", str(tmp_path / f"s{k}"),
            ) == 0
        assert built == [1]

    def test_flag_does_not_leak_into_next_call(self, canonical, tmp_path, monkeypatch):
        epsilons = []
        solve = odtalloc.cli.solve

        def spy(tasks, agents, method, epsilon, *rest):
            epsilons.append(epsilon)
            return solve(tasks, agents, method, epsilon, *rest)

        monkeypatch.setattr(odtalloc.cli, "solve", spy)
        for extra in (["--epsilon", "0.05"], []):
            assert run(
                "solve", "--tasks", str(canonical / "tasks.csv"),
                "--agents", str(canonical / "agents.csv"), "--method", "entropic",
                *extra, "--out", str(tmp_path / "sol"),
            ) == 0
        assert epsilons == [0.05, None]  # None: the library's default epsilon

    def test_rejected_flag_then_valid_call_matches_fresh_process(self, canonical, tmp_path, capsys):
        files = ["--tasks", str(canonical / "tasks.csv"), "--agents", str(canonical / "agents.csv")]
        assert run("solve", *files, "--max-iter", "many", "--out", str(tmp_path / "bad")) == 2
        assert "--max-iter" in capsys.readouterr().err
        assert run("solve", *files, "--out", str(tmp_path / "here")) == 0
        subprocess.run(
            [sys.executable, "-m", "odtalloc.cli", "solve", *files, "--out", str(tmp_path / "fresh")],
            capture_output=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
        )
        assert not (tmp_path / "bad").exists()
        assert (tmp_path / "here" / "plan.json").read_bytes() == (
            tmp_path / "fresh" / "plan.json"
        ).read_bytes()

    def test_command_resolved_by_name_per_call(self, canonical, tmp_path, monkeypatch):
        files = ["--tasks", str(canonical / "tasks.csv"), "--agents", str(canonical / "agents.csv")]
        assert run("solve", *files, "--out", str(tmp_path / "first")) == 0
        calls = []
        monkeypatch.setattr(odtalloc.cli, "cmd_solve", lambda args, argv: calls.append(argv) or 7)
        assert run("solve", *files, "--out", str(tmp_path / "second")) == 7
        assert calls == [["solve", *files, "--out", str(tmp_path / "second")]]
        assert not (tmp_path / "second").exists()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


_PLAN_FLOATS = st.sampled_from([5e-324, -0.0, 1e300, 1 / 3, 0.25]) | st.floats(
    allow_nan=False, allow_infinity=False
)
_PLAN_COORDS = st.sampled_from([5e-324, -0.0, COORD_LIMIT, 1 / 3, 0.25]) | st.floats(
    -COORD_LIMIT, COORD_LIMIT
)


@st.composite
def _plan_outputs(draw):
    """A solution with its tasks and agents: ids with csv's special characters, non-ASCII
    text, spaces or nothing; float or np.float64 masses; entries that repeat tasks and
    agents, or a permutation; duals or none."""
    ids = st.lists(st.text(',"\r\n aé\u00ff\U0001f600', max_size=3) | st.text(max_size=3),
                   min_size=1, max_size=4, unique=True)
    task_ids, agent_ids = draw(ids), draw(ids)
    m, n = len(task_ids), len(agent_ids)
    dim = draw(st.integers(1, 2))
    coords = [[draw(_PLAN_COORDS) for _ in range(rows * dim)] for rows in (m, m, n)]
    tasks = TaskSet(*(np.reshape(c, (m, dim)) for c in coords[:2]), np.ones(m), ids=task_ids)
    agents = DiscreteMeasure(np.reshape(coords[2], (n, dim)), np.ones(n), ids=agent_ids)
    if m == n and draw(st.booleans()):
        pairs = list(enumerate(draw(st.permutations(range(n)))))
    else:
        pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                              max_size=8))
    mass = _PLAN_FLOATS | _PLAN_FLOATS.map(np.float64)
    plan = TransportPlan(tuple((i, j, draw(mass)) for i, j in pairs), draw(_PLAN_FLOATS), m, n)
    duals = None
    if draw(st.booleans()):
        duals = DualPotentials(*([draw(_PLAN_FLOATS) for _ in range(k)] for k in (m, n)))
    solution = Solution(plan, duals, draw(st.booleans()))
    return solution, draw(st.sampled_from(METHODS)), tasks, agents


def _round(files: list[str], out: Path, *extra: str) -> None:
    """Solve into ``out``, dumping the cost matrix there, then verify the plan's stability."""
    tasks, agents = files
    assert run("solve", "--tasks", tasks, "--agents", agents, *extra, "--out", str(out),
               "--dump-cost", str(out / "cost.json")) == 0
    assert run("verify", "--check", "stability", "--plan", str(out / "plan.json"),
               "--tasks", tasks, "--agents", agents, "--out", str(out)) == 0


def _without_run_details(manifest: bytes) -> dict:
    """A manifest without its timings and the paths it names; the digests stay."""
    payload = json.loads(manifest)
    del payload["timings_ms"], payload["command"]
    payload["inputs"] = list(payload["inputs"].values())
    return payload


class TestFiles:
    """Each input is read once, each output written whole, whatever the file held before."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_JSON_VALUES)
    @example({"text": "\ud800\x00é\U0001f600", "n": [2**70, -0.0, float("nan"), -float("inf")]})
    @example([{}, [], (), {"": None}])
    def test_write_json_matches_json_dumps(self, tmp_path_factory, payload):
        # every example rewrites one file, so a longer document is followed by shorter ones
        path = tmp_path_factory.getbasetemp() / "written.json"
        odtalloc.cli._write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode()

    def test_write_json_falls_back_to_json_dumps(self, tmp_path):
        path = tmp_path / "other.json"
        odtalloc.cli._write_json(path, {"n": np.float64(1.5), 2: [True]})
        assert path.read_text() == json.dumps({"n": np.float64(1.5), 2: [True]}, indent=2) + "\n"
        with pytest.raises(TypeError):
            odtalloc.cli._write_json(path, {"x": object()})

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_plan_outputs())
    def test_plan_writers_match_json_and_csv(self, tmp_path_factory, outputs):
        # the oracles are the generic writers: a dict for json.dumps, one csv row per entry
        solution, method, tasks, agents = outputs
        base = tmp_path_factory.getbasetemp()
        masses = [float.__repr__(mass) for _, _, mass in solution.plan.entries]
        odtalloc.cli._write_plan_json(base / "plan.json", solution, method, tasks, agents, masses)
        odtalloc.cli._write_plot_csv(base / "plot.csv", solution.plan, tasks, agents, masses)
        duals = solution.duals
        document = {
            "objective": solution.plan.objective,
            "entries": [
                {"task": tasks.ids[i], "agent": agents.ids[j], "mass": mass}
                for i, j, mass in solution.plan.entries
            ],
            "duals": None if duals is None else {"u": duals.u.tolist(), "v": duals.v.tolist()},
            "method": method,
            "unique": solution.unique,
        }
        assert (base / "plan.json").read_bytes() == (
            json.dumps(document, indent=2) + "\n"
        ).encode()
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["task_id", "agent_id", "mass",
                         *(f"{end}{k + 1}" for end in "ody" for k in range(tasks.dim))])
        origins, destinations = tasks.origins.tolist(), tasks.destinations.tolist()
        points = agents.points.tolist()
        writer.writerows(
            [tasks.ids[i], agents.ids[j], float(mass), *origins[i], *destinations[i], *points[j]]
            for i, j, mass in solution.plan.entries
        )
        assert (base / "plot.csv").read_bytes() == buffer.getvalue().encode()

    def test_smaller_rewrite_leaves_no_stale_tail(self, tmp_path):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        for size, seed in (("30", "4"), ("3", "5")):
            assert run("gen", "--kind", "city_box", "--tasks", size, "--agents", size,
                       "--seed", seed, "--out", str(shared / "inst")) == 0
        assert run("gen", "--kind", "city_box", "--tasks", "3", "--agents", "3",
                   "--seed", "5", "--out", str(fresh / "inst")) == 0
        big = tmp_path / "big"
        assert run("gen", "--kind", "city_box", "--tasks", "30", "--agents", "30",
                   "--seed", "4", "--out", str(big)) == 0
        _round([str(big / "tasks.csv"), str(big / "agents.csv")], shared / "sol")
        small = [str(fresh / "inst" / "tasks.csv"), str(fresh / "inst" / "agents.csv")]
        _round(small, shared / "sol")
        _round(small, fresh / "sol")
        for name in ("tasks.csv", "agents.csv", "spec.json"):
            assert (shared / "inst" / name).read_bytes() == (fresh / "inst" / name).read_bytes()
        for name in ("plan.json", "plot.csv", "report.json", "cost.json"):
            assert (shared / "sol" / name).read_bytes() == (fresh / "sol" / name).read_bytes()
        assert _without_run_details((shared / "sol" / "manifest.json").read_bytes()) == (
            _without_run_details((fresh / "sol" / "manifest.json").read_bytes())
        )

    @pytest.mark.skipif(os.name == "nt", reason="POSIX symlinks and mode bits")
    def test_output_written_through_symlink_keeping_mode(self, canonical, tmp_path):
        out, target = tmp_path / "sol", tmp_path / "kept" / "plan.json"
        out.mkdir()
        target.parent.mkdir()
        target.write_text("x" * 5000)  # longer than the plan
        target.chmod(0o640)
        (out / "plan.json").symlink_to(target)
        assert run("solve", "--tasks", str(canonical / "tasks.csv"),
                   "--agents", str(canonical / "agents.csv"), "--out", str(out)) == 0
        assert (out / "plan.json").is_symlink()
        assert (target.stat().st_mode & 0o777) == 0o640
        assert json.loads(target.read_text())["method"] == "exact"

    def test_write_to_device_is_not_truncated(self):
        # open("w") accepts a terminal, pipe or device, which cannot be truncated
        odtalloc.measures._write_file(os.devnull, b"{}\n")

    def test_each_input_opened_once(self, canonical, tmp_path, monkeypatch):
        tasks, agents = str(canonical / "tasks.csv"), str(canonical / "agents.csv")
        first = tmp_path / "s0"
        assert run("solve", "--tasks", tasks, "--agents", agents, "--out", str(first)) == 0
        plan = str(first / "plan.json")
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        monkeypatch.setattr("io.open", counting_open)
        out = tmp_path / "s1"
        assert run("solve", "--tasks", tasks, "--agents", agents, "--out", str(out)) == 0
        assert run("verify", "--check", "stability", "--plan", plan,
                   "--tasks", tasks, "--agents", agents, "--out", str(out)) == 0
        monkeypatch.undo()
        assert [path for path in opened if path in (tasks, agents, plan)] == [
            tasks, agents, tasks, agents, plan,
        ]
        digests = json.loads((out / "manifest.json").read_text())["inputs"]
        assert digests == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in (tasks, agents, plan)
        }

    def test_manifest_command_runs_again(self, canonical, tmp_path):
        out = tmp_path / "my dir"
        argv = ["solve", "--tasks", str(canonical / "tasks.csv"),
                "--agents", str(canonical / "agents.csv"), "--method", "exact", "--out", str(out)]
        assert run(*argv) == 0
        command = json.loads((out / "manifest.json").read_text())["command"]
        assert command == "odtalloc " + shlex.join(argv)
        assert shlex.split(command)[1:] == argv
        assert "solve --tasks " in command and " --method exact --out '" in command
