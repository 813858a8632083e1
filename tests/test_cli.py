import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import odtalloc.cli
import odtalloc.measures
import odtalloc.solver
from odtalloc.cli import main
from odtalloc.cost import cost_matrix
from odtalloc.measures import load_agents_csv, load_tasks_csv
from odtalloc.solver import METHODS


def run(*argv):
    return main(list(argv))


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
            ("city_box", '{"box": [0, 0, "a", 1]}', "box"),
        ],
    )
    def test_malformed_params_are_usage_errors(self, tmp_path, capsys, kind, params, field):
        assert run("gen", "--kind", kind, "--params", params, "--out", str(tmp_path / "x")) == 2
        assert f"invalid scenario ({field})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, flags, field",
        [
            ("gaussian_mixture", ["--spread", "1e308"], "spread"),
            ("gaussian_mixture", ["--spread", "inf"], "spread"),
            ("city_box", ["--box=-1e308,0,1e308,1"], "box"),
            ("city_box", ["--box=0,0,inf,1"], "box"),
        ],
    )
    def test_overflowing_points_are_rejected_by_field(self, tmp_path, capsys, kind, flags, field):
        # caught by the spec, not later as a non-finite coordinate after numpy's overflow warning
        out = tmp_path / "x"
        assert run("gen", "--kind", kind, *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid scenario ({field}):")
        assert "Warning" not in err and "non-finite" not in err
        assert not out.exists()

    def test_non_object_params_with_flag_overrides(self, tmp_path, capsys):
        assert run("gen", "--kind", "gaussian_mixture", "--params", "[1]", "--spread", "2",
                   "--out", str(tmp_path / "x")) == 2
        assert "invalid scenario (params)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, params, flags, key, value",
        [
            ("gaussian_mixture", '{"spread": 3.0}', ["--spread", "0.5"], "spread", 0.5),
            ("city_box", '{"box": [0, 0, 1, 1]}', ["--box=-5,-5,5,5"], "box", [-5.0, -5, 5, 5]),
            ("city_box", '{"units": "degrees"}', ["--units", "meters"], "units", "meters"),
        ],
    )
    def test_flag_overrides_params_key(self, tmp_path, kind, params, flags, key, value):
        out = tmp_path / "x"
        assert run("gen", "--kind", kind, "--params", params, *flags, "--out", str(out)) == 0
        assert json.loads((out / "spec.json").read_text())["params"][key] == value

    def test_city_box_points_lie_in_box(self, tmp_path):
        # a box west of Greenwich, given in the = form
        out = tmp_path / "x"
        assert run("gen", "--kind", "city_box", "--tasks", "20", "--agents", "15",
                   "--box=-0.1,51.4,0.1,51.6", "--units", "meters", "--out", str(out)) == 0
        tasks, agents = load_tasks_csv(out / "tasks.csv"), load_agents_csv(out / "agents.csv")
        for points in (tasks.origins, tasks.destinations, agents.points):
            assert np.all((points >= [-0.1, 51.4]) & (points <= [0.1, 51.6]))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--box", "a,b"], "error: --box 'a,b' is not a comma list of numbers"),
            (["--params", "{"], "error: --params is not valid JSON"),
        ],
    )
    def test_malformed_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        assert run("gen", "--kind", "city_box", *flags, "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("box", ["-0.1,51.4,0.1,51.6", "-.5,-2,0.5,-1"])
    def test_negative_box_value_reads_as_the_equals_form(self, tmp_path, box):
        # argparse alone would read a value that starts with '-' as a flag
        specs = []
        for name, flags in (("natural", ["--box", box]), ("equals", [f"--box={box}"])):
            out = tmp_path / name
            assert run("gen", "--kind", "city_box", "--seed", "3", *flags, "--out", str(out)) == 0
            specs.append((out / "spec.json").read_bytes())
        assert specs[0] == specs[1]
        assert json.loads(specs[0])["params"]["box"] == [float(v) for v in box.split(",")]

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ODTALLOC_SEED", "42")
        out = tmp_path / "env"
        assert run(
            "gen", "--kind", "gaussian_mixture", "--dim", "1", "--tasks", "3",
            "--agents", "3", "--out", str(out),
        ) == 0
        assert json.loads((out / "spec.json").read_text())["seed"] == 42


    def test_non_integer_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ODTALLOC_SEED", "abc")
        out = tmp_path / "env"
        assert run("gen", "--kind", "gaussian_mixture", "--out", str(out)) == 2
        assert "ODTALLOC_SEED='abc'" in capsys.readouterr().err
        assert not out.exists()


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
        exact_out = tmp_path / "e"
        reduced_out = tmp_path / "r"
        for method, out in (("exact", exact_out), ("reduced", reduced_out)):
            assert run(
                "solve", "--tasks", str(canonical / "tasks.csv"),
                "--agents", str(canonical / "agents.csv"), "--method", method,
                "--out", str(out),
            ) == 0
        exact = json.loads((exact_out / "plan.json").read_text())
        reduced = json.loads((reduced_out / "plan.json").read_text())
        assert abs(exact["objective"] - reduced["objective"]) <= 1e-8

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

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_cost_is_one_error_line(self, canonical, tmp_path, method):
        # the reduced path's own cost stays finite, its marginal terms do not; in a
        # subprocess, so numpy warnings reach the stderr that is checked
        agents = tmp_path / "agents.csv"
        agents.write_text("id,y1,weight\na0,1e200,1\na1,0,1\n")
        done = subprocess.run(
            [sys.executable, "-m", "odtalloc.cli", "solve", "--tasks", str(canonical / "tasks.csv"),
             "--agents", str(agents), "--method", method, "--out", str(tmp_path / "sol")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr == "error: cost matrix has non-finite entries\n"
        assert not (tmp_path / "sol").exists()

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

    def test_pivot_cap_is_domain_failure(self, tmp_path, monkeypatch, capsys):
        # 8 tasks, 7 agents: uniform square input is an assignment and never pivots
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--tasks", "8", "--agents", "7",
                   "--seed", "3", "--out", str(inst)) == 0
        monkeypatch.setattr(odtalloc.solver, "_MAX_PIVOTS", 1)
        assert run(
            "solve", "--tasks", str(inst / "tasks.csv"), "--agents", str(inst / "agents.csv"),
            "--out", str(tmp_path / "sol"),
        ) == 1
        assert "IterationLimit" in capsys.readouterr().err

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
        # unequal task weights take the transportation simplex; both quoted ids need RFC 4180
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
  "objective": 6.83,
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
      0.0,
      16.68
    ],
    "v": [
      1.82,
      -13.18
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
  "worst_case": 0.0,
  "witness": null,
  "max_violation": 0.0,
  "max_slack_on_support": 0.0,
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
         "dual_u_strings", "dual_u_nested"],
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
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report["passed"] is False
        assert report["note"] == "plan carries no dual certificate"
        assert "stability: FAIL" in capsys.readouterr().out

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
