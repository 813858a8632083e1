import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import odtalloc.cli
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
        # a box west of Greenwich: the = form keeps argparse from reading -0.1 as a flag
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
            # without the = form argparse reads a negative min0 as a flag
            (["--box", "-0.1,51.4,0.1,51.6"], "argument --box: expected one argument"),
        ],
    )
    def test_malformed_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        assert run("gen", "--kind", "city_box", *flags, "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ODTALLOC_SEED", "42")
        out = tmp_path / "env"
        assert run(
            "gen", "--kind", "gaussian_mixture", "--dim", "1", "--tasks", "3",
            "--agents", "3", "--out", str(out),
        ) == 0
        assert json.loads((out / "spec.json").read_text())["seed"] == 42


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
        "case", ["mass_not_a_number", "no_objective", "no_dual_u", "not_utf8", "short_dual_u"]
    )
    def test_malformed_plan_is_usage_error(self, canonical, tmp_path, capsys, case):
        sol = tmp_path / "sol"
        run("solve", "--tasks", str(canonical / "tasks.csv"),
            "--agents", str(canonical / "agents.csv"), "--out", str(sol))
        payload = json.loads((sol / "plan.json").read_text())
        if case == "mass_not_a_number":
            payload["entries"][0]["mass"] = "x"
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
