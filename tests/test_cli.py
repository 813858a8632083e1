import json

import numpy as np
import pytest

import odtalloc.solver
from odtalloc.cli import main
from odtalloc.cost import cost_matrix
from odtalloc.measures import load_agents_csv, load_tasks_csv


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
        "row", ["a0,0.0,nan", "a0,0.0,inf", "a0,1.0,1.0"],
        ids=["nan_weight", "inf_weight", "duplicate_id"],
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

    def test_pivot_cap_is_domain_failure(self, tmp_path, monkeypatch, capsys):
        inst = tmp_path / "inst"
        assert run("gen", "--kind", "gaussian_mixture", "--tasks", "8", "--agents", "8",
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

    def test_stability_needs_files(self, capsys):
        assert run("verify", "--check", "stability") == 2
        capsys.readouterr()

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
