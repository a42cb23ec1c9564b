"""Tests for the extended CLI subcommands (search/offline/generate/run)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main


def test_search_reports_ratio(capsys):
    assert main(["search", "--algorithm", "next_fit", "--budget", "10",
                 "--hill-climb", "5", "--n", "8", "--mu", "3"]) == 0
    out = capsys.readouterr().out
    assert "certified competitive ratio" in out


def test_search_saves_instance(capsys, tmp_path):
    path = str(tmp_path / "worst.json")
    assert main(["search", "--algorithm", "first_fit", "--budget", "5",
                 "--hill-climb", "3", "--n", "6", "--mu", "2",
                 "--save", path]) == 0
    payload = json.loads(Path(path).read_text())
    assert payload["items"]


def test_offline_compares_solutions(capsys):
    assert main(["offline", "--n", "25", "--mu", "5"]) == 0
    out = capsys.readouterr().out
    assert "offline greedy" in out and "repack optimum" in out


def test_offline_greedy_not_absurd(capsys):
    """Regression: the offline greedy once reported hull-inflated costs
    an order of magnitude above online policies."""
    assert main(["offline", "--n", "40", "--mu", "10", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    costs = {}
    for line in out.splitlines():
        if "|" in line and "cost" not in line and "-+-" not in line:
            label, value = [p.strip() for p in line.split("|")]
            if not value.startswith("["):
                costs[label] = float(value)
    assert costs["offline greedy (no repack)"] <= 1.5 * costs["online move_to_front"]


def test_generate_then_run_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "inst.json")
    assert main(["generate", path, "--n", "30", "--mu", "4"]) == 0
    assert main(["run", path, "--algorithm", "move_to_front", "--validate"]) == 0
    out = capsys.readouterr().out
    assert "cost" in out


def test_generate_trace_workload(tmp_path):
    path = str(tmp_path / "trace.json")
    assert main(["generate", path, "--workload", "trace"]) == 0
    payload = json.loads(Path(path).read_text())
    assert len(payload["items"]) > 5


def test_generate_poisson_workload(tmp_path):
    path = str(tmp_path / "poisson.json")
    assert main(["generate", path, "--workload", "poisson", "--d", "3"]) == 0
    payload = json.loads(Path(path).read_text())
    assert len(payload["capacity"]) == 3


def test_verify_theorem2(capsys):
    assert main(["verify", "--theorem", "2", "--n", "80", "--mu", "8"]) == 0
    out = capsys.readouterr().out
    assert "claim1" in out and "all inequalities hold: True" in out


def test_verify_theorem4(capsys):
    assert main(["verify", "--theorem", "4", "--n", "80", "--mu", "8"]) == 0
    out = capsys.readouterr().out
    assert "theorem4" in out and "all inequalities hold: True" in out


def test_attack_single_with_trajectory(capsys):
    assert main(["attack", "--attack", "leader_targeting", "--mu", "4",
                 "--rounds", "6", "--trajectory", "4"]) == 0
    out = capsys.readouterr().out
    assert "leader_targeting vs move_to_front" in out
    assert "certified_ratio" in out
    assert "certified-ratio trajectory" in out
    assert "ratio=" in out


def test_attack_json_output(capsys):
    assert main(["attack", "--attack", "next_fit_churner", "--mu", "2",
                 "--rounds", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["attack"] == "next_fit_churner"
    assert payload["policy"] == "next_fit"
    assert payload["replay_identical"] is True


def test_attack_amplifier_threshold(capsys):
    assert main(["attack", "--attack", "best_fit_amplifier", "--mu", "1",
                 "--threshold", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certified_ratio"] >= 5.0
    assert payload["theoretical_bound"] is None


@pytest.mark.slow
def test_attack_all_runs_scenario_grid(capsys):
    assert main(["attack", "--attack", "all"]) == 0
    out = capsys.readouterr().out
    assert "Must-exceed-bound scenario grid" in out
    assert "FAIL" not in out
    assert out.count("PASS") == 8


class TestOrchestrationFlags:
    """The fault-tolerance knobs added to run/figure4/experiments."""

    @pytest.fixture()
    def instance_path(self, tmp_path):
        path = str(tmp_path / "inst.json")
        assert main(["generate", path, "--n", "20", "--seed", "4"]) == 0
        return path

    def test_run_reports_effective_engine_on_fallback(self, capsys, tmp_path,
                                                      instance_path):
        from repro.simulation.engine import reset_fallback_warnings

        reset_fallback_warnings()
        # a policy with no fast kernel: requested batch, runs classic
        with pytest.warns(RuntimeWarning, match="no fast kernel"):
            assert main(["run", instance_path,
                         "--algorithm", "quantum_aware_move_to_front",
                         "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        assert "classic engine; batch requested" in out

    def test_run_effective_engine_matches_when_eligible(self, capsys,
                                                        instance_path):
        assert main(["run", instance_path, "--algorithm", "first_fit",
                     "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        assert "(batch engine)" in out

    def test_run_retries_flag_accepted(self, capsys, instance_path):
        assert main(["run", instance_path, "--algorithm", "move_to_front",
                     "--retries", "2", "--unit-timeout", "60"]) == 0
        assert "cost" in capsys.readouterr().out

    def test_figure4_checkpoint_and_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert main(["figure4", "--scale", "smoke",
                     "--checkpoint-dir", ckpt]) == 0
        first = capsys.readouterr().out
        assert main(["figure4", "--scale", "smoke",
                     "--checkpoint-dir", ckpt, "--resume"]) == 0
        second = capsys.readouterr().out
        assert first == second  # resume is bit-identical
        import os

        assert any("manifest.json" in files
                   for _root, _dirs, files in os.walk(ckpt))

    def test_experiments_subcommand_writes_artifacts(self, capsys, tmp_path):
        out_dir = str(tmp_path / "artifacts")
        assert main(["experiments", "--artifacts", "table2",
                     "--out-dir", out_dir]) == 0
        import os

        assert os.path.exists(os.path.join(out_dir, "table2.txt"))
        # resumed invocation skips the finished artifact
        assert main(["experiments", "--artifacts", "table2",
                     "--out-dir", out_dir, "--resume"]) == 0
        assert "skipping" in capsys.readouterr().out

    def test_experiments_prints_when_no_out_dir(self, capsys):
        assert main(["experiments", "--artifacts", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out
