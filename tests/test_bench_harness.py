"""Tests for the perf suites of :mod:`repro.bench` and ``repro bench``.

Everything runs at smoke scale (seconds) — the full suites' records
have the same shape, only the scenario grids differ.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.adversaries.scenarios import MUST_EXCEED_SCENARIOS
from repro.algorithms.registry import PAPER_ALGORITHMS
from repro.bench import (
    BASE_SEED,
    CORE_SCENARIOS,
    MEDIUM_SCENARIO,
    SCHEMA,
    SMOKE_SCENARIOS,
    SUITES,
    BenchScenario,
    list_suites,
    measure_overhead,
    run_adversary_suite,
    run_bench,
    run_scenario,
    run_suite,
    write_record,
)
from repro.cli import main
from repro.observability import MemorySink

FAST = BenchScenario(name="tiny", d=1, n=30, size="small", mu=5, T=100, B=10,
                     seed=BASE_SEED)

REPO = Path(__file__).resolve().parents[1]
#: The committed trajectory file, one record per suite key.
COMMITTED = REPO / "BENCH_core.json"


class TestScenarios:
    def test_core_grid_shape(self):
        assert len(CORE_SCENARIOS) == 9  # d in {1,2,4} x 3 sizes
        assert {s.d for s in CORE_SCENARIOS} == {1, 2, 4}
        assert {s.size for s in CORE_SCENARIOS} == {"small", "medium", "large"}
        # seeds are pinned and unique per cell
        assert len({s.seed for s in CORE_SCENARIOS}) == len(CORE_SCENARIOS)

    def test_medium_scenario_is_in_the_core_grid(self):
        assert MEDIUM_SCENARIO in CORE_SCENARIOS
        assert MEDIUM_SCENARIO.d == 2 and MEDIUM_SCENARIO.size == "medium"

    def test_instances_are_reproducible(self):
        a = FAST.build_instance()
        b = FAST.build_instance()
        assert a.to_dict() == b.to_dict()


class TestRunScenario:
    @pytest.fixture(scope="class")
    def record(self):
        return run_scenario(FAST, repeats=1)

    def test_covers_all_seven_paper_algorithms(self, record):
        assert sorted(record["results"]) == sorted(PAPER_ALGORITHMS)
        assert len(record["results"]) == 7

    def test_cell_fields(self, record):
        for name, cell in record["results"].items():
            assert cell["wall_time_s"] > 0.0
            assert cell["events_per_sec"] > 0.0
            assert cell["cost_ratio"] >= 1.0 - 1e-9, name
            assert cell["events"] == 2 * FAST.n
            assert cell["num_bins"] >= 1
            assert cell["cost"] == pytest.approx(
                cell["cost_ratio"] * record["lower_bound"])

    def test_emits_scenario_record_to_sink(self):
        sink = MemorySink()
        run_scenario(FAST, algorithms=["first_fit"], repeats=1, sink=sink)
        assert len(sink.by_kind("scenario")) == 1
        # one "run" record per repeat per algorithm
        assert len(sink.by_kind("run")) == 1


class TestRunSuite:
    def test_payload_schema(self, tmp_path, monkeypatch):
        monkeypatch.setitem(SUITES, "smoke", replace(
            SUITES["smoke"],
            run=partial(run_suite, [FAST], ["first_fit", "next_fit"]),
        ))
        record = run_bench("smoke", repeats=1)
        assert set(record) == {
            "suite", "generated_unix", "python", "platform", "repeats",
            "total_wall_time_s", "algorithms", "scenarios",
        }
        assert record["suite"] == "smoke" and record["repeats"] == 1
        assert record["algorithms"] == ["first_fit", "next_fit"]
        assert len(record["scenarios"]) == 1
        path = tmp_path / "BENCH_test.json"
        write_record(str(path), "core", record)
        reread = json.loads(path.read_text())
        assert reread == {"schema": SCHEMA, "core": json.loads(json.dumps(record))}

    def test_progress_callback_invoked(self):
        lines = []
        run_suite(scenarios=[FAST], algorithms=["first_fit"], repeats=1,
                  progress=lines.append)
        assert len(lines) == 1 and "tiny" in lines[0]

    def test_smoke_scenarios_are_small(self):
        assert all(s.n <= 100 for s in SMOKE_SCENARIOS)


class TestMeasureOverhead:
    def test_report_fields(self):
        report = measure_overhead(scenario=FAST, repeats=2)
        assert report["scenario"] == "tiny"
        assert report["plain_s"] > 0.0
        assert report["instrumented_s"] > 0.0
        assert isinstance(report["overhead_frac"], float)


class TestCliBench:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_core.json"
        trace = tmp_path / "trace.jsonl"
        code = main(["bench", "--suite", "smoke", "--repeats", "1",
                     "--output", str(out), "--trace", str(trace)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"schema", "core"}
        assert payload["core"]["suite"] == "smoke"
        assert {s["name"] for s in payload["core"]["scenarios"]} == \
            {s.name for s in SMOKE_SCENARIOS}
        # trace got one run record per (scenario, algorithm, repeat)
        kinds = [json.loads(line)["kind"] for line in trace.read_text().splitlines()]
        assert kinds.count("run") == len(SMOKE_SCENARIOS) * len(PAPER_ALGORITHMS)
        assert kinds.count("suite") == 1
        assert "wrote" in capsys.readouterr().out

    def test_bench_overhead_flag(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["bench", "--suite", "overhead", "--repeats", "1",
                     "--output", str(out)])
        assert code == 0
        record = json.loads(out.read_text())["overhead"]
        assert record["repeats"] == 1
        assert record["headline"]["scenario"] == MEDIUM_SCENARIO.name
        assert "overhead" in capsys.readouterr().out

    def test_other_commands_do_not_import_the_bench_module(self):
        # Only `bench` needs the bench module, and only the correlated
        # workload needs scipy: parsing another command must load
        # neither into, say, a long-lived `serve` process.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        code = ("import sys; from repro.cli import _build_parser; "
                "_build_parser().parse_args(['serve', '--policy', 'first_fit']); "
                "loaded = [m for m in ('repro.bench', 'scipy') if m in sys.modules]; "
                "sys.exit(f'loaded {loaded}' if loaded else 0)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_an_unknown_suite_exits_2_listing_the_names(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "--suite", "nope", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in list_suites())
        assert not out.exists()

    def test_repeats_default_to_each_suites_own(self):
        from inspect import signature

        defaults = {name: signature(s.run).parameters["repeats"].default
                    for name, s in SUITES.items()}
        assert defaults == {
            name: (1 if s.key in ("streaming", "adversary", "repacking")
                   else 5 if s.key == "overhead" else 3)
            for name, s in SUITES.items()
        }


class TestFastpathSuite:
    def test_run_fastpath_suite_payload(self):
        from repro.bench import (
            FASTPATH_SMOKE_SCENARIOS,
            MEASURE_KERNEL_SPECS,
            run_fastpath_suite,
        )

        payload = run_fastpath_suite(FASTPATH_SMOKE_SCENARIOS, repeats=1)
        # bit-identity is the acceptance bar; speed is asserted only at
        # full scale, not at smoke scale
        assert payload["headline"]["identical"] is True
        assert len(payload["scenarios"]) == len(FASTPATH_SMOKE_SCENARIOS)
        # the L1/Lp measure kernels run on the grid's first d = 2 cell
        assert payload["measure_scenario"] == next(
            s.name for s in FASTPATH_SMOKE_SCENARIOS if s.d == 2
        )
        cells = payload["measure_kernels"]
        assert set(cells) == {name for name, _, _ in MEASURE_KERNEL_SPECS}
        for cell in cells.values():
            assert cell["identical"] is True
            assert cell["fast_numpy_s"] > 0 and cell["classic_s"] > 0
        json.loads(json.dumps(payload, allow_nan=False))


class TestAdversarySuite:
    def test_run_adversary_suite_payload(self):
        # two scenarios keep the test in tier-1 time; the full grid runs
        # in the CI adversary job and in repro verify
        payload = run_adversary_suite(
            scenarios=MUST_EXCEED_SCENARIOS[2:4], repeats=1
        )
        assert payload["headline"]["all_passed"] is True
        assert len(payload["scenarios"]) == 2
        for rec in payload["scenarios"]:
            assert rec["passed"] and rec["replay_identical"]
            assert rec["certified_ratio"] >= rec["required"]
            assert rec["wall_time_s"] > 0
        # payload must be strict JSON (no Infinity literals)
        json.loads(json.dumps(payload, allow_nan=False))


class TestRepackingSuite:
    def test_run_repacking_suite_payload(self):
        from repro.bench import (
            REPACK_FRONTIER_GRID,
            REPACKING_SMOKE_SCENARIOS,
            run_repacking_suite,
        )

        payload = run_repacking_suite(REPACKING_SMOKE_SCENARIOS, repeats=1)
        assert payload["headline"]["gadgets_improved"] is True
        assert len(payload["scenarios"]) == len(REPACKING_SMOKE_SCENARIOS)
        for rec in payload["scenarios"]:
            assert len(rec["frontier"]) == len(REPACK_FRONTIER_GRID)
            anchor = rec["frontier"][0]
            assert anchor["repacker"] == "no_repack"
            assert anchor["moves"] == 0
            assert anchor["cost"] == rec["no_recourse_cost"]
            for point in rec["frontier"]:
                assert point["cost"] > 0 and point["num_bins"] >= 1
            assert rec["best"]["cost"] <= anchor["cost"]
            assert rec["lower_bound"] <= rec["no_recourse_cost"] + 1e-9
        # the gadget scenarios achieve a strict improvement
        gadgets = [r for r in payload["scenarios"]
                   if r["params"]["kind"] in ("thm5", "thm6")]
        assert gadgets
        for rec in gadgets:
            assert rec["best"]["cost"] < rec["no_recourse_cost"]
        json.loads(json.dumps(payload, allow_nan=False))


# ----------------------------------------------------------------------
# one write path: a run replaces its own key and nothing else
# ----------------------------------------------------------------------

#: Seconds-fast stand-ins for the full suites (their smoke forms).
FAST_FORMS = {
    "core": "smoke",
    "fastpath": "fastpath-smoke",
    "batch": "batch-smoke",
    "streaming": "streaming-smoke",
    "repacking": "repacking-smoke",
}


@pytest.fixture
def fast_suites(monkeypatch):
    """Point every full suite at a seconds-fast run of the same shape."""
    for name, fast in FAST_FORMS.items():
        monkeypatch.setitem(SUITES, name, replace(SUITES[name], run=SUITES[fast].run))
    monkeypatch.setitem(SUITES, "adversary", replace(
        SUITES["adversary"],
        run=partial(run_adversary_suite, MUST_EXCEED_SCENARIOS[2:3]),
    ))


def bench(name, out):
    return main(["bench", "--suite", name, "--repeats", "1", "--output", str(out)])


def test_committed_file_holds_one_record_per_suite_key():
    committed = json.loads(COMMITTED.read_text())
    assert committed["schema"] == SCHEMA
    assert set(committed) == {"schema"} | {s.key for s in SUITES.values()}


@pytest.mark.parametrize("name", list_suites())
def test_a_run_replaces_only_its_own_key(name, fast_suites, tmp_path, capsys):
    out = tmp_path / "BENCH_core.json"
    shutil.copy(COMMITTED, out)
    before = json.loads(out.read_text())
    assert bench(name, out) == 0
    after = json.loads(out.read_text())
    key = SUITES[name].key
    assert after[key]["suite"] == name and "schema" not in after[key]
    assert {k: v for k, v in after.items() if k != key} == \
        {k: v for k, v in before.items() if k != key}
    assert f"[{key}]" in capsys.readouterr().out


def test_fastpath_then_batch_into_a_fresh_file(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert bench("fastpath-smoke", out) == 0
    fastpath = json.loads(out.read_text())["fastpath"]
    assert bench("batch-smoke", out) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"schema", "fastpath", "batch"}
    assert payload["fastpath"] == fastpath
    capsys.readouterr()


def test_overhead_then_core(fast_suites, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert bench("overhead", out) == 0
    overhead = json.loads(out.read_text())["overhead"]
    assert bench("core", out) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"schema", "overhead", "core"}
    assert payload["overhead"] == overhead
    capsys.readouterr()


@pytest.mark.parametrize("content", [
    '{"schema": "repro-bench/v1", "suite": "core"}\n',
    '{"schema": "repro-bench/v2", "co',
    "[1, 2]\n",
    "",
])
def test_a_non_v2_output_file_is_refused(content, tmp_path, capsys):
    out = tmp_path / "foreign.json"
    out.write_text(content)
    assert bench("repacking-smoke", out) == 2
    assert out.read_text() == content
    assert str(out) in capsys.readouterr().err


# ----------------------------------------------------------------------
# the headline gates decide the exit code
# ----------------------------------------------------------------------
def test_fastpath_gate_fails_when_a_fast_result_disagrees(monkeypatch, tmp_path, capsys):
    import repro.bench as bench_mod

    class Disagreeing(bench_mod.FastEngine):
        def run(self):
            packing = super().run()
            return SimpleNamespace(
                assignment={uid: b + 1 for uid, b in dict(packing.assignment).items()}
            )

    monkeypatch.setattr(bench_mod, "FastEngine", Disagreeing)
    out = tmp_path / "bench.json"
    assert bench("fastpath-smoke", out) == 1
    assert json.loads(out.read_text())["fastpath"]["headline"]["identical"] is False
    capsys.readouterr()


@pytest.mark.parametrize("name", [n for n in list_suites() if SUITES[n].gate])
def test_a_false_gate_flag_exits_1(name, monkeypatch, tmp_path, capsys):
    suite = SUITES[name]
    monkeypatch.setitem(SUITES, name, replace(
        suite, run=lambda repeats=1, progress=None: {"headline": {suite.gate: False}}
    ))
    assert bench(name, tmp_path / "bench.json") == 1
    capsys.readouterr()
