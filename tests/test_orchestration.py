"""Tests for repro.orchestration: checkpoint store, faults, resumable sweep.

The fault-injection tests drive real failures through the deterministic
``REPRO_FAULT_*`` harness: raising workers (retry path), ``os._exit``
workers (BrokenProcessPool recovery), and hanging workers (unit-timeout
pool recycling).  The governing invariant throughout: recovery never
changes results.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import CheckpointError, UnitFailedError
from repro.observability.stats import StatsCollector
from repro.orchestration import (
    CheckpointStore,
    FaultPlan,
    InjectedWorkerFault,
    RetryPolicy,
    call_with_retry,
    fault_aware_unit,
    sweep_fingerprint,
)
from repro.orchestration.checkpoint import MANIFEST, record_to_result, result_to_record
from repro.simulation.parallel import UnitResult, build_payloads, parallel_sweep
from repro.workloads.base import generate_batch
from repro.workloads.uniform import UniformWorkload

ALGOS = ["first_fit", "move_to_front"]
SEEDED = ["first_fit", "random_fit"]
KW = {"random_fit": {"seed": 123}}
FAST_POLICY = RetryPolicy(retries=2, backoff_base_s=0.001)


@pytest.fixture(scope="module")
def batch():
    gen = UniformWorkload(d=2, n=30, mu=5, T=25, B=10)
    return generate_batch(gen, 5, seed=11)


def flatten(results):
    return {
        (name, r.instance_index): (r.cost, r.num_bins, r.lower_bound)
        for name, units in results.items()
        for r in units
    }


def _unit(i, cost=10.0):
    return UnitResult(
        algorithm="first_fit", instance_index=i, cost=cost, num_bins=2,
        lower_bound=5.0,
    )


class TestCheckpointStore:
    def test_append_flush_reload(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        store.append(_unit(0))
        store.append(_unit(1))
        name = store.flush()
        assert name == "shard-0000.jsonl"
        assert (tmp_path / name).exists()
        assert (tmp_path / MANIFEST).exists()
        reloaded = CheckpointStore(str(tmp_path), fingerprint="fp")
        assert len(reloaded) == 2
        assert ("first_fit", 0) in reloaded
        assert reloaded.completed[("first_fit", 1)].cost == 10.0

    def test_empty_flush_is_noop(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        assert store.flush() is None
        assert store.flushes == 0

    def test_append_dedups_by_unit_key(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        store.append(_unit(0, cost=10.0))
        store.append(_unit(0, cost=99.0))  # duplicate key: first wins
        store.flush()
        reloaded = CheckpointStore(str(tmp_path), fingerprint="fp")
        assert len(reloaded) == 1
        assert reloaded.completed[("first_fit", 0)].cost == 10.0

    def test_multiple_flushes_make_immutable_shards(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        store.append(_unit(0))
        first = store.flush()
        before = (tmp_path / first).read_bytes()
        store.append(_unit(1))
        second = store.flush()
        assert second != first
        assert (tmp_path / first).read_bytes() == before

    def test_fingerprint_mismatch_raises(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp-a")
        store.append(_unit(0))
        store.flush()
        with pytest.raises(CheckpointError):
            CheckpointStore(str(tmp_path), fingerprint="fp-b")

    def test_hash_mismatch_shard_dropped_with_warning(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        store.append(_unit(0))
        shard = store.flush()
        # corrupt the shard in place (silent bit rot)
        path = tmp_path / shard
        path.write_text(path.read_text().replace("10.0", "66.0"))
        with pytest.warns(RuntimeWarning, match="hash mismatch"):
            reloaded = CheckpointStore(str(tmp_path), fingerprint="fp")
        assert len(reloaded) == 0  # unit re-runs rather than trusting bad data

    def test_orphan_shard_adopted(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        store.append(_unit(0))
        store.flush()
        # crash between shard rename and manifest rename: no manifest
        (tmp_path / MANIFEST).unlink()
        reloaded = CheckpointStore(str(tmp_path), fingerprint="fp")
        assert len(reloaded) == 1  # completed work is never thrown away

    def test_torn_trailing_line_tolerated(self, tmp_path):
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        store.append(_unit(0))
        store.append(_unit(1))
        shard = store.flush()
        path = tmp_path / shard
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + lines[1][: len(lines[1]) // 2])  # torn write
        (tmp_path / MANIFEST).unlink()  # force adoption path (hash changed)
        with pytest.warns(RuntimeWarning, match="undecodable record"):
            reloaded = CheckpointStore(str(tmp_path), fingerprint="fp")
        assert len(reloaded) == 1  # the intact record before the tear survives

    def test_tmp_files_ignored(self, tmp_path):
        (tmp_path / "shard-0000.jsonl.tmp").write_text("{garbage")
        store = CheckpointStore(str(tmp_path), fingerprint="fp")
        assert len(store) == 0

    def test_record_roundtrip(self):
        unit = _unit(3, cost=123.456789)
        assert record_to_result(result_to_record(unit)) == unit
        # JSON text roundtrip must preserve floats exactly (bit-identity)
        rec = json.loads(json.dumps(result_to_record(unit)))
        assert record_to_result(rec).cost == unit.cost


class TestSweepFingerprint:
    def test_sensitive_to_everything(self, batch):
        base = sweep_fingerprint(ALGOS, batch, None, "classic")
        assert sweep_fingerprint(ALGOS, batch, None, "classic") == base
        assert sweep_fingerprint(ALGOS[::-1], batch, None, "classic") != base
        assert sweep_fingerprint(ALGOS, batch[:-1], None, "classic") != base
        assert sweep_fingerprint(ALGOS, batch, None, "batch") != base
        assert sweep_fingerprint(ALGOS, batch, {"first_fit": {}}, "classic") != base


class TestFaultPlan:
    def test_parse_from_env(self):
        plan = FaultPlan.from_env({
            "REPRO_FAULT_UNITS": "first_fit:3, *:7 ,4",
            "REPRO_FAULT_MODE": "raise",
            "REPRO_FAULT_TIMES": "2",
        })
        assert plan.units == {("first_fit", 3), ("*", 7), ("*", 4)}
        assert plan.times == 2
        assert plan.should_fail("first_fit", 3, attempt=0)
        assert plan.should_fail("first_fit", 3, attempt=1)
        assert not plan.should_fail("first_fit", 3, attempt=2)
        assert plan.should_fail("move_to_front", 7, attempt=0)  # wildcard
        assert not plan.should_fail("move_to_front", 3, attempt=0)

    def test_empty_env_is_inactive(self):
        plan = FaultPlan.from_env({})
        assert not plan.active
        assert plan.kill_after_flushes is None

    def test_trigger_raises(self):
        plan = FaultPlan(units=frozenset({("a", 0)}), mode="raise")
        with pytest.raises(InjectedWorkerFault):
            plan.trigger("a", 0, attempt=0)
        plan.trigger("a", 0, attempt=1)  # past `times`: no-op


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(retries=3, backoff_base_s=0.1, backoff_factor=2.0,
                             max_backoff_s=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(0) == 0.0

    def test_call_with_retry_counts_and_recovers(self):
        col = StatsCollector()
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ValueError("transient")
            return "ok"

        out = call_with_retry(flaky, RetryPolicy(retries=5, backoff_base_s=0),
                              collector=col, sleep=lambda _s: None)
        assert out == "ok"
        assert col.retries == 2

    def test_call_with_retry_exhausts(self):
        def always():
            raise ValueError("permanent")

        with pytest.raises(ValueError, match="permanent"):
            call_with_retry(always, RetryPolicy(retries=1, backoff_base_s=0),
                            sleep=lambda _s: None)


class TestResumableSweepEquivalence:
    def test_pooled_matches_parallel_sweep(self, batch):
        base = parallel_sweep(SEEDED, batch, processes=0, algorithm_kwargs=KW)
        res = parallel_sweep(SEEDED, batch, processes=2, algorithm_kwargs=KW)
        assert flatten(res) == flatten(base)

    def test_parallel_sweep_routes_orchestration_kwargs(self, batch, tmp_path):
        base = parallel_sweep(ALGOS, batch, processes=0)
        routed = parallel_sweep(ALGOS, batch, processes=0,
                                checkpoint_dir=str(tmp_path))
        assert flatten(routed) == flatten(base)
        assert (tmp_path / MANIFEST).exists()


class TestResume:
    @pytest.mark.parametrize("engine", ["classic", "batch"])
    def test_interrupted_plus_resume_is_bit_identical(self, batch, tmp_path, engine):
        ckpt = str(tmp_path / engine)
        ref = parallel_sweep(SEEDED, batch, processes=0,
                             algorithm_kwargs=KW, engine=engine)
        parallel_sweep(SEEDED, batch, processes=0, algorithm_kwargs=KW,
                       engine=engine, checkpoint_dir=ckpt,
                       flush_every=2, max_units=4)
        col = StatsCollector()
        full = parallel_sweep(SEEDED, batch, processes=0, algorithm_kwargs=KW,
                              engine=engine, checkpoint_dir=ckpt, resume=True,
                              collector=col)
        assert flatten(full) == flatten(ref)
        assert col.units_resumed == 4

    def test_resume_requires_matching_sweep(self, batch, tmp_path):
        parallel_sweep(ALGOS, batch, processes=0,
                       checkpoint_dir=str(tmp_path), max_units=2)
        with pytest.raises(CheckpointError):
            parallel_sweep(ALGOS, batch[:-1], processes=0,
                           checkpoint_dir=str(tmp_path), resume=True)

    def test_without_resume_flag_units_recompute(self, batch, tmp_path):
        parallel_sweep(ALGOS, batch, processes=0,
                       checkpoint_dir=str(tmp_path), max_units=3)
        col = StatsCollector()
        parallel_sweep(ALGOS, batch, processes=0,
                       checkpoint_dir=str(tmp_path), collector=col)
        assert col.units_resumed == 0

    def test_stats_survive_checkpoint_roundtrip(self, batch, tmp_path):
        ckpt = str(tmp_path)
        parallel_sweep(ALGOS, batch, processes=0, collect_stats=True,
                       checkpoint_dir=ckpt, max_units=3)
        full = parallel_sweep(ALGOS, batch, processes=0, collect_stats=True,
                              checkpoint_dir=ckpt, resume=True)
        ref = parallel_sweep(ALGOS, batch, processes=0, collect_stats=True)
        got = {(n, r.instance_index): r.stats.deterministic_part()
               for n, units in full.items() for r in units}
        want = {(n, r.instance_index): r.stats.deterministic_part()
                for n, units in ref.items() for r in units}
        assert got == want


class TestInjectedFaults:
    def test_serial_raise_retries_to_success(self, batch, monkeypatch):
        ref = parallel_sweep(ALGOS, batch, processes=0)
        # classic: first_fit:1, plus *:3 hits both algorithms' payloads;
        # batch: one payload per instance, so instances 1 and 3 retry once
        for engine, retries in (("classic", 3), ("batch", 2)):
            monkeypatch.setenv("REPRO_FAULT_UNITS", "first_fit:1,*:3")
            monkeypatch.setenv("REPRO_FAULT_MODE", "raise")
            col = StatsCollector()
            res = parallel_sweep(ALGOS, batch, processes=0, engine=engine,
                                 retry_policy=FAST_POLICY, collector=col)
            monkeypatch.delenv("REPRO_FAULT_UNITS")
            monkeypatch.delenv("REPRO_FAULT_MODE")
            assert flatten(res) == flatten(ref)
            assert col.retries == retries, engine

    def test_pooled_raise_retries_to_success(self, batch, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_UNITS", "first_fit:2")
        monkeypatch.setenv("REPRO_FAULT_MODE", "raise")
        col = StatsCollector()
        res = parallel_sweep(ALGOS, batch, processes=2,
                             retry_policy=FAST_POLICY, collector=col)
        monkeypatch.delenv("REPRO_FAULT_UNITS")
        monkeypatch.delenv("REPRO_FAULT_MODE")
        ref = parallel_sweep(ALGOS, batch, processes=0)
        assert flatten(res) == flatten(ref)
        assert col.retries == 1

    def test_worker_exit_broken_pool_recovery(self, batch, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_UNITS", "first_fit:1")
        monkeypatch.setenv("REPRO_FAULT_MODE", "exit")
        col = StatsCollector()
        res = parallel_sweep(ALGOS, batch, processes=2,
                             retry_policy=FAST_POLICY, collector=col)
        monkeypatch.delenv("REPRO_FAULT_UNITS")
        monkeypatch.delenv("REPRO_FAULT_MODE")
        ref = parallel_sweep(ALGOS, batch, processes=0)
        # zero completed units lost, bit-identical results
        assert flatten(res) == flatten(ref)
        assert col.pool_restarts >= 1

    def test_hang_unit_timeout_pool_recycle(self, batch, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_UNITS", "move_to_front:0")
        monkeypatch.setenv("REPRO_FAULT_MODE", "hang")
        col = StatsCollector()
        res = parallel_sweep(ALGOS, batch, processes=2,
                             retry_policy=FAST_POLICY, unit_timeout=1.5,
                             collector=col)
        monkeypatch.delenv("REPRO_FAULT_UNITS")
        monkeypatch.delenv("REPRO_FAULT_MODE")
        ref = parallel_sweep(ALGOS, batch, processes=0)
        assert flatten(res) == flatten(ref)
        assert col.unit_timeouts >= 1
        assert col.pool_restarts >= 1

    def test_exhausted_budget_raises_after_flushing(self, batch, tmp_path,
                                                    monkeypatch):
        ckpt = str(tmp_path)
        monkeypatch.setenv("REPRO_FAULT_UNITS", "move_to_front:4")
        monkeypatch.setenv("REPRO_FAULT_MODE", "raise")
        monkeypatch.setenv("REPRO_FAULT_TIMES", "99")  # never recovers
        with pytest.raises(UnitFailedError):
            parallel_sweep(ALGOS, batch, processes=0, checkpoint_dir=ckpt,
                           flush_every=1,
                           retry_policy=RetryPolicy(retries=1,
                                                     backoff_base_s=0.001))
        # completed units were flushed before the failure surfaced...
        store = CheckpointStore(ckpt)
        assert len(store) > 0
        # ...so a resume after fixing the fault completes the sweep
        monkeypatch.delenv("REPRO_FAULT_UNITS")
        monkeypatch.delenv("REPRO_FAULT_MODE")
        monkeypatch.delenv("REPRO_FAULT_TIMES")
        col = StatsCollector()
        full = parallel_sweep(ALGOS, batch, processes=0, checkpoint_dir=ckpt,
                              resume=True, collector=col)
        ref = parallel_sweep(ALGOS, batch, processes=0)
        assert flatten(full) == flatten(ref)
        assert col.units_resumed == len(store)

    def test_fault_aware_unit_passthrough(self, batch):
        payload = build_payloads(["first_fit"], batch)[0]
        [res] = fault_aware_unit((0, payload))
        assert res.algorithm == "first_fit"
        assert res.instance_index == 0


class TestExperimentsDriver:
    def test_run_and_resume_skip(self, tmp_path):
        from repro.experiments.driver import run_experiments

        out_dir = str(tmp_path)
        first = run_experiments(names=["table2"], out_dir=out_dir)
        assert "Table 2" in first["table2"]
        assert (tmp_path / "table2.txt").exists()
        messages = []
        second = run_experiments(names=["table2"], out_dir=out_dir,
                                 resume=True, progress=messages.append)
        assert second["table2"].strip() == first["table2"].strip()
        assert any("skipping" in m for m in messages)

    def test_unknown_artifact_rejected_before_running(self):
        from repro.experiments.driver import run_experiments

        with pytest.raises(KeyError, match="unknown artifact"):
            run_experiments(names=["table9"])

    def test_registry_shape(self):
        from repro.experiments.driver import ARTIFACTS

        assert set(ARTIFACTS) == {"table1", "table2", "figures123", "figure4"}
        assert ARTIFACTS["figure4"].checkpointable
        for artifact in ARTIFACTS.values():
            assert artifact.description

    def test_every_runner_accepts_the_driver_calling_convention(self):
        # regression: figures123_artifact once rejected the positional
        # config the driver passes, breaking any run that included it
        import inspect

        from repro.experiments.config import QUICK
        from repro.experiments.driver import ARTIFACTS

        for artifact in ARTIFACTS.values():
            inspect.signature(artifact.runner).bind(
                QUICK, processes=0, engine="classic", checkpoint_dir=None,
                resume=False, retries=0, unit_timeout=None,
            )

    def test_figures123_artifact_renders_all_three(self):
        from repro.experiments.driver import run_experiments

        out = run_experiments(names=["figures123"])
        for fig in ("Figure 1", "Figure 2", "Figure 3"):
            assert fig in out["figures123"]
