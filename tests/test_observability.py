"""Tests for the observability layer: stats, sinks, hooks.

The engine-counter tests use a hand-computed five-item instance so every
counter value is verifiable on paper; the parallel tests assert the
cross-process aggregation invariant (deterministic counters identical
for any worker count).
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.items import Item
from repro.observability import (
    JsonLinesSink,
    MemorySink,
    NullSink,
    RunStats,
    StatsCollector,
)
from repro.simulation.engine import Engine, simulate
from repro.simulation.parallel import aggregate_sweep_stats, parallel_sweep
from repro.simulation.runner import run, run_many
from repro.workloads.base import generate_batch
from repro.workloads.uniform import UniformWorkload


# ----------------------------------------------------------------------
# RunStats serialisation and aggregation
# ----------------------------------------------------------------------
class TestRunStats:
    def test_dict_roundtrip(self):
        s = RunStats(algorithm="ff", runs=1, events=10, arrivals=5, departures=5,
                     bins_opened=3, bins_closed=3, peak_open_bins=2,
                     candidate_scans=4, fit_checks=6,
                     dispatch_time_s=0.25, wall_time_s=0.5, peak_rss_bytes=1024)
        assert RunStats.from_dict(s.to_dict()) == s

    def test_json_roundtrip_ignores_derived_fields(self):
        s = RunStats(algorithm="mf", runs=2, events=4, wall_time_s=2.0)
        data = json.loads(s.to_json())
        assert data["events_per_sec"] == pytest.approx(2.0)
        assert RunStats.from_json(s.to_json()) == s

    def test_events_per_sec_zero_time(self):
        assert RunStats().events_per_sec == 0.0
        assert RunStats().checks_per_scan == 0.0

    def test_aggregate_sums_counters_and_maxes_peaks(self):
        a = RunStats(algorithm="ff", runs=1, events=10, arrivals=5, departures=5,
                     bins_opened=2, bins_closed=2, peak_open_bins=2,
                     candidate_scans=3, fit_checks=5, dispatch_time_s=0.1,
                     wall_time_s=0.2, peak_rss_bytes=100)
        b = RunStats(algorithm="ff", runs=1, events=6, arrivals=3, departures=3,
                     bins_opened=1, bins_closed=1, peak_open_bins=4,
                     candidate_scans=2, fit_checks=2, dispatch_time_s=0.3,
                     wall_time_s=0.4, peak_rss_bytes=50)
        agg = RunStats.aggregate([a, b])
        assert agg.algorithm == "ff"
        assert agg.runs == 2
        assert agg.events == 16
        assert agg.bins_opened == 3
        assert agg.peak_open_bins == 4
        assert agg.fit_checks == 7
        assert agg.dispatch_time_s == pytest.approx(0.4)
        assert agg.wall_time_s == pytest.approx(0.6)
        assert agg.peak_rss_bytes == 100

    def test_aggregate_mixed_algorithms_and_empty(self):
        assert RunStats.aggregate([]) == RunStats()
        agg = RunStats.aggregate([RunStats(algorithm="a", runs=1),
                                  RunStats(algorithm="b", runs=1)])
        assert agg.algorithm == "mixed"

    def test_deterministic_part_zeroes_timings_only(self):
        s = RunStats(algorithm="ff", events=4, dispatch_time_s=1.0,
                     wall_time_s=2.0, peak_rss_bytes=7)
        d = s.deterministic_part()
        assert d.dispatch_time_s == 0.0 and d.wall_time_s == 0.0
        assert d.peak_rss_bytes is None
        assert d.events == 4 and d.algorithm == "ff"


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_null_sink_is_silent(self):
        sink = NullSink()
        sink.emit("run", {"x": 1})
        sink.close()
        sink.close()  # idempotent

    def test_memory_sink_buffers_by_kind(self):
        sink = MemorySink()
        sink.emit("run", {"x": 1})
        sink.emit("scenario", {"y": 2})
        sink.emit("run", {"x": 3})
        assert [p["x"] for p in sink.by_kind("run")] == [1, 3]

    def test_jsonlines_sink_writes_one_object_per_line(self):
        buf = io.StringIO()
        with JsonLinesSink(buf) as sink:
            sink.emit("run", {"a": 1})
            sink.emit("suite", {"b": 2.5})
        lines = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert lines == [{"kind": "run", "a": 1}, {"kind": "suite", "b": 2.5}]

    def test_jsonlines_sink_to_path_appends(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonLinesSink(path) as sink:
            sink.emit("run", {"a": 1})
        with JsonLinesSink(path) as sink:
            sink.emit("run", {"a": 2})
        with open(path, encoding="utf-8") as fh:
            values = [json.loads(line)["a"] for line in fh]
        assert values == [1, 2]

    def test_emit_after_close_raises(self):
        sink = JsonLinesSink(io.StringIO())
        sink.close()
        with pytest.raises(ValueError):
            sink.emit("run", {})


# ----------------------------------------------------------------------
# engine counters on a hand-computed instance
# ----------------------------------------------------------------------
@pytest.fixture
def five_item_instance():
    """Five 1-D items with a fully hand-checkable First Fit execution.

    Capacity 1.0.  Timeline (size in brackets):

    * item 0 [0.6] on [0, 10)  — opens bin 0
    * item 1 [0.5] on [1, 3)   — does not fit bin 0 → opens bin 1
    * item 2 [0.3] on [2, 4)   — fits bin 0 (0.9) → bin 0
    * item 3 [0.5] on [5, 7)   — bin 1 closed at 3; 0.6+0.5 > 1 → opens bin 2
    * item 4 [0.4] on [6, 8)   — fits bin 0 exactly (1.0) → bin 0

    First Fit counters: arrivals 5, departures 5, bins opened/closed 3,
    peak open bins 2 (bins 0+1 on [1,3), bins 0+2 on [5,7)); candidate
    scans 4 (every arrival except item 0, whose open list was empty);
    fit checks 1+2+1+2 = 6 (|L| at items 1, 2, 3, 4).
    """
    return Instance(
        [
            Item(0.0, 10.0, np.array([0.6]), 0),
            Item(1.0, 3.0, np.array([0.5]), 1),
            Item(2.0, 4.0, np.array([0.3]), 2),
            Item(5.0, 7.0, np.array([0.5]), 3),
            Item(6.0, 8.0, np.array([0.4]), 4),
        ]
    )


class TestEngineCounters:
    def test_first_fit_counters_match_hand_computation(self, five_item_instance):
        collector = StatsCollector()
        packing = run("first_fit", five_item_instance, collector=collector)
        s = collector.snapshot()
        assert s.algorithm == "first_fit"
        assert s.runs == 1
        assert s.events == 10
        assert s.arrivals == 5
        assert s.departures == 5
        assert s.bins_opened == 3
        assert s.bins_closed == 3
        assert s.peak_open_bins == 2
        assert s.candidate_scans == 4
        assert s.fit_checks == 6
        assert s.wall_time_s > 0.0
        assert s.dispatch_time_s > 0.0
        assert s.wall_time_s >= s.dispatch_time_s
        assert s.events_per_sec > 0.0
        # the instrumented run produced the same packing as a plain run
        plain = run("first_fit", five_item_instance)
        assert packing.cost == pytest.approx(plain.cost)
        assert s.bins_opened == plain.num_bins

    def test_counters_consistent_with_packing_on_random_instance(self):
        inst = UniformWorkload(d=2, n=120, mu=8, T=200, B=10).sample_seeded(3)
        collector = StatsCollector()
        packing = run("move_to_front", inst, collector=collector)
        s = collector.snapshot()
        assert s.arrivals == inst.n
        assert s.departures == inst.n
        assert s.bins_opened == packing.num_bins
        assert s.bins_closed == s.bins_opened  # every bin closes eventually
        assert s.peak_open_bins == packing.max_concurrent_bins()
        # every scan inspects at least one candidate
        assert s.fit_checks >= s.candidate_scans >= 1

    def test_instrumented_and_plain_runs_produce_identical_packings(self, five_item_instance):
        for name in ("move_to_front", "best_fit", "next_fit"):
            instrumented = run(name, five_item_instance, collector=StatsCollector())
            plain = run(name, five_item_instance)
            assert instrumented.assignment == plain.assignment

    def test_collector_unbound_after_run(self, five_item_instance):
        from repro.algorithms.registry import make_algorithm

        algo = make_algorithm("first_fit")
        simulate(algo, five_item_instance, collector=StatsCollector())
        assert algo._collector is None

    def test_collector_accumulates_across_runs(self, five_item_instance):
        collector = StatsCollector()
        run_many("first_fit", [five_item_instance, five_item_instance],
                 collector=collector)
        s = collector.snapshot()
        assert s.runs == 2
        assert s.events == 20
        assert s.fit_checks == 12
        assert s.peak_open_bins == 2  # a gauge, not a sum

    def test_run_record_emitted_to_sink(self, five_item_instance):
        sink = MemorySink()
        run("first_fit", five_item_instance, collector=StatsCollector(sink=sink))
        records = sink.by_kind("run")
        assert len(records) == 1
        assert records[0]["events"] == 10
        assert records[0]["n"] == 5

    def test_rss_sampling_when_enabled(self, five_item_instance):
        collector = StatsCollector(sample_rss=True)
        run("first_fit", five_item_instance, collector=collector)
        s = collector.snapshot()
        # resource is available on the platforms CI runs on
        assert s.peak_rss_bytes is None or s.peak_rss_bytes > 0

    def test_engine_default_has_no_collector(self, five_item_instance):
        from repro.algorithms.registry import make_algorithm

        engine = Engine(five_item_instance, make_algorithm("first_fit"))
        assert engine.collector is None
        engine.run()


# ----------------------------------------------------------------------
# cross-process aggregation
# ----------------------------------------------------------------------
class TestParallelStats:
    @pytest.fixture(scope="class")
    def batch(self):
        gen = UniformWorkload(d=2, n=40, mu=5, T=30, B=10)
        return generate_batch(gen, 6, seed=0)

    def test_stats_absent_by_default(self, batch):
        results = parallel_sweep(["first_fit"], batch, processes=0)
        assert all(u.stats is None for u in results["first_fit"])

    def test_serial_stats_populated(self, batch):
        results = parallel_sweep(["first_fit"], batch, processes=0,
                                 collect_stats=True)
        for unit in results["first_fit"]:
            assert unit.stats is not None
            assert unit.stats.events == 80  # 40 arrivals + 40 departures
            assert unit.stats.bins_opened == unit.num_bins

    def test_cross_process_aggregation_equals_serial(self, batch):
        algos = ["first_fit", "move_to_front"]
        serial = aggregate_sweep_stats(
            parallel_sweep(algos, batch, processes=0, collect_stats=True))
        parallel = aggregate_sweep_stats(
            parallel_sweep(algos, batch, processes=2, collect_stats=True))
        for name in algos:
            assert serial[name].deterministic_part() == parallel[name].deterministic_part()
            assert serial[name].runs == len(batch)

    def test_aggregate_skips_missing_stats(self, batch):
        results = parallel_sweep(["first_fit"], batch, processes=0)
        agg = aggregate_sweep_stats(results)
        assert agg["first_fit"] == RunStats()
