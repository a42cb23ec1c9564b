"""Streaming engine, merge order, and workload stream adapters.

The contract under test is ISSUE-level: the streaming engine must be
*bit-identical* in final cost and assignment to the classic engine on
every materialised instance, while holding only O(peak-live-items)
state; the streaming merge must reproduce the classic ``(time, kind,
seq)`` event order — departures before arrivals at equal times —
exactly; and the lazy workload streams must emit sorted arrivals without
materialising the item list.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.core.errors import AlgorithmError, StreamOrderError
from repro.core.events import EventKind, event_stream
from repro.core.instance import Instance
from repro.core.items import Item
from repro.observability.sinks import MemorySink
from repro.observability.stats import StatsCollector
from repro.simulation.runner import effective_engine, run
from repro.streaming import StreamingEngine, merge_events, streaming_run
from repro.verify import compare_with_streaming, corpus
from repro.verify.strategies import instances, policies
from repro.workloads.poisson import PoissonWorkload
from repro.workloads.uniform import UniformWorkload


def _kwargs(policy: str) -> dict:
    return {"seed": 0} if policy == "random_fit" else {}


# ----------------------------------------------------------------------
# merge order
# ----------------------------------------------------------------------
class TestMergeEvents:
    def test_matches_event_stream_on_corpus(self):
        for entry in corpus(22, seed=11):
            inst = entry.instance
            merged = list(merge_events(inst.items))
            classic = event_stream(inst)
            assert [(e.time, e.kind, e.item.uid) for e in merged] == [
                (e.time, e.kind, e.item.uid) for e in classic
            ], entry.recipe

    def test_departures_fire_before_arrivals_at_equal_times(self):
        # item 0 departs at t=2 exactly when item 1 arrives
        inst = Instance.from_tuples([(0.0, 2.0, [0.5]), (2.0, 4.0, [0.5])])
        kinds = [(e.time, e.kind) for e in merge_events(inst.items)]
        assert kinds == [
            (0.0, EventKind.ARRIVAL),
            (2.0, EventKind.DEPARTURE),
            (2.0, EventKind.ARRIVAL),
            (4.0, EventKind.DEPARTURE),
        ]
        assert EventKind.DEPARTURE < EventKind.ARRIVAL

    def test_out_of_order_stream_raises(self):
        bad = [
            Item(3.0, 4.0, np.array([0.5]), 0),
            Item(1.0, 2.0, np.array([0.5]), 1),
        ]
        with pytest.raises(StreamOrderError):
            list(merge_events(bad))

    @given(inst=instances(max_items=16))
    @settings(max_examples=40)
    def test_merge_order_property(self, inst):
        merged = list(merge_events(inst.items))
        classic = event_stream(inst)
        assert [(e.time, e.kind, e.item.uid) for e in merged] == [
            (e.time, e.kind, e.item.uid) for e in classic
        ]


# ----------------------------------------------------------------------
# engine bit-identity
# ----------------------------------------------------------------------
class TestStreamingBitIdentity:
    def test_all_corpus_recipes_all_policies(self):
        # the full 22-recipe corpus through every Section 7 policy
        for entry in corpus(22, seed=20230613):
            inst = entry.instance
            for policy in PAPER_ALGORITHMS:
                classic = run(make_algorithm(policy, **_kwargs(policy)), inst)
                streamed = streaming_run(
                    make_algorithm(policy, **_kwargs(policy)), inst
                )
                where = f"{entry.recipe}/{policy}"
                assert streamed.cost == classic.cost, where
                assert streamed.num_bins == classic.num_bins, where
                assert dict(streamed.assignment) == dict(classic.assignment), where

    @given(inst=instances(max_items=18), policy=policies())
    @settings(max_examples=50)
    def test_bit_identity_property(self, inst, policy):
        classic = run(make_algorithm(policy, **_kwargs(policy)), inst)
        streamed = streaming_run(make_algorithm(policy, **_kwargs(policy)), inst)
        assert streamed.cost == classic.cost
        assert dict(streamed.assignment) == dict(classic.assignment)

    def test_oracle_passes_and_catches(self):
        inst = UniformWorkload(d=2, n=200, mu=10).sample_seeded(3)
        good = run("first_fit", inst)
        assert compare_with_streaming(good, "first_fit") == []
        # a packing labelled with the wrong policy must be flagged
        other = run("next_fit", inst)
        assert other.cost != good.cost  # policies genuinely differ here
        violations = compare_with_streaming(other, "first_fit")
        assert violations and all(v.check == "streaming" for v in violations)

    def test_runner_engine_streaming(self):
        inst = UniformWorkload(d=2, n=150, mu=10).sample_seeded(5)
        classic = run("move_to_front", inst)
        streamed = run("move_to_front", inst, engine="streaming", validate=True)
        assert streamed.cost == classic.cost
        assert dict(streamed.assignment) == dict(classic.assignment)
        assert effective_engine("move_to_front", "streaming") == "streaming"
        # observers force the classic engine (streaming has no observer hooks)
        assert effective_engine("move_to_front", "streaming",
                                observers=[object()]) == "classic"


# ----------------------------------------------------------------------
# engine mechanics: bounded memory, flushes, counters
# ----------------------------------------------------------------------
class TestStreamingEngineMechanics:
    def test_bounded_memory_on_long_poisson_stream(self):
        workload = PoissonWorkload(d=2, rate=50.0, horizon=200.0)
        engine = StreamingEngine(
            make_algorithm("next_fit"), workload.capacity,
            record_assignment=False,
        )
        result = engine.run(workload.stream_seeded(0))
        assert result.assignment is None  # nothing O(stream length) kept
        assert result.arrivals > 5_000
        assert result.departures == result.arrivals
        assert result.open_bins == 0
        # expected peak live ~ rate * mean duration = 275 <<< arrivals
        assert result.peak_live_items < 0.1 * result.arrivals

    def test_flush_cadence_and_collector_counters(self):
        inst = UniformWorkload(d=1, n=100, mu=5).sample_seeded(1)
        sink = MemorySink()
        col = StatsCollector(sink=sink)
        streaming_run(make_algorithm("first_fit"), inst,
                      collector=col, flush_every=50)
        stats = col.snapshot()
        assert stats.streaming_runs == 1
        # 200 events at flush_every=50: thresholds 50/100/150 are crossed
        # while arrivals are still flowing; the 200th event falls in the
        # tail departure drain, which deliberately does not flush
        assert stats.stream_flushes == 3
        assert stats.peak_live_items > 0
        flushes = sink.by_kind("stream_flush")
        assert len(flushes) == 3
        assert all("live_items" in rec and "open_bins" in rec
                   for rec in flushes)

    def test_flush_disabled(self):
        inst = UniformWorkload(d=1, n=60, mu=5).sample_seeded(2)
        engine = StreamingEngine(
            make_algorithm("next_fit"), inst.capacity, flush_every=0,
            record_assignment=True,
        )
        assert engine.run(inst.items).flushes == 0

    def test_engine_is_single_use(self):
        inst = UniformWorkload(d=1, n=10, mu=5).sample_seeded(0)
        engine = StreamingEngine(make_algorithm("next_fit"), inst.capacity)
        engine.run(inst.items)
        with pytest.raises(AlgorithmError):
            engine.run(inst.items)

    def test_next_fit_audit_bookkeeping_suspended_on_stream(self):
        # next_fit's Theorem 4 release_log pins every released bin's
        # residents — O(stream length).  The streaming engine must run
        # with audit_mode off (empty log, empty release_times) and hand
        # the algorithm back with the flag restored, so a later classic
        # run (e.g. verify_theorem4) still gets the full trail.
        inst = UniformWorkload(d=1, n=120, mu=3).sample_seeded(9)
        algo = make_algorithm("next_fit")
        engine = StreamingEngine(algo, inst.capacity, record_assignment=True)
        streamed = engine.run(inst.items)
        assert streamed.bins_opened > 1          # releases did happen
        assert algo.release_log == []
        assert algo.release_times == {}
        assert algo.audit_mode is True           # restored after the run
        classic = run(algo, inst)
        assert len(algo.release_log) > 0         # full trail is back
        assert len(algo.release_times) > 0
        assert dict(classic.assignment) == streamed.assignment

    def test_deterministic_part_zeroes_streaming_counters(self):
        # streaming_runs / stream_flushes / peak_live_items are execution
        # history, not algorithm output — two bit-identical runs through
        # different engines must compare equal after deterministic_part()
        inst = UniformWorkload(d=1, n=80, mu=5).sample_seeded(4)
        col_stream = StatsCollector()
        streaming_run(make_algorithm("first_fit"), inst,
                      collector=col_stream, flush_every=20)
        col_classic = StatsCollector()
        run("first_fit", inst, collector=col_classic)
        s, c = col_stream.snapshot(), col_classic.snapshot()
        assert s.streaming_runs == 1 and c.streaming_runs == 0
        d = s.deterministic_part()
        assert d.streaming_runs == 0
        assert d.stream_flushes == 0
        assert d.peak_live_items == 0
        assert d == c.deterministic_part()


# ----------------------------------------------------------------------
# workload stream adapters
# ----------------------------------------------------------------------
class TestWorkloadStreams:
    def test_base_default_stream_matches_sample(self):
        gen = UniformWorkload(d=2, n=50, mu=10)
        inst = gen.sample_seeded(9)
        streamed = list(gen.stream_seeded(9)) if hasattr(gen, "stream_seeded") else []
        # UniformWorkload overrides stream(); the *default* adapter is
        # exercised through a generator without an override
        from repro.workloads.trace import CloudTraceWorkload

        trace = CloudTraceWorkload()
        t_inst = trace.sample_seeded(3)
        t_stream = list(trace.stream_seeded(3))
        assert [(i.uid, i.arrival, i.departure) for i in t_stream] == [
            (i.uid, i.arrival, i.departure) for i in t_inst.items
        ]
        assert inst.n == 50 and len(streamed) == 50

    def test_poisson_stream_sorted_and_bounded(self):
        gen = PoissonWorkload(d=2, rate=20.0, horizon=50.0)
        items = list(gen.stream_seeded(7))
        assert items, "stream came up empty at rate*horizon = 1000"
        arrivals = [i.arrival for i in items]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] <= 50.0
        assert [i.uid for i in items] == list(range(len(items)))
        # same seed -> same stream; different seed -> different stream
        again = list(gen.stream_seeded(7))
        assert [(i.uid, i.arrival) for i in again] == [
            (i.uid, i.arrival) for i in items
        ]
        other = list(gen.stream_seeded(8))
        assert [i.arrival for i in other] != arrivals

    def test_poisson_stream_limit(self):
        gen = PoissonWorkload(d=1, rate=100.0, horizon=100.0)
        items = list(gen.stream_seeded(0, limit=25))
        assert len(items) == 25

    def test_uniform_stream_sorted_marginals(self):
        gen = UniformWorkload(d=3, n=400, mu=10, T=1000, B=100)
        items = list(gen.stream_seeded(13))
        assert len(items) == 400
        arrivals = [i.arrival for i in items]
        assert arrivals == sorted(arrivals)
        assert 0.0 <= arrivals[0] and arrivals[-1] <= 1000 - 10
        for it in items:
            # durations are drawn integral; the subtraction reintroduces
            # float noise because arrivals are continuous
            dur = it.departure - it.arrival
            assert 1.0 - 1e-9 <= dur <= 10.0 + 1e-9
            assert abs(dur - round(dur)) < 1e-6
            assert it.size.shape == (3,)
            assert np.all(it.size >= 1) and np.all(it.size <= 100)
            assert np.all(it.size == np.round(it.size))

    def test_uniform_stream_limit(self):
        gen = UniformWorkload(d=1, n=100, mu=5)
        assert len(list(gen.stream_seeded(0, limit=10))) == 10

    def test_streamed_items_replay_through_engine(self):
        # a stream is a valid engine input end to end: build the same
        # items as a materialised instance and check bit-identity
        gen = PoissonWorkload(d=2, rate=10.0, horizon=40.0)
        items = list(gen.stream_seeded(21))
        inst = Instance(items, capacity=gen.capacity, name="streamed")
        classic = run("first_fit", inst)
        engine = StreamingEngine(
            make_algorithm("first_fit"), gen.capacity, record_assignment=True
        )
        result = engine.run(iter(items))
        assert dict(result.assignment) == dict(classic.assignment)
        assert result.cost == pytest.approx(classic.cost, abs=1e-9)


# ----------------------------------------------------------------------
# deep property sweep (fuzz job only)
# ----------------------------------------------------------------------
@pytest.mark.fuzz
@given(inst=instances(max_items=30, jitter=True), policy=policies())
@settings(max_examples=150)
def test_streaming_bit_identity_fuzz(inst, policy):
    classic = run(make_algorithm(policy, **_kwargs(policy)), inst)
    streamed = streaming_run(make_algorithm(policy, **_kwargs(policy)), inst)
    assert streamed.cost == classic.cost
    assert dict(streamed.assignment) == dict(classic.assignment)
