"""Tests for simulation traces and instance profiling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.first_fit import FirstFit
from repro.algorithms.random_fit import RandomFit
from repro.core.instance import Instance
from repro.core.items import Item
from repro.simulation.engine import simulate
from repro.simulation.trace import TraceRecorder
from repro.workloads.describe import describe_instance, render_description
from repro.workloads.uniform import UniformWorkload


class TestTraceRecorder:
    def test_record_counts(self, tiny_instance):
        rec = TraceRecorder()
        simulate(FirstFit(), tiny_instance, observers=[rec])
        kinds = [r.kind for r in rec.records]
        assert kinds.count("pack") == 3
        assert kinds.count("depart") == 3
        assert kinds.count("open") == len([r for r in rec.packs() if r.flag])

    def test_pack_loads_match_replay(self, uniform_small):
        rec = TraceRecorder()
        packing = simulate(FirstFit(), uniform_small, observers=[rec])
        # the last 'depart' record of each bin must have zero load
        last_depart = {}
        for r in rec.records:
            if r.kind == "depart":
                last_depart[r.bin_index] = r
        for r in last_depart.values():
            if r.flag:  # closed
                assert all(abs(x) < 1e-9 for x in r.load_after)

    def test_records_name_the_policy_and_follow_the_clock(self, tiny_instance):
        """Records arrive in time order, each bin's open record comes just
        before the pack that opened it, and the recorder names the policy."""
        rec = TraceRecorder()
        packing = simulate(FirstFit(), tiny_instance, observers=[rec])
        assert rec.algorithm_name == "first_fit"
        times = [r.time for r in rec.records]
        assert times == sorted(times)
        assert [r.bin_index for r in rec.opens()] == list(range(packing.num_bins))
        for before, after in zip(rec.records, rec.records[1:]):
            if before.kind == "open":
                assert (after.kind, after.bin_index, after.flag) == ("pack", before.bin_index, True)
        closing = [r for r in rec.records if r.kind == "depart" and r.flag]
        assert sorted(r.bin_index for r in closing) == list(range(packing.num_bins))

    def test_load_after_is_the_bin_load(self, uniform_small):
        """Every pack and depart record carries the bin's load right after
        it, as a replay of the records' items recomputes it."""
        rec = TraceRecorder()
        simulate(FirstFit(), uniform_small, observers=[rec])
        size = {it.uid: it.size for it in uniform_small.items}
        loads = {}
        for r in rec.records:
            if r.kind == "open":
                loads[r.bin_index] = np.zeros(uniform_small.d)
                assert r.load_after == tuple(loads[r.bin_index])
                continue
            sign = 1.0 if r.kind == "pack" else -1.0
            loads[r.bin_index] = loads[r.bin_index] + sign * size[r.item_uid]
            assert np.allclose(r.load_after, loads[r.bin_index], atol=1e-12)

    def test_deterministic_policy_identical_traces(self, uniform_small):
        a, b = TraceRecorder(), TraceRecorder()
        simulate(FirstFit(), uniform_small, observers=[a])
        simulate(FirstFit(), uniform_small, observers=[b])
        assert a.records == b.records

    def test_seeded_random_fit_identical_traces(self, uniform_small):
        a, b = TraceRecorder(), TraceRecorder()
        simulate(RandomFit(seed=4), uniform_small, observers=[a])
        simulate(RandomFit(seed=4), uniform_small, observers=[b])
        assert a.records == b.records

    def test_different_policies_different_traces(self):
        from repro.algorithms.last_fit import LastFit

        inst = Instance(
            [Item(0, 9, np.array([0.5]), 0), Item(0, 9, np.array([0.6]), 1),
             Item(0, 9, np.array([0.3]), 2)]
        )
        a, b = TraceRecorder(), TraceRecorder()
        simulate(FirstFit(), inst, observers=[a])
        simulate(LastFit(), inst, observers=[b])
        assert a.records != b.records


class TestDescribe:
    def test_profile_basic_fields(self, uniform_small):
        p = describe_instance(uniform_small)
        assert p.n == uniform_small.n
        assert p.d == uniform_small.d
        assert p.mu == pytest.approx(uniform_small.mu)
        assert p.span == pytest.approx(uniform_small.span)

    def test_duration_stats_ordered(self, uniform_small):
        p = describe_instance(uniform_small)
        assert p.duration_median <= p.duration_p95 + 1e-9
        assert 0 < p.duration_mean <= p.duration_p95 * 2

    def test_peak_load_at_least_mean(self, uniform_small):
        p = describe_instance(uniform_small)
        for peak, mean in zip(p.peak_load, p.time_weighted_load_mean):
            assert peak >= mean - 1e-9

    def test_concurrency_sane(self):
        # two fully overlapping items: concurrency exactly 2 throughout
        inst = Instance(
            [Item(0, 4, np.array([0.2]), 0), Item(0, 4, np.array([0.2]), 1)]
        )
        p = describe_instance(inst)
        assert p.concurrency_mean == pytest.approx(2.0)
        assert p.concurrency_p95 == pytest.approx(2.0)

    def test_normalises_capacity(self):
        inst = UniformWorkload(d=2, n=50, mu=5, T=30, B=100).sample_seeded(0)
        p = describe_instance(inst)
        assert 0 < p.max_demand_mean <= 1.0  # fractions of capacity

    def test_render_mentions_key_lines(self, uniform_small):
        text = render_description(uniform_small)
        assert "durations" in text and "peak load" in text

    def test_as_dict_round(self, uniform_small):
        d = describe_instance(uniform_small).as_dict()
        assert d["n"] == uniform_small.n and "peak_load" in d
