"""Unit tests for repro.core.packing (result object + audit)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import PackingAuditError
from repro.core.instance import Instance
from repro.core.intervals import Interval
from repro.core.items import Item
from repro.core.packing import BinRecord, Packing


@pytest.fixture
def simple_packing(tiny_instance):
    # items 0 and 1 together, item 2 alone — a feasible assignment
    return Packing.from_assignment(tiny_instance, {0: 0, 1: 0, 2: 1}, algorithm="hand")


class TestConstruction:
    def test_bins_derived_from_items(self, simple_packing):
        recs = {r.index: r for r in simple_packing.bins}
        assert recs[0].opened_at == 0.0 and recs[0].closed_at == 4.0
        assert recs[1].opened_at == 2.0 and recs[1].closed_at == 6.0

    def test_missing_assignment_rejected(self, tiny_instance):
        with pytest.raises(PackingAuditError):
            Packing.from_assignment(tiny_instance, {0: 0, 1: 0})

    def test_algorithm_label(self, simple_packing):
        assert simple_packing.algorithm == "hand"


class TestMetrics:
    def test_cost_is_sum_of_bin_spans(self, simple_packing):
        assert simple_packing.cost == pytest.approx(4.0 + 4.0)

    def test_num_bins(self, simple_packing):
        assert simple_packing.num_bins == 2

    def test_bins_open_at(self, simple_packing):
        assert simple_packing.bins_open_at(1.0) == 1
        assert simple_packing.bins_open_at(3.0) == 2
        assert simple_packing.bins_open_at(5.0) == 1
        assert simple_packing.bins_open_at(6.0) == 0  # half-open close

    def test_max_concurrent(self, simple_packing):
        assert simple_packing.max_concurrent_bins() == 2

    def test_items_in_bin(self, simple_packing):
        uids = [it.uid for it in simple_packing.items_in_bin(0)]
        assert uids == [0, 1]

    def test_bin_items_are_in_instance_order_not_packing_order(self):
        # an arrival may step back by less than EPS: uid 1 arrives (and
        # is packed) first, but the record lists the bin in instance order
        from repro.simulation.runner import run
        from repro.simulation.trace import TraceRecorder

        inst = Instance([
            Item(1.0, 5.0, np.array([0.3]), uid=0),
            Item(1.0 - 1e-12, 5.0, np.array([0.3]), uid=1),
        ])
        trace = TraceRecorder()
        packing = run("first_fit", inst, observers=[trace])
        assert [r.item_uid for r in trace.packs()] == [1, 0]
        assert packing.bins[0].item_uids == (0, 1)
        assert [it.uid for it in packing.items_in_bin(0)] == [0, 1]

    def test_items_in_unknown_bin(self, simple_packing):
        with pytest.raises(KeyError):
            simple_packing.items_in_bin(42)

    def test_average_utilization_in_unit_range(self, simple_packing):
        u = simple_packing.average_utilization()
        assert 0.0 < u <= 1.0

    def test_summary_keys(self, simple_packing):
        s = simple_packing.summary()
        assert {"algorithm", "cost", "num_bins", "span"} <= set(s)


def _peak_at_opening_times(packing):
    """``max_concurrent_bins`` by definition: the most bins open at any
    bin's opening time."""
    times = sorted({b.opened_at for b in packing.bins})
    return max((packing.bins_open_at(t) for t in times), default=0)


class TestMaxConcurrentBins:
    def test_matches_open_count_at_opening_times_on_corpus(self):
        from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
        from repro.simulation.runner import run
        from repro.verify.generators import corpus_list
        from repro.verify.harness import PROFILES

        for entry in corpus_list(60, seed=PROFILES["quick"].seed):
            for policy in PAPER_ALGORITHMS:
                packing = run(make_algorithm(policy), entry.instance)
                assert packing.max_concurrent_bins() == _peak_at_opening_times(
                    packing
                ), (entry.recipe, policy)

    def test_a_bin_closing_as_another_opens_is_not_counted(self):
        # bin 0 holds [0, 2) and bin 1 [0, 5); bins 2 and 3 open at 2,
        # the instant bin 0 closes
        inst = Instance([
            Item(0.0, 2.0, np.array([0.6]), 0),
            Item(0.0, 5.0, np.array([0.6]), 1),
            Item(2.0, 4.0, np.array([0.6]), 2),
            Item(2.0, 3.0, np.array([0.6]), 3),
        ])
        packing = Packing.from_assignment(inst, {0: 0, 1: 1, 2: 2, 3: 3})
        assert packing.bins_open_at(2.0) == 3
        assert packing.max_concurrent_bins() == 3 == _peak_at_opening_times(packing)

    def test_no_bins(self):
        packing = Packing(instance=None, assignment={}, bins=())
        assert packing.max_concurrent_bins() == 0


class TestAudit:
    def test_feasible_packing_validates(self, simple_packing):
        simple_packing.validate()

    def test_overfull_bin_caught(self, tiny_instance):
        # items 1 (0.4) and 2 (0.7) overlap on [2, 3): 1.1 > 1
        packing = Packing.from_assignment(tiny_instance, {0: 0, 1: 1, 2: 1})
        with pytest.raises(PackingAuditError):
            packing.validate()

    def test_overfull_multi_dim_caught(self, two_dim_instance):
        # items 0 and 1 conflict in dim 0
        packing = Packing.from_assignment(two_dim_instance, {0: 0, 1: 0, 2: 1, 3: 2})
        with pytest.raises(PackingAuditError):
            packing.validate()

    def test_cross_pairs_validate(self, two_dim_instance):
        # item 0 with item 2 (conflict-free across dims)
        packing = Packing.from_assignment(two_dim_instance, {0: 0, 2: 0, 1: 1, 3: 1})
        packing.validate()

    def test_tampered_usage_period_caught(self, tiny_instance):
        good = Packing.from_assignment(tiny_instance, {0: 0, 1: 0, 2: 1})
        bad_bins = tuple(
            BinRecord(r.index, r.opened_at, r.closed_at + 1.0, r.item_uids)
            for r in good.bins
        )
        bad = Packing(tiny_instance, good.assignment, bad_bins, "tampered")
        with pytest.raises(PackingAuditError):
            bad.validate()

    def test_sequential_reuse_is_feasible(self):
        # two items that never overlap can share a bin
        inst = Instance(
            [Item(0, 1, np.array([0.9]), 0), Item(1, 2, np.array([0.9]), 1)]
        )
        packing = Packing.from_assignment(inst, {0: 0, 1: 0})
        packing.validate()
        assert packing.cost == pytest.approx(2.0)


def test_cost_is_computed_once_and_equals_the_bin_sum(tiny_instance):
    packing = Packing.from_assignment(tiny_instance, {0: 0, 1: 0, 2: 1})
    first = packing.cost
    assert first == sum(b.usage_time for b in packing.bins)
    assert packing.cost is first  # cached on the frozen packing
    clone = Packing.from_assignment(tiny_instance, {0: 0, 1: 0, 2: 1})
    assert clone == packing  # the cache is not a field
