"""Unit tests for repro.core.bins."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bins import Bin
from repro.core.errors import CapacityExceededError
from repro.core.intervals import Interval
from repro.core.items import Item


def make_bin(d=1, index=0, opened_at=0.0, capacity=None):
    cap = np.ones(d) if capacity is None else np.asarray(capacity, dtype=float)
    return Bin(cap, index=index, opened_at=opened_at)


class TestLifecycle:
    def test_new_bin_is_open_and_empty(self):
        b = make_bin()
        assert b.is_open and b.is_empty
        assert b.num_active == 0

    def test_pack_updates_load(self):
        b = make_bin(d=2)
        b.pack(Item(0, 1, np.array([0.3, 0.4]), 0))
        assert np.allclose(b.load, [0.3, 0.4])
        assert b.num_active == 1

    def test_pack_appends_history(self):
        b = make_bin()
        it = Item(0, 1, np.array([0.3]), 0)
        b.pack(it)
        assert b.history == [it]

    def test_remove_recomputes_load(self):
        b = make_bin()
        a = Item(0, 2, np.array([0.3]), 0)
        c = Item(0, 1, np.array([0.4]), 1)
        b.pack(a)
        b.pack(c)
        closed = b.remove(c, now=1.0)
        assert not closed
        assert np.allclose(b.load, [0.3])

    def test_last_removal_closes(self):
        b = make_bin()
        it = Item(0, 1, np.array([0.3]), 0)
        b.pack(it)
        assert b.remove(it, now=1.0)
        assert not b.is_open
        assert b.closed_at == 1.0

    def test_remove_unknown_item_raises(self):
        b = make_bin()
        with pytest.raises(KeyError):
            b.remove(Item(0, 1, np.array([0.3]), 99), now=1.0)

    def test_double_pack_same_uid_rejected(self):
        b = make_bin()
        it = Item(0, 1, np.array([0.1]), 0)
        b.pack(it)
        with pytest.raises(CapacityExceededError):
            b.pack(it)


class TestCapacity:
    def test_overfull_pack_rejected(self):
        b = make_bin()
        b.pack(Item(0, 1, np.array([0.7]), 0))
        with pytest.raises(CapacityExceededError):
            b.pack(Item(0, 1, np.array([0.4]), 1))

    def test_exact_fill_allowed(self):
        b = make_bin()
        b.pack(Item(0, 1, np.array([0.7]), 0))
        b.pack(Item(0, 1, np.array([0.3]), 1))
        assert np.allclose(b.load, [1.0])

    def test_per_dimension_blocking(self):
        b = make_bin(d=2)
        b.pack(Item(0, 1, np.array([0.9, 0.1]), 0))
        assert not b.can_fit(Item(0, 1, np.array([0.2, 0.1]), 1))
        assert b.can_fit(Item(0, 1, np.array([0.1, 0.8]), 2))

    def test_nonunit_capacity(self):
        b = make_bin(d=1, capacity=[100.0])
        b.pack(Item(0, 1, np.array([60.0]), 0))
        assert b.can_fit(Item(0, 1, np.array([40.0]), 1))
        assert not b.can_fit(Item(0, 1, np.array([41.0]), 2))

    def test_float_accumulation_does_not_drift(self):
        # pack/remove many times; load must return to exactly zero-ish
        b = make_bin(capacity=[1.0])
        for i in range(50):
            it = Item(0, 1, np.array([0.1]), i)
            b.pack(it)
            b.remove(it, now=0.5)
            b.closed_at = None  # reopen for the test's purposes
        assert b.load[0] == 0.0


class TestUsageAccounting:
    def test_usage_period_closed(self):
        b = make_bin(opened_at=2.0)
        it = Item(2, 5, np.array([0.3]), 0)
        b.pack(it)
        b.remove(it, now=5.0)
        assert b.usage_period == Interval(2.0, 5.0)
        assert b.usage_time == 3.0

    def test_usage_period_open_uses_latest_departure(self):
        b = make_bin(opened_at=1.0)
        b.pack(Item(1, 4, np.array([0.3]), 0))
        b.pack(Item(1, 9, np.array([0.3]), 1))
        assert b.usage_period == Interval(1.0, 9.0)

    def test_active_queries(self):
        b = make_bin()
        a = Item(0, 2, np.array([0.1]), 5)
        b.pack(a)
        assert b.active_uids() == {5}
        assert b.active_items() == [a]


# ----------------------------------------------------------------------
# latest_departure: the O(1) end of an open bin's usage period
# ----------------------------------------------------------------------
def history_usage_period(b):
    """The usage period by definition: an open bin ends at the latest
    departure among every item ever packed into it."""
    if b.closed_at is not None:
        return Interval(b.opened_at, b.closed_at)
    return Interval(b.opened_at, max((it.departure for it in b.history), default=b.opened_at))


def assert_usage_matches_history(b):
    period = history_usage_period(b)
    assert b.usage_period == period
    assert b.usage_time == period.length
    assert b.usage_time.hex() == float(period.length).hex()


class TestLatestDeparture:
    def test_new_bin_ends_where_it_opened(self):
        b = make_bin(opened_at=3.5)
        assert b.latest_departure == 3.5
        assert_usage_matches_history(b)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_pack_remove_sequences(self, seed):
        rng = np.random.default_rng(seed)
        now = float(rng.integers(0, 5))
        b = make_bin(d=2, opened_at=now)
        resident = []
        uid = 0
        for _ in range(int(rng.integers(1, 40))):
            if resident and (rng.random() < 0.4 or b.load.max() > 0.8):
                it = resident.pop(int(rng.integers(len(resident))))
                closed = b.remove(it, now=it.departure)
                assert_usage_matches_history(b)
                if closed:
                    break
                continue
            it = Item(now, now + float(rng.uniform(0.1, 10.0)), rng.uniform(0.0, 0.2, 2), uid)
            uid += 1
            b.pack(it)
            resident.append(it)
            assert_usage_matches_history(b)
            now += float(rng.uniform(0.0, 1.0))

    @pytest.mark.parametrize("seed", range(10))
    def test_after_repacking_moves(self, seed):
        from repro.algorithms.first_fit import FirstFit
        from repro.simulation.live import LivePacking

        rng = np.random.default_rng(100 + seed)
        core = LivePacking(FirstFit(), np.ones(2))
        bins = []
        now = 0.0
        for uid in range(40):
            now += float(rng.uniform(0.0, 0.5))
            for live_uid in [u for u, (it, _) in core.live.items() if it.departure <= now]:
                core.depart(live_uid, core.live[live_uid][0].departure)
            item = Item(now, now + float(rng.uniform(0.5, 6.0)), rng.uniform(0.05, 0.5, 2), uid)
            target = core.place(item, now)
            if target.index == len(bins):
                bins.append(target)
            if core.live and rng.random() < 0.5:
                mover = list(core.live)[int(rng.integers(len(core.live)))]
                size = core.live[mover][0].size
                dst = [b for b in core.open.values()
                       if b is not core.live[mover][1] and np.all(b.load + size <= 1.0)]
                if dst:
                    core.move(mover, dst[0], now)
            for b in bins:
                assert_usage_matches_history(b)

    def test_stream_bin_keeps_no_history_and_the_same_period(self):
        from repro.streaming.engine import StreamBin

        plain, stream = make_bin(opened_at=1.0), StreamBin(np.ones(1), index=0, opened_at=1.0)
        a, b = Item(1, 9, np.array([0.3]), 0), Item(1, 4, np.array([0.3]), 1)
        for bin_ in (plain, stream):
            bin_.pack(a)
            bin_.pack(b)
            bin_.remove(b, now=4.0)
        assert stream.history == [] and len(plain.history) == 2
        assert stream.latest_departure == plain.latest_departure == 9
        assert stream.usage_period == plain.usage_period == Interval(1.0, 9.0)
        assert not hasattr(stream, "__dict__")
