"""Unit tests for the discrete-event simulation engine."""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.algorithms.base import AnyFitAlgorithm, OnlineAlgorithm
from repro.algorithms.first_fit import FirstFit
from repro.core.errors import AlgorithmError, CapacityExceededError
from repro.core.instance import Instance
from repro.core.items import Item
from repro.simulation.engine import Engine, SimulationObserver, simulate
from repro.simulation.live import LivePacking


class RecordingObserver(SimulationObserver):
    """Collects every hook invocation for assertions."""

    def __init__(self):
        self.events: List[tuple] = []

    def on_start(self, instance, algorithm):
        self.events.append(("start", algorithm.name))

    def on_bin_opened(self, bin_, now):
        self.events.append(("open", bin_.index, now))

    def on_packed(self, bin_, item, now, opened_new):
        self.events.append(("pack", bin_.index, item.uid, now, opened_new))

    def on_departed(self, bin_, item, now, closed):
        self.events.append(("depart", bin_.index, item.uid, now, closed))

    def on_finish(self, packing):
        self.events.append(("finish", packing.num_bins))


class TestEngineBasics:
    def test_single_item(self):
        inst = Instance([Item(0, 1, np.array([0.5]), 0)])
        packing = simulate(FirstFit(), inst)
        assert packing.num_bins == 1
        assert packing.cost == pytest.approx(1.0)

    def test_cost_matches_bin_spans(self, tiny_instance):
        packing = simulate(FirstFit(), tiny_instance)
        assert packing.cost == pytest.approx(
            sum(r.usage_time for r in packing.bins)
        )

    def test_assignment_covers_all_items(self, uniform_small):
        packing = simulate(FirstFit(), uniform_small)
        assert set(packing.assignment) == {it.uid for it in uniform_small.items}

    def test_engine_is_single_use(self, tiny_instance):
        engine = Engine(tiny_instance, FirstFit())
        engine.run()
        with pytest.raises(AlgorithmError):
            engine.run()

    def test_algorithm_reusable_across_engines(self, tiny_instance, uniform_small):
        algo = FirstFit()
        p1 = simulate(algo, tiny_instance)
        p2 = simulate(algo, uniform_small)
        p1.validate()
        p2.validate()

    def test_bins_indexed_in_opening_order(self, uniform_small):
        packing = simulate(FirstFit(), uniform_small)
        opens = [r.opened_at for r in sorted(packing.bins, key=lambda r: r.index)]
        assert opens == sorted(opens)


class TestObserverHooks:
    def test_all_hooks_fire(self, tiny_instance):
        obs = RecordingObserver()
        simulate(FirstFit(), tiny_instance, observers=[obs])
        kinds = [e[0] for e in obs.events]
        assert kinds[0] == "start"
        assert kinds[-1] == "finish"
        assert kinds.count("pack") == 3
        assert kinds.count("depart") == 3

    def test_open_precedes_pack_for_new_bins(self, tiny_instance):
        obs = RecordingObserver()
        simulate(FirstFit(), tiny_instance, observers=[obs])
        seen_open = set()
        for e in obs.events:
            if e[0] == "open":
                seen_open.add(e[1])
            if e[0] == "pack" and e[4]:  # opened_new
                assert e[1] in seen_open

    def test_departures_report_closure(self):
        inst = Instance([Item(0, 1, np.array([0.5]), 0)])
        obs = RecordingObserver()
        simulate(FirstFit(), inst, observers=[obs])
        departs = [e for e in obs.events if e[0] == "depart"]
        assert departs == [("depart", 0, 0, 1.0, True)]


class TestEngineContracts:
    def test_double_open_rejected(self, tiny_instance):
        class DoubleOpener(AnyFitAlgorithm):
            name = "double_opener"

            def choose(self, item, candidates, now):
                return candidates[0]

            def dispatch(self, item, now, open_new_bin):
                open_new_bin()
                return open_new_bin()  # second open must raise

        with pytest.raises(AlgorithmError):
            simulate(DoubleOpener(), tiny_instance)

    def test_unoffered_bin_rejected(self, tiny_instance):
        from repro.core.bins import Bin

        class Rogue(AnyFitAlgorithm):
            name = "rogue"

            def choose(self, item, candidates, now):
                # returns a bin that was never offered
                return Bin(np.ones(1), index=99, opened_at=now)

        with pytest.raises(AlgorithmError):
            simulate(Rogue(), tiny_instance)

    def test_dispatch_before_start_rejected(self, tiny_instance):
        algo = FirstFit()
        with pytest.raises(AlgorithmError):
            algo.dispatch(tiny_instance[0], 0.0, lambda: None)

    def test_irrevocability(self, uniform_small):
        """Once packed, an item's bin never changes (engine guarantees it
        structurally; assert the assignment maps each uid exactly once)."""
        packing = simulate(FirstFit(), uniform_small)
        seen = {}
        for rec in packing.bins:
            for uid in rec.item_uids:
                assert uid not in seen, f"item {uid} appears in two bins"
                seen[uid] = rec.index
        assert seen == dict(packing.assignment)


class OpensSized(OnlineAlgorithm):
    """Opens a fresh bin for every item: of ``capacity`` when given, of
    the core's capacity otherwise."""

    name = "opens_sized"

    def __init__(self, capacity=None):
        self.capacity = capacity

    def start(self, instance):
        pass

    def dispatch(self, item, now, open_new_bin):
        if self.capacity is None:
            return open_new_bin()
        return open_new_bin(self.capacity)


class TestOpenNewBinCallback:
    """The core's ``open_new_bin`` callback builds a bin of the core's
    capacity unless the policy passes its own (a server type's)."""

    def test_bin_defaults_to_the_core_capacity(self):
        core = LivePacking(OpensSized(), np.ones(2))
        fresh = core.place(Item(0.0, 1.0, np.array([0.5, 0.5]), 0), 0.0)
        assert fresh.capacity is core.capacity
        assert core.open == {0: fresh}

    def test_policy_capacity_sizes_the_bin(self):
        core = LivePacking(OpensSized(np.array([2.0, 2.0])), np.ones(2))
        big = Item(0.0, 1.0, np.array([1.5, 0.5]), 0)  # over the core's capacity
        fresh = core.place(big, 0.0)
        assert list(fresh.capacity) == [2.0, 2.0]
        assert list(fresh.load) == [1.5, 0.5]
        assert list(core.capacity) == [1.0, 1.0]
        assert (core.next_index, core.stats.bins_opened) == (1, 1)

    def test_item_over_the_policy_capacity_is_refused(self):
        core = LivePacking(OpensSized(np.array([0.5, 0.5])), np.ones(2))
        with pytest.raises(CapacityExceededError):
            core.place(Item(0.0, 1.0, np.array([0.6, 0.1]), 0), 0.0)


class TestFastFallback:
    """``fast=True`` degradation: correct, surfaced, never silent."""

    def setup_method(self):
        from repro.simulation.engine import reset_fallback_warnings

        reset_fallback_warnings()

    def test_kernel_failure_degrades_to_classic(self, uniform_small, monkeypatch):
        import repro.simulation.fastpath as fastpath
        from repro.observability.stats import StatsCollector

        class Boom(Exception):
            pass

        def explode(*args, **kwargs):
            raise Boom("kernel blew up")

        monkeypatch.setattr(fastpath, "FastEngine", explode)
        collector = StatsCollector()
        reference = simulate(FirstFit(), uniform_small)
        with pytest.warns(RuntimeWarning, match="fast kernel failed"):
            packing = simulate(FirstFit(), uniform_small, fast=True,
                               collector=collector)
        assert dict(packing.assignment) == dict(reference.assignment)
        assert packing.cost == reference.cost
        assert collector.fastpath_fallbacks == 1
        # the aborted fast attempt must not have leaked partial counters
        assert collector.snapshot().deterministic_part() is not None

    def test_fallback_warns_once_per_cause(self, uniform_small, monkeypatch):
        import warnings

        import repro.simulation.fastpath as fastpath

        monkeypatch.setattr(fastpath, "FastEngine",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("x")))
        with pytest.warns(RuntimeWarning):
            simulate(FirstFit(), uniform_small, fast=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            simulate(FirstFit(), uniform_small, fast=True)

    def test_no_kernel_policy_falls_back_with_counter(self, uniform_small):
        from repro.observability.stats import StatsCollector

        class Custom(AnyFitAlgorithm):
            name = "custom_no_kernel"

            def choose(self, item, candidates, now):
                return candidates[0]

        collector = StatsCollector()
        with pytest.warns(RuntimeWarning, match="no fast kernel"):
            packing = simulate(Custom(), uniform_small, fast=True,
                               collector=collector)
        assert collector.fastpath_fallbacks == 1
        assert packing.num_bins >= 1

    def test_observers_force_classic_with_warning(self, uniform_small):
        obs = RecordingObserver()
        with pytest.warns(RuntimeWarning, match="observers requested"):
            packing = simulate(FirstFit(), uniform_small, fast=True,
                               observers=[obs])
        assert obs.events  # the classic engine really ran the hooks
        assert packing.num_bins >= 1

    def test_eligible_fast_run_matches_classic_bit_identically(self, uniform_small):
        classic = simulate(FirstFit(), uniform_small)
        fast = simulate(FirstFit(), uniform_small, fast=True)
        assert dict(fast.assignment) == dict(classic.assignment)
        assert fast.cost == classic.cost
