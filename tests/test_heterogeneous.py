"""Tests for the heterogeneous-fleet extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bins import Bin
from repro.core.errors import AlgorithmError, ConfigurationError, PackingAuditError
from repro.core.instance import Instance
from repro.core.items import Item
from repro.heterogeneous import (
    DEFAULT_FLEET,
    Fleet,
    ServerType,
    TypedAnyFit,
    TypedEngine,
    typed_run,
)
from repro.simulation.runner import run
from repro.workloads.distributions import DirichletSize
from repro.workloads.poisson import PoissonWorkload
from repro.workloads.uniform import UniformWorkload

#: (typed selection, classic policy it equals on a one-type unit-rate fleet)
TWINS = [("recent", "move_to_front"), ("first", "first_fit")]
SELECTIONS = ["recent", "first", "cheapest_rate"]


@pytest.fixture
def workload_instance():
    gen = PoissonWorkload(d=2, rate=1.0, horizon=40,
                          sizes=DirichletSize(min_mag=0.05, max_mag=0.8))
    return gen.sample_seeded(1)


def _shift_uids(instance, by):
    """``instance`` with every uid moved up by ``by``."""
    return Instance(
        [Item(it.arrival, it.departure, it.size, it.uid + by) for it in instance.items],
        capacity=instance.capacity,
    )


def _unit_fleet_of(instance, rate=1.0):
    """One server type of ``instance``'s own capacity."""
    return Fleet([ServerType("unit", tuple(instance.capacity.tolist()), rate)])


def _scaled(instance, factor):
    """``instance`` on bins ``factor`` times as large, items scaled alike."""
    return Instance(
        [Item(it.arrival, it.departure, it.size * factor, it.uid) for it in instance.items],
        capacity=instance.capacity * factor,
    )


#: instances with a non-trivial packing: d = 1 and d = 3 uniform, and
#: d = 2 Poisson on bins of capacity 4
CLASSIC_RECIPES = {
    "uniform-d1": lambda: UniformWorkload(d=1, n=150, mu=10, T=60, B=10).sample_seeded(3),
    "uniform-d3": lambda: UniformWorkload(d=3, n=150, mu=10, T=60, B=10).sample_seeded(4),
    "poisson-cap4": lambda: _scaled(
        PoissonWorkload(d=2, rate=2.0, horizon=40,
                        sizes=DirichletSize(min_mag=0.05, max_mag=0.8)).sample_seeded(2),
        4.0,
    ),
}


class TestServerType:
    def test_basic_properties(self):
        t = ServerType("big", (2.0, 4.0), 3.0)
        assert t.d == 2
        assert t.cost_density == pytest.approx(3.0 / 4.0)

    def test_fits_item(self):
        t = ServerType("small", (1.0, 1.0), 1.0)
        assert t.fits_item(Item(0, 1, np.array([1.0, 0.5]), 0))
        assert not t.fits_item(Item(0, 1, np.array([1.1, 0.5]), 0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServerType("bad", (0.0,), 1.0)
        with pytest.raises(ConfigurationError):
            ServerType("bad", (1.0,), 0.0)


class TestFleet:
    def test_default_fleet_shape(self):
        assert len(DEFAULT_FLEET) == 3
        assert DEFAULT_FLEET.d == 2

    def test_cheapest_feasible(self):
        item = Item(0, 1, np.array([1.5, 0.5]), 0)  # too big for "small"
        t = DEFAULT_FLEET.cheapest_feasible(item)
        assert t.name == "large"

    def test_best_value_prefers_scale(self):
        item = Item(0, 1, np.array([0.5, 0.5]), 0)
        t = DEFAULT_FLEET.best_value_feasible(item)
        assert t.name == "xlarge"  # lowest cost density in DEFAULT_FLEET

    def test_infeasible_item_rejected(self):
        item = Item(0, 1, np.array([100.0, 0.1]), 0)
        with pytest.raises(ConfigurationError):
            DEFAULT_FLEET.cheapest_feasible(item)

    def test_by_name(self):
        assert DEFAULT_FLEET.by_name("small").cost_rate == 1.0
        with pytest.raises(KeyError):
            DEFAULT_FLEET.by_name("teapot")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Fleet([])
        with pytest.raises(ConfigurationError):
            Fleet([ServerType("a", (1.0,), 1.0), ServerType("a", (2.0,), 1.0)])
        with pytest.raises(ConfigurationError):
            Fleet([ServerType("a", (1.0,), 1.0), ServerType("b", (1.0, 1.0), 1.0)])


class TestTypedRuns:
    @pytest.mark.parametrize("opening_rule", ["cheapest", "best_value"])
    @pytest.mark.parametrize("selection", ["recent", "first", "cheapest_rate"])
    def test_all_policy_combinations_feasible(
        self, workload_instance, opening_rule, selection
    ):
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule=opening_rule,
                           selection=selection)
        packing = typed_run(algo, workload_instance, validate=True)
        assert packing.cost > 0
        assert set(packing.assignment) == {it.uid for it in workload_instance.items}

    def test_cost_is_rate_weighted(self):
        # one item on a "large" (rate 1.8) for 2 time units
        inst = Instance([Item(0, 2, np.array([1.5, 0.5]), 0)], capacity=[4.0, 4.0])
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest")
        packing = typed_run(algo, inst)
        assert packing.bins[0].type_name == "large"
        assert packing.cost == pytest.approx(2 * 1.8)

    def test_oversized_per_type_items_split_across_types(self):
        # items of max demand 1.5 can never use "small"
        inst = Instance(
            [Item(0, 1, np.array([1.5, 0.2]), i) for i in range(4)],
            capacity=[4.0, 4.0],
        )
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest")
        packing = typed_run(algo, inst, validate=True)
        assert all(rec.type_name in ("large", "xlarge") for rec in packing.bins)

    def test_any_fit_property_across_types(self, workload_instance):
        """A new server is opened only when no open server fits."""
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest")
        packing = typed_run(algo, workload_instance)
        # replay chronologically
        from repro.core.events import EventKind, event_stream
        from repro.core.vectors import EPS

        caps = {rec.index: DEFAULT_FLEET.by_name(rec.type_name).capacity_array
                for rec in packing.bins}
        loads, members = {}, {}
        for ev in event_stream(workload_instance):
            b = packing.assignment[ev.item.uid]
            if ev.kind is EventKind.DEPARTURE:
                members[b].discard(ev.item.uid)
                loads[b] = loads[b] - ev.item.size
                if not members[b]:
                    del members[b], loads[b]
                continue
            if b not in loads:
                for other, load in loads.items():
                    cap = caps[other]
                    slack = cap + EPS * np.maximum(cap, 1.0)
                    assert np.any(load + ev.item.size > slack), (
                        f"typed Any Fit violated at item {ev.item.uid}"
                    )
                loads[b] = np.zeros(workload_instance.d)
                members[b] = set()
            loads[b] = loads[b] + ev.item.size
            members[b].add(ev.item.uid)

    def test_single_type_fleet_matches_homogeneous_mf(self, workload_instance):
        """With one unit-capacity type at unit rate, recency selection is
        exactly Move To Front and opening-order selection First Fit."""
        fleet = Fleet([ServerType("unit", (1.0, 1.0), 1.0)])
        for selection, policy in TWINS:
            typed = typed_run(
                TypedAnyFit(fleet, opening_rule="cheapest", selection=selection),
                workload_instance,
            )
            plain = run(policy, workload_instance)
            assert typed.assignment == dict(plain.assignment)
            assert float.hex(typed.cost) == float.hex(plain.cost)

    def test_uids_need_not_be_positions(self, workload_instance):
        """Shifting every uid by 1000 changes the labels only: the same
        bins, types, usage periods and bill."""
        shifted = _shift_uids(workload_instance, 1000)
        plain = typed_run(TypedAnyFit(DEFAULT_FLEET), workload_instance)
        moved = typed_run(TypedAnyFit(DEFAULT_FLEET), shifted, validate=True)
        assert moved.assignment == {
            uid + 1000: index for uid, index in plain.assignment.items()
        }
        assert [
            (r.index, r.type_name, r.opened_at, r.closed_at) for r in moved.bins
        ] == [(r.index, r.type_name, r.opened_at, r.closed_at) for r in plain.bins]
        assert [r.item_uids for r in moved.bins] == [
            tuple(uid + 1000 for uid in r.item_uids) for r in plain.bins
        ]
        assert float.hex(moved.cost) == float.hex(plain.cost)

    def test_engine_single_use(self, workload_instance):
        engine = TypedEngine(workload_instance, TypedAnyFit(DEFAULT_FLEET))
        engine.run()
        with pytest.raises(AlgorithmError):
            engine.run()

    def test_dimension_mismatch_rejected(self):
        inst = Instance([Item(0, 1, np.array([0.5]), 0)])
        with pytest.raises(ConfigurationError):
            TypedEngine(inst, TypedAnyFit(DEFAULT_FLEET))

    def test_invalid_policy_options(self):
        with pytest.raises(ConfigurationError):
            TypedAnyFit(DEFAULT_FLEET, opening_rule="random")
        with pytest.raises(ConfigurationError):
            TypedAnyFit(DEFAULT_FLEET, selection="middle")

    def test_validate_catches_corruption(self, workload_instance):
        algo = TypedAnyFit(DEFAULT_FLEET)
        packing = typed_run(algo, workload_instance)
        bad = TypedPacking = type(packing)(
            instance=packing.instance,
            fleet=packing.fleet,
            assignment={**packing.assignment, workload_instance[0].uid: 9999},
            bins=packing.bins,
            algorithm=packing.algorithm,
        )
        # mangled assignment still covers uids, so corrupt a bin's type
        from repro.heterogeneous.engine import TypedBinRecord

        shrunk = tuple(
            TypedBinRecord(r.index, "small", r.cost_rate, r.opened_at,
                           r.closed_at, r.item_uids)
            for r in packing.bins
        )
        candidate = type(packing)(
            instance=packing.instance, fleet=packing.fleet,
            assignment=packing.assignment, bins=shrunk,
            algorithm=packing.algorithm,
        )
        # shrinking every bin to "small" must break some capacity check
        # whenever the original run used a bigger type
        if any(r.type_name != "small" for r in packing.bins):
            with pytest.raises(PackingAuditError):
                candidate.validate()


class TestTypedOnClassicEngine:
    """``TypedEngine`` is the classic ``Engine`` replay: the policy opens
    bins through the core's callback with its type's capacity, and the
    typed records are the classic records plus each bin's type."""

    @pytest.mark.parametrize("recipe", sorted(CLASSIC_RECIPES))
    @pytest.mark.parametrize("selection,policy", TWINS)
    def test_unit_fleet_replays_the_classic_policy(self, selection, policy, recipe):
        inst = CLASSIC_RECIPES[recipe]()
        typed = typed_run(
            TypedAnyFit(_unit_fleet_of(inst), opening_rule="cheapest", selection=selection),
            inst,
            validate=True,
        )
        plain = run(policy, inst)
        assert plain.num_bins > 1
        assert typed.assignment == dict(plain.assignment)
        assert [(r.index, r.opened_at, r.closed_at, r.item_uids) for r in typed.bins] == [
            (r.index, r.opened_at, r.closed_at, r.item_uids) for r in plain.bins
        ]
        assert {r.type_name for r in typed.bins} == {"unit"}
        assert float.hex(typed.cost) == float.hex(plain.cost)

    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_shifted_uids_give_the_same_bill(self, workload_instance, selection):
        def policy():
            return TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest", selection=selection)

        plain = typed_run(policy(), workload_instance)
        moved = typed_run(policy(), _shift_uids(workload_instance, 1000), validate=True)
        assert moved.assignment == {
            uid + 1000: index for uid, index in plain.assignment.items()
        }
        assert [(r.index, r.type_name, r.opened_at, r.closed_at) for r in moved.bins] == [
            (r.index, r.type_name, r.opened_at, r.closed_at) for r in plain.bins
        ]
        assert float.hex(moved.cost) == float.hex(plain.cost)

    @pytest.mark.parametrize(
        "type_capacity,expected_bins",
        [((1.0, 1.0), 3), ((1.5, 1.5), 2), ((2.0, 2.0), 1)],
    )
    def test_each_bin_has_its_type_capacity(self, type_capacity, expected_bins):
        """Bins hold what their type holds, not what the instance's
        capacity would: three concurrent 0.6-wide items on capacity-4
        instance bins share one bin only if the type is that large."""
        inst = Instance(
            [Item(0.0, 5.0, np.array([0.6, 0.3]), i) for i in range(3)],
            capacity=[4.0, 4.0],
        )
        fleet = Fleet([ServerType("only", type_capacity, 1.0)])
        packing = typed_run(TypedAnyFit(fleet, opening_rule="cheapest"), inst, validate=True)
        assert packing.num_bins == expected_bins
        assert packing.cost == pytest.approx(5.0 * expected_bins)

    def test_dispatch_opens_bins_only_through_the_callback(self):
        algo = TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest")
        algo.start(Instance([Item(0, 1, np.array([0.1, 0.1]), 0)], capacity=[4.0, 4.0]))
        asked = []

        def open_new_bin(capacity=None):
            asked.append(capacity)
            return Bin(capacity, index=len(asked) - 1, opened_at=0.0)

        big = Item(0, 1, np.array([1.5, 0.5]), 0)  # too big for "small"
        fresh = algo.dispatch(big, 0.0, open_new_bin)
        fresh.pack(big)
        assert len(asked) == 1
        assert np.array_equal(asked[0], DEFAULT_FLEET.by_name("large").capacity_array)
        assert np.array_equal(fresh.capacity, asked[0])

        def no_open(capacity=None):
            pytest.fail("opened a bin although an open one fits")

        assert algo.dispatch(Item(0, 1, np.array([0.1, 0.1]), 1), 0.0, no_open) is fresh
        assert [t.name for t in algo.bin_types] == ["large"]

    def test_reused_policy_starts_afresh(self, workload_instance):
        """``start`` clears ``L`` and the recorded bin types, so a policy
        object run twice gives a fresh policy's second packing."""
        other = PoissonWorkload(d=2, rate=1.0, horizon=40,
                                sizes=DirichletSize(min_mag=0.05, max_mag=0.8)).sample_seeded(2)
        reused = TypedAnyFit(DEFAULT_FLEET)
        typed_run(reused, workload_instance)
        again = typed_run(reused, other, validate=True)
        fresh = typed_run(TypedAnyFit(DEFAULT_FLEET), other)
        assert len(reused.bin_types) == fresh.num_bins
        assert again.assignment == fresh.assignment
        assert again.bins == fresh.bins

    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_each_bin_spans_its_items(self, workload_instance, selection):
        """A typed record's usage period runs from its first arrival to
        its last departure, and the records partition the items."""
        packing = typed_run(
            TypedAnyFit(DEFAULT_FLEET, selection=selection), workload_instance
        )
        by_uid = {it.uid: it for it in workload_instance.items}
        assert [r.index for r in packing.bins] == list(range(packing.num_bins))
        seen = []
        for rec in packing.bins:
            items = [by_uid[uid] for uid in rec.item_uids]
            assert rec.opened_at == min(it.arrival for it in items)
            assert rec.closed_at == max(it.departure for it in items)
            assert rec.cost_rate == DEFAULT_FLEET.by_name(rec.type_name).cost_rate
            assert all(packing.assignment[uid] == rec.index for uid in rec.item_uids)
            seen.extend(rec.item_uids)
        assert sorted(seen) == sorted(by_uid)

    def test_one_type_bill_scales_with_its_rate(self, workload_instance):
        """At rate 2.5 a one-type fleet packs as Move To Front and bills
        2.5 times each bin's usage."""
        typed = typed_run(
            TypedAnyFit(_unit_fleet_of(workload_instance, rate=2.5),
                        opening_rule="cheapest"),
            workload_instance,
        )
        plain = run("move_to_front", workload_instance)
        assert typed.assignment == dict(plain.assignment)
        for rec, classic in zip(typed.bins, plain.bins):
            assert rec.cost == 2.5 * (classic.closed_at - classic.opened_at)
        assert typed.cost == pytest.approx(2.5 * plain.cost)

    def test_bins_of_type_partition_the_bins(self, workload_instance):
        packing = typed_run(
            TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest"), workload_instance
        )
        groups = [packing.bins_of_type(t.name) for t in DEFAULT_FLEET.types]
        assert sum(len(g) for g in groups) == packing.num_bins
        assert sorted(r.index for g in groups for r in g) == list(range(packing.num_bins))
        assert packing.bins_of_type("teapot") == []


class TestEconomics:
    def test_best_value_beats_cheapest_under_heavy_load(self):
        """With heavy load, economies of scale win: opening big boxes is
        cheaper per unit of work."""
        gen = PoissonWorkload(d=2, rate=10.0, horizon=40,
                              sizes=DirichletSize(min_mag=0.1, max_mag=0.9))
        cheap_total = value_total = 0.0
        for seed in range(4):
            inst = gen.sample_seeded(seed)
            cheap_total += typed_run(
                TypedAnyFit(DEFAULT_FLEET, opening_rule="cheapest"), inst
            ).cost
            value_total += typed_run(
                TypedAnyFit(DEFAULT_FLEET, opening_rule="best_value"), inst
            ).cost
        assert value_total < cheap_total


class TestHeterogeneousProperties:
    """Hypothesis properties over random instances."""

    @staticmethod
    def _fleet():
        return Fleet(
            [
                ServerType("s", (1.0, 1.0), 1.0),
                ServerType("l", (2.5, 2.5), 2.0),
            ]
        )

    def test_feasible_on_random_instances(self):
        from hypothesis import HealthCheck, given, settings
        from tests.test_properties import instances

        @given(inst=instances(max_items=20, max_d=2))
        @settings(max_examples=20, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(inst):
            if inst.d != 2:
                return
            for rule in ("cheapest", "best_value"):
                algo = TypedAnyFit(self._fleet(), opening_rule=rule)
                packing = typed_run(algo, inst, validate=True)
                assert packing.cost > 0
                # typed cost is rate-weighted usage: at least span * min rate
                assert packing.cost >= inst.span * 1.0 - 1e-9

        check()

    def test_cost_at_least_homogeneous_lb_scaled(self):
        """With all rates >= 1 and the smallest capacity equal to the
        instance capacity, the typed bill is at least the homogeneous
        Lemma 1 span bound."""
        from repro.optimum.lower_bounds import span_lower_bound

        gen = PoissonWorkload(d=2, rate=2.0, horizon=30,
                              sizes=DirichletSize(min_mag=0.05, max_mag=0.8))
        for seed in range(3):
            inst = gen.sample_seeded(seed)
            packing = typed_run(TypedAnyFit(self._fleet()), inst)
            assert packing.cost >= span_lower_bound(inst) - 1e-9
