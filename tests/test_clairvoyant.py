"""Tests for the clairvoyant extension algorithms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.clairvoyant import AlignmentBestFit, DurationClassifiedFirstFit
from repro.core.errors import ConfigurationError
from repro.core.instance import Instance
from repro.core.items import Item
from repro.simulation.engine import simulate
from repro.simulation.runner import run
from repro.workloads.poisson import PoissonWorkload
from repro.workloads.distributions import DirichletSize, ParetoDuration


class TestDurationClassifiedFirstFit:
    def test_valid_packing(self, uniform_small):
        run(DurationClassifiedFirstFit(), uniform_small, validate=True)

    def test_classes_never_mix(self):
        # short (duration 1) and long (duration 100) items must never
        # share a bin even when they'd fit together
        items = []
        for i in range(4):
            items.append(Item(0.0, 1.0, np.array([0.1]), 2 * i))
            items.append(Item(0.0, 100.0, np.array([0.1]), 2 * i + 1))
        inst = Instance(sorted(items, key=lambda it: it.arrival))
        packing = simulate(DurationClassifiedFirstFit(), inst)
        by_uid = {it.uid: it for it in inst.items}
        for rec in packing.bins:
            durations = {by_uid[u].duration for u in rec.item_uids}
            assert durations in ({1.0}, {100.0})

    def test_same_class_items_share(self):
        items = [Item(0.0, 2.0, np.array([0.3]), i) for i in range(3)]
        inst = Instance(items)
        packing = simulate(DurationClassifiedFirstFit(), inst)
        assert packing.num_bins == 1

    def test_base_validation(self):
        with pytest.raises(ConfigurationError):
            DurationClassifiedFirstFit(base=1.0)

    def test_beats_first_fit_under_heavy_load_heavy_tail(self):
        """Duration classification pays off when load is heavy and
        durations heavy-tailed (many bins open anyway, so the alignment
        gain beats the class-separation overhead).  At light load it
        loses - see `examples/clairvoyant_study.py` for the full
        crossover picture."""
        gen = PoissonWorkload(
            d=2,
            rate=25.0,
            horizon=60,
            durations=ParetoDuration(alpha=1.1, floor=1, cap=500),
            sizes=DirichletSize(min_mag=0.1, max_mag=0.9),
        )
        dc_total = ff_total = 0.0
        for seed in range(3):
            inst = gen.sample_seeded(seed)
            dc_total += run(DurationClassifiedFirstFit(base=4.0), inst).cost
            ff_total += run("first_fit", inst).cost
        assert dc_total < ff_total


class TestAlignmentBestFit:
    def test_valid_packing(self, uniform_small):
        run(AlignmentBestFit(), uniform_small, validate=True)

    def test_prefers_aligned_departures(self):
        # two open bins: one with an item departing at 10, one at 2;
        # a new item departing at 10.2 should join the t=10 bin
        items = [
            Item(0.0, 10.0, np.array([0.4]), 0),
            Item(0.0, 2.0, np.array([0.7]), 1),  # forced into a second bin
            Item(1.0, 10.2, np.array([0.2]), 2),
        ]
        inst = Instance(items)
        packing = simulate(AlignmentBestFit(), inst)
        assert packing.assignment[2] == packing.assignment[0]

    def test_is_any_fit(self):
        """AlignmentBestFit never opens a bin when one fits."""
        from tests.test_anyfit_property import assert_any_fit_property
        from repro.workloads.uniform import UniformWorkload

        inst = UniformWorkload(d=2, n=80, mu=8, T=50, B=10).sample_seeded(2)
        packing = run(AlignmentBestFit(), inst)
        assert_any_fit_property(packing)
