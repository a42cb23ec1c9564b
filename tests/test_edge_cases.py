"""Edge-case and numerical-stress tests across the stack.

Degenerate-but-legal inputs: single items, zero-size demands,
full-capacity items, huge time values, massive simultaneous batches,
float-hostile sizes.  Every algorithm must stay feasible and every
invariant must survive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.core.errors import InvalidInstanceError
from repro.core.instance import Instance
from repro.core.items import Item
from repro.optimum.lower_bounds import height_lower_bound
from repro.optimum.opt_cost import optimum_cost
from repro.simulation.runner import run


class TestDegenerateInstances:
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_single_item(self, algorithm):
        inst = Instance([Item(0, 1, np.array([1.0]), 0)])
        packing = run(make_algorithm(algorithm), inst, validate=True)
        assert packing.cost == pytest.approx(1.0)

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_all_full_capacity_items(self, algorithm):
        inst = Instance([Item(0, 2, np.array([1.0]), i) for i in range(5)])
        packing = run(make_algorithm(algorithm), inst, validate=True)
        assert packing.num_bins == 5

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_zero_size_items_always_fit(self, algorithm):
        items = [Item(0, 2, np.array([1.0]), 0)] + [
            Item(0, 2, np.array([0.0]), i) for i in range(1, 6)
        ]
        inst = Instance(items)
        packing = run(make_algorithm(algorithm), inst, validate=True)
        # zero-size items fit anywhere; a single bin suffices
        assert packing.num_bins == 1

    def test_all_zero_size_instance(self):
        inst = Instance([Item(0, 2, np.array([0.0]), i) for i in range(4)])
        packing = run("first_fit", inst, validate=True)
        assert packing.num_bins == 1
        # the height LB is 0 but span still lower-bounds cost
        assert height_lower_bound(inst) == pytest.approx(0.0)
        assert packing.cost == pytest.approx(2.0)

    def test_large_times(self):
        t0 = 1e12
        inst = Instance(
            [
                Item(t0, t0 + 1.0, np.array([0.5]), 0),
                Item(t0 + 0.5, t0 + 2.0, np.array([0.6]), 1),
            ],
        )
        packing = run("move_to_front", inst, validate=True)
        assert packing.cost == pytest.approx(2.5)

    def test_tiny_durations(self):
        inst = Instance(
            [Item(0.0, 1e-9, np.array([0.5]), 0), Item(0.0, 2e-9, np.array([0.5]), 1)]
        )
        packing = run("first_fit", inst, validate=True)
        assert packing.cost > 0

    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_massive_simultaneous_batch(self, algorithm):
        # 200 items arriving at the same instant
        inst = Instance([Item(0.0, 1.0, np.array([0.34, 0.21]), i) for i in range(200)])
        packing = run(make_algorithm(algorithm), inst, validate=True)
        # per-dim packing limit: floor(1/0.34) = 2 items per bin
        assert packing.num_bins == 100

    def test_sequential_no_overlap_chain(self):
        # items abut: [0,1), [1,2), ...; each departure closes the bin
        # (it empties), and closed bins are never reused, so each item
        # opens a fresh bin - yet the cost is identical to sharing one
        # (Section 2.1's idle-bins-are-free equivalence)
        inst = Instance([Item(float(i), float(i + 1), np.array([0.9]), i) for i in range(20)])
        packing = run("move_to_front", inst, validate=True)
        assert packing.num_bins == 20
        assert packing.cost == pytest.approx(20.0)

    def test_exact_opt_on_chain(self):
        inst = Instance([Item(float(i), float(i + 1), np.array([0.9]), i) for i in range(6)])
        assert optimum_cost(inst) == pytest.approx(6.0)


class TestFloatHostility:
    @pytest.mark.parametrize("algorithm", ["first_fit", "move_to_front", "best_fit"])
    def test_repeating_tenths_fill_exactly(self, algorithm):
        # ten 0.1s sum to 1.0000000000000002 in float; the EPS tolerance
        # must let them share a bin
        inst = Instance([Item(0, 1, np.array([0.1]), i) for i in range(10)])
        packing = run(make_algorithm(algorithm), inst, validate=True)
        assert packing.num_bins == 1

    def test_adversarial_thresholds_respected(self):
        # loads of exactly 1 - eps' + eps' = 1.0 must fit; 1.0 + tiny not
        inst = Instance(
            [
                Item(0, 2, np.array([1.0 - 1e-6]), 0),
                Item(0, 2, np.array([1e-6]), 1),
                Item(0, 2, np.array([2e-6]), 2),
            ]
        )
        packing = run("first_fit", inst, validate=True)
        assert packing.assignment[1] == packing.assignment[0]
        assert packing.assignment[2] != packing.assignment[0]

    def test_lower_bound_no_phantom_bins_from_noise(self):
        # 3 * (1/3) == 1.0000000000000002-ish: LB must be 1, not 2
        third = 1.0 / 3.0
        inst = Instance([Item(0, 1, np.array([third]), i) for i in range(3)])
        assert height_lower_bound(inst) == pytest.approx(1.0)


class TestValidationEdges:
    def test_duplicate_uids_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance(
                [Item(0, 1, np.array([0.1]), 7), Item(0, 2, np.array([0.1]), 7)]
            )

    def test_one_item_instance_quantities(self):
        inst = Instance([Item(2, 5, np.array([0.4]), 0)])
        assert inst.mu == 1.0
        assert inst.span == 3.0
        assert inst.event_times() == [2, 5]

    def test_instance_with_many_components(self):
        items = [Item(10.0 * i, 10.0 * i + 1, np.array([0.5]), i) for i in range(5)]
        inst = Instance(items)
        assert len(inst.active_components()) == 5
        packing = run("next_fit", inst, validate=True)
        assert packing.cost == pytest.approx(5.0)
