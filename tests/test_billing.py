"""Tests for quantised billing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.instance import Instance
from repro.core.items import Item
from repro.core.packing import Packing
from repro.simulation.billing import (
    QuantumAwareMoveToFront,
    billed_cost,
    billing_overhead,
    summarize_billing,
)
from repro.simulation.runner import run
from repro.workloads.uniform import UniformWorkload


@pytest.fixture
def simple_packing():
    # one bin active 2.5 units, one active 0.5 units
    inst = Instance(
        [
            Item(0.0, 2.5, np.array([0.6]), 0),
            Item(0.0, 0.5, np.array([0.6]), 1),
        ]
    )
    return Packing.from_assignment(inst, {0: 0, 1: 1}, algorithm="hand")


class TestBilledCost:
    def test_continuous_is_paper_cost(self, simple_packing):
        assert billed_cost(simple_packing, 0.0) == pytest.approx(3.0)

    def test_hourly_rounds_up(self, simple_packing):
        # 2.5 -> 3 quanta, 0.5 -> 1 quantum
        assert billed_cost(simple_packing, 1.0) == pytest.approx(4.0)

    def test_quantum_boundary_exact(self):
        inst = Instance([Item(0.0, 2.0, np.array([0.5]), 0)])
        packing = Packing.from_assignment(inst, {0: 0})
        assert billed_cost(packing, 1.0) == pytest.approx(2.0)  # no rounding noise

    def test_minimum_one_quantum_per_bin(self):
        inst = Instance([Item(0.0, 0.01, np.array([0.5]), 0)])
        packing = Packing.from_assignment(inst, {0: 0})
        assert billed_cost(packing, 1.0) == pytest.approx(1.0)

    def test_negative_quantum_rejected(self, simple_packing):
        with pytest.raises(ConfigurationError):
            billed_cost(simple_packing, -1.0)

    def test_overhead(self, simple_packing):
        assert billing_overhead(simple_packing, 1.0) == pytest.approx(4.0 / 3.0 - 1)

    def test_billed_at_least_continuous(self, uniform_small):
        packing = run("move_to_front", uniform_small)
        for q in (0.5, 1.0, 5.0):
            assert billed_cost(packing, q) >= packing.cost - 1e-9

    def test_summary_fields(self, simple_packing):
        s = summarize_billing(simple_packing, 1.0)
        assert s.billed_cost == pytest.approx(4.0)
        assert s.overhead == pytest.approx(1.0 / 3.0)
        assert s.num_bins == 2


class TestQuantumAwareMF:
    def test_zero_quantum_is_plain_mf(self, uniform_small):
        plain = run("move_to_front", uniform_small)
        aware = run(QuantumAwareMoveToFront(quantum=0.0), uniform_small)
        assert plain.assignment == aware.assignment

    def test_valid_packing(self, uniform_small):
        run(QuantumAwareMoveToFront(quantum=2.0), uniform_small, validate=True)

    def test_is_any_fit(self, uniform_small):
        from tests.test_anyfit_property import assert_any_fit_property

        packing = run(QuantumAwareMoveToFront(quantum=2.0), uniform_small)
        assert_any_fit_property(packing)

    def test_prefers_fresh_quantum(self):
        # bin A opened at t=0, bin B at t=1.5; quantum 2. An item at
        # t=1.6: A has 0.4 paid time left, B has 1.9 -> choose B.
        items = [
            Item(0.0, 5.0, np.array([0.5]), 0),   # opens A
            Item(1.5, 5.0, np.array([0.6]), 1),   # doesn't fit A -> opens B
            Item(1.6, 5.0, np.array([0.2]), 2),   # fits both
        ]
        inst = Instance(items)
        packing = run(QuantumAwareMoveToFront(quantum=2.0), inst)
        assert packing.assignment[2] == packing.assignment[1]

    def test_helps_under_quantised_billing(self):
        """Averaged over instances, quantum-awareness should not lose
        under its own billing model."""
        plain_total = aware_total = 0.0
        for seed in range(6):
            inst = UniformWorkload(d=2, n=150, mu=10, T=60, B=10).sample_seeded(seed)
            plain = run("move_to_front", inst)
            aware = run(QuantumAwareMoveToFront(quantum=5.0), inst)
            plain_total += billed_cost(plain, 5.0)
            aware_total += billed_cost(aware, 5.0)
        assert aware_total <= plain_total * 1.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuantumAwareMoveToFront(quantum=-1.0)
