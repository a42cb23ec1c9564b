"""Unit tests for the Lemma 1 lower bounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.items import Item
from repro.optimum.lower_bounds import (
    all_lower_bounds,
    fractional_height_bound,
    height_lower_bound,
    load_profile,
    opt_lower_bound,
    span_lower_bound,
    utilization_lower_bound,
)
from repro.optimum.opt_cost import optimum_cost
from repro.workloads.uniform import UniformWorkload


def inst_1d(*triples, capacity=None):
    return Instance.from_tuples([(a, e, [s]) for a, e, s in triples], capacity=capacity)


class TestLoadProfile:
    def test_single_item(self):
        times, loads = load_profile(inst_1d((0, 2, 0.5)))
        assert list(times) == [0, 2]
        assert loads.shape == (1, 1)
        assert loads[0, 0] == pytest.approx(0.5)

    def test_overlapping_items(self):
        times, loads = load_profile(inst_1d((0, 2, 0.5), (1, 3, 0.4)))
        assert list(times) == [0, 1, 2, 3]
        assert loads[:, 0] == pytest.approx([0.5, 0.9, 0.4])

    def test_gap_has_zero_load(self):
        times, loads = load_profile(inst_1d((0, 1, 0.5), (2, 3, 0.5)))
        assert loads[:, 0] == pytest.approx([0.5, 0.0, 0.5])

    def test_no_negative_loads_from_cancellation(self):
        inst = UniformWorkload(d=3, n=200, mu=10, T=100, B=10).sample_seeded(0)
        _, loads = load_profile(inst)
        assert np.all(loads >= 0)

    def test_multi_dim_profile(self):
        inst = Instance(
            [Item(0, 2, np.array([0.5, 0.1]), 0), Item(1, 3, np.array([0.1, 0.8]), 1)]
        )
        _, loads = load_profile(inst)
        assert loads.shape == (3, 2)
        assert loads[1] == pytest.approx([0.6, 0.9])


class TestHeightBound:
    def test_single_item_equals_duration(self):
        assert height_lower_bound(inst_1d((0, 3, 0.5))) == pytest.approx(3.0)

    def test_two_conflicting_items_need_two_bins(self):
        # both 0.6 wide, overlapping on [1, 2): ceil(1.2) = 2 there
        inst = inst_1d((0, 2, 0.6), (1, 3, 0.6))
        assert height_lower_bound(inst) == pytest.approx(1 + 2 + 1)

    def test_ceil_guard_against_float_noise(self):
        # ten 0.1-items sum to 1.0000000000000002 without the guard
        inst = Instance.from_tuples([(0, 1, [0.1])] * 10)
        assert height_lower_bound(inst) == pytest.approx(1.0)

    def test_respects_capacity(self):
        inst = inst_1d((0, 1, 60.0), (0, 1, 60.0), capacity=[100.0])
        assert height_lower_bound(inst) == pytest.approx(2.0)

    def test_max_over_dimensions(self):
        inst = Instance(
            [Item(0, 1, np.array([0.9, 0.1]), 0), Item(0, 1, np.array([0.9, 0.1]), 1)]
        )
        # dim 0 total 1.8 -> 2 bins
        assert height_lower_bound(inst) == pytest.approx(2.0)


class TestBoundRelations:
    @pytest.mark.parametrize("seed", range(5))
    def test_height_dominates_others(self, seed):
        inst = UniformWorkload(d=2, n=80, mu=8, T=50, B=10).sample_seeded(seed)
        h = height_lower_bound(inst)
        assert h >= utilization_lower_bound(inst) - 1e-9
        assert h >= span_lower_bound(inst) - 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_fractional_below_ceil(self, seed):
        inst = UniformWorkload(d=2, n=80, mu=8, T=50, B=10).sample_seeded(seed)
        assert fractional_height_bound(inst) <= height_lower_bound(inst) + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_utilization_below_fractional_times_d(self, seed):
        # the Lemma 1(ii) proof chain: util <= fractional height
        inst = UniformWorkload(d=3, n=60, mu=5, T=40, B=10).sample_seeded(seed)
        assert utilization_lower_bound(inst) <= fractional_height_bound(inst) + 1e-9

    def test_opt_lower_bound_is_max(self, uniform_small):
        bounds = all_lower_bounds(uniform_small)
        assert opt_lower_bound(uniform_small) == pytest.approx(max(bounds.values()))

    def test_all_lower_bounds_keys(self, uniform_small):
        assert set(all_lower_bounds(uniform_small)) == {"height", "utilization", "span"}


class TestAgainstExactOpt:
    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_below_exact_opt_small(self, seed):
        inst = UniformWorkload(d=2, n=12, mu=3, T=10, B=4).sample_seeded(seed)
        opt = optimum_cost(inst)
        for name, val in all_lower_bounds(inst).items():
            assert val <= opt + 1e-9, f"bound {name}={val} exceeds OPT={opt}"

    def test_height_bound_tight_on_disjoint_items(self):
        inst = inst_1d((0, 1, 0.5), (2, 3, 0.5))
        assert height_lower_bound(inst) == pytest.approx(optimum_cost(inst))


def test_utilization_bound_is_the_normalized_definition_bit_for_bit():
    """The column form equals ``normalized().total_utilization() / d``."""
    from repro.verify.generators import corpus_list

    scaled = 0
    for entry in corpus_list(120, seed=3):
        inst = entry.instance
        norm = inst.normalized()
        expected = norm.total_utilization() / norm.d
        assert utilization_lower_bound(inst).hex() == expected.hex()
        scaled += norm is not inst
    assert scaled > 0  # non-unit capacities took the scaling branch


def test_utilization_bound_on_integer_times_and_capacity():
    inst = Instance(
        [Item(0, 3, np.array([20.0, 50.0]), 0), Item(1, 2, np.array([70.0, 10.0]), 1)],
        capacity=[100.0, 100.0],
    )
    norm = inst.normalized()
    assert utilization_lower_bound(inst) == norm.total_utilization() / norm.d
