"""Unit tests for the exact optimum cost (Eq. 2 integral)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.core.instance import Instance
from repro.core.items import Item
from repro.optimum.opt_cost import active_segments, optimum_cost, optimum_cost_bounds
from repro.optimum.vbp_solver import first_fit_decreasing, load_lower_bound
from repro.simulation.runner import run
from repro.verify.generators import corpus_list
from repro.verify.harness import PROFILES
from repro.workloads.uniform import UniformWorkload


def inst_1d(*triples):
    return Instance.from_tuples([(a, e, [s]) for a, e, s in triples])


class TestActiveSegments:
    def test_single_item(self):
        segs = active_segments(inst_1d((0, 2, 0.5)))
        assert len(segs) == 1
        t0, t1, active = segs[0]
        assert (t0, t1) == (0, 2)
        assert [it.uid for it in active] == [0]

    def test_gap_segment_skipped(self):
        segs = active_segments(inst_1d((0, 1, 0.5), (2, 3, 0.5)))
        assert [(s[0], s[1]) for s in segs] == [(0, 1), (2, 3)]

    def test_overlap_split(self):
        segs = active_segments(inst_1d((0, 2, 0.5), (1, 3, 0.5)))
        assert [(s[0], s[1]) for s in segs] == [(0, 1), (1, 2), (2, 3)]
        assert len(segs[1][2]) == 2


class TestOptimumCost:
    def test_single_item(self):
        assert optimum_cost(inst_1d((0, 3, 0.5))) == pytest.approx(3.0)

    def test_compatible_items_share(self):
        assert optimum_cost(inst_1d((0, 2, 0.4), (0, 2, 0.4))) == pytest.approx(2.0)

    def test_conflicting_items_split(self):
        assert optimum_cost(inst_1d((0, 2, 0.6), (0, 2, 0.6))) == pytest.approx(4.0)

    def test_repacking_advantage(self):
        # Three items; with repacking allowed OPT(R,t) is pointwise
        # minimal even when no static assignment achieves it.
        inst = inst_1d((0, 2, 0.6), (1, 3, 0.6), (2, 4, 0.6))
        # loads: [0,1): 0.6 -> 1; [1,2): 1.2 -> 2; [2,3): 1.2 -> 2; [3,4): 0.6 -> 1
        assert optimum_cost(inst) == pytest.approx(1 + 2 + 2 + 1)

    def test_theorem8_construction_opt(self):
        # the Theorem 8 proof's OPT: n bins of paired 1/2-items (cost 1
        # each) + 1 bin of all small items (cost mu)
        from repro.workloads.adversarial import theorem8_instance

        n, mu = 3, 4.0
        adv = theorem8_instance(n, mu)
        assert optimum_cost(adv.instance) <= adv.opt_upper + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_no_online_algorithm_beats_opt(self, seed):
        inst = UniformWorkload(d=2, n=12, mu=4, T=12, B=4).sample_seeded(seed)
        opt = optimum_cost(inst)
        for name in PAPER_ALGORITHMS:
            packing = run(make_algorithm(name), inst)
            assert packing.cost >= opt - 1e-9, f"{name} beat OPT?!"

    def test_multi_dim(self):
        inst = Instance(
            [
                Item(0, 2, np.array([0.9, 0.1]), 0),
                Item(0, 2, np.array([0.1, 0.9]), 1),
                Item(0, 2, np.array([0.9, 0.1]), 2),
            ]
        )
        # dim-0 total 1.9 -> 2 bins for [0,2)
        assert optimum_cost(inst) == pytest.approx(4.0)


class TestOptimumBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_bracket_contains_exact(self, seed):
        inst = UniformWorkload(d=2, n=14, mu=4, T=12, B=4).sample_seeded(seed)
        lo, hi = optimum_cost_bounds(inst)
        opt = optimum_cost(inst)
        assert lo - 1e-9 <= opt <= hi + 1e-9

    def test_bracket_ordering(self, uniform_small):
        lo, hi = optimum_cost_bounds(uniform_small)
        assert lo <= hi

    def test_bracket_fast_on_paper_scale(self):
        inst = UniformWorkload(d=2, n=500, mu=10, T=500, B=100).sample_seeded(1)
        lo, hi = optimum_cost_bounds(inst)
        assert 0 < lo <= hi


def _reference_segments(instance):
    """``active_segments`` as a scan of every item per breakpoint."""
    times = instance.event_times()
    for t0, t1 in zip(times, times[1:]):
        active = [it for it in instance.items if it.arrival <= t0 and t1 <= it.departure]
        if active:
            yield t0, t1, active


def _reference_bounds(instance):
    """``optimum_cost_bounds`` over :func:`_reference_segments`, each
    segment's size list handed to both helpers (each stacks it)."""
    cache_lb, cache_ub = {}, {}
    lower = upper = 0.0
    for t0, t1, active in _reference_segments(instance):
        key = frozenset(it.uid for it in active)
        if key not in cache_lb:
            sizes = [it.size for it in active]
            cache_lb[key] = max(load_lower_bound(sizes, instance.capacity), 1)
            cache_ub[key] = len(first_fit_decreasing(sizes, instance.capacity))
        dt = t1 - t0
        lower += cache_lb[key] * dt
        upper += cache_ub[key] * dt
    return lower, upper


class TestAgainstReferenceLoops:
    """The column-based segments and once-stacked bounds equal the
    per-item reference loops on the quick verify corpus."""

    CORPUS = corpus_list(120, seed=PROFILES["quick"].seed)

    def test_segments_match(self):
        for entry in self.CORPUS:
            got = active_segments(entry.instance)
            want = list(_reference_segments(entry.instance))
            assert [(t0, t1, [it.uid for it in a]) for t0, t1, a in got] == \
                [(t0, t1, [it.uid for it in a]) for t0, t1, a in want], entry.recipe

    def test_bounds_match_bit_for_bit(self):
        for entry in self.CORPUS:
            got = optimum_cost_bounds(entry.instance)
            want = _reference_bounds(entry.instance)
            assert [x.hex() for x in got] == [x.hex() for x in want], entry.recipe
