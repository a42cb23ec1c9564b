"""Unit tests for the static vector-bin-packing solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SolverLimitError
from repro.core.vectors import EPS
from repro.optimum.opt_cost import active_segments
from repro.optimum.vbp_solver import (
    best_fit_decreasing,
    first_fit_decreasing,
    load_lower_bound,
    solve_exact,
)

CAP1 = np.ones(1)
CAP2 = np.ones(2)


# ----------------------------------------------------------------------
# reference heuristics: one fit test per (item, bin) pair
# ----------------------------------------------------------------------
def _ref_order(sizes, capacity):
    mat = np.asarray(np.stack(sizes), dtype=np.float64)
    order = np.argsort(-np.max(mat / capacity[np.newaxis, :], axis=1), kind="stable")
    return mat, order


def reference_ffd(sizes, capacity):
    """First Fit Decreasing with a list of per-bin load vectors."""
    if len(sizes) == 0:
        return []
    mat, order = _ref_order(sizes, capacity)
    slack = capacity + EPS * np.maximum(capacity, 1.0)
    bins, loads = [], []
    for idx in order:
        size = mat[idx]
        for b, load in enumerate(loads):
            if np.all(load + size <= slack):
                loads[b] = load + size
                bins[b].append(int(idx))
                break
        else:
            bins.append([int(idx)])
            loads.append(size.copy())
    return bins


def reference_bfd(sizes, capacity):
    """Best Fit Decreasing: the first of the fullest (L∞) fitting bins."""
    if len(sizes) == 0:
        return []
    mat, order = _ref_order(sizes, capacity)
    slack = capacity + EPS * np.maximum(capacity, 1.0)
    bins, loads = [], []
    for idx in order:
        size = mat[idx]
        best_b, best_fullness = -1, -1.0
        for b, load in enumerate(loads):
            if np.all(load + size <= slack):
                fullness = float(np.max(load / capacity))
                if fullness > best_fullness:
                    best_fullness, best_b = fullness, b
        if best_b >= 0:
            loads[best_b] = loads[best_b] + size
            bins[best_b].append(int(idx))
        else:
            bins.append([int(idx)])
            loads.append(size.copy())
    return bins


@st.composite
def vbp_problems(draw, max_items=24):
    """Static VBP problems built to hit ties and exact-capacity fits.

    Sizes are eighths of the capacity, so many items share an L∞ key
    (the sort's ties) and many loads sum exactly to the capacity; a
    drawn prefix of items also gets a complement ``slack - size``, whose
    sum with the original is the fit threshold itself (up to one
    rounding).  d is drawn from 1..5; the capacity is all ones or
    small integers.
    """
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        cap = np.ones(d)
    else:
        cap = np.array(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)), dtype=float)
    slack = cap + EPS * np.maximum(cap, 1.0)
    rows = draw(st.lists(
        st.lists(st.integers(0, 8), min_size=d, max_size=d), max_size=max_items
    ))
    sizes = [np.array(r, dtype=float) / 8.0 * cap for r in rows]
    k = draw(st.integers(0, len(sizes)))
    sizes += [slack - s for s in sizes[:k]]
    order = draw(st.permutations(range(len(sizes))))
    return [sizes[i] for i in order], cap


def vecs(*vals):
    """1-D sizes from scalars."""
    return [np.array([v]) for v in vals]


def brute_force_min_bins(sizes, capacity) -> int:
    """Reference: try all set partitions (tiny n only)."""
    n = len(sizes)
    if n == 0:
        return 0
    best = n

    def partitions(seq):
        if not seq:
            yield []
            return
        head, rest = seq[0], seq[1:]
        for p in partitions(rest):
            for i in range(len(p)):
                yield p[:i] + [[head] + p[i]] + p[i + 1 :]
            yield p + [[head]]

    slack = capacity + 1e-9
    for p in partitions(list(range(n))):
        ok = all(
            np.all(sum((sizes[i] for i in group), np.zeros_like(capacity)) <= slack)
            for group in p
        )
        if ok:
            best = min(best, len(p))
    return best


class TestHeuristics:
    def test_ffd_empty(self):
        assert first_fit_decreasing([], CAP1) == []

    def test_ffd_single(self):
        assert first_fit_decreasing(vecs(0.5), CAP1) == [[0]]

    def test_ffd_classic(self):
        bins = first_fit_decreasing(vecs(0.6, 0.5, 0.4, 0.3), CAP1)
        # sorted: 0.6, 0.5, 0.4, 0.3 -> [0.6+0.4], [0.5+0.3] -> 2 bins
        assert len(bins) == 2

    def test_ffd_covers_all_items(self):
        bins = first_fit_decreasing(vecs(0.2, 0.9, 0.5, 0.7, 0.1), CAP1)
        assert sorted(i for b in bins for i in b) == [0, 1, 2, 3, 4]

    def test_ffd_respects_capacity(self):
        sizes = [np.array([0.4, 0.7]), np.array([0.7, 0.4]), np.array([0.3, 0.3])]
        bins = first_fit_decreasing(sizes, CAP2)
        for b in bins:
            total = sum((sizes[i] for i in b), np.zeros(2))
            assert np.all(total <= 1.0 + 1e-9)

    def test_bfd_covers_all_items(self):
        bins = best_fit_decreasing(vecs(0.2, 0.9, 0.5, 0.7, 0.1), CAP1)
        assert sorted(i for b in bins for i in b) == [0, 1, 2, 3, 4]

    def test_bfd_respects_capacity(self):
        sizes = [np.array([0.4, 0.7]), np.array([0.7, 0.4]), np.array([0.3, 0.3])]
        for b in best_fit_decreasing(sizes, CAP2):
            total = sum((sizes[i] for i in b), np.zeros(2))
            assert np.all(total <= 1.0 + 1e-9)

    def test_nonunit_capacity(self):
        sizes = [np.array([60.0]), np.array([40.0]), np.array([50.0])]
        bins = first_fit_decreasing(sizes, np.array([100.0]))
        assert len(bins) == 2


class TestRowMatrixHeuristics:
    """The row-matrix FFD/BFD against the per-pair reference loops."""

    @given(vbp_problems())
    @settings(max_examples=150)
    def test_same_bins_as_reference(self, problem):
        sizes, cap = problem
        assert first_fit_decreasing(sizes, cap) == reference_ffd(sizes, cap)
        assert best_fit_decreasing(sizes, cap) == reference_bfd(sizes, cap)

    @pytest.mark.fuzz
    @given(vbp_problems(max_items=80))
    @settings(max_examples=3000)
    def test_same_bins_as_reference_deep(self, problem):
        sizes, cap = problem
        assert first_fit_decreasing(sizes, cap) == reference_ffd(sizes, cap)
        assert best_fit_decreasing(sizes, cap) == reference_bfd(sizes, cap)

    def test_same_bins_on_corpus_segments(self):
        from repro.verify.generators import corpus_list

        checked = 0
        for entry in corpus_list(60, seed=7):
            inst = entry.instance
            for _, _, active in active_segments(inst):
                sizes = [it.size for it in active]
                cap = inst.capacity
                assert first_fit_decreasing(sizes, cap) == reference_ffd(sizes, cap)
                assert best_fit_decreasing(sizes, cap) == reference_bfd(sizes, cap)
                checked += 1
        assert checked > 1000

    def test_equal_keys_keep_input_order(self):
        sizes = vecs(0.5, 0.5, 0.5, 0.5)
        assert first_fit_decreasing(sizes, CAP1) == [[0, 1], [2, 3]]
        # BFD breaks equal fullness towards the first opened bin
        sizes = vecs(0.6, 0.6, 0.3)
        assert best_fit_decreasing(sizes, CAP1) == [[0, 2], [1]]

    def test_load_summing_to_slack_fits(self):
        slack = 1.0 + EPS
        sizes = vecs(0.75, slack - 0.75)
        assert 0.75 + (slack - 0.75) == slack
        assert first_fit_decreasing(sizes, CAP1) == [[0, 1]]
        assert best_fit_decreasing(sizes, CAP1) == [[0, 1]]


class TestLoadLowerBound:
    def test_empty(self):
        assert load_lower_bound([], CAP1) == 0

    def test_exact_total(self):
        assert load_lower_bound(vecs(0.5, 0.5), CAP1) == 1

    def test_rounds_up(self):
        assert load_lower_bound(vecs(0.6, 0.6), CAP1) == 2

    def test_max_over_dims(self):
        sizes = [np.array([0.9, 0.1]), np.array([0.9, 0.1])]
        assert load_lower_bound(sizes, CAP2) == 2

    def test_float_noise_guard(self):
        assert load_lower_bound(vecs(*[0.1] * 10), CAP1) == 1


class TestExactSolver:
    def test_empty(self):
        assert solve_exact([], CAP1) == 0

    def test_single(self):
        assert solve_exact(vecs(0.9), CAP1) == 1

    def test_pairing(self):
        assert solve_exact(vecs(0.5, 0.5, 0.5, 0.5), CAP1) == 2

    def test_beats_ffd_when_ffd_suboptimal(self):
        # classic FFD-suboptimal family scaled into [0,1]
        sizes = vecs(0.42, 0.42, 0.34, 0.34, 0.24, 0.24)
        ffd = len(first_fit_decreasing(sizes, CAP1))
        exact = solve_exact(sizes, CAP1)
        assert exact <= ffd
        assert exact == 2  # (0.42+0.34+0.24) twice

    def test_vector_blocking(self):
        sizes = [
            np.array([0.9, 0.1]),
            np.array([0.1, 0.9]),
            np.array([0.5, 0.5]),
        ]
        assert solve_exact(sizes, CAP2) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_1d(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [np.array([s]) for s in rng.uniform(0.05, 0.95, size=6)]
        assert solve_exact(sizes, CAP1) == brute_force_min_bins(sizes, CAP1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_2d(self, seed):
        rng = np.random.default_rng(100 + seed)
        sizes = [rng.uniform(0.05, 0.95, size=2) for _ in range(6)]
        assert solve_exact(sizes, CAP2) == brute_force_min_bins(sizes, CAP2)

    def test_sandwiched_by_bounds(self):
        rng = np.random.default_rng(9)
        sizes = [rng.uniform(0.05, 0.6, size=3) for _ in range(10)]
        cap = np.ones(3)
        exact = solve_exact(sizes, cap)
        assert load_lower_bound(sizes, cap) <= exact
        assert exact <= len(first_fit_decreasing(sizes, cap))

    def test_node_budget_enforced(self):
        rng = np.random.default_rng(3)
        sizes = [rng.uniform(0.2, 0.4, size=2) for _ in range(18)]
        with pytest.raises(SolverLimitError):
            solve_exact(sizes, CAP2, max_nodes=5)

    @given(
        st.lists(st.floats(0.05, 1.0), min_size=1, max_size=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_at_most_item_count_and_at_least_load(self, raw):
        sizes = [np.array([s]) for s in raw]
        exact = solve_exact(sizes, CAP1)
        assert load_lower_bound(sizes, CAP1) <= exact <= len(sizes)
