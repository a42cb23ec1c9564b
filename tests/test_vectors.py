"""Unit tests for repro.core.vectors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.errors import InvalidItemError
from repro.core.vectors import (
    EPS,
    as_size_vector,
    check_proposition1,
    dominates,
    fits,
    fits_batch,
    l1,
    linf,
    lp,
)


class TestAsSizeVector:
    def test_scalar_promoted_to_1d(self):
        v = as_size_vector(0.5)
        assert v.shape == (1,)
        assert v[0] == 0.5

    def test_list_accepted(self):
        v = as_size_vector([0.1, 0.2, 0.3])
        assert v.shape == (3,)

    def test_copy_is_owned(self):
        src = np.array([0.1, 0.2])
        v = as_size_vector(src)
        src[0] = 9.0
        assert v[0] == 0.1

    def test_negative_rejected(self):
        with pytest.raises(InvalidItemError):
            as_size_vector([-0.1, 0.2])

    def test_nan_rejected(self):
        with pytest.raises(InvalidItemError):
            as_size_vector([np.nan])

    def test_inf_rejected(self):
        with pytest.raises(InvalidItemError):
            as_size_vector([np.inf])

    def test_2d_rejected(self):
        with pytest.raises(InvalidItemError):
            as_size_vector(np.zeros((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidItemError):
            as_size_vector(np.zeros(0))

    def test_dimension_check(self):
        with pytest.raises(InvalidItemError):
            as_size_vector([0.1, 0.2], d=3)

    def test_dimension_check_passes(self):
        v = as_size_vector([0.1, 0.2], d=2)
        assert v.size == 2

    def test_dtype_is_float64(self):
        assert as_size_vector([1, 2]).dtype == np.float64


class TestNorms:
    def test_linf_basic(self):
        assert linf(np.array([0.2, 0.9, 0.5])) == 0.9

    def test_linf_1d(self):
        assert linf(np.array([0.3])) == 0.3

    def test_l1_basic(self):
        assert l1(np.array([0.2, 0.3])) == pytest.approx(0.5)

    def test_lp_p2(self):
        assert lp(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)

    def test_lp_p1_equals_l1_bitwise(self):
        # the p = 1 contract is *bitwise*: lp routes to l1's exact sum
        # instead of taking the pow/root round-trip
        rng = np.random.default_rng(7)
        for d in (1, 2, 5, 9):
            v = rng.random(d)
            assert lp(v, 1) == l1(v)
            assert lp(v, 1.0) == l1(v)

    def test_lp_inf_routes_to_linf(self):
        v = np.array([0.2, 0.7])
        assert lp(v, np.inf) == linf(v)
        assert lp(v, float("inf")) == linf(v)

    def test_lp_invalid_p(self):
        # the aligned contract: any p >= 1 is a norm, anything below
        # (or NaN) is rejected everywhere with the same rule
        for bad in (0.0, 0.5, -1.0, float("nan")):
            with pytest.raises(ValueError):
                lp(np.array([1.0]), bad)

    def test_lp_large_p_approaches_linf(self):
        v = np.array([0.5, 0.9])
        assert lp(v, 64) == pytest.approx(linf(v), rel=1e-2)


class TestFits:
    CAP = np.ones(2)

    def test_fits_with_room(self):
        assert fits(np.array([0.3, 0.3]), np.array([0.5, 0.5]), self.CAP)

    def test_exact_fit_allowed(self):
        assert fits(np.array([0.5, 0.2]), np.array([0.5, 0.8]), self.CAP)

    def test_overflow_one_dim_rejected(self):
        assert not fits(np.array([0.6, 0.1]), np.array([0.5, 0.1]), self.CAP)

    def test_tolerance_absorbs_float_noise(self):
        load = np.array([0.1] * 2) * 3  # 0.30000000000000004
        assert fits(load, np.array([0.7, 0.7]), self.CAP)

    def test_nonunit_capacity(self):
        cap = np.array([100.0, 100.0])
        assert fits(np.array([60.0, 10.0]), np.array([40.0, 20.0]), cap)
        assert not fits(np.array([61.0, 10.0]), np.array([40.0, 20.0]), cap)

    def test_mismatched_lengths_raise(self):
        # nothing is broadcast: a length-1 size is not a d-vector
        with pytest.raises(ValueError):
            fits(np.array([0.1, 0.2]), np.array([0.1]), self.CAP)
        with pytest.raises(ValueError):
            fits(np.array([0.1]), np.array([0.1, 0.2]), self.CAP)
        with pytest.raises(ValueError):
            fits(np.array([0.1, 0.2]), np.array([0.1, 0.2]), np.ones(3))

    def test_fits_batch_empty(self):
        out = fits_batch(np.zeros((0, 2)), np.array([0.1, 0.1]), self.CAP)
        assert out.shape == (0,)

    def test_fits_batch_matches_scalar(self):
        loads = np.array([[0.2, 0.9], [0.5, 0.5], [0.95, 0.0]])
        size = np.array([0.4, 0.1])
        batch = fits_batch(loads, size, self.CAP)
        scalar = [fits(row, size, self.CAP) for row in loads]
        assert list(batch) == scalar

    @given(
        loads=hnp.arrays(np.float64, (5, 3), elements=st.floats(0, 1)),
        size=hnp.arrays(np.float64, (3,), elements=st.floats(0, 1)),
    )
    @settings(max_examples=50)
    def test_fits_batch_always_matches_scalar(self, loads, size):
        cap = np.ones(3)
        batch = fits_batch(loads, size, cap)
        scalar = [fits(row, size, cap) for row in loads]
        assert list(batch) == scalar


class TestDominates:
    def test_dominates_true(self):
        assert dominates(np.array([0.5, 0.5]), np.array([0.4, 0.5]))

    def test_dominates_false(self):
        assert not dominates(np.array([0.5, 0.3]), np.array([0.4, 0.5]))


class TestProposition1:
    def test_empty_collection(self):
        assert check_proposition1([])

    def test_hand_example(self):
        vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        # sum = (1,1): linf 1 <= 2 <= 2*1
        assert check_proposition1(vecs)

    @given(
        st.lists(
            hnp.arrays(np.float64, (4,), elements=st.floats(0, 10)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=100)
    def test_sandwich_holds_for_random_vectors(self, vecs):
        assert check_proposition1(vecs)

    @given(
        hnp.arrays(np.float64, (3,), elements=st.floats(0, 5)),
        st.floats(0, 4),
    )
    @settings(max_examples=50)
    def test_homogeneity(self, v, c):
        assert linf(c * v) == pytest.approx(c * linf(v), abs=1e-12)
