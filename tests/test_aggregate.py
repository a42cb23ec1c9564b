"""Tests for sample aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregate import summarize
from repro.core.errors import ConfigurationError


class TestSummarize:
    def test_known_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.std == pytest.approx(np.std([1, 2, 3, 4]))
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.median == pytest.approx(2.5)

    def test_single_value(self):
        s = summarize([7.0])
        assert s.mean == 7.0
        assert s.std == 0.0
        assert s.ci_halfwidth == 0.0

    def test_constant_sample(self):
        s = summarize([3.0] * 10)
        assert s.std == 0.0
        assert s.ci_low == s.ci_high == 3.0

    def test_quartiles_ordered(self):
        s = summarize(np.random.default_rng(0).normal(size=100))
        assert s.minimum <= s.q25 <= s.median <= s.q75 <= s.maximum

    def test_ci_contains_mean(self):
        s = summarize([1.0, 5.0, 9.0, 2.0])
        assert s.ci_low <= s.mean <= s.ci_high

    def test_ci_narrows_with_n(self):
        rng = np.random.default_rng(1)
        small = summarize(rng.normal(size=20))
        large = summarize(rng.normal(size=2000))
        assert large.ci_halfwidth < small.ci_halfwidth

    def test_confidence_levels(self):
        vals = list(np.random.default_rng(2).normal(size=50))
        assert (
            summarize(vals, confidence=0.99).ci_halfwidth
            > summarize(vals, confidence=0.90).ci_halfwidth
        )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_bad_confidence_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([1.0], confidence=0.5)

    def test_as_dict(self):
        d = summarize([1.0, 2.0]).as_dict()
        assert d["count"] == 2 and "ci_halfwidth" in d

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_mean_within_minmax(self, vals):
        s = summarize(vals)
        assert s.minimum - 1e-6 <= s.mean <= s.maximum + 1e-6
