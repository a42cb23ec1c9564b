"""Tests for the sweep harness."""

from __future__ import annotations

import pytest

from repro.algorithms.registry import make_algorithm
from repro.analysis.sweep import sweep_cell
from repro.workloads.base import generate_batch
from repro.workloads.uniform import UniformWorkload

ALGOS = ["move_to_front", "first_fit", "next_fit"]


@pytest.fixture(scope="module")
def batch():
    gen = UniformWorkload(d=2, n=60, mu=6, T=40, B=10)
    return generate_batch(gen, 8, seed=0)


class TestSweepCell:
    def test_all_algorithms_measured(self, batch):
        cell = sweep_cell(ALGOS, batch, params={"d": 2, "mu": 6})
        assert set(cell.stats) == set(ALGOS)
        for name in ALGOS:
            assert len(cell.ratios[name]) == len(batch)

    def test_ratios_at_least_one(self, batch):
        cell = sweep_cell(ALGOS, batch)
        for vals in cell.ratios.values():
            assert all(v >= 1.0 - 1e-9 for v in vals)

    def test_ranking_sorted_by_mean(self, batch):
        cell = sweep_cell(ALGOS, batch)
        ranking = cell.ranking()
        means = [cell.stats[a].mean for a in ranking]
        assert means == sorted(means)

    def test_params_stored(self, batch):
        cell = sweep_cell(ALGOS, batch, params={"d": 2})
        assert cell.params == {"d": 2}

    def test_within_theory(self, batch):
        cell = sweep_cell(ALGOS, batch)
        checks = cell.within_theory(mu=6, d=2)
        assert checks and all(checks.values())

    def test_algorithm_kwargs_forwarded(self, batch):
        cell = sweep_cell(
            ["random_fit"], batch, algorithm_kwargs={"random_fit": {"seed": 3}}
        )
        cell2 = sweep_cell(
            ["random_fit"], batch, algorithm_kwargs={"random_fit": {"seed": 3}}
        )
        assert cell.ratios == cell2.ratios
