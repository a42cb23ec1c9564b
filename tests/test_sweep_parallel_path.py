"""Tests for the sweep harness's process-pool path and grid determinism."""

from __future__ import annotations

import math

import pytest

from repro.analysis.sweep import sweep_cell
from repro.core.instance import Instance
from repro.simulation.parallel import parallel_sweep
from repro.workloads.base import generate_batch
from repro.workloads.uniform import UniformWorkload

ALGOS = ["move_to_front", "next_fit"]


@pytest.fixture(scope="module")
def batch():
    gen = UniformWorkload(d=2, n=50, mu=5, T=30, B=10)
    return generate_batch(gen, 5, seed=2)


def test_parallel_cell_matches_serial(batch):
    serial = sweep_cell(ALGOS, batch, processes=0)
    parallel = sweep_cell(ALGOS, batch, processes=2)
    for algo in ALGOS:
        assert parallel.ratios[algo] == pytest.approx(serial.ratios[algo])
        assert parallel.stats[algo].mean == pytest.approx(serial.stats[algo].mean)


def test_parallel_cell_keeps_params(batch):
    cell = sweep_cell(ALGOS, batch, params={"d": 2, "mu": 5}, processes=2)
    assert cell.params == {"d": 2, "mu": 5}


def test_parallel_cell_with_kwargs(batch):
    a = sweep_cell(["random_fit"], batch, processes=2,
                   algorithm_kwargs={"random_fit": {"seed": 9}})
    b = sweep_cell(["random_fit"], batch, processes=0,
                   algorithm_kwargs={"random_fit": {"seed": 9}})
    assert a.ratios["random_fit"] == pytest.approx(b.ratios["random_fit"])


def test_zero_lower_bound_instance_reports_inf_on_every_path():
    """Regression: an instance of zero-size items has Lemma 1 bound 0.

    The serial sweep cell used to drop it (and the policy from
    ``stats``) while the worker paths reported ``inf``, the
    ``UnitResult.ratio`` sentinel.
    """
    inst = Instance.from_tuples([(0.0, 2.0, [0.0, 0.0]), (1.0, 3.0, [0.0, 0.0])])
    cell = sweep_cell(ALGOS, [inst], processes=0)
    batched = parallel_sweep(ALGOS, [inst], processes=0, engine="batch")
    pooled = parallel_sweep(ALGOS, [inst], processes=2)
    for algo in ALGOS:
        assert cell.ratios[algo] == [math.inf]
        assert cell.stats[algo].mean == math.inf
        assert [u.ratio for u in batched[algo]] == [math.inf]
        assert [u.ratio for u in pooled[algo]] == [math.inf]
