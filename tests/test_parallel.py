"""Tests for the parallel sweep executor."""

from __future__ import annotations

import math

import pytest

from repro.simulation.parallel import (
    Payload,
    UnitResult,
    algorithm_accepts_seed,
    build_payloads,
    derive_unit_seeds,
    parallel_sweep,
    payload_unit_keys,
    simulate_payload,
)
from repro.simulation.runner import run
from repro.workloads.base import generate_batch
from repro.workloads.uniform import UniformWorkload

ALGOS = ["move_to_front", "first_fit"]


@pytest.fixture(scope="module")
def batch():
    gen = UniformWorkload(d=2, n=40, mu=5, T=30, B=10)
    return generate_batch(gen, 6, seed=0)


class TestSerialPath:
    def test_results_match_direct_runs(self, batch):
        results = parallel_sweep(ALGOS, batch, processes=0)
        for name in ALGOS:
            assert len(results[name]) == len(batch)
            for res, inst in zip(results[name], batch):
                direct = run(name, inst)
                assert res.cost == pytest.approx(direct.cost)
                assert res.num_bins == direct.num_bins

    def test_ratio_property(self, batch):
        results = parallel_sweep(ALGOS, batch, processes=0)
        for res in results["move_to_front"]:
            assert res.ratio == pytest.approx(res.cost / res.lower_bound)
            assert res.ratio >= 1.0 - 1e-9

    def test_ordered_by_instance_index(self, batch):
        results = parallel_sweep(ALGOS, batch, processes=0)
        for name in ALGOS:
            indices = [r.instance_index for r in results[name]]
            assert indices == sorted(indices)

    def test_algorithm_kwargs_forwarded(self, batch):
        a = parallel_sweep(["random_fit"], batch, processes=0,
                           algorithm_kwargs={"random_fit": {"seed": 1}})
        b = parallel_sweep(["random_fit"], batch, processes=0,
                           algorithm_kwargs={"random_fit": {"seed": 1}})
        costs_a = [r.cost for r in a["random_fit"]]
        costs_b = [r.cost for r in b["random_fit"]]
        assert costs_a == costs_b


class TestUnitWorker:
    def test_unit_is_self_contained(self, batch):
        from repro.optimum.lower_bounds import height_lower_bound

        inst = batch[0]
        payload = Payload(0, inst, height_lower_bound(inst), (("first_fit", {}),),
                          "classic", False)
        [res] = simulate_payload(payload)
        assert res.algorithm == "first_fit"
        assert res.cost == pytest.approx(run("first_fit", inst).cost)


class TestProcessPath:
    def test_multiprocess_matches_serial(self, batch):
        serial = parallel_sweep(ALGOS, batch, processes=0)
        parallel = parallel_sweep(ALGOS, batch, processes=2)
        for name in ALGOS:
            assert [r.cost for r in parallel[name]] == pytest.approx(
                [r.cost for r in serial[name]]
            )


class TestRatioDegenerate:
    """Regression: ratio on a zero lower bound raised ZeroDivisionError."""

    def _unit(self, cost, lb):
        return UnitResult(algorithm="first_fit", instance_index=0,
                          cost=cost, num_bins=1, lower_bound=lb)

    def test_zero_lower_bound_positive_cost_is_inf(self):
        assert self._unit(5.0, 0.0).ratio == math.inf

    def test_zero_lower_bound_zero_cost_is_neutral(self):
        assert self._unit(0.0, 0.0).ratio == 1.0

    def test_normal_ratio_unchanged(self):
        assert self._unit(6.0, 3.0).ratio == pytest.approx(2.0)


class TestPerUnitSeeds:
    """Regression: every random_fit unit used to share one base seed,
    collapsing the m "independent" trials of a cell onto one stream."""

    def test_derive_unit_seeds_is_pure_and_pinned(self):
        # golden pins: numpy SeedSequence spawning is stable across
        # platforms, and sweeps' bit-identity depends on this derivation
        assert derive_unit_seeds(0, 4) == [
            8668861027912758289,
            4881901421217228719,
            16452687389592421897,
            13238389300853459902,
        ]
        assert derive_unit_seeds(0, 4) == derive_unit_seeds(0, 4)
        assert len(set(derive_unit_seeds(0, 64))) == 64

    def test_seed_detection(self):
        assert algorithm_accepts_seed("random_fit")
        assert not algorithm_accepts_seed("first_fit")
        assert not algorithm_accepts_seed("not_a_policy")

    def test_payloads_carry_per_unit_seeds(self, batch):
        payloads = build_payloads(["random_fit"], batch,
                                  {"random_fit": {"seed": 1}})
        seeds = [p.entries[0][1]["seed"] for p in payloads]
        assert seeds == derive_unit_seeds(1, len(batch))
        assert len(set(seeds)) == len(batch)
        assert [payload_unit_keys(p) for p in payloads] == [
            [("random_fit", i)] for i in range(len(batch))
        ]

    def test_identical_instances_draw_independent_streams(self, batch):
        # the same instance twice must not produce forced-identical runs
        dup = [batch[0], batch[0]]
        res = parallel_sweep(["random_fit"], dup, processes=0,
                             algorithm_kwargs={"random_fit": {"seed": 0}})
        costs = [r.cost for r in res["random_fit"]]
        assert costs == [111.0, 112.0]  # golden: distinct streams

    def test_golden_sweep_costs(self, batch):
        # pins the post-fix per-unit-seed behaviour end to end
        res = parallel_sweep(["random_fit"], batch, processes=0,
                             algorithm_kwargs={"random_fit": {"seed": 1}})
        assert [r.cost for r in res["random_fit"]] == [
            111.0, 104.0, 121.0, 113.0, 95.0, 113.0,
        ]
