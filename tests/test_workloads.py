"""Tests for the workload generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.workloads.base import generate_batch, iter_batch
from repro.workloads.correlated import CorrelatedWorkload
from repro.workloads.distributions import (
    DirichletSize,
    ExponentialDuration,
    LognormalDuration,
    ParetoDuration,
    UniformDuration,
    UniformIntegerSize,
)
from repro.workloads.poisson import PoissonWorkload
from repro.workloads.trace import DEFAULT_VM_CATALOGUE, CloudTraceWorkload, VMType
from repro.workloads.uniform import UniformWorkload


class TestUniformWorkload:
    def test_paper_ranges(self):
        gen = UniformWorkload(d=2, n=100, mu=10, T=100, B=20)
        inst = gen.sample_seeded(0)
        assert inst.n == 100 and inst.d == 2
        for it in inst:
            assert 0 <= it.arrival <= 100 - 10
            assert 1 <= it.duration <= 10
            assert np.all((1 <= it.size) & (it.size <= 20))
            assert float(it.arrival).is_integer()
            assert float(it.duration).is_integer()

    def test_capacity_is_B(self):
        inst = UniformWorkload(d=3, n=10, mu=2, T=10, B=7).sample_seeded(0)
        assert np.allclose(inst.capacity, 7.0)

    def test_mu_at_most_parameter(self):
        inst = UniformWorkload(d=1, n=200, mu=5, T=100, B=10).sample_seeded(1)
        assert inst.mu <= 5.0

    def test_mu_one_all_unit_durations(self):
        inst = UniformWorkload(d=1, n=50, mu=1, T=100, B=10).sample_seeded(2)
        assert all(it.duration == 1.0 for it in inst)

    def test_items_sorted_by_arrival(self):
        inst = UniformWorkload(d=1, n=100, mu=5, T=50, B=10).sample_seeded(3)
        arrivals = [it.arrival for it in inst]
        assert arrivals == sorted(arrivals)

    def test_same_seed_same_instance(self):
        gen = UniformWorkload(d=2, n=30, mu=5, T=30, B=10)
        a = gen.sample_seeded(9)
        b = gen.sample_seeded(9)
        assert a.to_json() == b.to_json()

    def test_different_seed_different_instance(self):
        gen = UniformWorkload(d=2, n=30, mu=5, T=30, B=10)
        assert gen.sample_seeded(1).to_json() != gen.sample_seeded(2).to_json()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0),
            dict(n=0),
            dict(mu=0),
            dict(B=0),
            dict(mu=1000, T=1000),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            UniformWorkload(**kwargs)

    def test_describe_exposes_parameters(self):
        desc = UniformWorkload(d=2, n=30, mu=5, T=30, B=10).describe()
        assert desc["d"] == 2 and desc["B"] == 10


class TestBatchHelpers:
    def test_batch_count(self):
        gen = UniformWorkload(d=1, n=10, mu=2, T=10, B=5)
        assert len(generate_batch(gen, 7, seed=0)) == 7

    def test_batch_instances_independent(self):
        gen = UniformWorkload(d=1, n=10, mu=2, T=10, B=5)
        batch = generate_batch(gen, 4, seed=0)
        assert len({inst.to_json() for inst in batch}) > 1

    def test_batch_reproducible(self):
        gen = UniformWorkload(d=1, n=10, mu=2, T=10, B=5)
        a = [i.to_json() for i in generate_batch(gen, 5, seed=3)]
        b = [i.to_json() for i in generate_batch(gen, 5, seed=3)]
        assert a == b

    def test_iter_batch_lazy(self):
        gen = UniformWorkload(d=1, n=10, mu=2, T=10, B=5)
        it = iter_batch(gen, 3, seed=0)
        assert next(it).n == 10


class TestDistributions:
    def test_uniform_duration_bounds(self, rng):
        d = UniformDuration(low=2, high=9)
        vals = d.draw(rng, 500)
        assert vals.min() >= 2 and vals.max() <= 9

    def test_exponential_clipped(self, rng):
        d = ExponentialDuration(mean=5, floor=1, cap=20)
        vals = d.draw(rng, 500)
        assert vals.min() >= 1 and vals.max() <= 20

    def test_lognormal_clipped(self, rng):
        d = LognormalDuration(floor=1, cap=50)
        vals = d.draw(rng, 500)
        assert vals.min() >= 1 and vals.max() <= 50

    def test_pareto_heavy_tail(self, rng):
        d = ParetoDuration(alpha=1.1, floor=1, cap=10_000)
        vals = d.draw(rng, 3000)
        assert vals.max() > 50  # the tail actually reaches out

    def test_uniform_integer_size_range(self, rng):
        s = UniformIntegerSize(B=12)
        vals = s.draw(rng, 200, 3)
        assert vals.shape == (200, 3)
        assert vals.min() >= 1 and vals.max() <= 12

    def test_dirichlet_size_peak_is_magnitude(self, rng):
        s = DirichletSize(min_mag=0.2, max_mag=0.8)
        vals = s.draw(rng, 300, 4)
        peaks = vals.max(axis=1)
        assert peaks.min() >= 0.2 - 1e-9 and peaks.max() <= 0.8 + 1e-9

    @pytest.mark.parametrize(
        "ctor",
        [
            lambda: UniformDuration(low=0),
            lambda: ExponentialDuration(mean=-1),
            lambda: LognormalDuration(log_sigma=0),
            lambda: ParetoDuration(alpha=0),
            lambda: UniformIntegerSize(B=0),
            lambda: DirichletSize(min_mag=0),
        ],
    )
    def test_invalid_distribution_params(self, ctor):
        with pytest.raises(ConfigurationError):
            ctor()


class TestPoissonWorkload:
    def test_basic_sample(self, rng):
        gen = PoissonWorkload(d=2, rate=0.5, horizon=100)
        inst = gen.sample(rng)
        assert inst.d == 2
        assert all(0 <= it.arrival <= 100 for it in inst)

    def test_min_items_floor(self, rng):
        gen = PoissonWorkload(d=1, rate=0.0001, horizon=1, min_items=3)
        assert gen.sample(rng).n >= 3

    def test_capacity_follows_size_sampler(self):
        int_gen = PoissonWorkload(d=2, sizes=UniformIntegerSize(B=50))
        assert np.allclose(int_gen.capacity, 50.0)
        unit_gen = PoissonWorkload(d=2, sizes=DirichletSize())
        assert np.allclose(unit_gen.capacity, 1.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            PoissonWorkload(rate=0)
        with pytest.raises(ConfigurationError):
            PoissonWorkload(min_items=0)

    def test_simulatable(self, rng):
        from repro.simulation.runner import run

        gen = PoissonWorkload(d=2, rate=0.3, horizon=60, sizes=DirichletSize())
        run("move_to_front", gen.sample(rng), validate=True)


class TestCorrelatedWorkload:
    def test_rho_increases_correlation(self):
        rng = np.random.default_rng(0)
        lo = CorrelatedWorkload(d=3, n=2000, rho=0.0).empirical_correlation(rng)
        rng = np.random.default_rng(0)
        hi = CorrelatedWorkload(d=3, n=2000, rho=0.9).empirical_correlation(rng)
        assert hi > lo + 0.3

    def test_empirical_correlation_samples_n_items(self):
        # the diagnostic draws n items, not the generator's own n; two
        # points would give a correlation of +-1.  With uniform marginals
        # the copula's rho = 0.5 gives (6/pi) asin(rho/2) = 0.4826.
        rng = np.random.default_rng(0)
        r = CorrelatedWorkload(d=2, n=2, rho=0.5).empirical_correlation(rng, n=5000)
        assert abs(r - 0.48) < 0.1

    def test_sizes_within_range(self, rng):
        gen = CorrelatedWorkload(d=2, n=300, rho=0.5, min_size=0.1, max_size=0.6)
        inst = gen.sample(rng)
        sizes = np.stack([it.size for it in inst])
        assert sizes.min() >= 0.1 - 1e-9 and sizes.max() <= 0.6 + 1e-9

    def test_invalid_rho(self):
        with pytest.raises(ConfigurationError):
            CorrelatedWorkload(rho=1.0)
        with pytest.raises(ConfigurationError):
            CorrelatedWorkload(rho=-0.1)


class TestCloudTraceWorkload:
    def test_basic_sample(self, rng):
        gen = CloudTraceWorkload(days=1, base_rate=3.0)
        inst = gen.sample(rng)
        assert inst.d == 2
        assert inst.n > 10

    def test_demands_from_catalogue(self, rng):
        gen = CloudTraceWorkload(days=1, base_rate=2.0, batch_mean=1.0)
        inst = gen.sample(rng)
        shapes = {tuple(t.demand) for t in DEFAULT_VM_CATALOGUE}
        for it in inst:
            assert tuple(it.size) in shapes

    def test_lifetimes_clipped(self, rng):
        gen = CloudTraceWorkload(days=1, min_lifetime=0.5, max_lifetime=10.0)
        inst = gen.sample(rng)
        for it in inst:
            assert 0.5 <= it.duration <= 10.0 + 1e-9

    def test_custom_catalogue_dimensionality(self, rng):
        cat = (VMType("a", (0.2, 0.2, 0.2), 1.0), VMType("b", (0.5, 0.1, 0.3), 1.0))
        gen = CloudTraceWorkload(catalogue=cat, days=1, base_rate=2.0)
        assert gen.sample(rng).d == 3

    def test_mixed_catalogue_rejected(self):
        cat = (VMType("a", (0.2,), 1.0), VMType("b", (0.5, 0.1), 1.0))
        with pytest.raises(ConfigurationError):
            CloudTraceWorkload(catalogue=cat)

    def test_vm_type_validation(self):
        with pytest.raises(ConfigurationError):
            VMType("bad", (1.5,), 1.0)
        with pytest.raises(ConfigurationError):
            VMType("bad", (0.5,), 0.0)

    def test_simulatable(self, rng):
        from repro.simulation.runner import run

        inst = CloudTraceWorkload(days=1, base_rate=2.0).sample(rng)
        run("move_to_front", inst, validate=True)
