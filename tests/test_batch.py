"""Batched sweep execution: BatchRunner, InstanceSpec, engine="batch".

The acceptance tests of :mod:`repro.simulation.batch`:

* **three-way differential** — for every recipe of the verification
  corpus and every Section 7 policy, the batched pass (shared replay
  context, re-armed engine, shared lower bound) must produce the exact
  assignment, bin count, and Eq. 1 cost of both the per-unit fast path
  and the classic engine;
* **spec fidelity** — ``spec_batch`` materialises to the same
  instances, bit for bit, as ``generate_batch``; specs round-trip
  through their payload dict; irreproducible seeds are rejected;
* **dispatch equality** — ``parallel_sweep(engine="batch")`` (serial
  and pooled) and ``run_many(engine="batch")`` agree with per-unit
  dispatch;
* **resume-mid-batch** — a ``parallel_sweep(engine="batch")`` cut off
  mid-run by ``max_units`` and resumed from its checkpoint reloads
  exactly what was completed and finishes bit-identically;
* **amortisation pins** — the Lemma 1 lower bound is computed exactly
  once per instance on every consuming path (BatchRunner, the serial
  sweep cell, the bench scenario runner), guarding the hoist against
  regression.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.core.errors import ConfigurationError
from repro.core.packing import Packing
from repro.simulation.batch import (
    BatchRunner,
    InstanceSpec,
    batch_run_many,
    clear_instance_cache,
    instance_cache_info,
    materialize,
    spec_batch,
)
from repro.simulation.fastpath import FastEngine, available_backends
from repro.simulation.parallel import derive_unit_seeds, parallel_sweep
from repro.simulation.runner import run, run_many
from repro.verify.generators import CORPUS_RECIPES, corpus_list
from repro.workloads.base import generate_batch
from repro.workloads.uniform import UniformWorkload

_SEED = 20230613

CORPUS = corpus_list(len(CORPUS_RECIPES), seed=_SEED)


def _ids(entries):
    return [e.recipe for e in entries]


def _keys(results):
    return {
        name: [(r.instance_index, r.cost, r.num_bins, r.lower_bound)
               for r in results[name]]
        for name in results
    }


# ----------------------------------------------------------------------
# three-way differential over the corpus
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entry", CORPUS, ids=_ids(CORPUS))
def test_three_way_batch_vs_fastpath_vs_classic(entry):
    """Batched pass == per-unit fast path == classic, per corpus recipe."""
    inst = entry.instance
    entries = [
        (policy, {"seed": 0} if policy == "random_fit" else None)
        for policy in PAPER_ALGORITHMS
    ]
    runner = BatchRunner(inst)
    units, assignments = runner.run_units(entries, keep_assignments=True)

    for (policy, _), unit, assignment in zip(entries, units, assignments):
        kwargs = {"seed": 0} if policy == "random_fit" else {}
        classic = run(make_algorithm(policy, **kwargs), inst)
        fast = FastEngine(inst, policy, seed=0).run()

        assert assignment == dict(classic.assignment), (
            f"batched vs classic assignment diverged on {entry.recipe}/{policy}"
        )
        assert assignment == dict(fast.assignment), (
            f"batched vs fastpath assignment diverged on {entry.recipe}/{policy}"
        )
        # bit identity, not approx: the batched cost replays the exact
        # Packing.from_assignment float operations
        assert unit.cost == classic.cost == fast.cost
        assert unit.num_bins == classic.num_bins == fast.num_bins


@pytest.mark.parametrize("backend", available_backends())
def test_batch_runner_backend_override(backend):
    """An explicit backend produces the same aggregates as the heuristic."""
    inst = CORPUS[0].instance
    entries = [(p, None) for p in ("first_fit", "best_fit", "move_to_front")]
    default = BatchRunner(inst).run_units(entries)
    forced = BatchRunner(inst, backend=backend).run_units(entries)
    assert [(u.cost, u.num_bins) for u in default] == \
        [(u.cost, u.num_bins) for u in forced]


def test_batch_runner_classic_fallback_shares_lower_bound():
    """Non-fast-eligible entries run classically but share the LB."""
    inst = CORPUS[2].instance
    units = BatchRunner(inst).run_units(
        [("first_fit", None), ("best_fit", {"measure": "l1"})]
    )
    classic = run(make_algorithm("best_fit", measure="l1"), inst)
    assert units[1].cost == classic.cost
    assert units[1].num_bins == classic.num_bins
    assert units[0].lower_bound == units[1].lower_bound


def test_batch_runner_trials_match_per_seed_runs():
    """Seeded random_fit entries == a fresh per-unit run per seed, bit for bit."""
    inst = CORPUS[1].instance
    seeds = derive_unit_seeds(99, 6)
    trials = BatchRunner(inst).run_units([("random_fit", {"seed": s}) for s in seeds])
    assert len(trials) == len(seeds)
    for seed, unit in zip(seeds, trials):
        packing = FastEngine(inst, "random_fit", seed=seed).run()
        assert unit.cost == packing.cost
        assert unit.num_bins == packing.num_bins


def test_batch_runner_run_packing_matches_run():
    inst = CORPUS[3].instance
    runner = BatchRunner(inst)
    for policy in ("move_to_front", "next_fit"):
        packing = runner.run_packing(policy)
        assert isinstance(packing, Packing)
        expected = run(policy, inst)
        assert dict(packing.assignment) == dict(expected.assignment)
        assert packing.cost == expected.cost


# ----------------------------------------------------------------------
# specs: fidelity, round-trip, cache
# ----------------------------------------------------------------------
def test_spec_batch_materializes_generate_batch_twins():
    gen = UniformWorkload(d=3, n=50, mu=7, T=200, B=40)
    for seed in (0, 123, 77):
        # fresh SeedSequence per side: spawn() advances n_children_spawned,
        # so a shared object would hand the two calls different children
        specs = spec_batch(gen, 4, seed=np.random.SeedSequence(seed))
        expected = generate_batch(gen, 4, seed=np.random.SeedSequence(seed))
        assert [s.materialize().to_dict() for s in specs] == \
            [inst.to_dict() for inst in expected]


def test_spec_round_trips_through_payload_dict():
    gen = UniformWorkload(d=2, n=30, mu=5)
    spec = spec_batch(gen, 2, seed=5)[1]
    clone = InstanceSpec.from_dict(spec.to_dict())
    assert clone == spec
    assert clone.materialize().to_dict() == spec.materialize().to_dict()
    # specs are hashable (they key the worker cache) and picklable
    assert hash(clone) == hash(spec)
    assert pickle.loads(pickle.dumps(spec)) == spec


def test_spec_rejects_irreproducible_sources():
    gen = UniformWorkload(d=1, n=10, mu=2)
    with pytest.raises(ConfigurationError):
        # a live Generator's state cannot be shipped to workers
        spec_batch(gen, 2, seed=np.random.default_rng(0))
    from repro.workloads.poisson import PoissonWorkload

    with pytest.raises(ConfigurationError):
        # sampler objects do not round-trip through describe()
        InstanceSpec.from_generator(PoissonWorkload(), 0)


def test_spec_unknown_generator_rejected():
    spec = InstanceSpec(generator="no-such-gen", params=(), entropy=0)
    with pytest.raises(ConfigurationError):
        materialize(spec)


def test_instance_cache_hits_on_repeated_materialize():
    clear_instance_cache()
    spec = spec_batch(UniformWorkload(d=2, n=20, mu=3), 1, seed=3)[0]
    first = spec.materialize()
    again = spec.materialize()
    assert again is first  # the LRU returns the cached object
    info = instance_cache_info()
    assert info.hits >= 1 and info.misses >= 1
    clear_instance_cache()
    assert instance_cache_info().currsize == 0


# ----------------------------------------------------------------------
# dispatch equality: parallel_sweep / run_many
# ----------------------------------------------------------------------
def _sweep_fixture():
    gen = UniformWorkload(d=2, n=40, mu=5)
    specs = spec_batch(gen, 4, seed=17)
    instances = [s.materialize() for s in specs]
    algos = ["first_fit", "move_to_front", "best_fit", "random_fit"]
    kwargs = {"random_fit": {"seed": 13}}
    return specs, instances, algos, kwargs


def test_parallel_sweep_batch_serial_matches_per_unit():
    specs, instances, algos, kwargs = _sweep_fixture()
    per_unit = parallel_sweep(
        algos, instances, processes=0, algorithm_kwargs=kwargs, engine="fast"
    )
    batched = parallel_sweep(
        algos, specs, processes=0, algorithm_kwargs=kwargs, engine="batch"
    )
    assert _keys(per_unit) == _keys(batched)
    # batch dispatch accepts materialised instances too
    batched_inst = parallel_sweep(
        algos, instances, processes=0, algorithm_kwargs=kwargs, engine="batch"
    )
    assert _keys(per_unit) == _keys(batched_inst)


def test_parallel_sweep_batch_pooled_matches_serial():
    specs, instances, algos, kwargs = _sweep_fixture()
    serial = parallel_sweep(
        algos, specs, processes=0, algorithm_kwargs=kwargs, engine="batch"
    )
    pooled = parallel_sweep(
        algos, specs, processes=2, algorithm_kwargs=kwargs, engine="batch"
    )
    assert _keys(serial) == _keys(pooled)


def test_parallel_sweep_batch_collect_stats():
    specs, _, algos, kwargs = _sweep_fixture()
    results = parallel_sweep(
        algos, specs[:2], processes=0, algorithm_kwargs=kwargs,
        engine="batch", collect_stats=True,
    )
    for units in results.values():
        for unit in units:
            assert unit.stats is not None
            assert unit.stats.runs == 1


def test_run_many_batch_matches_per_instance_runs():
    specs, instances, _, _ = _sweep_fixture()
    for algo in ("move_to_front", "random_fit"):
        expected = run_many(algo, instances, engine="fast")
        for got in (
            run_many(algo, instances, engine="batch"),
            batch_run_many(algo, specs),
        ):
            assert [dict(p.assignment) for p in got] == \
                [dict(p.assignment) for p in expected]
            assert [p.cost for p in got] == [p.cost for p in expected]


def test_run_engine_batch_matches_classic():
    inst = _sweep_fixture()[1][0]
    batch = run("first_fit", inst, engine="batch", validate=True)
    classic = run("first_fit", inst)
    assert dict(batch.assignment) == dict(classic.assignment)
    assert batch.cost == classic.cost


# ----------------------------------------------------------------------
# resume-mid-batch
# ----------------------------------------------------------------------
def test_resumable_sweep_batch_kill_resume_bit_identity(tmp_path):
    """Cut a batched sweep mid-run; the resume completes bit-identically."""
    from repro.observability.stats import StatsCollector

    specs, _, algos, kwargs = _sweep_fixture()
    plain = parallel_sweep(
        algos, specs, processes=0, algorithm_kwargs=kwargs, engine="batch"
    )
    total = sum(len(v) for v in plain.values())
    cut = total // 2

    ckpt = str(tmp_path / "ckpt")
    partial = parallel_sweep(
        algos, specs, processes=0, algorithm_kwargs=kwargs, engine="batch",
        checkpoint_dir=ckpt, flush_every=1, max_units=cut,
    )
    done = sum(len(v) for v in partial.values())
    # batch payloads complete atomically, so the cut lands on a payload
    # boundary at or past max_units — but strictly mid-sweep
    assert cut <= done < total

    col = StatsCollector()
    resumed = parallel_sweep(
        algos, specs, processes=0, algorithm_kwargs=kwargs, engine="batch",
        checkpoint_dir=ckpt, resume=True, collector=col,
    )
    assert col.snapshot().units_resumed == done
    assert _keys(resumed) == _keys(plain)


def test_resumable_sweep_batch_resume_trims_partial_payloads(tmp_path):
    """A payload with only *some* units checkpointed re-runs only the rest."""
    from repro.orchestration import CheckpointStore, sweep_fingerprint
    from repro.simulation.parallel import UnitResult

    specs, _, algos, kwargs = _sweep_fixture()
    plain = parallel_sweep(
        algos, specs, processes=0, algorithm_kwargs=kwargs, engine="batch"
    )

    # fabricate a checkpoint holding one unit out of instance 0's payload
    ckpt = str(tmp_path / "partial")
    fp = sweep_fingerprint(algos, specs, kwargs, "batch")
    store = CheckpointStore(ckpt, fingerprint=fp)
    seeded = plain[algos[0]][0]
    store.append(
        UnitResult(
            algorithm=seeded.algorithm, instance_index=0, cost=seeded.cost,
            num_bins=seeded.num_bins, lower_bound=seeded.lower_bound,
        )
    )
    store.flush()

    resumed = parallel_sweep(
        algos, specs, processes=0, algorithm_kwargs=kwargs, engine="batch",
        checkpoint_dir=ckpt, resume=True,
    )
    assert _keys(resumed) == _keys(plain)


# ----------------------------------------------------------------------
# amortisation pins: Lemma 1 LB exactly once per instance
# ----------------------------------------------------------------------
def _counting(monkeypatch, module, name="height_lower_bound"):
    from repro.optimum.lower_bounds import height_lower_bound as real

    calls = []

    def counted(instance):
        calls.append(instance)
        return real(instance)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_batch_runner_computes_lower_bound_once(monkeypatch):
    import repro.simulation.batch as batch_mod

    calls = _counting(monkeypatch, batch_mod)
    runner = BatchRunner(CORPUS[0].instance)
    runner.run_units([(p, None) for p in PAPER_ALGORITHMS if p != "random_fit"])
    runner.run_units([("random_fit", {"seed": s}) for s in range(4)])
    assert len(calls) == 1


def test_sweep_cell_computes_lower_bound_once_per_instance(monkeypatch):
    import repro.analysis.sweep as sweep_mod
    import repro.simulation.parallel as parallel_mod

    calls = _counting(monkeypatch, parallel_mod)
    instances = [e.instance for e in CORPUS[:3]]
    sweep_mod.sweep_cell(["first_fit", "best_fit", "move_to_front"], instances)
    assert len(calls) == len(instances)


def test_bench_scenario_computes_lower_bound_once(monkeypatch):
    import repro.bench as bench_mod

    calls = _counting(monkeypatch, bench_mod)
    scenario = bench_mod.SMOKE_SCENARIOS[0]
    bench_mod.run_scenario(scenario, ["first_fit", "move_to_front"], repeats=1)
    assert len(calls) == 1


def test_column_cost_matches_packing_on_out_of_order_uids():
    """The batched Eq. 1 cost reads the time columns by position; uids
    that are not positions, and integer times, keep it equal to the
    packing's cost."""
    from repro.core.instance import Instance
    from repro.core.items import Item

    items = [
        Item(0, 4, np.array([0.5]), uid=30),
        Item(1, 3, np.array([0.4]), uid=10),
        Item(2, 6, np.array([0.7]), uid=20),
        Item(5, 9, np.array([0.2]), uid=0),
    ]
    inst = Instance(items)
    runner = BatchRunner(inst)
    results, assignments = runner.run_units(
        [(p, None) for p in PAPER_ALGORITHMS if p != "random_fit"], keep_assignments=True
    )
    for unit, assignment in zip(results, assignments):
        packing = Packing.from_assignment(inst, assignment)
        assert unit.cost == packing.cost
        assert unit.num_bins == packing.num_bins
