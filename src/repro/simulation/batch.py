"""Batched sweep execution: one instance, N policies x M trials, one pass.

The Section 7 evaluation replays every generated instance under all seven
Any Fit policies (Table 2) and under many seeded ``random_fit`` trials
(Figure 4).  Dispatching those as independent units — the ``engine="fast"``
sweep path — repeats a large amount of policy-independent work per unit:
unpickling or regenerating the instance, stacking the size matrix,
lexsorting the event index, computing the Lemma 1 lower bound, and
materialising a :class:`~repro.core.packing.Packing` whose only consumed
outputs are the Eq. 1 cost and the bin count.  At Table 2 scale that
shared work dominates the actual replay.

This module amortises it at two levels:

* :class:`BatchRunner` — executes one instance under many policies/seeds
  in a single pass.  The :class:`~repro.simulation.fastpath.ReplayContext`
  (flat event-index array, size matrix, capacity slack), the fast
  engine's residual-matrix scratch buffers (via
  :meth:`~repro.simulation.fastpath.FastEngine.reset`), and the Lemma 1
  lower bound are each built **once per instance** and shared across all
  replays; seeded ``random_fit`` trials are entries like any other
  (``("random_fit", {"seed": s})``).  Aggregates are bit-identical to
  serial classic/fastpath runs — enforced by the ``compare_with_batch``
  oracle in :mod:`repro.verify.oracles`.

* :class:`InstanceSpec` — a compact run spec (generator name + scalar
  params + SeedSequence entropy/spawn-key) that sweep dispatch ships to
  workers *instead of a pickled instance*.  Workers regenerate the
  instance locally through a small LRU cache keyed by the spec, so the
  7-policy fan-out over one instance generates it exactly once per
  worker; because ``parallel_sweep(engine="batch")`` ships one payload
  per instance (all policies grouped), the cache hit is guaranteed by
  construction.

Cost fidelity
-------------
:meth:`BatchRunner.run_units` skips :class:`~repro.core.packing.Packing`
construction on the fast path and recomputes its exact cost arithmetic
from the raw assignment: per bin, ``usage_time = max departure - min
arrival`` over members, summed left-to-right in bin-index (= opening)
order — the identical IEEE-754 operations
:meth:`Packing.from_assignment <repro.core.packing.Packing.from_assignment>`
performs, so costs match bit for bit, not just within tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..algorithms.registry import make_algorithm
from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.packing import Packing
from ..observability.stats import StatsCollector
from ..optimum.lower_bounds import height_lower_bound
from ..workloads.base import WorkloadGenerator
from ..workloads.uniform import UniformWorkload
from .engine import _note_fallback
from .fastpath import (
    FastEngine,
    ReplayContext,
    choose_backend,
    fast_ineligibility_reason,
    fast_policy_for,
)
from .runner import run

__all__ = [
    "InstanceSpec",
    "register_spec_generator",
    "spec_batch",
    "materialize",
    "instance_cache_info",
    "clear_instance_cache",
    "BatchRunner",
    "batch_run_many",
]

BatchSource = Union[Instance, "InstanceSpec"]

# ----------------------------------------------------------------------
# run specs: (generator, params, seed) in place of a pickled Instance
# ----------------------------------------------------------------------

#: Named generator factories a spec may reference.  A factory must
#: rebuild the generator *faithfully* from its ``describe()`` dict —
#: i.e. every decision-relevant parameter is a scalar ``describe()``
#: exposes.  The stock registration covers :class:`UniformWorkload`
#: (the Section 7 workload); generators with non-scalar configuration
#: (e.g. Poisson's sampler objects) must not be registered unless
#: wrapped so their full configuration round-trips.
_SPEC_GENERATORS: Dict[str, Callable[..., WorkloadGenerator]] = {}


def register_spec_generator(name: str, factory: Callable[..., WorkloadGenerator]) -> None:
    """Register a generator factory for :class:`InstanceSpec` resolution."""
    _SPEC_GENERATORS[name] = factory


register_spec_generator("uniform", UniformWorkload)


def _generator_name(generator: WorkloadGenerator) -> str:
    for name, factory in _SPEC_GENERATORS.items():
        if type(generator) is factory:
            return name
    raise ConfigurationError(
        f"{type(generator).__name__} has no registered spec factory; "
        "register one with register_spec_generator() (its describe() dict "
        "must rebuild it faithfully)"
    )


@dataclass(frozen=True)
class InstanceSpec:
    """A compact, hashable recipe for regenerating one instance in-worker.

    Ships over the pool boundary instead of a pickled
    :class:`~repro.core.instance.Instance`: a registered generator name,
    its scalar parameters, and the exact ``numpy`` SeedSequence identity
    (``entropy`` + ``spawn_key``) of the stream the instance was drawn
    from.  ``SeedSequence(entropy, spawn_key=K).spawn(i)`` children are
    themselves ``SeedSequence(entropy, spawn_key=K + (i,))``, so specs
    compose with :func:`repro.workloads.base.generate_batch` exactly —
    :func:`spec_batch` returns specs that materialise to the identical
    instances, bit for bit.

    Being frozen and hashable, a spec doubles as the key of the
    in-worker LRU instance cache (:func:`materialize`).
    """

    generator: str
    params: Tuple[Tuple[str, object], ...]
    entropy: Union[int, Tuple[int, ...]]
    spawn_key: Tuple[int, ...] = ()

    @classmethod
    def from_generator(
        cls,
        generator: WorkloadGenerator,
        seed: Union[int, np.random.SeedSequence],
    ) -> "InstanceSpec":
        """Spec for ``generator.sample(default_rng(seed))``.

        ``seed`` may be an int or a SeedSequence (e.g. one spawned by an
        experiment driver).  Sequences without explicit entropy (OS
        entropy) are rejected — they cannot be reproduced in a worker.
        """
        name = _generator_name(generator)
        params = generator.describe()
        rebuilt = _SPEC_GENERATORS[name](**params)
        if rebuilt.describe() != params:
            raise ConfigurationError(
                f"generator {name!r} does not round-trip through describe(); "
                "it cannot be shipped as a spec"
            )
        if isinstance(seed, np.random.SeedSequence):
            ss = seed
        else:
            ss = np.random.SeedSequence(int(seed))
        if ss.entropy is None:
            raise ConfigurationError(
                "InstanceSpec needs a SeedSequence with explicit entropy; "
                "OS-entropy streams are not reproducible in workers"
            )
        entropy = ss.entropy
        if isinstance(entropy, (int, np.integer)):
            entropy_key: Union[int, Tuple[int, ...]] = int(entropy)
        else:
            entropy_key = tuple(int(e) for e in entropy)
        return cls(
            generator=name,
            params=tuple(sorted(params.items())),
            entropy=entropy_key,
            spawn_key=tuple(int(k) for k in ss.spawn_key),
        )

    def seed_sequence(self) -> np.random.SeedSequence:
        """The exact SeedSequence this spec pins."""
        entropy = self.entropy if isinstance(self.entropy, int) else list(self.entropy)
        return np.random.SeedSequence(entropy=entropy, spawn_key=self.spawn_key)

    def materialize(self) -> Instance:
        """Regenerate the instance (through the module LRU cache)."""
        return materialize(self)

    # -- serialisation (payload/fingerprint form) -----------------------
    def to_dict(self) -> dict:
        """Plain-dict form suitable for ``json.dump`` and pool payloads."""
        return {
            "kind": "instance-spec",
            "generator": self.generator,
            "params": {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.params},
            "entropy": list(self.entropy) if isinstance(self.entropy, tuple) else self.entropy,
            "spawn_key": list(self.spawn_key),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "InstanceSpec":
        """Inverse of :meth:`to_dict`."""
        params = {
            k: (tuple(v) if isinstance(v, list) else v)
            for k, v in payload["params"].items()
        }
        entropy = payload["entropy"]
        return cls(
            generator=payload["generator"],
            params=tuple(sorted(params.items())),
            entropy=tuple(int(e) for e in entropy) if isinstance(entropy, list) else int(entropy),
            spawn_key=tuple(int(k) for k in payload["spawn_key"]),
        )


def spec_batch(
    generator: WorkloadGenerator,
    count: int,
    seed: Union[int, np.random.SeedSequence] = 0,
) -> List[InstanceSpec]:
    """Spec twins of ``generate_batch(generator, count, seed)``.

    ``[s.materialize() for s in spec_batch(g, m, seed)]`` equals
    ``generate_batch(g, m, seed)`` item for item, bit for bit.
    """
    if isinstance(seed, np.random.SeedSequence):
        ss = seed
    elif isinstance(seed, np.random.Generator):
        raise ConfigurationError(
            "spec_batch needs an int or SeedSequence seed; a Generator's "
            "state cannot be shipped to workers reproducibly"
        )
    else:
        ss = np.random.SeedSequence(seed)
    return [InstanceSpec.from_generator(generator, child) for child in ss.spawn(count)]


@lru_cache(maxsize=8)
def _materialize_cached(spec: InstanceSpec) -> Instance:
    gen = _SPEC_GENERATORS[spec.generator](**dict(spec.params))
    return gen.sample(np.random.default_rng(spec.seed_sequence()))


def materialize(spec: InstanceSpec) -> Instance:
    """Regenerate ``spec``'s instance via the in-worker LRU cache.

    The cache is keyed by the (hashable) spec itself — generator name,
    params, entropy, spawn key.  Capacity 8 is deliberately small: the
    batch dispatch groups all same-instance units into one payload, so a
    worker revisits a spec only across immediately adjacent payload
    boundaries (e.g. a partially resumed instance).
    """
    if spec.generator not in _SPEC_GENERATORS:
        raise ConfigurationError(
            f"unknown spec generator {spec.generator!r}; register it with "
            "register_spec_generator() in the worker process too"
        )
    return _materialize_cached(spec)


def instance_cache_info():
    """``functools.lru_cache`` statistics of the in-worker instance cache."""
    return _materialize_cached.cache_info()


def clear_instance_cache() -> None:
    """Drop all cached instances (tests and cold-cache benchmarks)."""
    _materialize_cached.cache_clear()


# ----------------------------------------------------------------------
# the batched runner
# ----------------------------------------------------------------------
class BatchRunner:
    """Executes one instance under N policies x M trials in a single pass.

    Shared, built once per instance on first use and reused by every
    subsequent replay:

    * the instance itself (materialised through the LRU cache when the
      source is an :class:`InstanceSpec`),
    * the Lemma 1(i) :func:`height lower bound
      <repro.optimum.lower_bounds.height_lower_bound>`,
    * the :class:`~repro.simulation.fastpath.ReplayContext` (event index,
      size matrix, slack),
    * one re-armed :class:`~repro.simulation.fastpath.FastEngine` whose
      residual-matrix scratch buffers persist across
      :meth:`~repro.simulation.fastpath.FastEngine.reset` calls.

    Policies that are not fast-eligible (exotic kwargs, unregistered
    subclasses) fall back to a classic engine run per unit — still
    amortising the instance materialisation and the lower bound.

    Parameters
    ----------
    source:
        An :class:`~repro.core.instance.Instance` or an
        :class:`InstanceSpec` to materialise lazily.
    backend:
        Fastpath backend override; default is the per-instance
        :func:`~repro.simulation.fastpath.choose_backend` heuristic.
    lower_bound:
        The instance's Lemma 1 bound when the caller already computed
        it; ``None`` computes it on first use.
    """

    __slots__ = ("source", "backend", "_instance", "_lb", "_ctx", "_engine")

    def __init__(
        self,
        source: BatchSource,
        backend: Optional[str] = None,
        lower_bound: Optional[float] = None,
    ) -> None:
        self.source = source
        self.backend = backend
        self._instance: Optional[Instance] = source if isinstance(source, Instance) else None
        self._lb: Optional[float] = lower_bound
        self._ctx: Optional[ReplayContext] = None
        self._engine: Optional[FastEngine] = None

    @property
    def instance(self) -> Instance:
        """The materialised instance (lazy for spec sources)."""
        inst = self._instance
        if inst is None:
            inst = self._instance = materialize(self.source)
        return inst

    @property
    def lower_bound(self) -> float:
        """Lemma 1 lower bound, computed exactly once per instance."""
        lb = self._lb
        if lb is None:
            lb = self._lb = height_lower_bound(self.instance)
        return lb

    # ------------------------------------------------------------------
    def _fast_engine(self, policy: str, seed: int, collector) -> FastEngine:
        ctx = self._ctx
        if ctx is None:
            backend = self.backend if self.backend is not None else choose_backend(self.instance)
            ctx = self._ctx = ReplayContext(self.instance, backend)
        if self._engine is None:
            self._engine = FastEngine(
                ctx.instance, policy, seed=seed, collector=collector,
                backend=ctx.backend, context=ctx,
            )
        else:
            self._engine.reset(policy=policy, seed=seed, collector=collector, context=ctx)
        return self._engine

    def _cost_and_bins(self, assignment: Dict[int, int]) -> Tuple[float, int]:
        # Bit-identical twin of Packing.from_assignment + Packing.cost,
        # over the instance's time columns: per bin the usage hull is
        # (min arrival, max departure) over members — exact in any order
        # — and the total is a left-to-right Python float sum in
        # bin-index order.  The fast engines number bins 0..k-1 in
        # opening order, so id order is the Packing's bins order.
        inst = self.instance
        bins = np.array([assignment[uid] for uid in self._ctx.uids], dtype=np.int64)
        k = int(bins.max()) + 1
        opened = np.full(k, np.inf)
        closed = np.full(k, -np.inf)
        np.minimum.at(opened, bins, inst.arrival_times)
        np.maximum.at(closed, bins, inst.departure_times)
        return sum((closed - opened).tolist()), k

    # ------------------------------------------------------------------
    def run_units(
        self,
        entries: Sequence[Tuple[str, Optional[dict]]],
        instance_index: int = 0,
        collect_stats: bool = False,
        keep_assignments: bool = False,
        engine: str = "batch",
    ):
        """Run ``(algorithm, kwargs)`` entries; return sweep unit results.

        Each entry yields one
        :class:`~repro.simulation.parallel.UnitResult` carrying the same
        aggregates (cost, bin count, shared lower bound) a per-unit
        dispatch would produce, bit for bit.  With
        ``keep_assignments=True`` returns ``(results, assignments)`` so
        oracles can check the full item → bin map too.

        ``engine="batch"`` replays fast-eligible policies through the
        shared context and scratch buffers.  Any other engine spec
        :func:`~repro.simulation.runner.run` accepts (``"classic"``,
        ``"fast"``, ``"streaming"``, ``"repacking:policy:budget"``)
        runs each entry with ``run(..., engine=engine)`` on the shared
        instance.
        """
        from .parallel import UnitResult  # local: parallel imports stay one-way

        results: List["UnitResult"] = []
        assignments: List[Dict[int, int]] = []
        for name, kwargs in entries:
            collector = StatsCollector() if collect_stats else None
            algo = make_algorithm(name, **dict(kwargs or {}))
            resolved = fast_policy_for(algo) if engine == "batch" else None
            if resolved is not None:
                assignment = self._fast_engine(*resolved, collector).run_assignment()
                cost, num_bins = self._cost_and_bins(assignment)
            else:
                if engine == "batch":
                    packing = _classic_fallback(algo, self.instance, collector)
                else:
                    packing = run(algo, self.instance, collector=collector, engine=engine)
                assignment = packing.assignment
                cost, num_bins = packing.cost, packing.num_bins
            results.append(
                UnitResult(
                    algorithm=name,
                    instance_index=instance_index,
                    cost=cost,
                    num_bins=num_bins,
                    lower_bound=self.lower_bound,
                    stats=collector.snapshot() if collector is not None else None,
                )
            )
            if keep_assignments:
                assignments.append(dict(assignment))
        if keep_assignments:
            return results, assignments
        return results

    def run_packing(self, algorithm, collector: Optional[StatsCollector] = None) -> Packing:
        """One full :class:`~repro.core.packing.Packing` (runner integration).

        Fast-eligible algorithms replay through the shared
        context/buffers; others run classically.  Used by
        ``run(engine="batch")``, where the caller needs the packing
        object, not just sweep aggregates.
        """
        algo = make_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
        resolved = fast_policy_for(algo)
        if resolved is None:
            return _classic_fallback(algo, self.instance, collector)
        engine = self._fast_engine(*resolved, collector)
        return Packing.from_assignment(
            self.instance, engine.run_assignment(), algorithm=algo.name
        )


def _classic_fallback(
    algo, instance: Instance, collector: Optional[StatsCollector], validate: bool = False
) -> Packing:
    """Classic run of a policy with no fast kernel, recorded as a fallback."""
    _note_fallback(
        getattr(algo, "name", type(algo).__name__),
        fast_ineligibility_reason(algo) or "no fast kernel",
        collector,
    )
    return run(algo, instance, validate=validate, collector=collector)


def batch_run_many(
    algorithm,
    sources: Iterable[BatchSource],
    validate: bool = False,
    collector: Optional[StatsCollector] = None,
) -> List[Packing]:
    """``run_many(engine="batch")``: one algorithm over many instances.

    Reuses a single :class:`~repro.simulation.fastpath.FastEngine` (and
    its scratch buffers) across all instances via ``reset(context=...)``;
    results are bit-identical to per-instance ``run(engine="fast")``
    dispatch, with the classic engine as fallback for non-eligible
    algorithms.
    """
    algo = make_algorithm(algorithm) if isinstance(algorithm, str) else algorithm
    resolved = fast_policy_for(algo)
    packings: List[Packing] = []
    engine: Optional[FastEngine] = None
    for source in sources:
        inst = source if isinstance(source, Instance) else materialize(source)
        if resolved is None:
            packings.append(_classic_fallback(algo, inst, collector, validate=validate))
            continue
        policy, seed = resolved
        ctx = ReplayContext(inst, choose_backend(inst))
        if engine is None or engine.backend != ctx.backend:
            engine = FastEngine(
                inst, policy, seed=seed, collector=collector,
                backend=ctx.backend, context=ctx,
            )
        else:
            engine.reset(policy=policy, seed=seed, collector=collector, context=ctx)
        packing = Packing.from_assignment(
            inst, engine.run_assignment(), algorithm=algo.name
        )
        if validate:
            packing.validate()
        packings.append(packing)
    return packings
