"""Sweep execution: every (algorithm × instance) unit, serial or pooled.

The Figure 4 full-scale study is 18 cells × 7 algorithms × 1000
instances — embarrassingly parallel across instances.
:func:`parallel_sweep` is the one sweep function: it builds the sweep's
:class:`Payload` list (:func:`build_payloads`), runs each payload through
the one worker entry point (:func:`simulate_payload`), and executes them
with the one serial/pooled loop of :mod:`repro.orchestration.sweep`
(checkpoints, resume, retries, per-unit timeouts and pool recovery).
The unit of work stays coarse (whole simulations, not events) so
serialisation overhead stays negligible, and results come back as small
:class:`UnitResult` records so packings never cross the process
boundary.  ``processes=None`` uses ``os.cpu_count()``; ``processes=0``
runs serially in-process (useful under pytest and on platforms where
fork semantics are awkward).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..algorithms.registry import ALGORITHM_FACTORIES
from ..core.instance import Instance
from ..observability.sinks import TraceSink
from ..observability.stats import RunStats, StatsCollector
from ..optimum.lower_bounds import height_lower_bound
from .batch import BatchRunner, InstanceSpec, materialize

if TYPE_CHECKING:
    from ..orchestration.faults import RetryPolicy

__all__ = [
    "UnitResult",
    "Payload",
    "algorithm_accepts_seed",
    "derive_unit_seeds",
    "build_payloads",
    "payload_unit_keys",
    "simulate_payload",
    "parallel_sweep",
    "aggregate_sweep_stats",
]


@dataclass(frozen=True)
class UnitResult:
    """Result of one (algorithm, instance) work unit.

    ``stats`` is populated (with the worker-side
    :class:`~repro.observability.stats.RunStats`) only when the sweep
    ran with ``collect_stats=True``; it rides back across the process
    boundary as a small frozen record, never the full packing.
    """

    algorithm: str
    instance_index: int
    cost: float
    num_bins: int
    lower_bound: float
    stats: Optional[RunStats] = None

    @property
    def ratio(self) -> float:
        """Performance ratio vs the Lemma 1(i) bound.

        A degenerate instance (no load at all) has ``lower_bound == 0``;
        the documented sentinel for that case is ``float("inf")`` — any
        positive cost is infinitely worse than a zero bound — except for
        the doubly-degenerate zero-cost case, which reports the neutral
        ratio ``1.0`` instead of raising ``ZeroDivisionError``.
        """
        if self.lower_bound <= 0:
            return math.inf if self.cost > 0 else 1.0
        return self.cost / self.lower_bound


def algorithm_accepts_seed(name: str) -> bool:
    """Whether the registry factory for ``name`` takes a ``seed`` kwarg.

    Seeded policies (``random_fit``) get *per-unit* seeds in sweeps —
    see :func:`derive_unit_seeds`; unseeded policies are passed their
    kwargs unchanged.
    """
    try:
        sig = inspect.signature(ALGORITHM_FACTORIES[name])
    except (KeyError, TypeError, ValueError):
        return False
    return "seed" in sig.parameters


def derive_unit_seeds(base_seed: int, count: int) -> List[int]:
    """Spawn ``count`` independent per-instance seeds from one base seed.

    Uses ``numpy.random.SeedSequence(base_seed).spawn(count)`` — the
    recommended NumPy practice for parallel statistics — so the streams
    are collision-free and independent.  Sweeps use these to seed one
    stream *per (algorithm, instance) unit*: passing the same base seed
    to every instance would make the m "independent" trials of a cell
    share a single random stream (the pre-fix behaviour), which
    understates the variance the experiment is supposed to measure.

    The derivation is a pure function of ``(base_seed, count)``, so a
    serial, pooled and resumed sweep all run the same seeds — a
    prerequisite for the bit-identity oracles.
    """
    ss = np.random.SeedSequence(int(base_seed))
    return [
        int(child.generate_state(1, dtype=np.uint64)[0]) for child in ss.spawn(count)
    ]


class Payload(NamedTuple):
    """One unit of work shipped to a worker: entries to run on one instance.

    ``source`` is the :class:`~repro.core.instance.Instance` or
    :class:`~repro.simulation.batch.InstanceSpec` object itself, pickled
    only when a pool ships it.  ``lower_bound`` is the Lemma 1 bound when
    the parent computed it, ``None`` when the worker computes it.
    ``entries`` are the ``(algorithm, kwargs)`` pairs, each with its
    per-unit seed already applied.
    """

    index: int
    source: Union[Instance, InstanceSpec]
    lower_bound: Optional[float]
    entries: Tuple[Tuple[str, dict], ...]
    engine: str
    collect_stats: bool


def build_payloads(
    algorithms: Sequence[str],
    sources: Sequence[Union[Instance, InstanceSpec]],
    algorithm_kwargs: Optional[Mapping[str, Mapping[str, object]]] = None,
    collect_stats: bool = False,
    engine: str = "classic",
) -> List[Payload]:
    """Build every payload of an (algorithm × instance) sweep.

    Seeded algorithms get per-unit seeds derived from their base
    ``seed`` kwarg (default 0) via :func:`derive_unit_seeds`.

    ``engine="batch"`` builds one payload per instance carrying every
    algorithm, so a worker shares the replay context and the Lemma 1
    bound across the policy fan-out, and spec sources regenerate in the
    worker.  Every other engine builds one payload per unit, in
    ``for name … for i …`` order, with the lower bound computed once per
    instance here in the parent; retries, fault selectors, ``max_units``
    and ``unit_timeout`` then act on single units.
    """
    algorithm_kwargs = algorithm_kwargs or {}
    sources = list(sources)
    unit_seeds = {
        name: derive_unit_seeds(
            int(algorithm_kwargs.get(name, {}).get("seed", 0)), len(sources)
        )
        for name in algorithms
        if algorithm_accepts_seed(name)
    }

    def entry(name: str, i: int) -> Tuple[str, dict]:
        kwargs = dict(algorithm_kwargs.get(name, {}))
        if name in unit_seeds:
            kwargs["seed"] = unit_seeds[name][i]
        return name, kwargs

    if engine == "batch":
        return [
            Payload(i, source, None, tuple(entry(name, i) for name in algorithms),
                    engine, collect_stats)
            for i, source in enumerate(sources)
        ]
    instances = [
        materialize(src) if isinstance(src, InstanceSpec) else src for src in sources
    ]
    lbs = [height_lower_bound(inst) for inst in instances]
    return [
        Payload(i, instances[i], lbs[i], (entry(name, i),), engine, collect_stats)
        for name in algorithms
        for i in range(len(instances))
    ]


def payload_unit_keys(payload: Payload) -> List[Tuple[str, int]]:
    """The ``(algorithm, instance_index)`` keys of the units a payload runs.

    The checkpoint store indexes completed work by these keys, so a
    batch-engine sweep resumes from a classic checkpoint (and vice versa)
    by skipping the same units.
    """
    return [(name, payload.index) for name, _ in payload.entries]


def simulate_payload(payload: Payload) -> List[UnitResult]:
    """Worker entry point: one :class:`UnitResult` per payload entry.

    Runs the entries through one
    :class:`~repro.simulation.batch.BatchRunner` over the payload's
    source with the payload's engine.  Module-level (picklable) so it
    works with the spawn start method.
    """
    runner = BatchRunner(payload.source, lower_bound=payload.lower_bound)
    return runner.run_units(
        payload.entries,
        instance_index=payload.index,
        collect_stats=payload.collect_stats,
        engine=payload.engine,
    )


def parallel_sweep(
    algorithms: Sequence[str],
    instances: Sequence[Union[Instance, InstanceSpec]],
    processes: Optional[int] = None,
    algorithm_kwargs: Optional[Mapping[str, Mapping[str, object]]] = None,
    collect_stats: bool = False,
    engine: str = "classic",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
    flush_every: int = 16,
    max_units: Optional[int] = None,
    collector: Optional[StatsCollector] = None,
    sink: Optional[TraceSink] = None,
) -> Dict[str, List[UnitResult]]:
    """Run every algorithm on every instance, possibly across processes.

    Parameters
    ----------
    algorithms:
        Registry names.
    instances:
        Instance batch, shared across algorithms: materialised
        instances or compact :class:`~repro.simulation.batch.InstanceSpec`
        sources.
    processes:
        Worker count; ``None`` = ``os.cpu_count()``, ``0`` = run serially
        in-process.
    algorithm_kwargs:
        Optional per-algorithm constructor kwargs.  A ``seed`` kwarg is
        treated as the *base* seed: each (algorithm, instance) unit gets
        its own seed derived via :func:`derive_unit_seeds`, so the m
        trials of a cell are genuinely independent.
    collect_stats:
        When ``True``, every worker instruments its run and ships the
        per-run :class:`~repro.observability.stats.RunStats` back on
        ``UnitResult.stats``; aggregate across workers with
        :func:`aggregate_sweep_stats`.  The deterministic counters of
        the aggregate are identical for any ``processes`` value.
    engine:
        ``"classic"`` (default), ``"fast"``, ``"batch"``,
        ``"streaming"``, or a ``"repacking[:policy[:budget]]"`` spec
        (e.g. ``"repacking:greedy_consolidate:2"``) for migration-budget
        recourse sweeps.  ``"batch"`` ships one payload per instance
        (see :func:`build_payloads`), run by a
        :class:`~repro.simulation.batch.BatchRunner` that shares the
        event index, scratch buffers and Lemma 1 bound across all
        policies.  Results are bit-identical to the classic sweep for
        every ``engine`` and ``processes`` combination (repacking at
        budget 0 included).
    checkpoint_dir:
        Directory for the crash-safe
        :class:`~repro.orchestration.checkpoint.CheckpointStore`
        (created if needed); completed units are flushed to it every
        ``flush_every`` units.
    resume:
        Skip units the checkpoint already holds.  Requires
        ``checkpoint_dir``; the store's fingerprint must match this
        sweep or :class:`~repro.core.errors.CheckpointError` is raised.
    retries / retry_policy:
        Per-payload retry budget with exponential backoff
        (``retry_policy``, a
        :class:`~repro.orchestration.faults.RetryPolicy`, overrides
        ``retries`` when given).  A payload that exhausts it raises
        :class:`~repro.core.errors.UnitFailedError` after a final
        checkpoint flush, so completed work survives the failure.
    unit_timeout:
        Per-payload wall-clock budget in seconds, measured from dispatch;
        an expired payload recycles the pool (pooled mode only: the
        serial path cannot preempt a running simulation).
    max_units:
        Stop dispatching after this many *newly completed* units (the
        resume-determinism oracle uses it to fabricate interrupted runs
        without real kills).  In pooled mode, already-dispatched
        payloads still drain and are checkpointed.
    collector:
        Orchestrator-side :class:`~repro.observability.stats.StatsCollector`
        receiving the fault-recovery counters (``retries``,
        ``unit_timeouts``, ``units_resumed``, ``pool_restarts``).
    sink:
        Optional :class:`~repro.observability.sinks.TraceSink` receiving
        ``unit_resumed`` / ``retry`` / ``unit_timeout`` /
        ``pool_restart`` / ``checkpoint_flush`` trace events.

    Returns
    -------
    dict
        ``{algorithm: [UnitResult, ...]}`` with results ordered by
        instance index: identical output for any ``processes`` value,
        interrupted and resumed or not.
    """
    # orchestration imports this module, so its loop is imported here
    from ..orchestration import CheckpointStore, RetryPolicy, sweep_fingerprint
    from ..orchestration.sweep import execute

    algorithms = list(algorithms)
    instances = list(instances)
    store = None
    if checkpoint_dir is not None:
        store = CheckpointStore(
            checkpoint_dir,
            fingerprint=sweep_fingerprint(algorithms, instances, algorithm_kwargs, engine),
        )
    results = execute(
        build_payloads(algorithms, instances, algorithm_kwargs, collect_stats, engine),
        processes=processes,
        store=store,
        resume=resume,
        policy=retry_policy if retry_policy is not None else RetryPolicy(retries=int(retries)),
        unit_timeout=unit_timeout,
        flush_every=flush_every,
        max_units=max_units,
        collector=collector,
        sink=sink,
    )
    out: Dict[str, List[UnitResult]] = {name: [] for name in algorithms}
    for res in results:
        out[res.algorithm].append(res)
    for name in algorithms:
        out[name].sort(key=lambda r: r.instance_index)
    return out


def aggregate_sweep_stats(
    results: Mapping[str, Sequence[UnitResult]]
) -> Dict[str, RunStats]:
    """Combine per-worker run stats into one record per algorithm.

    ``results`` is the mapping :func:`parallel_sweep` returns (run with
    ``collect_stats=True``).  Counters sum across instances, peaks take
    the max — see :meth:`~repro.observability.stats.RunStats.aggregate`.
    Units that carried no stats are skipped; an algorithm with no stats
    at all aggregates to an empty record.
    """
    return {
        name: RunStats.aggregate(u.stats for u in units if u.stats is not None)
        for name, units in results.items()
    }
