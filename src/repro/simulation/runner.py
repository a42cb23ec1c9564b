"""High-level run helpers: one algorithm/instance pair or whole batteries.

These wrap :class:`~repro.simulation.engine.Engine` with the conveniences
experiments need: building algorithms by registry name, running several
algorithms on the same instance, and optional post-run validation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from ..algorithms.base import OnlineAlgorithm
from ..algorithms.registry import make_algorithm
from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.packing import Packing
from ..observability.stats import StatsCollector
from .engine import SimulationObserver, simulate

__all__ = ["run", "compare_algorithms", "effective_engine"]

AlgorithmSpec = Union[str, OnlineAlgorithm]

#: The engines :func:`run` and
#: :func:`~repro.simulation.parallel.parallel_sweep` accept;
#: ``"repacking"`` also takes ``"repacking:policy:budget"`` specs.
ENGINES = ("classic", "batch", "streaming", "repacking")


def _resolve(spec: AlgorithmSpec) -> OnlineAlgorithm:
    return make_algorithm(spec) if isinstance(spec, str) else spec


def check_engine(engine: str) -> str:
    """The :data:`ENGINES` entry ``engine`` names, or a ``ConfigurationError``.

    ``"repacking"`` specs (``"repacking:greedy_consolidate:2"``) map to
    ``"repacking"``; anything else must be an entry verbatim.  The one
    engine check of :func:`run`, :func:`effective_engine` and
    :func:`~repro.simulation.parallel.parallel_sweep`, so an unknown
    engine fails before any work starts.
    """
    family = engine.split(":", 1)[0] if isinstance(engine, str) else engine
    if family == "repacking" or (family == engine and family in ENGINES):
        return family
    raise ConfigurationError(
        f"unknown engine {engine!r}; expected one of "
        f"{', '.join(repr(e) for e in ENGINES)} (or a "
        "'repacking:policy:budget' spec)"
    )


def effective_engine(
    algorithm: AlgorithmSpec,
    engine: str = "classic",
    observers: Sequence[SimulationObserver] = (),
) -> str:
    """The engine :func:`run` would actually use for this request.

    ``engine="batch"`` (or ``"streaming"``) is a *request*: runs the
    alternate path cannot take (observers present, or — for the batch
    engine — a policy without a fast kernel) execute on the classic
    engine instead.  CLIs and drivers call this to report the effective
    engine up front rather than leaving the fallback implicit; it
    performs no simulation and never warns.  An unknown engine raises
    :class:`~repro.core.errors.ConfigurationError`, as in :func:`run`.

    ``engine="repacking"`` (and ``"repacking:policy:budget"`` specs) is
    *semantic*, not a performance request: a budget-k run is a
    different computation, so it never falls back and is returned
    verbatim — the repacking engine supports observers and every
    policy.
    """
    family = check_engine(engine)
    if family == "repacking":
        return engine
    if family == "classic" or observers:
        return "classic"
    if family == "streaming":
        return "streaming"
    from .fastpath import fast_policy_for

    return engine if fast_policy_for(algorithm) is not None else "classic"


def run(
    algorithm: AlgorithmSpec,
    instance: Instance,
    observers: Sequence[SimulationObserver] = (),
    validate: bool = False,
    collector: Optional[StatsCollector] = None,
    engine: str = "classic",
    repacker=None,
    budget: Optional[float] = None,
) -> Packing:
    """Run one algorithm on one instance.

    Parameters
    ----------
    algorithm:
        Registry name (e.g. ``"move_to_front"``) or an algorithm object.
    instance:
        The instance to replay.
    observers:
        Optional engine observers (instrumentation).
    validate:
        When ``True``, the returned packing is audited for temporal
        feasibility before being returned (raises
        :class:`~repro.core.errors.PackingAuditError` on violation).
        Experiments enable this in tests and disable it in hot loops.
    collector:
        Optional :class:`~repro.observability.stats.StatsCollector`;
        when given, the engine records per-run counters and timings into
        it (``None`` keeps the uninstrumented fast path).
    repacker / budget:
        Repacking-engine knobs, meaningful only with
        ``engine="repacking"``: the repacking policy (registry name or
        :class:`~repro.repacking.policies.RepackPolicy` object;
        default ``no_repack``) and the migration budget (per-event move
        cap, or amortized credit rate; default: the policy's own).
        Alternatively encode both in the engine spec string —
        ``engine="repacking:greedy_consolidate:2"`` — which is how
        sweep payloads carry them through worker processes.
    engine:
        ``"classic"`` (default), ``"batch"``, ``"streaming"``, or
        ``"repacking"``.  ``"batch"`` routes through a
        :class:`~repro.simulation.batch.BatchRunner`, which replays
        fast-eligible policies on the flat-array
        :class:`~repro.simulation.fastpath.FastEngine` (useful mainly
        for parity with sweep flags — the batched amortisation pays off
        over many replays, which ``parallel_sweep(engine="batch")``
        exploits); ``"streaming"`` replays through the bounded-memory
        :func:`repro.streaming.streaming_run` event loop (every policy
        supported).  Runs an alternate path cannot take (observers
        present, or — batch — a policy without a fast kernel) fall back
        to the classic engine with the same result — all engines are
        bit-identical.  ``"repacking"`` replays through the
        migration-budget :mod:`repro.repacking` engine; it never falls
        back (a budget is a semantic change, not a perf switch) and is
        bit-identical to the classic engine exactly when the budget is
        zero.  Any other engine raises
        :class:`~repro.core.errors.ConfigurationError`.
    """
    family = check_engine(engine)
    if family == "repacking":
        from ..repacking import parse_repacking_spec, repacking_run

        spec_policy, spec_budget = parse_repacking_spec(engine)
        if repacker is None:
            repacker = spec_policy
        if budget is None:
            budget = spec_budget
        result = repacking_run(
            _resolve(algorithm),
            instance,
            repacker=repacker,
            budget=budget,
            observers=observers,
            collector=collector,
            validate=validate,  # segment-level audit, not Packing.validate
        )
        return result.packing
    if repacker is not None or budget is not None:
        raise ConfigurationError(
            "repacker/budget are repacking-engine knobs; pass "
            "engine='repacking' (or a 'repacking:policy:budget' spec)"
        )
    if engine == "streaming" and not observers:
        from ..streaming import streaming_run

        packing = streaming_run(_resolve(algorithm), instance, collector=collector)
        if validate:
            packing.validate()
        return packing
    if engine == "batch" and not observers:
        from .batch import BatchRunner

        packing = BatchRunner(instance).run_packing(_resolve(algorithm), collector=collector)
        if validate:
            packing.validate()
        return packing
    packing = simulate(_resolve(algorithm), instance, observers, collector)
    if validate:
        packing.validate()
    return packing


def compare_algorithms(
    algorithms: Sequence[AlgorithmSpec],
    instance: Instance,
    validate: bool = False,
) -> Dict[str, Packing]:
    """Run several algorithms on the same instance.

    Returns a mapping from algorithm name to its packing, in the order
    given (Python dicts preserve insertion order).
    """
    out: Dict[str, Packing] = {}
    for spec in algorithms:
        algo = _resolve(spec)
        out[algo.name] = run(algo, instance, validate=validate)
    return out
