"""High-level run helpers: one algorithm/instance pair or whole batteries.

These wrap :class:`~repro.simulation.engine.Engine` with the conveniences
experiments need: building algorithms by registry name, running several
algorithms on the same instance, and optional post-run validation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..algorithms.base import OnlineAlgorithm
from ..algorithms.registry import make_algorithm
from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.packing import Packing
from ..observability.stats import StatsCollector
from .engine import SimulationObserver, simulate

__all__ = ["run", "run_many", "compare_algorithms", "effective_engine"]

AlgorithmSpec = Union[str, OnlineAlgorithm]


def _resolve(spec: AlgorithmSpec) -> OnlineAlgorithm:
    return make_algorithm(spec) if isinstance(spec, str) else spec


def effective_engine(
    algorithm: AlgorithmSpec,
    engine: str = "classic",
    observers: Sequence[SimulationObserver] = (),
) -> str:
    """The engine :func:`run` would actually use for this request.

    ``engine="fast"`` (or ``"batch"``, or ``"streaming"``) is a
    *request*: runs the alternate path cannot take (observers present,
    or — for the fast/batch engines — a policy without a registered
    kernel) execute on the classic engine instead.  CLIs and drivers
    call this to report the effective engine up front rather than
    leaving the fallback implicit; it performs no simulation and never
    warns.

    ``engine="repacking"`` (and ``"repacking:policy:budget"`` specs) is
    *semantic*, not a performance request: a budget-k run is a
    different computation, so it never falls back and is returned
    verbatim — the repacking engine supports observers and every
    policy.
    """
    if isinstance(engine, str) and engine.split(":", 1)[0] == "repacking":
        return engine
    if engine not in ("fast", "batch", "streaming") or observers:
        return "classic"
    if engine == "streaming":
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
        ``"classic"`` (default), ``"fast"``, ``"batch"``,
        ``"streaming"``, or ``"repacking"``.  ``"fast"`` requests the flat-array
        :class:`~repro.simulation.fastpath.FastEngine`; ``"batch"``
        routes through a :class:`~repro.simulation.batch.BatchRunner`
        (useful mainly for parity with sweep flags — the batched
        amortisation pays off over many replays, which
        :func:`run_many` and ``parallel_sweep(engine="batch")``
        exploit); ``"streaming"`` replays through the bounded-memory
        :func:`repro.streaming.streaming_run` event loop (every
        policy supported).  Runs an alternate path cannot take
        (observers present, or — fast/batch — a policy without a fast
        kernel) fall back to the classic engine with the same result —
        all engines are bit-identical.  ``"repacking"`` replays through
        the migration-budget :mod:`repro.repacking` engine; it never
        falls back (a budget is a semantic change, not a perf switch)
        and is bit-identical to the classic engine exactly when the
        budget is zero.
    """
    if isinstance(engine, str) and engine.split(":", 1)[0] == "repacking":
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
    if engine not in ("classic", "fast", "batch", "streaming"):
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'classic', 'fast', "
            f"'batch', 'streaming', or 'repacking'"
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
    packing = simulate(
        _resolve(algorithm), instance, observers, collector, fast=engine == "fast"
    )
    if validate:
        packing.validate()
    return packing


def run_many(
    algorithm: AlgorithmSpec,
    instances: Iterable[Instance],
    validate: bool = False,
    collector: Optional[StatsCollector] = None,
    engine: str = "classic",
) -> List[Packing]:
    """Run one algorithm over a sequence of instances.

    The same algorithm object is reused (its ``start`` resets state), so
    string specs are resolved once.  A shared ``collector`` accumulates
    stats across all runs (``RunStats.runs`` counts them).

    With ``engine="batch"`` the battery executes
    through :func:`repro.simulation.batch.batch_run_many`: one re-armed
    :class:`~repro.simulation.fastpath.FastEngine` and its scratch
    buffers serve every instance, and ``instances`` may include compact
    :class:`~repro.simulation.batch.InstanceSpec` sources.  Results are
    bit-identical to the per-instance path.
    """
    if engine == "batch":
        from .batch import batch_run_many

        return batch_run_many(
            algorithm, instances, validate=validate, collector=collector
        )
    algo = _resolve(algorithm)
    return [
        run(algo, inst, validate=validate, collector=collector, engine=engine)
        for inst in instances
    ]


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
