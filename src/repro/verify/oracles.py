"""Differential oracles: the engine against independent re-computations.

Each oracle runs the production code path *and* an independent
counterpart and requires the two to agree exactly:

* :func:`differential_check` — the optimised engine versus the
  brute-force :class:`~repro.verify.reference.ReferenceSimulator`
  (bit-identical bin assignments for all seven Section 7 policies);
* :func:`compare_with_fastpath` — the classic engine versus its
  flat-array twin (:class:`~repro.simulation.fastpath.FastEngine`),
  which promises *bit-identical* assignments, not merely equal costs;
* :func:`compare_with_batch` — per-unit packings versus one
  :class:`~repro.simulation.batch.BatchRunner` pass over all policies
  (shared context, shared scratch buffers, shared lower bound), which
  must reproduce every assignment, bin count, and Eq. 1 cost exactly;
* :func:`compare_with_streaming` — the classic engine versus the
  bounded-memory :class:`~repro.streaming.engine.StreamingEngine`
  (incremental merge, tombstone-reclaimed bins), which must reproduce
  every assignment, bin count, and Eq. 1 cost bit for bit;
* :func:`compare_with_repacking` — the classic engine versus the
  migration-budget :class:`~repro.repacking.engine.RepackingEngine`
  running its budget-0 twin (``no_repack``), which performs zero moves
  and must therefore reproduce every assignment, bin count, and Eq. 1
  cost bit for bit — the built-in differential oracle of the
  repacking subsystem;
* :func:`compare_with_typed` — the classic engine versus the
  heterogeneous-fleet :class:`~repro.heterogeneous.engine.TypedAnyFit`
  on a one-type, unit-rate fleet of the instance's capacity, where the
  ``recent`` selection is Move To Front and ``first`` is First Fit:
  same assignment, and the rate-weighted bill equals the Eq. 1 cost
  bit for bit;
* :func:`repacking_budget_check` — a live budget-k repacking run per
  instance, replayed through the independent
  :func:`~repro.repacking.audit.audit_repacking` auditor: the
  migration ledger must match the move log move for move, no event may
  exceed its budget, residency segments must tile each item's lifetime,
  capacity must hold under every intermediate load, the engine's cost
  must equal the first-principles segment recomputation, and every
  evacuation a recourse policy commits must have a negative projected
  delta;
* :func:`instrumented_equality_check` — the engine run without and with
  a collector (identical packing; run counters that agree with ground
  truth derived from the packing itself);
* :func:`cost_check` — the packing's Eq. 1 cost recomputed from first
  principles as a sum of member-interval union lengths, using only the
  instance and the assignment;
* :func:`sweep_equality_check` — the classic-engine sweep versus the
  batch-engine sweep (one shared :class:`~repro.simulation.batch.BatchRunner`
  pass per instance), which must produce identical ratio vectors;
* :func:`resume_equality_check` — an *interrupted-and-resumed*
  checkpointed sweep (:func:`repro.simulation.parallel.parallel_sweep`)
  versus the plain uninterrupted sweep, which must produce bit-identical
  unit results on both engines — the core promise of the
  fault-tolerance layer is that recovery never changes results.

Violations are reported with the same :class:`~repro.verify.invariants.Violation`
records as the invariant auditor, so the harness can pool them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..algorithms.registry import make_algorithm
from ..analysis.sweep import sweep_cell
from ..core.instance import Instance
from ..core.intervals import union_length
from ..core.packing import Packing
from ..observability.stats import StatsCollector
from ..core.errors import ConfigurationError
from ..heterogeneous import Fleet, ServerType, TypedAnyFit, TypedPacking, typed_run
from ..simulation.fastpath import FAST_POLICIES, FastEngine, parse_policy_spec
from ..simulation.parallel import parallel_sweep
from ..simulation.runner import run
from .invariants import Violation
from .reference import ReferenceSimulator

__all__ = [
    "eq1_cost",
    "compare_with_reference",
    "compare_with_fastpath",
    "compare_with_batch",
    "compare_with_streaming",
    "compare_with_repacking",
    "compare_with_typed",
    "repacking_budget_check",
    "differential_check",
    "instrumented_equality_check",
    "cost_check",
    "sweep_equality_check",
    "resume_equality_check",
]

_TOL = 1e-9


def eq1_cost(instance: Instance, assignment: Mapping[int, int]) -> float:
    """Eq. 1 cost recomputed from first principles.

    ``cost = Σ_i span(R_i)``: for each bin, the measure of the union of
    its members' half-open active intervals.  Uses only the instance and
    the uid → bin map — no engine state, no
    :class:`~repro.core.packing.BinRecord` bookkeeping.
    """
    by_bin: Dict[int, List] = {}
    for it in instance.items:
        by_bin.setdefault(assignment[it.uid], []).append(it.interval)
    return sum(union_length(ivals) for ivals in by_bin.values())


def compare_with_reference(
    packing: Packing, policy: str, seed: int = 0
) -> List[Violation]:
    """Compare an engine-produced ``packing`` against the reference replay.

    ``seed`` parameterises ``random_fit`` (both sides must draw from the
    same seeded stream for the differential to be meaningful).
    """
    instance = packing.instance
    ref = ReferenceSimulator(policy, seed=seed).run(instance)
    out: List[Violation] = []
    if packing.num_bins != ref.num_bins:
        out.append(Violation(
            "differential",
            f"{policy}: engine opened {packing.num_bins} bins, "
            f"reference {ref.num_bins}",
        ))
    if dict(packing.assignment) != ref.assignment:
        diff = [
            uid for uid in ref.assignment
            if packing.assignment.get(uid) != ref.assignment[uid]
        ]
        out.append(Violation(
            "differential",
            f"{policy}: assignments differ on items {diff[:10]}"
            f"{'...' if len(diff) > 10 else ''} "
            f"(engine {[packing.assignment.get(u) for u in diff[:10]]}, "
            f"reference {[ref.assignment[u] for u in diff[:10]]})",
        ))
    ref_cost = eq1_cost(instance, ref.assignment)
    if not out and abs(ref_cost - packing.cost) > _TOL * max(1.0, packing.cost):
        out.append(Violation(
            "differential",
            f"{policy}: engine cost {packing.cost:.9g} != reference "
            f"first-principles cost {ref_cost:.9g}",
        ))
    return out


def compare_with_fastpath(
    packing: Packing,
    policy: str,
    seed: int = 0,
    backend: Optional[str] = None,
    fast_packing: Optional[Packing] = None,
) -> List[Violation]:
    """Compare a classic-engine ``packing`` against the fast-path replay.

    The twin-engine contract is *bit identity*: same bin count, same
    item → bin assignment, same Eq. 1 cost (to tolerance, since the two
    costs are derived from identical assignments).  ``backend`` selects
    the fast kernel backend (default: auto); ``fast_packing`` lets the
    mutation smoke-test inject a deliberately broken fast run instead of
    building a fresh :class:`~repro.simulation.fastpath.FastEngine`.
    """
    if policy not in FAST_POLICIES:
        # Measure-variant specs ("best_fit:l1", "worst_fit:lp:3.0") are
        # fast-eligible too; skip only genuinely kernel-less policies.
        try:
            parse_policy_spec(policy)
        except ConfigurationError:
            return []
    if fast_packing is None:
        fast_packing = FastEngine(
            packing.instance, policy, seed=seed, backend=backend
        ).run()
    out: List[Violation] = []
    if packing.num_bins != fast_packing.num_bins:
        out.append(Violation(
            "fastpath",
            f"{policy}: classic engine opened {packing.num_bins} bins, "
            f"fastpath {fast_packing.num_bins}",
        ))
    if dict(packing.assignment) != dict(fast_packing.assignment):
        fast_assignment = dict(fast_packing.assignment)
        diff = [
            uid for uid in packing.assignment
            if fast_assignment.get(uid) != packing.assignment[uid]
        ]
        out.append(Violation(
            "fastpath",
            f"{policy}: assignments differ on items {diff[:10]}"
            f"{'...' if len(diff) > 10 else ''} "
            f"(classic {[packing.assignment.get(u) for u in diff[:10]]}, "
            f"fastpath {[fast_assignment.get(u) for u in diff[:10]]})",
        ))
    if not out and abs(fast_packing.cost - packing.cost) > _TOL * max(1.0, packing.cost):
        out.append(Violation(
            "fastpath",
            f"{policy}: classic cost {packing.cost:.9g} != fastpath cost "
            f"{fast_packing.cost:.9g}",
        ))
    return out


def compare_with_batch(
    instance: Instance,
    packings_by_policy: Mapping[str, Packing],
    seed: int = 0,
    backend: Optional[str] = None,
) -> List[Violation]:
    """Per-unit packings versus one batched pass over all policies.

    Runs every policy through a single
    :class:`~repro.simulation.batch.BatchRunner` — one shared
    :class:`~repro.simulation.fastpath.ReplayContext`, one re-armed
    engine whose scratch buffers persist across
    :meth:`~repro.simulation.fastpath.FastEngine.reset` calls, one
    Lemma 1 lower bound — and demands *exact* agreement with each
    independently produced packing: same assignment, same bin count,
    same Eq. 1 cost bit for bit (the batched cost replicates
    :meth:`Packing.from_assignment
    <repro.core.packing.Packing.from_assignment>`'s arithmetic, so no
    tolerance is granted), plus the shared lower bound against a fresh
    :func:`~repro.optimum.lower_bounds.height_lower_bound`.

    This is the oracle guarding ``engine="batch"``: any scratch-buffer
    bleed-through between policies, stale context reuse, or cost drift
    shows up as a violation here.
    """
    from ..optimum.lower_bounds import height_lower_bound
    from ..simulation.batch import BatchRunner

    names = list(packings_by_policy)
    entries = [
        (name, {"seed": seed} if name == "random_fit" else None) for name in names
    ]
    runner = BatchRunner(instance, backend=backend)
    results, assignments = runner.run_units(entries, keep_assignments=True)
    out: List[Violation] = []
    expected_lb = height_lower_bound(instance)
    for name, unit, assignment in zip(names, results, assignments):
        packing = packings_by_policy[name]
        if unit.num_bins != packing.num_bins:
            out.append(Violation(
                "batch",
                f"{name}: batched pass opened {unit.num_bins} bins, "
                f"per-unit packing {packing.num_bins}",
            ))
        if assignment != dict(packing.assignment):
            diff = [
                uid for uid in packing.assignment
                if assignment.get(uid) != packing.assignment[uid]
            ]
            out.append(Violation(
                "batch",
                f"{name}: batched assignment differs on items {diff[:10]}"
                f"{'...' if len(diff) > 10 else ''} "
                f"(batched {[assignment.get(u) for u in diff[:10]]}, "
                f"per-unit {[packing.assignment.get(u) for u in diff[:10]]})",
            ))
        if unit.cost != packing.cost:
            out.append(Violation(
                "batch",
                f"{name}: batched cost {unit.cost!r} != per-unit packing "
                f"cost {packing.cost!r} (bit-identity contract)",
            ))
        if unit.lower_bound != expected_lb:
            out.append(Violation(
                "batch",
                f"{name}: batched lower bound {unit.lower_bound!r} != "
                f"height_lower_bound {expected_lb!r}",
            ))
    return out


def compare_with_streaming(
    packing: Packing, policy: str, seed: int = 0
) -> List[Violation]:
    """Compare a classic-engine ``packing`` against the streaming replay.

    The streaming engine consumes the instance's items through the
    incremental merge (departure heap, tombstone-reclaimed bins) instead
    of the up-front event lexsort, and must land on the *same* packing:
    same bin count, same item → bin assignment, and — since
    :func:`~repro.streaming.engine.streaming_run` derives its packing
    from the assignment through the same
    :meth:`~repro.core.packing.Packing.from_assignment` arithmetic — the
    identical Eq. 1 cost bit for bit, so no tolerance is granted.
    Unlike the fastpath oracle this applies to *every* registry policy:
    the streaming engine drives the ordinary algorithm objects.
    """
    from ..streaming import streaming_run

    kwargs = {"seed": seed} if policy == "random_fit" else {}
    stream_packing = streaming_run(make_algorithm(policy, **kwargs), packing.instance)
    out: List[Violation] = []
    if packing.num_bins != stream_packing.num_bins:
        out.append(Violation(
            "streaming",
            f"{policy}: classic engine opened {packing.num_bins} bins, "
            f"streaming {stream_packing.num_bins}",
        ))
    if dict(packing.assignment) != dict(stream_packing.assignment):
        stream_assignment = dict(stream_packing.assignment)
        diff = [
            uid for uid in packing.assignment
            if stream_assignment.get(uid) != packing.assignment[uid]
        ]
        out.append(Violation(
            "streaming",
            f"{policy}: assignments differ on items {diff[:10]}"
            f"{'...' if len(diff) > 10 else ''} "
            f"(classic {[packing.assignment.get(u) for u in diff[:10]]}, "
            f"streaming {[stream_assignment.get(u) for u in diff[:10]]})",
        ))
    if stream_packing.cost != packing.cost:
        out.append(Violation(
            "streaming",
            f"{policy}: streaming cost {stream_packing.cost!r} != classic "
            f"cost {packing.cost!r} (bit-identity contract)",
        ))
    return out


def compare_with_repacking(
    packing: Packing, policy: str, seed: int = 0
) -> List[Violation]:
    """Compare a classic-engine ``packing`` against the budget-0 repack run.

    The repacking engine's ``no_repack`` twin has a migration budget of
    zero: it replays the exact same dispatch loop as the classic engine
    and performs no moves, so it must land on the *same* packing — same
    bin count, same item → bin assignment, and (since a zero-move run
    derives its packing through the identical
    :meth:`~repro.core.packing.Packing.from_assignment` arithmetic) the
    identical Eq. 1 cost bit for bit, so no tolerance is granted.  Any
    divergence means the repacking event loop drifted from the classic
    engine's semantics.  Applies to every registry policy.
    """
    from ..repacking import repacking_run

    kwargs = {"seed": seed} if policy == "random_fit" else {}
    result = repacking_run(make_algorithm(policy, **kwargs), packing.instance)
    repack_packing = result.packing
    out: List[Violation] = []
    if result.num_moves != 0:
        out.append(Violation(
            "repacking",
            f"{policy}: budget-0 no_repack run performed "
            f"{result.num_moves} migrations",
        ))
    if packing.num_bins != repack_packing.num_bins:
        out.append(Violation(
            "repacking",
            f"{policy}: classic engine opened {packing.num_bins} bins, "
            f"budget-0 repacking {repack_packing.num_bins}",
        ))
    if dict(packing.assignment) != dict(repack_packing.assignment):
        repack_assignment = dict(repack_packing.assignment)
        diff = [
            uid for uid in packing.assignment
            if repack_assignment.get(uid) != packing.assignment[uid]
        ]
        out.append(Violation(
            "repacking",
            f"{policy}: assignments differ on items {diff[:10]}"
            f"{'...' if len(diff) > 10 else ''} "
            f"(classic {[packing.assignment.get(u) for u in diff[:10]]}, "
            f"repacking {[repack_assignment.get(u) for u in diff[:10]]})",
        ))
    if repack_packing.cost != packing.cost:
        out.append(Violation(
            "repacking",
            f"{policy}: budget-0 repacking cost {repack_packing.cost!r} != "
            f"classic cost {packing.cost!r} (bit-identity contract)",
        ))
    return out


def _unit_fleet(instance: Instance) -> Fleet:
    """One server type of ``instance``'s capacity at rate 1: the fleet on
    which a typed run is the classic, identical-bins one."""
    return Fleet([ServerType("unit", tuple(instance.capacity.tolist()), 1.0)])


def compare_with_typed(
    packing: Packing,
    selection: str,
    typed_packing: Optional[TypedPacking] = None,
) -> List[Violation]:
    """Compare a classic-engine ``packing`` against the typed replay.

    On a one-type fleet of the instance's capacity at rate 1,
    :class:`~repro.heterogeneous.engine.TypedAnyFit` with
    ``selection="recent"`` is Move To Front and with ``"first"`` is First
    Fit, and the rate-weighted bill (Kamali–López-Ortiz's renting
    cost) is the Eq. 1 cost.  The typed run must therefore reproduce the
    classic packing's item → bin assignment and its cost bit for bit
    (compared by ``float.hex``).  ``typed_packing`` lets the mutation
    smoke-test inject a deliberately broken typed run.  Violations name
    the instance.
    """
    instance = packing.instance
    if typed_packing is None:
        policy = TypedAnyFit(
            _unit_fleet(instance), opening_rule="cheapest", selection=selection
        )
        typed_packing = typed_run(policy, instance)
    label = f"{instance.name or 'instance'}: typed {selection} vs {packing.algorithm}"
    out: List[Violation] = []
    if dict(packing.assignment) != typed_packing.assignment:
        typed_assignment = typed_packing.assignment
        diff = [
            uid for uid in packing.assignment
            if typed_assignment.get(uid) != packing.assignment[uid]
        ]
        out.append(Violation(
            "typed",
            f"{label}: assignments differ on items {diff[:10]}"
            f"{'...' if len(diff) > 10 else ''} "
            f"(classic {[packing.assignment.get(u) for u in diff[:10]]}, "
            f"typed {[typed_assignment.get(u) for u in diff[:10]]})",
        ))
    if float.hex(typed_packing.cost) != float.hex(packing.cost):
        out.append(Violation(
            "typed",
            f"{label}: typed cost {typed_packing.cost!r} != classic cost "
            f"{packing.cost!r} (bit-identity contract)",
        ))
    return out


def repacking_budget_check(
    instance: Instance,
    policy: str = "first_fit",
    repacker: str = "greedy_consolidate",
    budget: float = 2.0,
    seed: int = 0,
) -> List[Violation]:
    """Audit a live budget-k repacking run against the invariant auditor.

    Runs ``policy`` under ``repacker`` with migration budget ``budget``
    and replays the result through
    :func:`~repro.repacking.audit.audit_repacking`, which re-derives
    every invariant from the move log (never trusting the ledger that
    *enforced* the budget): per-event/amortized budget compliance,
    ledger/log agreement, residency segments tiling each item's
    lifetime, capacity under every intermediate load, and the Eq. 1
    cost recomputed from first principles.

    For ``greedy_consolidate`` and ``budgeted_rebalance`` it also checks
    the contract both policies have, read from the move log: every
    evacuation (the moves of one event out of one source bin) has a
    negative summed projected ``cost_delta``, because both commit a
    full-eviction plan only when its projected Eq. 1 delta is strictly
    negative.  The run's total cost is *not* bounded by the no-recourse
    cost: an evacuation changes which bins later arrivals see, so a
    greedy run can end with more bins and a higher cost.
    """
    from ..repacking import audit_repacking, repacking_run

    kwargs = {"seed": seed} if policy == "random_fit" else {}
    result = repacking_run(
        make_algorithm(policy, **kwargs), instance,
        repacker=repacker, budget=budget,
    )
    label = f"{policy}/{repacker}:{budget:g}"
    out = [
        Violation("repacking-audit", f"{label}: {problem}")
        for problem in audit_repacking(result)
    ]
    if repacker in ("greedy_consolidate", "budgeted_rebalance"):
        evacuations: Dict[tuple, float] = {}
        for move in result.moves:
            key = (move.event_index, move.src)
            evacuations[key] = evacuations.get(key, 0.0) + move.cost_delta
        for (event, src), delta in evacuations.items():
            if delta >= 0.0:
                out.append(Violation(
                    "repacking-audit",
                    f"{label}: event {event} evacuated bin {src} at projected "
                    f"delta {delta:.9g} — {repacker} commits only strictly "
                    "negative evacuations",
                ))
    return out


def differential_check(
    instance: Instance,
    policy: str,
    seed: int = 0,
    collector: Optional[StatsCollector] = None,
) -> List[Violation]:
    """Engine vs reference simulator on one (instance, policy) pair.

    Convenience wrapper: runs the engine (optionally instrumented via
    ``collector``) and delegates to :func:`compare_with_reference`.
    """
    kwargs = {"seed": seed} if policy == "random_fit" else {}
    packing = run(make_algorithm(policy, **kwargs), instance, collector=collector)
    return compare_with_reference(packing, policy, seed=seed)


def instrumented_equality_check(
    instance: Instance, policy: str, seed: int = 0
) -> List[Violation]:
    """Plain vs instrumented engine run on one (instance, policy) pair.

    Attaching a collector must not change any decision, and the run's
    counters must match ground truth recomputed from the packing.
    """
    kwargs = {"seed": seed} if policy == "random_fit" else {}
    plain = run(make_algorithm(policy, **kwargs), instance)
    collector = StatsCollector()
    instrumented = run(make_algorithm(policy, **kwargs), instance, collector=collector)
    out: List[Violation] = []
    if dict(plain.assignment) != dict(instrumented.assignment):
        out.append(Violation(
            "instrumented",
            f"{policy}: instrumented engine produced a different assignment",
        ))
    stats = collector.snapshot()
    n = instance.n
    expected = {
        "arrivals": (stats.arrivals, n),
        "departures": (stats.departures, n),
        "events": (stats.events, 2 * n),
        "bins_opened": (stats.bins_opened, instrumented.num_bins),
        "bins_closed": (stats.bins_closed, instrumented.num_bins),
        "peak_open_bins": (stats.peak_open_bins, instrumented.max_concurrent_bins()),
    }
    for name, (got, want) in expected.items():
        if got != want:
            out.append(Violation(
                "instrumented",
                f"{policy}: counter {name}={got} disagrees with packing "
                f"ground truth {want}",
            ))
    if stats.fit_checks < stats.candidate_scans:
        out.append(Violation(
            "instrumented",
            f"{policy}: fit_checks={stats.fit_checks} < "
            f"candidate_scans={stats.candidate_scans}",
        ))
    return out


def cost_check(packing: Packing) -> List[Violation]:
    """Recompute Eq. 1 from the assignment and compare to the packing."""
    recomputed = eq1_cost(packing.instance, packing.assignment)
    if abs(recomputed - packing.cost) > _TOL * max(1.0, abs(packing.cost)):
        return [Violation(
            "cost",
            f"packing cost {packing.cost:.9g} != interval-union "
            f"recomputation {recomputed:.9g}",
        )]
    return []


def sweep_equality_check(
    instances: Sequence[Instance],
    policies: Sequence[str],
) -> List[Violation]:
    """Classic-engine sweep vs batch-engine sweep, on the same batch.

    ``sweep_cell(processes=0)`` runs one classic-engine payload per
    (policy, instance) unit; ``parallel_sweep(engine="batch")`` groups
    each instance's whole policy fan-out into one
    :class:`~repro.simulation.batch.BatchRunner` pass that shares the
    replay context and the Lemma 1 bound.  Both ratio vectors must be
    identical.
    """
    classic = sweep_cell(policies, list(instances))
    batched = parallel_sweep(policies, list(instances), processes=0, engine="batch")
    out: List[Violation] = []
    for name in policies:
        batch_ratios = [r.ratio for r in batched[name]]
        if classic.ratios[name] != batch_ratios:
            out.append(Violation(
                "sweep",
                f"{name}: classic ratios {classic.ratios[name]} != batched-path "
                f"ratios {batch_ratios}",
            ))
    return out


def resume_equality_check(
    instances: Sequence[Instance],
    policies: Sequence[str],
    engines: Sequence[str] = ("classic", "fast"),
) -> List[Violation]:
    """Interrupted-and-resumed sweep vs the uninterrupted sweep.

    For each engine: run the batch once uninterrupted, then fabricate an
    interruption — a checkpointed
    :func:`~repro.simulation.parallel.parallel_sweep` stopped after
    roughly half its units (``max_units``), followed by a
    ``resume=True`` completion against the same checkpoint directory.
    Every unit of the merged resumed run must be *bit-identical*
    (``cost``, ``num_bins``, ``lower_bound``) to the uninterrupted one:
    recovery must never change results.  Also checks that the resumed
    phase actually reloaded units from the checkpoint rather than
    silently recomputing everything.
    """
    import tempfile

    from ..observability.stats import StatsCollector as _Collector

    batch = list(instances)
    out: List[Violation] = []
    for engine in engines:
        plain = parallel_sweep(policies, batch, processes=0, engine=engine)
        total_units = sum(len(v) for v in plain.values())
        cut = max(1, total_units // 2)
        with tempfile.TemporaryDirectory(prefix="repro-resume-oracle-") as ckpt:
            partial = parallel_sweep(
                policies, batch, processes=0, engine=engine,
                checkpoint_dir=ckpt, flush_every=1, max_units=cut,
            )
            # The batch engine completes whole payloads (one instance x
            # all policies) atomically, so the interrupted phase may
            # overshoot ``cut`` — the resumed phase must reload exactly
            # what phase one actually completed, whatever that was.
            expected_resumed = sum(len(v) for v in partial.values())
            col = _Collector()
            resumed = parallel_sweep(
                policies, batch, processes=0, engine=engine,
                checkpoint_dir=ckpt, resume=True, collector=col,
            )
        if expected_resumed < cut or expected_resumed >= total_units:
            out.append(Violation(
                "resume",
                f"engine={engine}: interrupted phase completed "
                f"{expected_resumed} units (max_units={cut}, total "
                f"{total_units}) — the fabricated interruption did not "
                "leave a genuine partial sweep",
            ))
        if col.units_resumed != expected_resumed:
            out.append(Violation(
                "resume",
                f"engine={engine}: resumed phase reloaded "
                f"{col.units_resumed} units from the checkpoint, expected "
                f"{expected_resumed} — the resume path is not actually "
                "resuming",
            ))
        for name in policies:
            a = [(r.instance_index, r.cost, r.num_bins, r.lower_bound)
                 for r in plain[name]]
            b = [(r.instance_index, r.cost, r.num_bins, r.lower_bound)
                 for r in resumed[name]]
            if a != b:
                out.append(Violation(
                    "resume",
                    f"{name} (engine={engine}): resumed sweep differs from "
                    f"uninterrupted sweep — recovery changed results",
                ))
    return out
