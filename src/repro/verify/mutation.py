"""Mutation smoke-tests: prove the verification harness has teeth.

A verification suite that never fires is indistinguishable from one that
works.  This module injects *known-broken* behaviour and asserts the
invariant auditor catches it:

* :func:`broken_fit` — a fit predicate with a classic vector-packing bug
  (it only checks dimension 0).  Injected into the reference simulator —
  which, unlike the engine, has no defensive capacity re-check — it
  produces genuinely infeasible multi-dimensional packings that the
  ``capacity`` invariant must flag.
* :class:`EagerOpenFirstFit` — an engine policy that deliberately breaks
  the Any Fit property by opening a fresh bin whenever its (buggy)
  candidate filter hides the fitting bins.  The packing stays feasible,
  so only the ``any-fit`` invariant can catch it.
* :class:`StaleResidualFastEngine` — the fast-path engine with the
  archetypal flat-array bug: the residual-capacity row is left stale
  after a departure (capacity is never reclaimed), so the fast replay
  silently opens extra bins.  Classic and fastpath each stay
  self-consistent, so only the classic-vs-fastpath differential oracle
  (:func:`~repro.verify.oracles.compare_with_fastpath`) can catch it.
* :class:`BudgetIgnoringRepacker` — a repack policy that relocates items
  through the repacking engine's *unchecked* move primitive, silently
  skipping the :class:`~repro.repacking.ledger.MigrationLedger` that
  enforces the migration budget ``k``.  The packing stays feasible and
  the cost bookkeeping stays exact, so only the budget auditor
  (:func:`~repro.repacking.audit.audit_migration_budget`) — which
  replays the engine's raw move log rather than trusting the ledger —
  can catch the over-budget event and the ledger/log disagreement.
* :class:`FrozenRecencyTypedAnyFit` — the heterogeneous-fleet
  :class:`~repro.heterogeneous.engine.TypedAnyFit` whose ``recent``
  selection never moves the chosen bin to the front of ``L``.  Its
  packings stay feasible and Any Fit, so only the typed-vs-classic
  oracle (:func:`~repro.verify.oracles.compare_with_typed`), which holds
  ``recent`` to Move To Front, can catch it.
* the :class:`~repro.adversaries.attacks.NullAdversary` — a state-blind
  "attack" that emits random arrivals while ignoring the engine view.
  Run through the same must-exceed-bound scenario check as the real
  attacks, it must FAIL to reach its bound; if it *passes*, the
  adversary-bound check is vacuous (any stream would satisfy it).

:func:`mutation_smoke_test` runs all mutants and reports whether each
was caught; the harness treats an *uncaught mutant* as a violation of
the verification subsystem itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from ..algorithms.registry import make_algorithm
from ..core.bins import Bin
from ..core.events import EventKind
from ..core.instance import Instance
from ..core.items import Item
from ..core.packing import Packing
from ..core.vectors import EPS
from ..heterogeneous import TypedAnyFit, typed_run
from ..adversaries.scenarios import null_adversary_outcome
from ..repacking import audit_migration_budget, repacking_run
from ..repacking.ledger import MoveRecord
from ..repacking.policies import RepackPolicy, _evacuation_plan
from ..simulation.fastpath import FastEngine
from ..simulation.runner import run
from ..workloads.uniform import UniformWorkload
from .invariants import Violation, check_any_fit, check_capacity
from .oracles import _unit_fleet, compare_with_fastpath, compare_with_typed
from .reference import ReferenceSimulator

__all__ = [
    "broken_fit",
    "EagerOpenFirstFit",
    "StaleResidualFastEngine",
    "BudgetIgnoringRepacker",
    "FrozenRecencyTypedAnyFit",
    "MutationReport",
    "mutation_smoke_test",
]


def broken_fit(load: np.ndarray, size: np.ndarray, capacity: np.ndarray) -> bool:
    """A deliberately broken fit predicate: ignores every dimension but 0.

    The archetypal DVBP implementation bug — treating the vector problem
    as scalar.  For ``d = 1`` it is correct, which is exactly why the
    smoke test must run it on a ``d >= 2`` instance.
    """
    return bool(load[0] + size[0] <= capacity[0] + EPS * max(capacity[0], 1.0))


class EagerOpenFirstFit:
    """First Fit with a broken candidate filter: every other arrival
    pretends no open bin fits and opens a fresh bin.

    Implements the :class:`~repro.algorithms.base.OnlineAlgorithm`
    contract directly (not via ``AnyFitAlgorithm``, whose template is
    precisely what enforces the property being broken here).
    """

    name = "eager_open_first_fit"

    def __init__(self) -> None:
        self._open: List[Bin] = []
        self._arrivals = 0

    def bind_collector(self, collector) -> None:  # engine API compatibility
        pass

    def start(self, instance: Instance) -> None:
        self._open = []
        self._arrivals = 0

    def dispatch(self, item: Item, now: float, open_new_bin: Callable[[], Bin]) -> Bin:
        self._arrivals += 1
        if self._arrivals % 2 == 0:  # the bug: skip the candidate scan
            fresh = open_new_bin()
            self._open.append(fresh)
            return fresh
        for b in self._open:
            if b.can_fit(item):
                return b
        fresh = open_new_bin()
        self._open.append(fresh)
        return fresh

    def notify_departure(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        if closed:
            self._open = [b for b in self._open if b is not bin_]


class StaleResidualFastEngine(FastEngine):
    """Fast engine with a deliberately stale residual-capacity matrix.

    Flips the :class:`~repro.simulation.fastpath.FastEngine` mutation
    hook so a departure from a still-occupied bin skips the row re-sum:
    freed capacity is never reclaimed, loads only ratchet up, and the
    replay opens bins the classic engine would not.  Every individual
    packing it produces is still *feasible* (loads are over-, never
    under-estimated), which is exactly why only the twin-engine
    differential can catch this class of bug.
    """

    _stale_residual_bug = True


class BudgetIgnoringRepacker(RepackPolicy):
    """A repack policy that silently bypasses migration-budget enforcement.

    ``GreedyConsolidate``'s evil twin: after a departure it evacuates the
    first whole bin whose residents all fit elsewhere — but it executes
    the plan through the engine's *unchecked*
    :meth:`~repro.repacking.engine.RepackingEngine._apply_move` primitive
    instead of :meth:`~repro.repacking.engine.RepackContext.move`, so the
    :class:`~repro.repacking.ledger.MigrationLedger` never sees the
    moves.  It only commits plans longer than one move, guaranteeing a
    budget-1 run exceeds its per-event cap.  The engine's raw move log
    still records every relocation, which is exactly the trail the
    budget auditor replays to catch this class of bug.
    """

    name = "budget_ignoring"
    mode = "per_event"
    default_budget = 1.0

    def after_event(self, ctx, kind, now: float) -> None:
        if kind is not EventKind.DEPARTURE:
            return
        engine = ctx._engine
        bins = ctx.open_bins()
        if len(bins) < 2:
            return
        for source in bins:
            targets = [b for b in bins if b is not source]
            plan = _evacuation_plan(source, targets, now)
            if not plan or len(plan) < 2:
                continue
            for item, dst in plan:
                src = ctx.bin_of(item)
                record = MoveRecord(
                    event_index=engine._event_index,
                    time=now,
                    uid=item.uid,
                    src=src.index,
                    dst=dst.index,
                    cost_delta=0.0,
                )
                # the bug: straight to the unchecked primitive, skipping
                # ledger admission entirely
                engine._apply_move(item, dst, now, record)
            return


class FrozenRecencyTypedAnyFit(TypedAnyFit):
    """Typed Any Fit that never moves the chosen bin to the front.

    A new bin still enters ``L`` at the front, so ``L`` stays in opening
    order, newest first, and ``recent`` picks the newest fitting bin
    where Move To Front picks the most recently used one.
    """

    def _touch(self, pair) -> None:
        pass  # the bug: the chosen bin keeps its place in L


@dataclass(frozen=True)
class MutationReport:
    """Outcome of the smoke test: what each mutant triggered.

    The fastpath fields default to "caught with no violations" so
    pre-fastpath callers constructing reports positionally keep working.
    """

    capacity_caught: bool
    any_fit_caught: bool
    capacity_violations: List[Violation]
    any_fit_violations: List[Violation]
    fastpath_caught: bool = True
    fastpath_violations: List[Violation] = field(default_factory=list)
    null_adversary_caught: bool = True
    null_adversary_violations: List[Violation] = field(default_factory=list)
    repacking_caught: bool = True
    repacking_violations: List[Violation] = field(default_factory=list)
    typed_caught: bool = True
    typed_violations: List[Violation] = field(default_factory=list)

    @property
    def all_caught(self) -> bool:
        """True iff every injected mutant was flagged by the auditor."""
        return (
            self.capacity_caught
            and self.any_fit_caught
            and self.fastpath_caught
            and self.null_adversary_caught
            and self.repacking_caught
            and self.typed_caught
        )


def mutation_smoke_test(seed: int = 0) -> MutationReport:
    """Run all mutants on small random instances and audit the results."""
    # mutant 1: broken fit predicate in the reference simulator, d >= 2
    # (sizes near capacity so dimension-1 overflows are guaranteed)
    inst = UniformWorkload(d=2, n=40, mu=5, T=30, B=4, name="mutation").sample_seeded(seed)
    ref = ReferenceSimulator("first_fit", fit=broken_fit).run(inst)
    broken_packing = Packing.from_assignment(inst, ref.assignment, algorithm="broken_fit")
    capacity_violations = check_capacity(broken_packing)

    # mutant 2: feasible but non-Any-Fit engine policy
    inst2 = UniformWorkload(d=2, n=40, mu=5, T=30, B=10, name="mutation").sample_seeded(seed + 1)
    eager_packing = run(EagerOpenFirstFit(), inst2)
    any_fit_violations = check_any_fit(eager_packing)

    # mutant 3: stale residuals in the fast engine — feasible on both
    # sides, divergent assignments; a churny workload (short durations,
    # tight bins) guarantees reclaimed capacity actually gets reused
    inst3 = UniformWorkload(d=2, n=60, mu=6, T=20, B=6, name="mutation").sample_seeded(seed + 2)
    classic_packing = run("first_fit", inst3)
    stale_packing = StaleResidualFastEngine(inst3, "first_fit").run()
    fastpath_violations = compare_with_fastpath(
        classic_packing, "first_fit", fast_packing=stale_packing
    )

    # mutant 5: a repack policy that bypasses the migration ledger — a
    # hand-built instance where evacuating one bin takes exactly two
    # moves (at t=30 the heavy anchor departs bin 0, freeing room for
    # bin 1's two residents), so a budget-1 run must exceed its cap
    inst5 = Instance.from_tuples(
        [
            (0.0, 40.0, 0.3),   # anchors bin 0 open to the end
            (1.0, 30.0, 0.7),   # fills bin 0 until t=30
            (2.0, 35.0, 0.2),   # overflow -> bin 1
            (3.0, 36.0, 0.2),   # joins bin 1
            (4.0, 5.0, 0.5),    # early departure opening a repack window
        ],
        name="mutation-repack",
    )
    repack_result = repacking_run(
        make_algorithm("first_fit"), inst5,
        repacker=BudgetIgnoringRepacker(), budget=1.0,
    )
    repacking_violations = [
        Violation("repacking-audit", problem)
        for problem in audit_migration_budget(repack_result)
    ]

    # mutant 6: typed Any Fit whose recency is never refreshed, against
    # Move To Front on a one-type unit-rate fleet — a hand-built
    # instance, so no corpus seed can miss it: item 2 fits only the
    # older bin 0, which Move To Front then moves ahead of bin 1, so
    # item 3 lands in bin 0 there and in bin 1 under the mutant
    inst6 = Instance.from_tuples(
        [
            (0.0, 10.0, 0.5),   # opens bin 0
            (1.0, 10.0, 0.7),   # bin 0 too full: opens bin 1
            (2.0, 10.0, 0.4),   # fits only bin 0
            (3.0, 10.0, 0.05),  # fits both: the front bin takes it
        ],
        name="mutation-typed",
    )
    frozen = typed_run(
        FrozenRecencyTypedAnyFit(_unit_fleet(inst6), opening_rule="cheapest"), inst6
    )
    typed_violations = compare_with_typed(
        run("move_to_front", inst6), "recent", typed_packing=frozen
    )

    # mutant 4: the state-blind NullAdversary judged by the same
    # must-exceed-bound check as the real attacks — "caught" means the
    # check rejected it (its certified ratio fell short of the bound)
    null_outcome = null_adversary_outcome(seed=seed)
    null_violations: List[Violation] = []
    if null_outcome.passed:
        null_violations.append(Violation(
            "adversary-bound",
            "NullAdversary PASSED the must-exceed-bound check "
            f"({null_outcome.message}) — the check is vacuous",
        ))

    return MutationReport(
        capacity_caught=bool(capacity_violations),
        any_fit_caught=bool(any_fit_violations),
        capacity_violations=capacity_violations,
        any_fit_violations=any_fit_violations,
        fastpath_caught=bool(fastpath_violations),
        fastpath_violations=fastpath_violations,
        null_adversary_caught=not null_outcome.passed,
        null_adversary_violations=null_violations,
        repacking_caught=bool(repacking_violations),
        repacking_violations=repacking_violations,
        typed_caught=bool(typed_violations),
        typed_violations=typed_violations,
    )
