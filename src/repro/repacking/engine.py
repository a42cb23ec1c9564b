"""The repacking engine: the fifth engine mode, with bounded recourse.

:class:`RepackingEngine` replays the same ``(time, kind, seq)`` event
stream as the classic :class:`~repro.simulation.engine.Engine`, with the
same algorithm dispatch on arrivals and the same departure handling —
then, *after* each event is applied, gives a
:class:`~repro.repacking.policies.RepackPolicy` a window in which it may
relocate live items through a :class:`RepackContext`.  Every relocation
is admitted by the run's :class:`~repro.repacking.ledger.MigrationLedger`
(hard budget enforcement) and logged with its projected Eq. 1 cost
delta.

With a budget of zero the repack window never moves anything, the code
path collapses to the classic engine's, and the result is **bit
identical** — the ``NoRepack`` twin is this subsystem's built-in
differential oracle (see
:func:`repro.verify.oracles.compare_with_repacking`).

Because moved items occupy different bins over disjoint sub-intervals of
their lifetime, :meth:`repro.core.packing.Packing.from_assignment`'s
hull derivation does not apply once a move has happened.  The engine
therefore tracks *residency segments* — ``uid -> ((bin, start, end),
...)`` — and builds the final :class:`~repro.core.packing.Packing` from
its own bin open/close times.  :func:`first_principles_cost` recomputes
Eq. 1 straight from the segments, and :func:`repacking_run` cross-checks
the two on every run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..algorithms.base import OnlineAlgorithm
from ..core.bins import Bin
from ..core.errors import (
    AlgorithmError,
    CapacityExceededError,
    ConfigurationError,
)
from ..core.events import EventKind, event_stream
from ..core.instance import Instance
from ..core.items import Item
from ..core.packing import BinRecord, Packing
from ..observability.stats import StatsCollector
from ..simulation.live import LivePacking
from .ledger import MigrationLedger, MoveRecord
from .policies import RepackPolicy, make_repacker

__all__ = [
    "RepackContext",
    "RepackResult",
    "RepackingEngine",
    "repacking_run",
    "first_principles_cost",
    "parse_repacking_spec",
]

#: Tolerance for the engine-vs-first-principles cost cross-check.  Both
#: sides sum the same ``closed_at - opened_at`` differences, but in
#: different orders, so only accumulation-order drift is tolerated.
_COST_TOL = 1e-9


class RepackResult:
    """Everything a finished repacking run produced.

    Attributes
    ----------
    packing:
        Move-aware :class:`~repro.core.packing.Packing`: the final
        ``uid -> bin`` assignment plus bin records whose usage periods
        are the engine's actual open/close times (*not* item hulls — a
        moved-out item no longer pins its old bin open).
    ledger:
        The run's :class:`~repro.repacking.ledger.MigrationLedger`.
    moves:
        The engine's own move log.  Recorded unconditionally by the
        low-level move primitive — even a mutant that bypasses ledger
        enforcement leaves its tracks here, which is what the verify
        harness's budget auditor replays.
    segments:
        ``uid -> ((bin_index, start, end), ...)`` residency segments in
        chronological order; consecutive segments abut at move times and
        their union is exactly the item's ``[arrival, departure)``.
    repacker / budget / mode:
        The policy name and budget configuration of the run.
    """

    __slots__ = ("packing", "ledger", "moves", "segments", "repacker", "budget", "mode")

    def __init__(
        self,
        packing: Packing,
        ledger: MigrationLedger,
        moves: Tuple[MoveRecord, ...],
        segments: Dict[int, Tuple[Tuple[int, float, float], ...]],
        repacker: str,
        budget: float,
        mode: str,
    ) -> None:
        self.packing = packing
        self.ledger = ledger
        self.moves = moves
        self.segments = segments
        self.repacker = repacker
        self.budget = budget
        self.mode = mode

    @property
    def cost(self) -> float:
        """Eq. 1 cost of the final packing."""
        return self.packing.cost

    @property
    def num_bins(self) -> int:
        """Bins opened over the whole run."""
        return self.packing.num_bins

    @property
    def num_moves(self) -> int:
        """Total migrations performed."""
        return len(self.moves)

    def summary(self) -> dict:
        """Compact metric dict for reports and bench payloads."""
        out = self.packing.summary()
        out.update(
            repacker=self.repacker,
            budget=self.budget,
            budget_mode=self.mode,
            moves=self.num_moves,
            ledger=self.ledger.summary(),
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RepackResult(algorithm={self.packing.algorithm!r}, "
            f"repacker={self.repacker!r}, budget={self.budget:g}, "
            f"cost={self.cost:g}, bins={self.num_bins}, moves={self.num_moves})"
        )


class RepackContext:
    """The policy-facing window onto the live engine during a repack.

    Policies *read* state through it (open bins, residual fits,
    projected closes, remaining budget) and *mutate* only through
    :meth:`move`, which funnels every relocation through the ledger's
    budget check before any bin is touched.
    """

    __slots__ = ("_engine", "now")

    def __init__(self, engine: "RepackingEngine") -> None:
        self._engine = engine
        self.now = 0.0

    # -- read side -----------------------------------------------------
    @property
    def instance(self) -> Instance:
        """The instance being replayed."""
        return self._engine.instance

    def open_bins(self) -> List[Bin]:
        """Currently open bins, in opening-index order."""
        return list(self._engine._core.open.values())

    def bin_of(self, item: Item) -> Bin:
        """The bin ``item`` currently resides in."""
        return self._engine._core.live[item.uid][1]

    def remaining_budget(self) -> float:
        """Moves still admissible within this event's window."""
        return self._engine.ledger.remaining()

    def can_move(self, count: int = 1) -> bool:
        """Whether ``count`` further moves fit the budget."""
        return self._engine.ledger.can_move(count)

    @staticmethod
    def projected_close(bin_: Bin) -> float:
        """Projected close time of an open bin (latest resident departure)."""
        return max((it.departure for it in bin_.active_items()), default=bin_.opened_at)

    def move_delta(self, item: Item, dst: Bin) -> float:
        """Projected Eq. 1 cost delta of moving ``item`` to ``dst`` now.

        Source side: if the move empties the source, its close time drops
        from its projected close to ``now`` (a saving); otherwise the
        source's projection is unchanged or shrinks to the remaining
        residents' latest departure.  Destination side: the destination's
        projection can only extend, by ``max(0, departure - projected)``.
        """
        src = self.bin_of(item)
        others = [it.departure for it in src.active_items() if it.uid != item.uid]
        src_after = max(others) if others else self.now
        dst_before = self.projected_close(dst)
        dst_after = max(dst_before, item.departure)
        return (src_after - self.projected_close(src)) + (dst_after - dst_before)

    # -- write side ----------------------------------------------------
    def move(self, item: Item, dst: Bin) -> bool:
        """Relocate a live ``item`` into open bin ``dst``.

        Checked: the ledger admits the move (else
        :class:`~repro.core.errors.MigrationBudgetError`), ``dst`` is a
        *different, open* bin, and ``dst`` has residual capacity (else
        :class:`~repro.core.errors.CapacityExceededError`).  Returns
        ``True`` when the move emptied (closed) the source bin.
        """
        engine, now = self._engine, self.now
        if item.uid not in engine._core.live:
            raise AlgorithmError(f"cannot move item {item.uid}: not live")
        src = self.bin_of(item)
        if dst is src:
            raise ConfigurationError(
                f"cannot move item {item.uid} into its own bin {src.index}"
            )
        if item.departure <= now:
            raise ConfigurationError(
                f"cannot move item {item.uid} at t={now:g}: it departs at "
                f"{item.departure:g} (same-instant departers are already gone)"
            )
        if not dst.is_open:
            raise ConfigurationError(
                f"cannot move item {item.uid} into closed bin {dst.index}; "
                f"closed bins are never reused (Section 2.1)"
            )
        if not dst.can_fit(item):
            raise CapacityExceededError(
                f"item {item.uid} does not fit bin {dst.index}'s residual capacity"
            )
        record = MoveRecord(
            event_index=engine._event_index,
            time=now,
            uid=item.uid,
            src=src.index,
            dst=dst.index,
            cost_delta=self.move_delta(item, dst),
            closed_src=src.num_active == 1,
        )
        engine.ledger.record(record)  # raises MigrationBudgetError untouched
        return engine._apply_move(item, dst, now, record)


class RepackingEngine:
    """Replays one instance with a dispatch policy plus a repack policy.

    Single-use, like the classic engine: construct, :meth:`run`, read
    the returned :class:`RepackResult`.
    """

    def __init__(
        self,
        instance: Instance,
        algorithm: OnlineAlgorithm,
        repacker: RepackPolicy,
        ledger: Optional[MigrationLedger] = None,
        observers: Sequence = (),
        collector: Optional[StatsCollector] = None,
    ) -> None:
        self.instance = instance
        self.algorithm = algorithm
        self.repacker = repacker
        self.ledger = ledger if ledger is not None else MigrationLedger(
            budget=repacker.default_budget, mode=repacker.mode
        )
        if self.ledger.mode != repacker.mode:
            raise ConfigurationError(
                f"repacker {repacker.name!r} accounts in {repacker.mode!r} mode "
                f"but the ledger was built for {self.ledger.mode!r}"
            )
        self.observers = list(observers)
        self.collector = collector
        self.bins: List[Bin] = []
        self._core: Optional[LivePacking] = None
        self._segments: Dict[int, List[List[float]]] = {}
        self._moves: List[MoveRecord] = []
        self._event_index = -1
        self._ran = False

    # ------------------------------------------------------------------
    def run(self) -> RepackResult:
        """Execute the full event stream and return the final result."""
        if self._ran:
            raise AlgorithmError(
                "RepackingEngine instances are single-use; build a new one"
            )
        self._ran = True
        col = self.collector
        if col is not None:
            col.repacking_runs += 1
            self.algorithm.bind_collector(col)

        ctx = RepackContext(self)
        try:
            self._core = core = LivePacking(
                self.algorithm,
                self.instance.capacity,
                instance=self.instance,
                observers=self.observers,
            )
            self.repacker.start(self.instance)

            arrival = EventKind.ARRIVAL
            bins = self.bins
            for event in event_stream(self.instance):
                self._event_index += 1
                item, now = event.item, event.time
                if event.kind is arrival:
                    target = core.place(item, now)
                    if target.index == len(bins):
                        bins.append(target)
                    self._segments[item.uid] = [[target.index, now, item.departure]]
                else:
                    core.depart(item.uid, now)
                    self._segments[item.uid][-1][2] = now
                # the repack window: budget accrues per event whether or
                # not the policy uses it (amortized credits accumulate)
                self.ledger.begin_event()
                ctx.now = now
                self.repacker.after_event(ctx, event.kind, now)
        finally:
            if col is not None:
                self.algorithm.bind_collector(None)

        packing = self._final_packing()
        for obs in self.observers:
            obs.on_finish(packing)
        return RepackResult(
            packing=packing,
            ledger=self.ledger,
            moves=tuple(self._moves),
            segments={
                uid: tuple((int(b), s, e) for b, s, e in segs)
                for uid, segs in self._segments.items()
            },
            repacker=self.repacker.name,
            budget=self.ledger.budget,
            mode=self.ledger.mode,
        )

    # ------------------------------------------------------------------
    # migrations
    # ------------------------------------------------------------------
    def _apply_move(
        self, item: Item, dst: Bin, now: float, record: MoveRecord
    ) -> bool:
        """Unchecked move primitive; always logs into the engine move log.

        Split from :meth:`RepackContext.move` so the verify harness's
        ``BudgetIgnoringRepacker`` mutant can model an enforcement
        bypass — its moves still land in ``self._moves``, which is the
        log the budget auditor replays.
        """
        closed = self._core.move(item.uid, dst, now)
        segs = self._segments[item.uid]
        segs[-1][2] = now
        if segs[-1][1] == now:
            # zero-length residency: the item is moved at the very
            # instant it entered this bin (arrival-window move, or a
            # second move at the same timestamp) — drop the stub
            segs.pop()
        if segs and segs[-1][0] == dst.index and segs[-1][2] == now:
            # returned to the bin it occupied up to this instant
            segs[-1][2] = item.departure
        else:
            segs.append([dst.index, now, item.departure])
        self._moves.append(record)
        if self.collector is not None:
            self.collector.migrations += 1
        return closed

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _final_packing(self) -> Packing:
        # an item's last residency segment is the bin it ends in
        assignment = {uid: segs[-1][0] for uid, segs in self._segments.items()}
        if not self._moves:
            # zero moves -> the classic derivation applies verbatim; use
            # it so NoRepack's Packing is structurally identical to the
            # classic engine's (the budget-0 bit-identity contract)
            return Packing.from_assignment(
                self.instance, assignment, algorithm=self.algorithm.name
            )
        records = []
        for bin_ in self.bins:
            closed_at = bin_.closed_at
            if closed_at is None:  # pragma: no cover - defensive
                raise AlgorithmError(
                    f"bin {bin_.index} still open after the last departure"
                )
            records.append(
                BinRecord(
                    index=bin_.index,
                    opened_at=bin_.opened_at,
                    closed_at=closed_at,
                    item_uids=tuple(it.uid for it in bin_.history),
                )
            )
        return Packing(
            instance=self.instance,
            assignment=assignment,
            bins=tuple(records),
            algorithm=self.algorithm.name,
        )


def first_principles_cost(
    instance: Instance, segments: Dict[int, Tuple[Tuple[int, float, float], ...]]
) -> float:
    """Recompute Eq. 1 from residency segments alone.

    Each bin's usage period is the hull of the segments it hosted
    (open at its first segment start, closed at its last segment end);
    the cost is the sum of the hull lengths.  Independent of the
    engine's bin objects — this is the ground truth the property tests
    and :func:`repacking_run`'s cross-check compare against.
    """
    opened: Dict[int, float] = {}
    closed: Dict[int, float] = {}
    for uid, segs in segments.items():
        for bin_index, start, end in segs:
            if bin_index not in opened or start < opened[bin_index]:
                opened[bin_index] = start
            if bin_index not in closed or end > closed[bin_index]:
                closed[bin_index] = end
    return sum(closed[i] - opened[i] for i in sorted(opened))


def parse_repacking_spec(engine: str) -> Tuple[str, Optional[float]]:
    """Parse an ``"repacking[:policy[:budget]]"`` engine spec string.

    Returns ``(policy_name, budget_or_None)``; a missing policy means
    ``no_repack`` and a missing budget means the policy's default.
    Raised errors are :class:`~repro.core.errors.ConfigurationError`.
    """
    parts = engine.split(":")
    if parts[0] != "repacking" or len(parts) > 3:
        raise ConfigurationError(f"malformed repacking engine spec {engine!r}")
    policy = parts[1] if len(parts) > 1 and parts[1] else "no_repack"
    budget: Optional[float] = None
    if len(parts) > 2:
        try:
            budget = float(parts[2])
        except ValueError:
            raise ConfigurationError(
                f"malformed budget in repacking engine spec {engine!r}"
            ) from None
    return policy, budget


def repacking_run(
    algorithm: OnlineAlgorithm,
    instance: Instance,
    repacker="no_repack",
    budget: Optional[float] = None,
    observers: Sequence = (),
    collector: Optional[StatsCollector] = None,
    validate: bool = False,
) -> RepackResult:
    """Run one algorithm on one instance under a migration budget.

    ``repacker`` is a registry name (see
    :data:`repro.repacking.policies.REPACK_POLICIES`) or a
    :class:`~repro.repacking.policies.RepackPolicy` object; ``budget``
    overrides the policy's default (per-event move cap, or amortized
    credit rate for amortized policies).  The returned
    :class:`RepackResult` carries the move-aware packing, the ledger,
    and the residency segments.

    Every run cross-checks the packing's cost against
    :func:`first_principles_cost` over the segments and raises
    :class:`~repro.core.errors.AlgorithmError` on drift; with
    ``validate=True`` the full segment-level audit
    (:func:`repro.repacking.audit.audit_repacking`) runs too.
    """
    policy = repacker if isinstance(repacker, RepackPolicy) else make_repacker(repacker)
    effective = policy.default_budget if budget is None else float(budget)
    ledger = MigrationLedger(budget=effective, mode=policy.mode)
    result = RepackingEngine(
        instance, algorithm, policy, ledger=ledger,
        observers=observers, collector=collector,
    ).run()
    recomputed = first_principles_cost(instance, result.segments)
    if abs(recomputed - result.cost) > _COST_TOL * max(1.0, abs(recomputed)):
        raise AlgorithmError(
            f"repacking cost drift: engine says {result.cost!r}, first "
            f"principles say {recomputed!r} ({algorithm.name} + {policy.name})"
        )
    if validate:
        from .audit import audit_repacking

        problems = audit_repacking(result)
        if problems:
            raise AlgorithmError(
                "repacking audit failed: " + "; ".join(problems[:5])
            )
    return result
