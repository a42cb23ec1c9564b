"""The streaming engine: O(peak-open-items) replay of an item stream.

Where the classic engine materialises the instance and sorts all ``2n``
events up front, this engine consumes an *iterator* of items in arrival
order, merges departures in on the fly with a pending-departure heap
(:mod:`repro.streaming.merge` pins the order against
:func:`repro.core.events.event_stream`), and feeds both to a
:class:`~repro.simulation.live.LivePacking` core.  It holds live state
only:

* the core drops a bin the moment it closes and folds its exact Eq. 1
  contribution, ``closed_at - opened_at``, into a running total (a bin
  opens with its first item, stays non-empty until it closes, and is
  never reused), and its item map holds live items only;
* bins are :class:`StreamBin` — a :class:`~repro.core.bins.Bin` that
  tracks the latest member departure instead of appending every member
  to an unbounded audit ``history`` list;
* policy-side proof bookkeeping is suspended for the replay
  (``algorithm.audit_mode = False``) — Next Fit's Theorem 4
  ``release_log`` otherwise pins every released bin's residents for
  the life of the run.

Decisions are bit-identical to the classic engine: the same policy
object makes the same calls in the same event order over bins with the
same float loads — the ``compare_with_streaming`` oracle in
:mod:`repro.verify.oracles` enforces this on every corpus instance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..algorithms.base import OnlineAlgorithm
from ..core.bins import Bin
from ..core.errors import AlgorithmError, StreamOrderError
from ..core.instance import Instance
from ..core.items import Item
from ..core.packing import Packing
from ..observability.stats import StatsCollector
from ..simulation.live import LivePacking

__all__ = ["StreamBin", "StreamResult", "StreamingEngine", "streaming_run"]

_TOL = 1e-9


class StreamBin(Bin):
    """A :class:`~repro.core.bins.Bin` with O(1) memory per bin.

    The base class appends every member ever packed to ``history`` (the
    audit trail the offline analyses need); on an unbounded stream that
    list is the difference between O(live) and O(total) memory.  This
    subclass keeps ``history`` empty; the one scalar the engine needs
    from it, the latest member departure, the base class already keeps
    in :attr:`~repro.core.bins.Bin.latest_departure`.
    """

    __slots__ = ()

    def pack(self, item: Item) -> None:
        # identical capacity-check and load arithmetic to the base class;
        # the appended audit entry is dropped immediately to keep the
        # per-bin footprint constant
        super().pack(item)
        self.history.pop()


@dataclass(frozen=True)
class StreamResult:
    """What one streaming replay learned.

    ``cost`` is the running Eq. 1 total: the exact ``closed - opened``
    contribution of every closed bin, plus the accrued-so-far usage of
    any bin still open when the stream ended (zero bins remain open when
    every item's departure is finite).  The running total sums in bin
    *close* order; :func:`streaming_run` cross-checks it against the
    assignment-derived :class:`~repro.core.packing.Packing` cost.
    """

    algorithm: str
    cost: float
    events: int
    arrivals: int
    departures: int
    bins_opened: int
    bins_closed: int
    open_bins: int
    peak_open_bins: int
    peak_live_items: int
    flushes: int
    assignment: Optional[Dict[int, int]] = None


class StreamingEngine:
    """Replays an item iterator through one algorithm with bounded memory.

    Parameters
    ----------
    algorithm:
        The dispatch policy (same object contract as the classic
        engine).
    capacity:
        Per-dimension bin capacity vector.
    collector:
        Optional :class:`~repro.observability.stats.StatsCollector`;
        when given the run is instrumented (dispatch timing, lifecycle
        counters, ``streaming_runs`` / ``stream_flushes`` /
        ``peak_live_items``).
    record_assignment:
        Keep the full uid → bin-index map.  Needed by the verify oracle
        and the ``Packing``-returning :func:`streaming_run` wrapper, but
        it is O(total items) — leave it off (the default) on unbounded
        streams; the engine then holds live state only.
    flush_every:
        Emit a ``"stream_flush"`` trace record (through the collector's
        sink, when one is attached) and bump ``stream_flushes`` every
        this many events.  ``0`` disables periodic flushing.
    """

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        capacity: np.ndarray,
        collector: Optional[StatsCollector] = None,
        record_assignment: bool = False,
        flush_every: int = 1_000_000,
    ) -> None:
        self.algorithm = algorithm
        self.capacity = np.asarray(capacity, dtype=np.float64)
        self.collector = collector
        self.record_assignment = record_assignment
        self.flush_every = int(flush_every)
        self._ran = False

    # ------------------------------------------------------------------
    def run(self, items: Iterable[Item]) -> StreamResult:
        """Consume ``items`` (non-decreasing arrival order) to exhaustion."""
        if self._ran:
            raise AlgorithmError(
                "StreamingEngine instances are single-use; build a new one"
            )
        self._ran = True
        col = self.collector
        t_run = perf_counter()
        if col is not None:
            col.run_started(None, self.algorithm)
            self.algorithm.bind_collector(col)
        # suspend unbounded proof bookkeeping (e.g. next_fit's
        # release_log) for the duration of the replay: it is never read
        # online and would silently turn O(live) memory into O(stream)
        prev_audit = self.algorithm.audit_mode
        self.algorithm.audit_mode = False
        try:
            core = LivePacking(
                self.algorithm, self.capacity, bin_type=StreamBin,
                timed=col is not None,
            )
            result = self._event_loop(core, items, col)
        finally:
            self.algorithm.audit_mode = prev_audit
            if col is not None:
                self.algorithm.bind_collector(None)
        if col is not None:
            core.record_run(col)
            col.streaming_runs += 1
            col.stream_flushes += result.flushes
            if result.peak_live_items > col.peak_live_items:
                col.peak_live_items = result.peak_live_items
            col.run_finished(
                perf_counter() - t_run,
                context={"engine": "streaming", "events": result.events},
            )
        return result

    # ------------------------------------------------------------------
    def _event_loop(
        self,
        core: LivePacking,
        items: Iterable[Item],
        col: Optional[StatsCollector],
    ) -> StreamResult:
        # Inline streaming merge: same drain conditions and tie-breaks as
        # repro.streaming.merge.merge_events (pinned against
        # core.events.event_stream by tests), without allocating an Event
        # object per event on the hot path.
        heap: List[Tuple[float, int]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        place, depart = core.place, core.depart
        assignment: Optional[Dict[int, int]] = (
            {} if self.record_assignment else None
        )
        st = core.stats
        flushes = 0
        flush_every = self.flush_every
        next_flush = flush_every if flush_every else float("inf")
        last_arrival = float("-inf")

        for item in items:
            if item.arrival < last_arrival:
                raise StreamOrderError(
                    f"arrival stream is out of order: item {item.uid} arrives "
                    f"at {item.arrival!r} after an arrival at {last_arrival!r}"
                )
            now = last_arrival = item.arrival
            # departures-first at equal times (core.events rule 2)
            while heap and heap[0][0] <= now:
                t, uid = heappop(heap)
                depart(uid, t)

            target = place(item, now)
            if assignment is not None:
                assignment[item.uid] = target.index
            heappush(heap, (item.departure, item.uid))
            events = st.arrivals + st.departures
            if events >= next_flush:
                # one flush per crossed threshold, however many events
                # the departure drain advanced past it in one iteration
                while events >= next_flush:
                    next_flush += flush_every
                flushes += 1
                if col is not None and col.sink is not None:
                    col.sink.emit("stream_flush", {
                        "events": events,
                        "cost_closed": core.cost_closed,
                        "open_bins": len(core.open),
                        "live_items": len(core.live),
                    })

        while heap:
            t, uid = heappop(heap)
            depart(uid, t)

        # accrued usage of bins the stream left open (empty stream tail):
        # latest known departure bounds what they have certainly accrued
        cost = core.cost_closed
        for bin_ in core.open.values():
            cost += bin_.latest_departure - bin_.opened_at

        return StreamResult(
            algorithm=self.algorithm.name,
            cost=cost,
            events=st.arrivals + st.departures,
            arrivals=st.arrivals,
            departures=st.departures,
            bins_opened=st.bins_opened,
            bins_closed=st.bins_closed,
            open_bins=len(core.open),
            peak_open_bins=st.peak_open_bins,
            peak_live_items=st.peak_live_items,
            flushes=flushes,
            assignment=assignment,
        )


def streaming_run(
    algorithm: OnlineAlgorithm,
    instance: Instance,
    collector: Optional[StatsCollector] = None,
    flush_every: int = 1_000_000,
) -> Packing:
    """Replay a materialised instance through the streaming engine.

    The adapter behind ``run(..., engine="streaming")`` and the
    ``compare_with_streaming`` oracle: records the full assignment and
    returns the same :class:`~repro.core.packing.Packing` currency as
    every other engine (built by ``Packing.from_assignment``, hence
    bit-identical cost arithmetic to the classic engine whenever the
    assignments agree).  The engine's running close-order cost total is
    cross-checked against the packing cost before returning — drift
    beyond tolerance means the streaming accounting itself is broken and
    raises rather than returning a plausible-looking packing.
    """
    engine = StreamingEngine(
        algorithm,
        instance.capacity,
        collector=collector,
        record_assignment=True,
        flush_every=flush_every,
    )
    result = engine.run(instance.items)
    packing = Packing.from_assignment(
        instance, result.assignment, algorithm=algorithm.name
    )
    if abs(result.cost - packing.cost) > _TOL * max(1.0, abs(packing.cost)):
        raise AlgorithmError(
            f"streaming running cost {result.cost!r} drifted from the "
            f"assignment-derived cost {packing.cost!r} "
            f"({algorithm.name} on {instance.name!r})"
        )
    return packing
