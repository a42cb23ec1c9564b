"""The live packing: Algorithm 1's per-item step, written once.

The classic :class:`~repro.simulation.engine.Engine` (and the
heterogeneous-fleet :class:`~repro.heterogeneous.engine.TypedEngine`
that runs it), the streaming engine, the placement service, the
repacking engine and the adversary driver change their packing only
through :class:`LivePacking`'s three operations — the insert, delete
and repack of fully dynamic bin packing: :meth:`~LivePacking.place`
packs an arrival where the policy says, opening a bin when it asks for
one (Lines 3–9); :meth:`~LivePacking.depart` removes an item, and the
policy prunes ``L`` when its bin closed (Lines 10–12);
:meth:`~LivePacking.move` relocates a live item (repacking).  An engine
keeps only what it alone needs on top: event order, every bin, the
assignment, a clock.

The core is the only caller of ``dispatch``, ``notify_departure`` and
``notify_packed``, so the policy hears of every load change and may
cache loads (:class:`~repro.algorithms.base.AnyFitAlgorithm`'s load
matrix does).
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace
from typing import Dict, Optional, Sequence, Tuple, Type

import numpy as np

from ..algorithms.base import OnlineAlgorithm
from ..core.bins import Bin
from ..core.errors import AlgorithmError
from ..core.items import Item
from ..observability.stats import StatsCollector

__all__ = ["LivePacking"]


class LivePacking:
    """Open bins and live items under one policy, for one run.

    The constructor starts ``algorithm`` (on ``instance``, or on the
    capacity alone), then the ``observers``, which hear of every open,
    pack and departure after it happened.  ``bin_type`` is
    :class:`~repro.core.bins.Bin` or the streaming ``StreamBin``.  The
    lifecycle counters (``arrivals``, ``departures``, ``bins_opened``,
    ``bins_closed``, ``peak_open_bins``, ``peak_live_items``, and with
    ``timed`` the dispatch-plus-pack ``dispatch_time_s``) go to
    ``stats``, a private :class:`~repro.observability.stats.StatsCollector`
    unless one is given.

    State: :attr:`open` maps bin index → open bin in opening order (a
    bin leaves when it closes), :attr:`live` maps uid → ``(item, bin)``,
    :attr:`cost_closed` sums ``closed_at - opened_at`` of closed bins in
    close order, and :attr:`next_index` is the next bin's index.
    """

    __slots__ = (
        "algorithm", "capacity", "bin_type", "observers", "stats", "timed",
        "open", "live", "cost_closed", "next_index",
        "_item", "_now", "_opened",
    )

    def __init__(
        self,
        algorithm: OnlineAlgorithm,
        capacity: np.ndarray,
        instance=None,
        bin_type: Type[Bin] = Bin,
        observers: Sequence = (),
        stats: Optional[StatsCollector] = None,
        timed: bool = False,
    ) -> None:
        self.algorithm = algorithm
        self.capacity = capacity
        self.bin_type = bin_type
        self.observers = tuple(observers)
        self.stats = stats if stats is not None else StatsCollector()
        self.timed = timed
        self.open: Dict[int, Bin] = {}
        self.live: Dict[int, Tuple[Item, Bin]] = {}
        self.cost_closed = 0.0
        self.next_index = 0
        self._item: Optional[Item] = None
        self._now = 0.0
        self._opened = False
        if instance is None:  # stock policies' start reads only the capacity
            instance = SimpleNamespace(capacity=capacity)
        algorithm.start(instance)
        for obs in self.observers:
            obs.on_start(instance, algorithm)

    def place(self, item: Item, now: float) -> Bin:
        """Pack arriving ``item`` where the policy says; return its bin
        (a new one has index ``len(bins)`` for a caller keeping all)."""
        self._item = item
        self._now = now
        self._opened = False
        timed = self.timed
        t0 = perf_counter() if timed else 0.0
        target = self.algorithm.dispatch(item, now, self._open_new_bin)
        if target is None:
            raise AlgorithmError(
                f"{self.algorithm.name} returned no bin for item {item.uid}"
            )
        target.pack(item)  # raises CapacityExceededError on a bad policy
        st = self.stats
        if timed:
            st.dispatch_time_s += perf_counter() - t0
        live = self.live
        live[item.uid] = (item, target)
        st.arrivals += 1
        if len(live) > st.peak_live_items:
            st.peak_live_items = len(live)
        for obs in self.observers:
            obs.on_packed(target, item, now, opened_new=self._opened)
        return target

    def depart(self, uid: int, now: float) -> bool:
        """Remove live item ``uid``; return whether its bin closed."""
        item, bin_ = self.live.pop(uid)
        closed = bin_.remove(item, now)
        self.algorithm.notify_departure(bin_, item, now, closed)
        self.stats.departures += 1
        if closed:
            self._close(bin_)
        for obs in self.observers:
            obs.on_departed(bin_, item, now, closed)
        return closed

    def move(self, uid: int, dst: Bin, now: float) -> bool:
        """Relocate live item ``uid`` into ``dst`` (unchecked: the caller
        vets budget and fit); return whether its source bin closed."""
        item, src = self.live[uid]
        closed = src.remove(item, now)
        self.algorithm.notify_departure(src, item, now, closed)
        dst.pack(item)
        self.algorithm.notify_packed(dst, item, now)
        self.live[uid] = (item, dst)
        if closed:
            self._close(src)
        for obs in self.observers:
            obs.on_departed(src, item, now, closed)
            obs.on_packed(dst, item, now, opened_new=False)
        return closed

    def record_run(self, collector: StatsCollector) -> None:
        """Add this core's lifecycle totals to ``collector`` as one run's."""
        st = self.stats
        collector.record_run_totals(
            arrivals=st.arrivals,
            departures=st.departures,
            bins_opened=st.bins_opened,
            bins_closed=st.bins_closed,
            peak_open_bins=st.peak_open_bins,
            dispatch_time_s=st.dispatch_time_s,
        )

    def _open_new_bin(self, capacity: Optional[np.ndarray] = None) -> Bin:
        """The ``open_new_bin`` callback :meth:`place` hands the policy.

        The bin has the core's capacity unless the policy passes its own
        (a heterogeneous fleet's server type).
        """
        if self._opened:
            raise AlgorithmError(
                f"{self.algorithm.name} opened two bins for one item "
                f"(item {self._item.uid})"
            )
        now = self._now
        fresh = self.bin_type(
            self.capacity if capacity is None else capacity,
            index=self.next_index, opened_at=now,
        )
        self.next_index += 1
        self.open[fresh.index] = fresh
        self._opened = True
        st = self.stats
        st.bins_opened += 1
        if len(self.open) > st.peak_open_bins:
            st.peak_open_bins = len(self.open)
        for obs in self.observers:
            obs.on_bin_opened(fresh, now)
        return fresh

    def _close(self, bin_: Bin) -> None:
        self.stats.bins_closed += 1
        self.cost_closed += bin_.closed_at - bin_.opened_at
        del self.open[bin_.index]
