"""Discrete-event simulation engine for online DVBP.

The engine replays the event order of
:func:`~repro.core.events.event_order` through a
:class:`~repro.simulation.live.LivePacking` core, which owns bin
lifecycle, irrevocability and usage-time accounting (Eq. 1); the policy
— which bin an arriving item goes to — is an
:class:`~repro.algorithms.base.OnlineAlgorithm`.

Observers can subscribe to every state transition; the analysis layers
(Figure 1's leading-interval decomposition, Figure 3's load snapshots)
are implemented as observers so the engine stays policy- and
experiment-agnostic.
"""

from __future__ import annotations

import warnings
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algorithms.base import OnlineAlgorithm
from ..core.bins import Bin
from ..core.errors import AlgorithmError
from ..core.events import event_order
from ..core.instance import Instance
from ..core.items import Item
from ..core.packing import Packing
from ..observability.stats import StatsCollector
from .live import LivePacking

__all__ = [
    "SimulationObserver",
    "Engine",
    "simulate",
    "reset_fallback_warnings",
]

#: (policy name, reason) pairs already warned about in this process —
#: batch-engine fallbacks to the classic engine are expected to repeat
#: thousands of times in a sweep, so each distinct cause warns exactly
#: once.
_FALLBACK_WARNED: Set[Tuple[str, str]] = set()


def reset_fallback_warnings() -> None:
    """Forget which classic-engine fallbacks have already warned (tests)."""
    _FALLBACK_WARNED.clear()


def _note_fallback(
    name: str, reason: str, collector: Optional[StatsCollector]
) -> None:
    """Record one fast-kernel→classic fallback: counter bump + one-time warning."""
    if collector is not None:
        collector.fastpath_fallbacks += 1
    key = (name, reason)
    if key not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(key)
        warnings.warn(
            f"{name!r} runs on the classic engine, not a fast kernel "
            f"({reason}); this warning is emitted once per cause",
            RuntimeWarning,
            stacklevel=3,
        )


class SimulationObserver:
    """Callback interface for engine state transitions.

    All hooks default to no-ops; subclass and override what you need.
    Hooks fire *after* the engine has applied the transition, so observer
    code sees the post-state.
    """

    def on_start(self, instance: Instance, algorithm: OnlineAlgorithm) -> None:
        """Called once before the first event."""

    def on_bin_opened(self, bin_: Bin, now: float) -> None:
        """A fresh bin was created (it has not received its item yet)."""

    def on_packed(self, bin_: Bin, item: Item, now: float, opened_new: bool) -> None:
        """``item`` was packed into ``bin_`` (new bin iff ``opened_new``)."""

    def on_departed(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        """``item`` departed from ``bin_`` (bin closed iff ``closed``)."""

    def on_finish(self, packing: Packing) -> None:
        """Called once after the last event with the final packing."""


class Engine:
    """Replays one instance through one algorithm.

    Engines are single-use: construct, call :meth:`run`, read the
    returned :class:`~repro.core.packing.Packing`.  (The *algorithm*
    object is reusable — the engine calls its ``start`` — but a given
    Engine instance must not be run twice.)
    """

    def __init__(
        self,
        instance: Instance,
        algorithm: OnlineAlgorithm,
        observers: Sequence[SimulationObserver] = (),
        collector: Optional[StatsCollector] = None,
    ) -> None:
        self.instance = instance
        self.algorithm = algorithm
        self.observers = list(observers)
        self.collector = collector
        self.bins: List[Bin] = []
        self._ran = False

    # ------------------------------------------------------------------
    def run(self) -> Packing:
        """Execute the full event stream and return the final packing.

        One loop feeds every event to a
        :class:`~repro.simulation.live.LivePacking` core.  A collector
        is bound to the (reusable) algorithm for the run only, so Any
        Fit counts its candidate scans; the core then times dispatch,
        and the run's totals reach the collector once, at the end.
        """
        if self._ran:
            raise AlgorithmError("Engine instances are single-use; build a new one")
        self._ran = True
        col = self.collector
        t_run = perf_counter()
        if col is not None:
            col.run_started(self.instance, self.algorithm)
            self.algorithm.bind_collector(col)
        try:
            core = LivePacking(
                self.algorithm,
                self.instance.capacity,
                instance=self.instance,
                observers=self.observers,
                timed=col is not None,
            )

            items = self.instance.items
            n = len(items)
            bins = self.bins
            assignment: Dict[int, int] = {}
            for pos in event_order(self.instance):
                if pos < n:
                    item = items[pos]
                    target = core.place(item, item.arrival)
                    if target.index == len(bins):
                        bins.append(target)
                    assignment[item.uid] = target.index
                else:
                    item = items[pos - n]
                    core.depart(item.uid, item.departure)

            packing = Packing.from_assignment(
                self.instance, assignment, algorithm=self.algorithm.name
            )
            for obs in self.observers:
                obs.on_finish(packing)
        finally:
            if col is not None:
                self.algorithm.bind_collector(None)
        if col is not None:
            core.record_run(col)
            col.run_finished(
                perf_counter() - t_run,
                context={"instance": self.instance.name, "n": self.instance.n},
            )
        return packing


def simulate(
    algorithm: OnlineAlgorithm,
    instance: Instance,
    observers: Sequence[SimulationObserver] = (),
    collector: Optional[StatsCollector] = None,
) -> Packing:
    """Convenience wrapper: run ``algorithm`` on ``instance`` once.

    Equivalent to ``Engine(instance, algorithm, observers, collector).run()``.
    """
    return Engine(instance, algorithm, observers, collector).run()
