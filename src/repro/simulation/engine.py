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
#: fast-engine fallbacks are expected to repeat thousands of times in a
#: sweep, so each distinct cause warns exactly once.
_FALLBACK_WARNED: Set[Tuple[str, str]] = set()


def reset_fallback_warnings() -> None:
    """Forget which fast-engine fallbacks have already warned (tests)."""
    _FALLBACK_WARNED.clear()


def _note_fallback(
    name: str, reason: str, collector: Optional[StatsCollector]
) -> None:
    """Record one fast→classic fallback: counter bump + one-time warning."""
    if collector is not None:
        collector.fastpath_fallbacks += 1
    key = (name, reason)
    if key not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(key)
        warnings.warn(
            f"engine='fast' requested but {name!r} runs on the classic "
            f"engine ({reason}); this warning is emitted once per cause",
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
    fast: bool = False,
) -> Packing:
    """Convenience wrapper: run ``algorithm`` on ``instance`` once.

    Equivalent to ``Engine(instance, algorithm, observers, collector).run()``.

    With ``fast=True`` the run is auto-routed to the flat-array
    :class:`~repro.simulation.fastpath.FastEngine` when it is eligible —
    no observers requested and the algorithm resolves to a fast policy
    kernel (see :func:`~repro.simulation.fastpath.fast_policy_for`) —
    and falls back to the classic engine otherwise.  Both engines
    produce bit-identical packings, so ``fast`` is purely a performance
    switch; a fallback is therefore *correct* but slower than requested,
    and it is surfaced rather than silent: the first occurrence of each
    distinct cause emits a :class:`RuntimeWarning`, and every occurrence
    increments the collector's ``fastpath_fallbacks`` counter.

    Fallback causes:

    * the algorithm has no registered fast kernel (ineligible policy or
      unregistered subclass);
    * observers were requested (the fast engine has no per-event hooks);
    * the fast kernel *failed* mid-run — the run degrades gracefully to
      the classic engine (any counters the aborted fast run wrote are
      rolled back first, so instrumented aggregates stay exact).
    """
    if fast:
        from .fastpath import FastEngine, fast_ineligibility_reason, fast_policy_for

        name = getattr(algorithm, "name", type(algorithm).__name__)
        if observers:
            _note_fallback(name, "observers requested", collector)
        else:
            resolved = fast_policy_for(algorithm)
            if resolved is None:
                _note_fallback(
                    name,
                    fast_ineligibility_reason(algorithm)
                    or "no fast kernel for this policy",
                    collector,
                )
            else:
                policy, seed = resolved
                saved = _collector_state(collector)
                try:
                    return FastEngine(
                        instance, policy, seed=seed, collector=collector
                    ).run()
                except Exception as exc:  # kernel failure: degrade to classic
                    _restore_collector_state(collector, saved)
                    _note_fallback(
                        name, f"fast kernel failed ({type(exc).__name__}: {exc})",
                        collector,
                    )
    return Engine(instance, algorithm, observers, collector).run()


def _collector_state(collector: Optional[StatsCollector]) -> Optional[dict]:
    """Snapshot a collector's accumulator slots (sink binding excluded)."""
    if collector is None:
        return None
    return {
        slot: getattr(collector, slot)
        for slot in StatsCollector.__slots__
        if slot not in ("sink", "sample_rss")
    }


def _restore_collector_state(
    collector: Optional[StatsCollector], saved: Optional[dict]
) -> None:
    """Roll a collector back to a :func:`_collector_state` snapshot."""
    if collector is None or saved is None:
        return
    for slot, value in saved.items():
        setattr(collector, slot, value)
