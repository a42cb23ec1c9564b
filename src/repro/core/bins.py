"""Bins: capacity-checked servers with load tracking and usage accounting.

A :class:`Bin` is the mutable runtime object the online engine operates
on.  It tracks its current load vector, resident items, open/close times,
the latest departure among items ever packed into it (where an open
bin's usage period ends), and the list of those items (needed for the
cost audit and for the usage-period decompositions of the analysis
sections).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from .errors import CapacityExceededError
from .intervals import Interval
from .items import Item
from .vectors import fits

__all__ = ["Bin"]


class Bin:
    """A single server/bin with vector capacity.

    Parameters
    ----------
    capacity:
        Per-dimension capacity vector (shared, not copied — treat as
        read-only).
    index:
        Opening-order index assigned by the engine: bin ``i`` is the
        ``i``-th bin opened (0-based).  First Fit's candidate order is
        exactly this index order.
    opened_at:
        Time the bin received its first item.
    """

    __slots__ = (
        "capacity",
        "index",
        "opened_at",
        "closed_at",
        "latest_departure",
        "load",
        "_active",
        "history",
    )

    def __init__(self, capacity: np.ndarray, index: int, opened_at: float) -> None:
        self.capacity = capacity
        self.index = index
        self.opened_at = float(opened_at)
        self.closed_at: Optional[float] = None
        #: latest departure among items ever packed here (``opened_at``
        #: before the first pack) — where an open bin's usage period ends
        self.latest_departure = self.opened_at
        self.load = np.zeros(capacity.size, dtype=np.float64)
        self._active: Dict[int, Item] = {}
        #: every item ever packed here, in packing order (audit trail)
        self.history: List[Item] = []

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Number of resource dimensions."""
        return int(self.capacity.size)

    @property
    def is_open(self) -> bool:
        """Whether the bin still holds at least one active item."""
        return self.closed_at is None

    @property
    def is_empty(self) -> bool:
        """Whether no items are currently resident."""
        return not self._active

    @property
    def num_active(self) -> int:
        """Number of currently resident items."""
        return len(self._active)

    def active_items(self) -> List[Item]:
        """Currently resident items (insertion order)."""
        return list(self._active.values())

    def active_uids(self) -> Set[int]:
        """Uids of currently resident items."""
        return set(self._active.keys())

    def can_fit(self, item: Item) -> bool:
        """Whether ``item`` fits the residual capacity (per-dimension)."""
        return fits(self.load, item.size, self.capacity)

    @property
    def usage_period(self) -> Interval:
        """The bin's active interval ``[opened_at, closed_at)``.

        For a still-open bin the end is :attr:`latest_departure`, the
        latest departure among items ever packed (the earliest time it
        *could* close).
        """
        end = self.closed_at if self.closed_at is not None else self.latest_departure
        return Interval(self.opened_at, end)

    @property
    def usage_time(self) -> float:
        """Length of :attr:`usage_period` — this bin's cost contribution."""
        end = self.closed_at if self.closed_at is not None else self.latest_departure
        return max(0.0, end - self.opened_at)  # usage_period.length, no Interval built

    # ------------------------------------------------------------------
    # mutations (engine-only)
    # ------------------------------------------------------------------
    def pack(self, item: Item) -> None:
        """Place ``item`` into this bin.

        Raises
        ------
        CapacityExceededError
            If the item does not fit.  The Any Fit base class checks fit
            before calling; hitting this indicates a buggy selection rule.
        """
        if not self.can_fit(item):
            raise CapacityExceededError(
                f"item {item.uid} (size {item.size!r}) does not fit bin "
                f"{self.index} at load {self.load!r} / capacity {self.capacity!r}"
            )
        if item.uid in self._active:
            raise CapacityExceededError(
                f"item {item.uid} is already resident in bin {self.index}"
            )
        self.load = self.load + item.size
        self._active[item.uid] = item
        self.history.append(item)
        if item.departure > self.latest_departure:
            self.latest_departure = item.departure

    def remove(self, item: Item, now: float) -> bool:
        """Remove a departing ``item``; close the bin if it empties.

        Returns
        -------
        bool
            ``True`` if this departure closed the bin.
        """
        if item.uid not in self._active:
            raise KeyError(f"item {item.uid} is not resident in bin {self.index}")
        del self._active[item.uid]
        # recompute from residents rather than subtracting, so float error
        # cannot accumulate over long arrival/departure sequences
        self.load = self._active_load()
        if not self._active:
            self.closed_at = float(now)
            return True
        return False

    def _active_load(self) -> np.ndarray:
        total = np.zeros(self.d)
        for it in self._active.values():
            total += it.size
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.is_open else f"closed@{self.closed_at:g}"
        return (
            f"Bin(#{self.index}, {state}, items={len(self._active)}, "
            f"load={np.array2string(self.load, precision=3)})"
        )
