"""Items: the jobs/VM-requests of the MinUsageTime DVBP problem.

An item ``r`` is a triple ``(a(r), e(r), s(r))`` — arrival time, departure
time, and a ``d``-dimensional size vector (Section 2.1).  Items are
immutable; identity is carried by an integer ``uid`` assigned by the
:class:`~repro.core.instance.Instance` that owns them (or explicitly by
the caller), so two items with equal fields but different uids are
distinct jobs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidItemError
from .intervals import Interval
from .vectors import as_size_vector, linf

__all__ = ["Item"]

#: ``slots=True`` drops the per-instance ``__dict__`` of the hot
#: per-event objects (items are allocated n-at-a-time in every sweep and
#: held for the whole replay).  The keyword only exists on Python 3.10+;
#: on 3.9 the classes keep their dict and everything else is identical.
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **DATACLASS_SLOTS)
class Item:
    """A single online job with multi-dimensional resource demand.

    Parameters
    ----------
    arrival:
        Arrival time ``a(r) >= 0``.
    departure:
        Departure time ``e(r) > a(r)``.  The active interval is the
        half-open ``[arrival, departure)`` — the item has departed *at*
        ``departure``.
    size:
        Resource demand vector ``s(r)``; scalar inputs are promoted to
        1-D.  Sizes must be non-negative and finite.  Whether the size
        fits the bin capacity is validated by the owning instance (items
        themselves are capacity-agnostic).
    uid:
        Stable integer identity.  When items are built through
        :meth:`repro.core.instance.Instance.from_tuples` the uid equals
        the item's position in the arrival order.
    """

    arrival: float
    departure: float
    size: np.ndarray = field(repr=False)
    uid: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", as_size_vector(self.size))
        if not (math.isfinite(self.arrival) and math.isfinite(self.departure)):
            raise InvalidItemError(
                f"item {self.uid}: times must be finite "
                f"(arrival={self.arrival}, departure={self.departure})"
            )
        if self.arrival < 0:
            raise InvalidItemError(f"item {self.uid}: arrival must be >= 0, got {self.arrival}")
        if self.departure <= self.arrival:
            raise InvalidItemError(
                f"item {self.uid}: departure {self.departure} must exceed arrival {self.arrival}"
            )
        # freeze the array so the frozen dataclass is actually immutable
        self.size.setflags(write=False)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def d(self) -> int:
        """Number of resource dimensions of this item."""
        return int(self.size.size)

    @property
    def duration(self) -> float:
        """Item duration ``ell(I(r)) = e(r) - a(r)``."""
        return self.departure - self.arrival

    @property
    def interval(self) -> Interval:
        """Active interval ``I(r) = [a(r), e(r))``."""
        return Interval(self.arrival, self.departure)

    @property
    def max_demand(self) -> float:
        """Largest per-dimension demand, ``||s(r)||_inf``."""
        return linf(self.size)

    @property
    def utilization(self) -> float:
        """Time-space utilisation ``u(r) = ||s(r)||_inf * ell(I(r))``.

        This is the quantity summed in the Lemma 1(ii) lower bound.
        """
        return self.max_demand * self.duration

    def active_at(self, t: float) -> bool:
        """Whether the item is active at instant ``t`` (half-open check)."""
        return self.arrival <= t < self.departure

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def scaled(self, factor: Union[float, Sequence[float], np.ndarray]) -> "Item":
        """A copy with the size multiplied per-dimension by ``factor``.

        Used to normalise instances with non-unit bin capacity into the
        unit-capacity form the theory assumes.
        """
        return Item(self.arrival, self.departure, np.asarray(self.size) * np.asarray(factor), self.uid)

    def shifted(self, delta: float) -> "Item":
        """A copy with both times translated by ``delta`` (must stay >= 0)."""
        return Item(self.arrival + delta, self.departure + delta, np.array(self.size), self.uid)

    def with_uid(self, uid: int) -> "Item":
        """A copy carrying a different uid."""
        return Item(self.arrival, self.departure, np.array(self.size), uid)

    def with_departure(self, departure: float) -> "Item":
        """A copy with a different departure time (same arrival/size/uid)."""
        return Item(self.arrival, departure, np.array(self.size), self.uid)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Item):
            return NotImplemented
        return (
            self.uid == other.uid
            and self.arrival == other.arrival
            and self.departure == other.departure
            and np.array_equal(self.size, other.size)
        )

    def __hash__(self) -> int:
        return hash((self.uid, self.arrival, self.departure, self.size.tobytes()))

    def __reduce__(self):
        # pickle and copy rebuild the item without re-validating it, and
        # keep its size read-only (an unpickled array is writeable)
        return (_restore_item, (self.arrival, self.departure, self.size, self.uid))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sz = np.array2string(self.size, precision=4, separator=",")
        return f"Item(uid={self.uid}, [{self.arrival:g},{self.departure:g}), s={sz})"


def _restore_item(arrival: float, departure: float, size: np.ndarray, uid: int) -> Item:
    """An :class:`Item` from a valid one's fields (the unpickle path)."""
    it = object.__new__(Item)
    put = object.__setattr__
    put(it, "arrival", arrival)
    put(it, "departure", departure)
    put(it, "size", size)
    put(it, "uid", uid)
    size.setflags(write=False)
    return it


def _trusted_items(
    arrivals: Sequence[float], departures: Sequence[float], sizes: np.ndarray
) -> Tuple[Item, ...]:
    """Items with uids ``0..n-1`` from fields already known to be valid.

    Skips :meth:`Item.__post_init__`: the caller has checked every
    condition it enforces.  ``arrivals`` and ``departures`` hold Python
    floats; row ``j`` of the read-only ``sizes`` matrix becomes item
    ``j``'s size vector as a view.
    """
    new, put = object.__new__, object.__setattr__
    items = []
    for uid, (arrival, departure, size) in enumerate(zip(arrivals, departures, sizes)):
        it = new(Item)
        put(it, "arrival", arrival)
        put(it, "departure", departure)
        put(it, "size", size)
        put(it, "uid", uid)
        items.append(it)
    return tuple(items)


def make_item(
    arrival: float,
    duration: float,
    size: Union[float, Sequence[float], np.ndarray],
    uid: int = 0,
) -> Item:
    """Convenience constructor from ``(arrival, duration)`` instead of
    ``(arrival, departure)``.

    Raises :class:`InvalidItemError` if ``duration <= 0``.
    """
    if duration <= 0:
        raise InvalidItemError(f"duration must be positive, got {duration}")
    return Item(arrival, arrival + duration, np.asarray(size, dtype=np.float64), uid)


__all__.append("make_item")
