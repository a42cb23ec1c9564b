"""Event stream construction for the online simulation.

The engine replays an instance as a totally ordered stream of arrival and
departure events.  Ordering rules (all consequences of the half-open
active interval ``[a, e)`` of Section 2.1):

1. events are ordered by time;
2. at equal times, **departures precede arrivals** — an item departing at
   ``t`` has already freed its capacity when an item arriving at ``t`` is
   dispatched;
3. simultaneous arrivals keep the instance's list order (the adversarial
   constructions depend on this interleaving);
4. simultaneous departures are ordered by uid (any fixed order is
   equivalent, since all of them are processed before the next arrival).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from .instance import Instance
from .items import DATACLASS_SLOTS, Item

__all__ = ["EventKind", "Event", "event_stream", "event_order"]


class EventKind(enum.IntEnum):
    """Kind of a simulation event.  Departures sort before arrivals."""

    DEPARTURE = 0
    ARRIVAL = 1


@dataclass(frozen=True, order=True, **DATACLASS_SLOTS)
class Event:
    """A single timestamped event.

    The field order makes the natural dataclass ordering implement the
    module's ordering rules directly: ``(time, kind, seq)`` with
    ``DEPARTURE < ARRIVAL``.
    """

    time: float
    kind: EventKind
    seq: int
    item: Item = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.item is None:
            raise ValueError("Event requires an item")


def event_stream(instance: Instance) -> List[Event]:
    """Build the totally ordered event list for ``instance``.

    Returns ``2n`` events.  Arrival ``seq`` equals the item's position in
    the instance (preserving online arrival order at ties); departure
    ``seq`` is the uid.
    """
    events: List[Event] = []
    for pos, item in enumerate(instance.items):
        events.append(Event(item.arrival, EventKind.ARRIVAL, pos, item))
        events.append(Event(item.departure, EventKind.DEPARTURE, item.uid, item))
    events.sort(key=lambda ev: (ev.time, ev.kind, ev.seq))
    return events


def event_order(instance: Instance) -> List[int]:
    """The order of :func:`event_stream` as ``2n`` event positions.

    Value ``p < n`` is the arrival of ``instance.items[p]``; ``p >= n``
    is the departure of ``instance.items[p - n]``.  One lexsort over the
    instance's time columns replaces building and sorting ``2n``
    :class:`Event` objects.  Its last key is primary, so the keys are
    ``(time, kind, seq)`` with ``DEPARTURE(0) < ARRIVAL(1)``, arrival
    ``seq`` = position and departure ``seq`` = uid, as above.  Every
    event's key is distinct (uids are unique), so the order does not
    depend on the sort's stability.
    """
    n = len(instance.items)
    times = np.concatenate([instance.arrival_times, instance.departure_times])
    seqs = np.empty(2 * n, dtype=np.int64)
    seqs[:n] = np.arange(n)
    seqs[n:] = [it.uid for it in instance.items]
    kinds = np.zeros(2 * n, dtype=np.int64)
    kinds[:n] = EventKind.ARRIVAL
    return np.lexsort((seqs, kinds, times)).tolist()


def iter_arrivals(instance: Instance) -> Iterator[Item]:
    """Items in online arrival order (stable at ties)."""
    for ev in event_stream(instance):
        if ev.kind is EventKind.ARRIVAL:
            yield ev.item


__all__.append("iter_arrivals")
