"""Unit tests for repro.core.events (ordering rules)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.events import Event, EventKind, event_order, event_stream, iter_arrivals
from repro.core.instance import Instance
from repro.core.items import Item


def test_stream_has_two_events_per_item(tiny_instance):
    events = event_stream(tiny_instance)
    assert len(events) == 2 * len(tiny_instance)


def test_events_sorted_by_time(tiny_instance):
    events = event_stream(tiny_instance)
    times = [e.time for e in events]
    assert times == sorted(times)


def test_departure_before_arrival_at_equal_time():
    # item 0 departs at t=1; item 1 arrives at t=1
    inst = Instance(
        [Item(0, 1, np.array([0.6]), 0), Item(1, 2, np.array([0.6]), 1)]
    )
    events = event_stream(inst)
    at_one = [e for e in events if e.time == 1.0]
    assert [e.kind for e in at_one] == [EventKind.DEPARTURE, EventKind.ARRIVAL]


def test_simultaneous_arrivals_keep_instance_order():
    inst = Instance(
        [
            Item(0, 1, np.array([0.1]), 0),
            Item(0, 1, np.array([0.2]), 1),
            Item(0, 1, np.array([0.3]), 2),
        ]
    )
    arrivals = [e for e in event_stream(inst) if e.kind is EventKind.ARRIVAL]
    assert [e.item.uid for e in arrivals] == [0, 1, 2]


def test_simultaneous_departures_ordered_by_uid():
    inst = Instance(
        [Item(0, 2, np.array([0.1]), 0), Item(1, 2, np.array([0.2]), 1)]
    )
    departures = [e for e in event_stream(inst) if e.kind is EventKind.DEPARTURE]
    assert [e.item.uid for e in departures] == [0, 1]


def test_iter_arrivals_matches_instance_order(uniform_small):
    uids = [it.uid for it in iter_arrivals(uniform_small)]
    assert uids == [it.uid for it in uniform_small.items]


def test_event_order_is_the_stream_order(uniform_small):
    # shared instants and uids out of position order, so ties between
    # arrivals, between departures and across kinds all occur
    shared = Instance(
        [
            Item(0.0, 1.0, np.array([0.2]), uid=5),
            Item(0.0, 1.0, np.array([0.2]), uid=2),
            Item(0.0, 2.0, np.array([0.2]), uid=9),
            Item(1.0, 2.0, np.array([0.2]), uid=0),
            Item(1.0, 2.0, np.array([0.2]), uid=7),
        ]
    )
    for inst in (uniform_small, shared):
        n = len(inst.items)
        pos = {it.uid: p for p, it in enumerate(inst.items)}
        expected = [
            pos[ev.item.uid] + (0 if ev.kind is EventKind.ARRIVAL else n)
            for ev in event_stream(inst)
        ]
        order = event_order(inst)
        assert order == expected
        assert all(type(p) is int for p in order)


def test_event_requires_item():
    with pytest.raises(ValueError):
        Event(0.0, EventKind.ARRIVAL, 0, None)


def test_event_kind_ordering():
    assert EventKind.DEPARTURE < EventKind.ARRIVAL
