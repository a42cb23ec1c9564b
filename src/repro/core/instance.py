"""Problem instances: validated, ordered lists of items plus a capacity.

An :class:`Instance` is the library's unit of work: the online engine
replays its items in arrival order, the optimum machinery integrates over
its breakpoints, and the workload generators all return instances.

Items arrive in the order given (ties in arrival time are broken by list
position, matching the paper's "items arrive in that order" constructions
in Theorems 5/6/8, where the interleaving at time 0 is essential).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidInstanceError, InvalidItemError
from .intervals import Interval, breakpoints, merge_intervals, union_length
from .items import Item, _trusted_items
from .vectors import EPS, as_size_vector

__all__ = ["Instance"]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Instance:
    """An ordered DVBP instance.

    Parameters
    ----------
    items:
        Items in arrival order.  The order must be non-decreasing in
        arrival time; within equal arrival times the list order is the
        online arrival order.
    capacity:
        Per-dimension bin capacity vector.  Defaults to ``1`` in every
        dimension (the normalised form of Section 2.1).  The Section 7
        experiments use integer capacity ``B = 100`` per dimension.
    name:
        Optional label used in reports.
    """

    items: Tuple[Item, ...]
    capacity: np.ndarray = field(repr=False)
    name: str = ""

    def __init__(
        self,
        items: Iterable[Item],
        capacity: Union[float, Sequence[float], np.ndarray, None] = None,
        name: str = "",
    ) -> None:
        items_t = tuple(items)
        if not items_t:
            raise InvalidInstanceError("an instance must contain at least one item")
        object.__setattr__(self, "items", items_t)
        try:
            self.size_matrix  # stacks the sizes once; the checks below read it
        except ValueError:  # rows of different lengths
            d = items_t[0].d
            bad = next(it for it in items_t if it.d != d)
            raise InvalidInstanceError(
                f"mixed dimensionalities: item {bad.uid} has d={bad.d}, expected {d}"
            ) from None
        self._check_columns(capacity, name)
        uids = [it.uid for it in items_t]
        if len(set(uids)) != len(uids):
            seen = set()
            dup = next(u for u in uids if u in seen or seen.add(u))
            raise InvalidInstanceError(
                f"item uids must be unique; uid {dup} appears more than once"
            )

    def _check_columns(
        self,
        capacity: Union[float, Sequence[float], np.ndarray, None],
        name: str,
    ) -> None:
        """Run the instance-level checks over the columns; set capacity and name.

        Reads :attr:`size_matrix` and :attr:`arrival_times`; the items
        only supply the error messages.
        """
        sizes = self.size_matrix
        d = sizes.shape[1]
        if capacity is None:
            cap = np.ones(d, dtype=np.float64)
        else:
            cap = as_size_vector(capacity)
            if cap.size == 1 and d > 1:
                cap = np.full(d, float(cap[0]))
            if cap.size != d:
                raise InvalidInstanceError(
                    f"capacity dimension {cap.size} does not match item dimension {d}"
                )
            if np.any(cap <= 0):
                raise InvalidInstanceError(f"capacity must be positive, got {cap!r}")
        cap.setflags(write=False)
        over = np.flatnonzero((sizes > cap + EPS * np.maximum(cap, 1.0)).any(axis=1))
        if over.size:
            it = self.items[over[0]]
            raise InvalidItemError(
                f"item {it.uid} with size {it.size!r} can never fit capacity {cap!r}"
            )
        arrivals = self.arrival_times
        late = np.flatnonzero(arrivals[1:] < arrivals[:-1] - EPS)
        if late.size:
            prev, nxt = self.items[late[0]], self.items[late[0] + 1]
            raise InvalidInstanceError(
                "items must be listed in non-decreasing arrival order; "
                f"item {nxt.uid} (t={nxt.arrival}) follows item "
                f"{prev.uid} (t={prev.arrival})"
            )
        object.__setattr__(self, "capacity", cap)
        object.__setattr__(self, "name", name)

    def __setstate__(self, state: dict) -> None:
        # pickle and copy restore the fields and cached columns as they
        # were, read-only arrays included (an unpickled array is writeable)
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        arrivals: Union[Sequence[float], np.ndarray],
        departures: Union[Sequence[float], np.ndarray],
        sizes: Union[Sequence[Sequence[float]], np.ndarray],
        capacity: Union[float, Sequence[float], np.ndarray, None] = None,
        name: str = "",
    ) -> "Instance":
        """Build an instance from arrival-sorted columns; row ``j`` gets uid ``j``.

        ``arrivals`` and ``departures`` have one entry per item and
        ``sizes`` one row per item.  The result equals
        ``Instance([Item(a, e, s, uid=j) for j, (a, e, s) in ...],
        capacity, name)`` with Python-float times, but the conditions
        :class:`~repro.core.items.Item` and :class:`Instance` enforce
        are checked a whole column at a time, and the item sizes are
        read-only row views of one :attr:`size_matrix`.  Columns that
        fail a check go through that per-item path, so every error is
        the one it raises.

        >>> inst = Instance.from_columns([0.0, 1.0], [2.0, 3.0], [[0.5, 0.2], [0.4, 0.9]])
        >>> inst.items[1]
        Item(uid=1, [1,3), s=[0.4,0.9])
        >>> inst.size_matrix.flags.writeable
        False
        """
        a = np.array(arrivals, dtype=np.float64)
        e = np.array(departures, dtype=np.float64)
        if len(e) != len(a) or len(sizes) != len(a):
            raise InvalidInstanceError(
                f"columns differ in length: {len(a)} arrivals, "
                f"{len(e)} departures, {len(sizes)} size rows"
            )
        try:
            s = np.array(sizes, dtype=np.float64, order="C")
        except ValueError:  # ragged rows
            s = None
        a_list, e_list = a.tolist(), e.tolist()
        if not (
            s is not None
            and a.ndim == e.ndim == 1
            and s.ndim == 2
            and s.size > 0
            and (a >= 0).all()
            and (e > a).all()
            and (e < np.inf).all()
            and (s >= 0).all()
            and (s < np.inf).all()
        ):
            items = [Item(*row, uid=j) for j, row in enumerate(zip(a_list, e_list, sizes))]
            return cls(items, capacity=capacity, name=name)
        self = object.__new__(cls)
        object.__setattr__(self, "items", _trusted_items(a_list, e_list, _read_only(s)))
        object.__setattr__(self, "size_matrix", s)
        object.__setattr__(self, "arrival_times", _read_only(a))
        object.__setattr__(self, "departure_times", _read_only(e))
        self._check_columns(capacity, name)
        return self

    @classmethod
    def from_tuples(
        cls,
        triples: Iterable[Tuple[float, float, Union[float, Sequence[float]]]],
        capacity: Union[float, Sequence[float], None] = None,
        name: str = "",
    ) -> "Instance":
        """Build an instance from ``(arrival, departure, size)`` triples.

        Uids are assigned by position; the triples are sorted by arrival
        (stable, so equal arrivals keep their given order).
        """
        items = [
            Item(a, e, np.asarray(s, dtype=np.float64), uid=i)
            for i, (a, e, s) in enumerate(triples)
        ]
        items.sort(key=lambda it: it.arrival)
        items = [it.with_uid(i) for i, it in enumerate(items)]
        return cls(items, capacity=capacity, name=name)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, idx: int) -> Item:
        return self.items[idx]

    @property
    def d(self) -> int:
        """Number of resource dimensions."""
        return self.items[0].d

    @property
    def n(self) -> int:
        """Number of items."""
        return len(self.items)

    # ------------------------------------------------------------------
    # paper quantities (Section 2.1)
    #
    # These are pure functions of the (immutable) item tuple, so they are
    # cached on first access: sweeps touch ``mu``/``span``/``horizon`` for
    # every policy replayed on the same instance, and each would otherwise
    # cost an O(n) pass (or an interval union for ``span``).  Caching is
    # invalidation-free because the dataclass is frozen — the item tuple
    # and capacity can never change after construction, and every
    # transformation (``normalized``/``restricted_to``/...) returns a new
    # Instance with its own empty cache.
    # ------------------------------------------------------------------
    @cached_property
    def min_duration(self) -> float:
        """Shortest item duration (the paper normalises this to 1)."""
        return min(it.duration for it in self.items)

    @cached_property
    def max_duration(self) -> float:
        """Longest item duration."""
        return max(it.duration for it in self.items)

    @cached_property
    def mu(self) -> float:
        """Duration ratio ``mu = max duration / min duration``."""
        return self.max_duration / self.min_duration

    @cached_property
    def span(self) -> float:
        """``span(R)``: total time at least one item is active."""
        return union_length(it.interval for it in self.items)

    @cached_property
    def horizon(self) -> Interval:
        """Smallest interval containing all activity."""
        return Interval(
            min(it.arrival for it in self.items),
            max(it.departure for it in self.items),
        )

    @cached_property
    def total_duration(self) -> float:
        """Sum of item durations ``sum_r ell(I(r))``.

        ``total_duration / (horizon length)`` estimates the mean number of
        concurrently active items — the quantity the fastpath backend
        heuristic keys on.
        """
        return sum(it.duration for it in self.items)

    @cached_property
    def dimension_maxima(self) -> np.ndarray:
        """Per-dimension maximum item demand (read-only length-``d`` vector)."""
        return _read_only(np.max(self.size_matrix, axis=0))

    # ------------------------------------------------------------------
    # columns: one read-only float64 array per item field, in item order.
    # The constructors check the instance over ``size_matrix`` and
    # ``arrival_times``; ``from_columns`` fills all three from its input.
    # ------------------------------------------------------------------
    @cached_property
    def size_matrix(self) -> np.ndarray:
        """``(n, d)`` matrix whose row ``j`` is ``items[j].size``."""
        return _read_only(np.array([it.size for it in self.items], dtype=np.float64))

    @cached_property
    def arrival_times(self) -> np.ndarray:
        """Length-``n`` vector of ``items[j].arrival``."""
        return _read_only(
            np.fromiter((it.arrival for it in self.items), np.float64, len(self.items))
        )

    @cached_property
    def departure_times(self) -> np.ndarray:
        """Length-``n`` vector of ``items[j].departure``."""
        return _read_only(
            np.fromiter((it.departure for it in self.items), np.float64, len(self.items))
        )

    def total_utilization(self) -> float:
        """Sum of time-space utilisations ``sum_r ||s(r)||_inf * ell(I(r))``."""
        return sum(it.utilization for it in self.items)

    def active_at(self, t: float) -> List[Item]:
        """Items active at instant ``t``."""
        return [it for it in self.items if it.active_at(t)]

    def load_at(self, t: float) -> np.ndarray:
        """Aggregate demand vector ``s(R, t)`` of items active at ``t``."""
        total = np.zeros(self.d)
        for it in self.items:
            if it.active_at(t):
                total += it.size
        return total

    def event_times(self) -> List[float]:
        """Sorted unique arrival/departure times (integral breakpoints)."""
        return breakpoints(it.interval for it in self.items)

    def active_components(self) -> List[Interval]:
        """Maximal intervals during which at least one item is active.

        The paper assumes w.l.o.g. a single component; generators in this
        library may produce several, in which case each component is an
        independent sub-problem (Section 2.1).
        """
        return merge_intervals(it.interval for it in self.items)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def normalized(self) -> "Instance":
        """Rescale sizes so the capacity is the all-ones vector.

        Returns ``self`` when already normalised.
        """
        if np.allclose(self.capacity, 1.0):
            return self
        factor = 1.0 / self.capacity
        items = [it.scaled(factor) for it in self.items]
        return Instance(items, capacity=np.ones(self.d), name=self.name)

    def restricted_to(self, window: Interval) -> "Instance":
        """Sub-instance of items whose active interval intersects ``window``."""
        kept = [it for it in self.items if it.interval.overlaps(window)]
        if not kept:
            raise InvalidInstanceError(f"no items intersect window {window}")
        return Instance(kept, capacity=np.array(self.capacity), name=self.name)

    def concatenated(self, other: "Instance") -> "Instance":
        """Merge two instances over the same capacity (re-sorted, re-uid'd)."""
        if self.d != other.d or not np.allclose(self.capacity, other.capacity):
            raise InvalidInstanceError("cannot concatenate instances with different capacities")
        merged = sorted(list(self.items) + list(other.items), key=lambda it: it.arrival)
        merged = [it.with_uid(i) for i, it in enumerate(merged)]
        return Instance(merged, capacity=np.array(self.capacity), name=self.name)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form suitable for ``json.dump``."""
        return {
            "name": self.name,
            "capacity": self.capacity.tolist(),
            "items": [
                {
                    "uid": it.uid,
                    "arrival": it.arrival,
                    "departure": it.departure,
                    "size": it.size.tolist(),
                }
                for it in self.items
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Instance":
        """Inverse of :meth:`to_dict`."""
        items = [
            Item(rec["arrival"], rec["departure"], np.asarray(rec["size"]), rec["uid"])
            for rec in payload["items"]
        ]
        return cls(items, capacity=np.asarray(payload["capacity"]), name=payload.get("name", ""))

    def to_json(self) -> str:
        """JSON string form."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"Instance({label} n={self.n}, d={self.d}, mu={self.mu:g}, span={self.span:g})"
