"""Online engine and policies for heterogeneous fleets.

The homogeneous engine's contract changes in one place: *opening a bin
requires choosing a type*.  :class:`TypedAnyFit` generalises the Any Fit
template — pack into an open bin if any fits, otherwise open a bin of
the type the ``opening_rule`` selects, choosing among fitting bins with
a pluggable selection rule (default: Move To Front recency).  It opens
each bin through the core's callback with its type's capacity, so
:class:`TypedEngine` is the classic
:class:`repro.simulation.engine.Engine` replay plus the rate-weighted
bill of each bin's type.  On a one-type fleet at unit rate, ``recent``
is Move To Front and ``first`` is First Fit, bit for bit; ``repro
verify`` holds it to that.

The interesting new trade-off: a big cheap-per-unit server improves
*packing* but is wasted when mostly idle; the small expensive-per-unit
server wins for lone long jobs.  ``benchmarks/bench_heterogeneous.py``
measures the opening rules against each other and against the best
single-type fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.bins import Bin
from ..core.errors import AlgorithmError, ConfigurationError, PackingAuditError
from ..core.instance import Instance
from ..core.items import Item
from ..core.vectors import EPS
from ..simulation.engine import Engine
from .types import Fleet, ServerType

__all__ = ["TypedBinRecord", "TypedPacking", "TypedAnyFit", "TypedEngine", "typed_run"]


@dataclass(frozen=True)
class TypedBinRecord:
    """One typed bin in a finished heterogeneous packing."""

    index: int
    type_name: str
    cost_rate: float
    opened_at: float
    closed_at: float
    item_uids: Tuple[int, ...]

    @property
    def usage_time(self) -> float:
        return max(0.0, self.closed_at - self.opened_at)

    @property
    def cost(self) -> float:
        """Rate-weighted usage cost of this bin."""
        return self.usage_time * self.cost_rate


@dataclass(frozen=True)
class TypedPacking:
    """Result of a heterogeneous run: typed bins + rate-weighted cost."""

    instance: Instance
    fleet: Fleet
    assignment: Dict[int, int]
    bins: Tuple[TypedBinRecord, ...]
    algorithm: str = ""

    @property
    def cost(self) -> float:
        """Total rate-weighted usage cost."""
        return sum(b.cost for b in self.bins)

    @property
    def num_bins(self) -> int:
        return len(self.bins)

    def bins_of_type(self, type_name: str) -> List[TypedBinRecord]:
        """Bins of one server type."""
        return [b for b in self.bins if b.type_name == type_name]

    def validate(self) -> None:
        """Temporal feasibility audit against each bin's own capacity."""
        by_uid = {it.uid: it for it in self.instance.items}
        if set(self.assignment) != set(by_uid):
            raise PackingAuditError("assignment does not cover the instance")
        for rec in self.bins:
            cap = self.fleet.by_name(rec.type_name).capacity_array
            slack = cap + EPS * np.maximum(cap, 1.0)
            items = [by_uid[u] for u in rec.item_uids]
            for t in sorted({it.arrival for it in items}):
                load = sum(
                    (it.size for it in items if it.arrival <= t < it.departure),
                    np.zeros(self.instance.d),
                )
                if np.any(load > slack):
                    raise PackingAuditError(
                        f"typed bin {rec.index} ({rec.type_name}) over capacity "
                        f"at t={t}: {load!r} > {cap!r}"
                    )


class TypedAnyFit:
    """Any Fit over a heterogeneous fleet.

    Parameters
    ----------
    fleet:
        The server-type menu.
    opening_rule:
        ``"cheapest"`` — open the lowest-rate feasible type;
        ``"best_value"`` — open the best cost-density feasible type;
        or a callable ``(fleet, item) -> ServerType``.
    selection:
        How to pick among open fitting bins: ``"recent"`` (Move To Front
        recency), ``"first"`` (opening order), or ``"cheapest_rate"``
        (lowest cost-rate bin, ties by recency).
    """

    def __init__(
        self,
        fleet: Fleet,
        opening_rule: str = "best_value",
        selection: str = "recent",
    ) -> None:
        self.fleet = fleet
        if callable(opening_rule):
            self._open_rule = opening_rule
            self.opening_rule = getattr(opening_rule, "__name__", "custom")
        elif opening_rule == "cheapest":
            self._open_rule = lambda fleet, item: fleet.cheapest_feasible(item)
            self.opening_rule = opening_rule
        elif opening_rule == "best_value":
            self._open_rule = lambda fleet, item: fleet.best_value_feasible(item)
            self.opening_rule = opening_rule
        else:
            raise ConfigurationError(
                f"unknown opening rule {opening_rule!r}; use cheapest/best_value"
            )
        if selection not in ("recent", "first", "cheapest_rate"):
            raise ConfigurationError(
                f"unknown selection {selection!r}; use recent/first/cheapest_rate"
            )
        self.selection = selection
        self.name = f"typed_any_fit({self.opening_rule},{selection})"
        self._list: List[Tuple[Bin, ServerType]] = []
        #: the server type of every bin opened in the current run, by
        #: bin index
        self.bin_types: List[ServerType] = []

    def start(self, instance: Instance) -> None:
        self._list = []
        self.bin_types = []

    # -- engine interface ----------------------------------------------
    def dispatch(
        self,
        item: Item,
        now: float,
        open_new_bin: Callable[[Optional[np.ndarray]], Bin],
    ) -> Bin:
        fitting = [(b, t) for b, t in self._list if b.can_fit(item)]
        if fitting:
            chosen_pair = self._select(fitting)
        else:
            stype = self._open_rule(self.fleet, item)
            fresh = open_new_bin(stype.capacity_array)
            self.bin_types.append(stype)
            chosen_pair = (fresh, stype)
            self._list.insert(0, chosen_pair)
        self._touch(chosen_pair)
        return chosen_pair[0]

    def notify_departure(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        if closed:
            self._list = [(b, t) for b, t in self._list if b is not bin_]

    # -- internals -------------------------------------------------------
    def _select(self, fitting: List[Tuple[Bin, ServerType]]) -> Tuple[Bin, ServerType]:
        if self.selection == "recent":
            return fitting[0]  # list is maintained in recency order
        if self.selection == "first":
            return min(fitting, key=lambda pair: pair[0].index)
        # cheapest_rate: lowest-rate bin; ties by recency (list order)
        return min(fitting, key=lambda pair: pair[1].cost_rate)

    def _touch(self, pair: Tuple[Bin, ServerType]) -> None:
        self._list = [pair] + [p for p in self._list if p[0] is not pair[0]]


class TypedEngine:
    """Replays one instance through one typed policy.

    The replay is the classic :class:`~repro.simulation.engine.Engine`'s:
    the policy opens each bin through the core's callback with its
    type's capacity, and the typed records are the classic
    :class:`~repro.core.packing.Packing`'s bins with the type the policy
    recorded for each.  Engines are single-use.
    """

    def __init__(self, instance: Instance, algorithm: TypedAnyFit) -> None:
        if instance.d != algorithm.fleet.d:
            raise ConfigurationError(
                f"instance d={instance.d} does not match fleet d={algorithm.fleet.d}"
            )
        self.instance = instance
        self.algorithm = algorithm
        self._ran = False

    def run(self) -> TypedPacking:
        if self._ran:
            raise AlgorithmError("TypedEngine instances are single-use")
        self._ran = True
        packing = Engine(self.instance, self.algorithm).run()
        types = self.algorithm.bin_types
        return TypedPacking(
            instance=self.instance,
            fleet=self.algorithm.fleet,
            assignment=packing.assignment,
            bins=tuple(
                TypedBinRecord(
                    index=rec.index,
                    type_name=types[rec.index].name,
                    cost_rate=types[rec.index].cost_rate,
                    opened_at=rec.opened_at,
                    closed_at=rec.closed_at,
                    item_uids=rec.item_uids,
                )
                for rec in packing.bins
            ),
            algorithm=self.algorithm.name,
        )


def typed_run(algorithm: TypedAnyFit, instance: Instance, validate: bool = False) -> TypedPacking:
    """Run a typed policy on an instance (convenience wrapper)."""
    packing = TypedEngine(instance, algorithm).run()
    if validate:
        packing.validate()
    return packing
