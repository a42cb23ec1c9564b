"""Packing results: the output of running an algorithm on an instance.

A :class:`Packing` records which bin every item went to, each bin's usage
period, and derived metrics (cost per Eq. 1, bins opened, utilisation).
It also carries a full *temporal feasibility audit*
(:meth:`Packing.validate`) that replays the assignment over time and
checks per-dimension capacity at every event instant — the ground truth
every algorithm implementation is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import PackingAuditError
from .instance import Instance
from .intervals import Interval, union_length
from .items import Item
from .vectors import EPS

__all__ = ["BinRecord", "Packing"]


class BinRecord(NamedTuple):
    """Immutable summary of one bin in a finished packing.

    A ``NamedTuple`` rather than a frozen dataclass: a large run opens
    thousands of bins and every engine finishes by materialising one
    record per bin, so construction cost is on the engines' fixed
    overhead path (tuple ``__new__`` is roughly half the cost of a
    frozen dataclass's ``object.__setattr__`` init).

    Attributes
    ----------
    index:
        Opening-order index of the bin.
    opened_at / closed_at:
        Usage period endpoints: the bin was active on
        ``[opened_at, closed_at)``.
    item_uids:
        Uids of all items ever packed into this bin, in packing order.
    """

    index: int
    opened_at: float
    closed_at: float
    item_uids: Tuple[int, ...]

    @property
    def usage_period(self) -> Interval:
        """Active interval of the bin."""
        return Interval(self.opened_at, self.closed_at)

    @property
    def usage_time(self) -> float:
        """Cost contribution of this bin."""
        return self.usage_period.length


@dataclass(frozen=True)
class Packing:
    """A complete assignment of an instance's items to bins.

    Construct via :meth:`from_assignment` (used by the engine) rather
    than directly, so usage periods are derived consistently.
    """

    instance: Instance
    assignment: Mapping[int, int]  # item uid -> bin index
    bins: Tuple[BinRecord, ...]
    algorithm: str = ""

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_assignment(
        cls,
        instance: Instance,
        assignment: Mapping[int, int],
        algorithm: str = "",
    ) -> "Packing":
        """Build a packing (and per-bin usage periods) from an assignment.

        Usage periods are derived from the items: a bin opens at the
        earliest arrival among its items and closes at the latest
        departure.  This matches the engine's accounting because closed
        bins are never reused (Section 2.1) — a property
        :meth:`validate` also re-checks.
        """
        # Single pass with running min/max: equivalent to the obvious
        # group-then-reduce (same comparisons, same first-minimum tie
        # handling), but without one generator pair per bin — this runs
        # once per finished engine replay, on every engine.
        by_bin: Dict[int, list] = {}
        for item in instance.items:
            uid = item.uid
            try:
                index = assignment[uid]
            except KeyError:
                raise PackingAuditError(f"item {uid} has no bin assignment") from None
            rec = by_bin.get(index)
            if rec is None:
                by_bin[index] = [item.arrival, item.departure, [uid]]
            else:
                if item.arrival < rec[0]:
                    rec[0] = item.arrival
                if item.departure > rec[1]:
                    rec[1] = item.departure
                rec[2].append(uid)
        records = [
            BinRecord(index, rec[0], rec[1], tuple(rec[2]))
            for index, rec in sorted(by_bin.items())
        ]
        return cls(
            instance=instance,
            assignment=dict(assignment),
            bins=tuple(records),
            algorithm=algorithm,
        )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @cached_property
    def cost(self) -> float:
        """Total usage time (Eq. 1): ``sum_i span(R_i)``.

        Computed once: the packing is frozen, and oracles, reports and
        audits read the cost many times per run.
        """
        return sum(b.usage_time for b in self.bins)

    @property
    def num_bins(self) -> int:
        """Number of bins opened over the whole run."""
        return len(self.bins)

    def bins_open_at(self, t: float) -> int:
        """Number of bins active at instant ``t``."""
        return sum(1 for b in self.bins if b.usage_period.contains(t))

    def max_concurrent_bins(self) -> int:
        """Peak number of simultaneously active bins.

        One sweep over the sorted open and close times.  Closes sort
        first at equal times (``-1 < +1``), so a bin closing at ``t`` and
        one opening at ``t`` never count together: usage periods are
        half-open ``[opened_at, closed_at)``, as in :meth:`bins_open_at`.
        """
        bins = self.bins
        events = sorted(
            [(b.opened_at, 1) for b in bins] + [(b.closed_at, -1) for b in bins]
        )
        peak = live = 0
        for _, step in events:
            live += step
            if live > peak:
                peak = live
        return peak

    def average_utilization(self) -> float:
        """Time-space utilisation divided by provisioned time-space.

        ``sum_r u(r) / (d_normalised cost)`` in the normalised instance;
        a number in ``[0, 1]`` measuring how tightly the packing uses the
        bin-time it pays for (1 = every paid bin-second fully used in its
        max dimension).
        """
        if self.cost <= 0:
            return 0.0
        norm = self.instance.normalized()
        return norm.total_utilization() / self.cost

    def items_in_bin(self, index: int) -> List[Item]:
        """Items assigned to bin ``index`` in packing order."""
        record = next((b for b in self.bins if b.index == index), None)
        if record is None:
            raise KeyError(f"no bin with index {index}")
        by_uid = {it.uid: it for it in self.instance.items}
        return [by_uid[uid] for uid in record.item_uids]

    # ------------------------------------------------------------------
    # audit
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Replay the packing over time and check all feasibility invariants.

        Checks, at every event time ``t`` (arrivals inclusive, half-open
        departures exclusive):

        * per-dimension load of every bin is within capacity (+EPS);
        * every item is assigned to exactly one bin whose usage period
          covers the item's active interval;
        * usage periods are exactly the hull of member items (no phantom
          idle time billed, matching Eq. 1).

        Raises
        ------
        PackingAuditError
            On the first violated invariant, with a diagnostic message.
        """
        cap = self.instance.capacity
        slack = cap + EPS * np.maximum(cap, 1.0)
        by_uid = {it.uid: it for it in self.instance.items}

        assigned = set(self.assignment)
        expected = {it.uid for it in self.instance.items}
        if assigned != expected:
            raise PackingAuditError(
                f"assignment covers {len(assigned)} uids, instance has {len(expected)}"
            )

        for record in self.bins:
            items = [by_uid[uid] for uid in record.item_uids]
            if not items:
                raise PackingAuditError(f"bin {record.index} has no items")
            hull_start = min(it.arrival for it in items)
            hull_end = max(it.departure for it in items)
            if abs(hull_start - record.opened_at) > EPS or abs(hull_end - record.closed_at) > EPS:
                raise PackingAuditError(
                    f"bin {record.index} usage period [{record.opened_at}, "
                    f"{record.closed_at}) is not the hull of its items "
                    f"[{hull_start}, {hull_end})"
                )
            for it in items:
                if self.assignment[it.uid] != record.index:
                    raise PackingAuditError(
                        f"item {it.uid} listed in bin {record.index} but assigned "
                        f"to bin {self.assignment[it.uid]}"
                    )
            # capacity check at every arrival instant within this bin
            arrivals = sorted({it.arrival for it in items})
            sizes = np.stack([it.size for it in items])
            starts = np.array([it.arrival for it in items])
            ends = np.array([it.departure for it in items])
            for t in arrivals:
                active = (starts <= t) & (t < ends)
                load = sizes[active].sum(axis=0)
                if np.any(load > slack):
                    raise PackingAuditError(
                        f"bin {record.index} over capacity at t={t}: load {load!r} "
                        f"exceeds capacity {cap!r}"
                    )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Compact metric dict for reports and logs."""
        return {
            "algorithm": self.algorithm,
            "cost": self.cost,
            "num_bins": self.num_bins,
            "span": self.instance.span,
            "max_concurrent_bins": self.max_concurrent_bins(),
            "average_utilization": self.average_utilization(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Packing(algorithm={self.algorithm!r}, cost={self.cost:g}, "
            f"bins={self.num_bins})"
        )
