"""Half-open time intervals and span arithmetic.

The paper measures cost as total bin usage time, computed from unions of
half-open intervals ``[a, e)``.  This module provides a small immutable
:class:`Interval` type plus the union/span utilities the analysis needs:
``span`` of an item list (Section 2.1), usage-period decomposition checks
for Move To Front (Figure 1) and First Fit (Figure 2), and the piecewise-
constant breakpoint machinery used by the exact-optimum integral (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

__all__ = [
    "Interval",
    "union_length",
    "merge_intervals",
    "total_span",
    "intervals_partition",
    "breakpoints",
]


@dataclass(frozen=True, order=True)
class Interval:
    """A half-open time interval ``[start, end)``.

    Degenerate intervals with ``end <= start`` are permitted and have zero
    length; they arise naturally as empty trailing decomposition pieces
    (e.g. the possibly-empty final non-leading interval ``Q_{i,n_i}`` in
    the Move To Front analysis).
    """

    start: float
    end: float

    @property
    def length(self) -> float:
        """Length ``max(0, end - start)`` of the interval."""
        return max(0.0, self.end - self.start)

    @property
    def empty(self) -> bool:
        """Whether the interval contains no time instants."""
        return self.end <= self.start

    def contains(self, t: float) -> bool:
        """Whether instant ``t`` lies in ``[start, end)``."""
        return self.start <= t < self.end

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two half-open intervals share at least one instant."""
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "Interval") -> "Interval":
        """The (possibly empty) intersection interval."""
        return Interval(max(self.start, other.start), min(self.end, other.end))

    def shift(self, delta: float) -> "Interval":
        """The interval translated by ``delta``."""
        return Interval(self.start + delta, self.end + delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start:g}, {self.end:g})"


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Merge overlapping/abutting half-open intervals into a disjoint list.

    Empty intervals are dropped.  The result is sorted by start time and
    pairwise disjoint with gaps of positive length between consecutive
    entries.
    """
    nonempty = sorted((iv for iv in intervals if not iv.empty), key=lambda iv: iv.start)
    merged: List[Interval] = []
    for iv in nonempty:
        if merged and iv.start <= merged[-1].end:
            if iv.end > merged[-1].end:
                merged[-1] = Interval(merged[-1].start, iv.end)
        else:
            merged.append(Interval(iv.start, iv.end))
    return merged


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length of the union of the given intervals.

    This is the ``span`` operator of Section 2.1 applied to an arbitrary
    interval family: ``span(R) = ell(union of I(r))``.
    """
    return sum(iv.length for iv in merge_intervals(intervals))


def total_span(intervals: Iterable[Interval]) -> Interval:
    """Smallest single interval covering all given intervals.

    Returns the degenerate ``[0, 0)`` interval for an empty family.
    """
    items = [iv for iv in intervals if not iv.empty]
    if not items:
        return Interval(0.0, 0.0)
    return Interval(min(iv.start for iv in items), max(iv.end for iv in items))


def intervals_partition(
    pieces: Iterable[Interval], whole: Interval, tol: float = 1e-9
) -> bool:
    """Check that ``pieces`` exactly partition ``whole``.

    Used to verify the structural claims behind Claim 1 (the leading
    intervals of Move To Front partition ``[0, span)``) and the Next Fit
    current-bin decomposition.  The check is numeric: pieces must be
    pairwise disjoint (no overlap beyond ``tol``) and their merged union
    must equal ``whole`` within ``tol``.
    """
    nonempty = sorted((p for p in pieces if not p.empty), key=lambda p: p.start)
    for prev, nxt in zip(nonempty, nonempty[1:]):
        if nxt.start < prev.end - tol:
            return False
    merged = merge_intervals(nonempty)
    if whole.empty:
        return len(merged) == 0
    if len(merged) != 1:
        # allow float-sized gaps
        covered = sum(m.length for m in merged)
        return abs(covered - whole.length) <= tol * max(1.0, whole.length)
    m = merged[0]
    return abs(m.start - whole.start) <= tol and abs(m.end - whole.end) <= tol


def breakpoints(intervals: Iterable[Interval]) -> List[float]:
    """Sorted unique endpoints of the given intervals.

    Between two consecutive breakpoints the set of active intervals is
    constant, which is what makes the optimum integral (Eq. 2) a finite
    sum.  Empty intervals contribute no breakpoints.
    """
    pts = set()
    for iv in intervals:
        if not iv.empty:
            pts.add(iv.start)
            pts.add(iv.end)
    return sorted(pts)
