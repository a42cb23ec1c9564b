"""First Fit: pack into the earliest-opened bin that fits.

``L`` is kept in increasing order of opening time, so the first fitting
candidate is the earliest-opened fitting bin.  The paper proves a
competitive ratio of at most ``(μ+2)d + 1`` (Theorem 3) and at least
``(μ+1)d`` (Theorem 5, as for every Any Fit algorithm).
"""

from __future__ import annotations

from typing import List

from ..core.bins import Bin
from ..core.items import Item
from .base import AnyFitAlgorithm

__all__ = ["FirstFit"]


class FirstFit(AnyFitAlgorithm):
    """First Fit (FF) Any Fit packing algorithm."""

    name = "first_fit"

    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        # L is in opening order (the base class appends new bins), so the
        # first candidate is the earliest-opened fitting bin.
        return candidates[0]
