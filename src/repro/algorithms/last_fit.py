"""Last Fit: pack into the most recently *opened* bin that fits.

The mirror image of First Fit, included in the Section 7 experimental
lineup.  Note the difference from Move To Front: Last Fit orders bins by
opening time, MF by most recent *use*.
"""

from __future__ import annotations

from typing import List

from ..core.bins import Bin
from ..core.items import Item
from .base import AnyFitAlgorithm

__all__ = ["LastFit"]


class LastFit(AnyFitAlgorithm):
    """Last Fit (LF) Any Fit packing algorithm."""

    name = "last_fit"

    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        # L is in opening order (base class appends), so the last
        # candidate is the most recently opened fitting bin.
        return candidates[-1]
