"""Move To Front: pack into the most recently used bin that fits.

The candidate list ``L`` is kept in most-recent-usage order.  An arriving
item is placed into the *earliest* bin of ``L`` that fits (i.e. the most
recently used fitting bin); the receiving bin — whether existing or
freshly opened — is immediately moved to the front of ``L``.

The paper proves a competitive ratio of at most ``(2μ+1)d + 1``
(Theorem 2) and at least ``max{2μ, (μ+1)d}`` (Theorem 8), and finds Move
To Front to be the best Any Fit algorithm on average (Section 7),
recommending it as the algorithm of choice.
"""

from __future__ import annotations

from typing import List

from ..core.bins import Bin
from ..core.items import Item
from .base import AnyFitAlgorithm

__all__ = ["MoveToFront"]


class MoveToFront(AnyFitAlgorithm):
    """Move To Front (MF) Any Fit packing algorithm."""

    name = "move_to_front"
    fast_kernel = "move_to_front"

    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        # L is maintained in recency order, and candidates preserve
        # L-order, so the first candidate is the most recently used
        # fitting bin.
        return candidates[0]

    def on_packed(self, bin_: Bin, item: Item, now: float) -> None:
        # Move the receiving bin — found or freshly appended — to the
        # front: it is now the leader.
        self._move_to_front(self._packing)

    def leader(self) -> Bin:
        """The current front-of-list bin (used by the Figure 1 analysis).

        Raises ``IndexError`` when no bin is open.
        """
        return self._list[0]
