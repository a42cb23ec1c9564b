"""Next Fit: keep exactly one *current* bin; release it when an item
doesn't fit.

``|L| = 1`` at all times.  When an arriving item does not fit the current
bin, the current bin is **released** — it stays active (its items are
still running and it keeps accruing cost) but Next Fit will never pack
into it again — and a new bin is opened and made current.

The paper proves a competitive ratio of at most ``2μd + 1`` (Theorem 4)
and at least ``2μd`` (Theorem 6), so Next Fit is almost tight, but its
average-case performance degrades for large ``μ`` (Section 7).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.bins import Bin
from ..core.instance import Instance
from ..core.items import Item
from .base import AnyFitAlgorithm

__all__ = ["NextFit"]


class NextFit(AnyFitAlgorithm):
    """Next Fit (NF) Any Fit packing algorithm."""

    name = "next_fit"
    fast_kernel = "next_fit"

    def __init__(self) -> None:
        super().__init__()
        #: usage-period decomposition bookkeeping: release time t_i per
        #: bin index (None while the bin is still current), used by the
        #: Theorem 4 analysis instrumentation.
        self.release_times: dict = {}
        #: full release events for the Theorem 4 proof check: each entry
        #: is ``(released_bin_index, time, triggering_item,
        #: resident_items_at_release)`` — the item ``r_i`` that did not
        #: fit the current bin and the set ``R'_i`` of items active in it
        #: at the release instant ``t_i``.
        self.release_log: list = []

    def start(self, instance: Instance) -> None:
        super().start(instance)
        self.release_times = {}
        self.release_log = []

    @property
    def current(self) -> Optional[Bin]:
        """The designated current bin, or ``None`` before the first item."""
        return self._list[0] if self._list else None

    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        # |L| == 1, so the only candidate is the current bin.
        return candidates[0]

    def on_new_bin(self, bin_: Bin, item: Item, now: float) -> None:
        # The old current bin (if any) is released: drop it from L.  It
        # remains active in the engine and keeps accruing usage time.
        if self._list:
            released = self._list[0]
            # both structures grow with every bin ever opened (and
            # release_log pins the released bin's resident Items), so a
            # bounded-memory run must switch them off — dispatch never
            # reads either, only the offline Theorem 4 check does
            if self.audit_mode:
                self.release_times[released.index] = now
                self.release_log.append(
                    (released.index, now, item, released.active_items())
                )
        self._reset(())
        self._append(bin_)

    def on_closed(self, bin_: Bin, now: float) -> None:
        # A current bin that closes (all items departed) ends its
        # current-period at its close time.
        if self.audit_mode:
            self.release_times.setdefault(bin_.index, now)

    def export_state(self):
        # release_times feeds the Theorem 4 usage-period decomposition
        # and is part of the resumable state; release_log holds live
        # Item/Bin references for the offline proof check only and is
        # deliberately *not* snapshotted (it restarts empty).
        state = super().export_state()
        state["release_times"] = {str(k): v for k, v in self.release_times.items()}
        return state

    def import_state(self, state, bins_by_index) -> None:
        super().import_state(state, bins_by_index)
        self.release_times = {int(k): v for k, v in state["release_times"].items()}
        self.release_log = []
