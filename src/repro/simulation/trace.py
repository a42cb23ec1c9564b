"""Structured simulation traces.

A :class:`TraceRecorder` observer captures every engine transition as a
typed record, for debugging a policy decision by decision; two runs of
a deterministic policy record equal traces (a property the tests rely
on).

Record kinds:

``open``    — a new bin was created;
``pack``    — an item was placed (with the bin's load after placement);
``depart``  — an item left (with whether the bin closed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..algorithms.base import OnlineAlgorithm
from ..core.bins import Bin
from ..core.instance import Instance
from ..core.items import Item
from ..core.packing import Packing
from .engine import SimulationObserver

__all__ = ["TraceRecord", "TraceRecorder"]


@dataclass(frozen=True)
class TraceRecord:
    """One engine transition.

    ``load_after`` is the bin's load vector immediately after the
    transition (a copy).  ``flag`` means ``opened_new`` for packs and
    ``closed`` for departures; unused for opens.
    """

    kind: str  # "open" | "pack" | "depart"
    time: float
    bin_index: int
    item_uid: Optional[int]
    load_after: Tuple[float, ...]
    flag: bool = False


class TraceRecorder(SimulationObserver):
    """Observer collecting the full transition trace of one run."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self.algorithm_name: str = ""

    def on_start(self, instance: Instance, algorithm: OnlineAlgorithm) -> None:
        self.records = []
        self.algorithm_name = algorithm.name

    def on_bin_opened(self, bin_: Bin, now: float) -> None:
        self.records.append(
            TraceRecord("open", now, bin_.index, None, tuple(bin_.load))
        )

    def on_packed(self, bin_: Bin, item: Item, now: float, opened_new: bool) -> None:
        self.records.append(
            TraceRecord("pack", now, bin_.index, item.uid, tuple(bin_.load), opened_new)
        )

    def on_departed(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        self.records.append(
            TraceRecord("depart", now, bin_.index, item.uid, tuple(bin_.load), closed)
        )

    # -- queries ---------------------------------------------------------
    def packs(self) -> List[TraceRecord]:
        """Pack records only, in order."""
        return [r for r in self.records if r.kind == "pack"]

    def opens(self) -> List[TraceRecord]:
        """Open records only, in order."""
        return [r for r in self.records if r.kind == "open"]
