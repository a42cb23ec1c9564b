"""Best Fit: pack into the most-loaded fitting bin.

For ``d = 1`` the load of a bin is its occupied size.  For ``d >= 2``
Section 2.2 notes there is no unique load notion and lists three options,
all supported here via the ``measure`` parameter:

* ``"linf"`` — max load ``w(R) = ||s(R)||_inf`` (the paper's Section 7
  experiments use this one);
* ``"l1"``  — sum of loads ``w(R) = ||s(R)||_1``;
* ``"lp"``  — the ``L_p`` norm for a caller-chosen ``p >= 1``
  (``p = 1`` coincides bitwise with ``"l1"``, ``p = inf`` with
  ``"linf"``; ``p < 1`` is rejected — not a norm).

Best Fit's competitive ratio is **unbounded** even for ``d = 1``
(Theorem 7, citing Li-Tang-Cai), yet it performs well on average
(Section 7) — the paper's "theory vs practice" discussion.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from ..core.bins import Bin
from ..core.errors import ConfigurationError
from ..core.items import Item
from ..core.vectors import l1, linf, lp
from .base import AnyFitAlgorithm

__all__ = ["BestFit", "WorstFit", "load_measure"]


def load_measure(measure: str, p: float = 2.0) -> Callable[[np.ndarray], float]:
    """Resolve a load-measure name to a function on load vectors.

    Parameters
    ----------
    measure:
        ``"linf"``, ``"l1"``, or ``"lp"``.
    p:
        Exponent for ``"lp"`` (ignored otherwise); must be >= 1.
    """
    if measure == "linf":
        return linf
    if measure == "l1":
        return l1
    if measure == "lp":
        if p < 1:
            raise ConfigurationError(f"lp measure requires p >= 1, got {p}")
        return lambda v: lp(v, p)
    raise ConfigurationError(f"unknown load measure {measure!r}; expected linf/l1/lp")


class BestFit(AnyFitAlgorithm):
    """Best Fit (BF): choose the fitting bin with the **highest** load.

    Ties are broken toward the earliest-opened bin, making the algorithm
    deterministic (and matching the ``d = 1`` behaviour of prior work,
    where ties are broken by bin index).
    """

    name = "best_fit"

    def __init__(self, measure: str = "linf", p: float = 2.0) -> None:
        super().__init__()
        self._measure_name = measure
        self._w = load_measure(measure, p)
        #: Public load-measure configuration, read by
        #: :func:`repro.simulation.fastpath.fast_policy_for` to resolve
        #: the matching (measure, p) fast kernel.
        self.measure = measure
        self.p = float(p) if measure == "lp" else None
        if measure != "linf":
            self.name = f"best_fit_{measure}" + (f"{p:g}" if measure == "lp" else "")

    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        best = candidates[0]
        best_w = self._w(best.load)
        for b in candidates[1:]:
            w = self._w(b.load)
            if w > best_w or (w == best_w and b.index < best.index):
                best, best_w = b, w
        return best


class WorstFit(AnyFitAlgorithm):
    """Worst Fit (WF): choose the fitting bin with the **lowest** load.

    Included in the Section 7 experimental lineup; it packs loosely and
    is observed to have the worst average-case performance.
    """

    name = "worst_fit"

    def __init__(self, measure: str = "linf", p: float = 2.0) -> None:
        super().__init__()
        self._w = load_measure(measure, p)
        self.measure = measure  # see BestFit: read by fast_policy_for
        self.p = float(p) if measure == "lp" else None
        if measure != "linf":
            self.name = f"worst_fit_{measure}" + (f"{p:g}" if measure == "lp" else "")

    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        worst = candidates[0]
        worst_w = self._w(worst.load)
        for b in candidates[1:]:
            w = self._w(b.load)
            if w < worst_w or (w == worst_w and b.index < worst.index):
                worst, worst_w = b, w
        return worst
