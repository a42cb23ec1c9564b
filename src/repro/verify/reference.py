"""Independent brute-force reference simulator (the differential oracle).

The production engine (:mod:`repro.simulation.engine`) is optimised: it
shares a vectorised fit check across all Any Fit policies, recycles
algorithm objects, and shares one per-item step with four other engines
(:class:`~repro.simulation.live.LivePacking`).  Every
one of those optimisations is a place a refactor can silently change
behaviour.  This module re-implements the paper's Algorithm 1 *from the
text alone* — plain Python loops, no :class:`~repro.core.bins.Bin`, no
:class:`~repro.algorithms.base.AnyFitAlgorithm`, no shared dispatch code —
so that :func:`repro.verify.oracles.differential_check` can replay any
instance through both implementations and require bit-identical
assignments.

The seven Section 7 policies are each restated here in their simplest
possible form (a dozen lines per policy).  Where the production code has
a deliberate behavioural subtlety, the reference reproduces it from the
*specification*, not from the code:

* event order is ``(time, departures-before-arrivals, seq)`` with arrival
  ``seq`` = position in the instance and departure ``seq`` = uid — the
  half-open ``[a, e)`` semantics of Section 2.1;
* a bin closes the moment its last resident departs and is never reused;
* the fit tolerance is the library-wide :data:`~repro.core.vectors.EPS`
  policy (shared constant; everything else is independent);
* loads are accumulated exactly like the engine does (add on pack,
  recompute from residents on departure) so Best/Worst Fit tie-breaking
  on float-equal load measures cannot diverge spuriously.

A custom ``fit`` predicate can be injected — that is the hook the
mutation smoke-test (:mod:`repro.verify.mutation`) uses to prove the
invariant auditor actually catches broken packings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.items import Item
from ..core.vectors import EPS

__all__ = ["ReferenceResult", "ReferenceSimulator", "reference_fit", "REFERENCE_POLICIES"]

FitPredicate = Callable[[np.ndarray, np.ndarray, np.ndarray], bool]


def reference_fit(load: np.ndarray, size: np.ndarray, capacity: np.ndarray) -> bool:
    """Scalar per-dimension fit check (the spec of ``fits`` and of Any
    Fit's load-matrix scans).

    Written as an explicit loop on purpose: it shares no code with the
    vectorised hot path it oracles.
    """
    for j in range(len(capacity)):
        if load[j] + size[j] > capacity[j] + EPS * max(capacity[j], 1.0):
            return False
    return True


class _RefBin:
    """Minimal open-bin state for the reference replay."""

    __slots__ = ("index", "load", "residents", "members")

    def __init__(self, index: int, d: int) -> None:
        self.index = index
        self.load = np.zeros(d)
        self.residents: Dict[int, Item] = {}  # uid -> item, in pack order
        self.members: List[int] = []  # every uid ever packed here

    def pack(self, item: Item) -> None:
        self.load = self.load + item.size
        self.residents[item.uid] = item
        self.members.append(item.uid)

    def remove(self, item: Item) -> bool:
        del self.residents[item.uid]
        # recompute from residents (same order as the engine's Bin) so
        # float drift cannot make load comparisons diverge from it
        load = np.zeros(len(self.load))
        for it in self.residents.values():
            load += it.size
        self.load = load
        return not self.residents


def _max_load(bin_: _RefBin) -> float:
    return float(max(bin_.load)) if len(bin_.load) else 0.0


#: Registry names this reference simulator can replay, mapped to a short
#: statement of the selection rule it implements.
REFERENCE_POLICIES: Dict[str, str] = {
    "move_to_front": "most recently used fitting bin; receiver moves to list front",
    "first_fit": "earliest-opened fitting bin",
    "next_fit": "the single current bin; release it when the item does not fit",
    "best_fit": "fitting bin with highest max-load (ties: earliest opened)",
    "worst_fit": "fitting bin with lowest max-load (ties: earliest opened)",
    "last_fit": "most recently opened fitting bin",
    "random_fit": "uniformly random fitting bin (seeded numpy Generator)",
}


@dataclass(frozen=True)
class ReferenceResult:
    """Outcome of one reference replay.

    ``assignment`` maps item uid to bin index (bins numbered in opening
    order, like the engine); ``num_bins`` is the total opened.
    """

    assignment: Dict[int, int]
    num_bins: int
    policy: str


class ReferenceSimulator:
    """Replay an instance under one policy, naively.

    Parameters
    ----------
    policy:
        One of :data:`REFERENCE_POLICIES`.
    seed:
        Random stream seed (only consulted by ``random_fit``; must match
        the production algorithm's seed for differential equality).
    fit:
        Fit predicate ``(load, size, capacity) -> bool``; defaults to
        :func:`reference_fit`.  Inject a broken one to produce known-bad
        packings for mutation testing.
    """

    def __init__(self, policy: str, seed: int = 0, fit: Optional[FitPredicate] = None) -> None:
        if policy not in REFERENCE_POLICIES:
            raise ConfigurationError(
                f"reference simulator does not model {policy!r}; "
                f"supported: {', '.join(sorted(REFERENCE_POLICIES))}"
            )
        self.policy = policy
        self.seed = int(seed)
        self.fit = fit if fit is not None else reference_fit

    # ------------------------------------------------------------------
    def run(self, instance: Instance) -> ReferenceResult:
        """Replay ``instance`` and return the resulting assignment."""
        cap = instance.capacity
        d = instance.d
        fit = self.fit
        policy = self.policy
        rng = np.random.default_rng(self.seed) if policy == "random_fit" else None

        bins: List[_RefBin] = []  # every bin ever opened, by index
        open_order: List[_RefBin] = []  # open bins, in opening order
        recency: List[_RefBin] = []  # open bins, most recently used first (MF)
        current: Optional[_RefBin] = None  # NF's single candidate
        bin_of: Dict[int, _RefBin] = {}
        assignment: Dict[int, int] = {}

        # Independent event ordering: (time, departures first, seq) where
        # arrival seq is the instance position and departure seq the uid.
        events: List[Tuple[float, int, int, Item]] = []
        for pos, item in enumerate(instance.items):
            events.append((item.arrival, 1, pos, item))
            events.append((item.departure, 0, item.uid, item))
        events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))

        for _time, kind, _seq, item in events:
            if kind == 0:  # departure
                bin_ = bin_of.pop(item.uid)
                if bin_.remove(item):  # closed: forget it everywhere
                    open_order.remove(bin_)
                    if policy == "move_to_front":
                        recency.remove(bin_)
                    if current is bin_:
                        current = None
                continue

            # arrival: build the policy's candidate list and select
            if policy == "next_fit":
                candidates = [current] if current is not None and fit(
                    current.load, item.size, cap
                ) else []
            elif policy == "move_to_front":
                candidates = [b for b in recency if fit(b.load, item.size, cap)]
            else:
                candidates = [b for b in open_order if fit(b.load, item.size, cap)]

            if not candidates:
                chosen = _RefBin(len(bins), d)
                bins.append(chosen)
                open_order.append(chosen)
                if policy == "move_to_front":
                    recency.insert(0, chosen)
                if policy == "next_fit":
                    current = chosen  # the old current (if any) is released
            elif policy in ("first_fit", "next_fit", "move_to_front"):
                chosen = candidates[0]
            elif policy == "last_fit":
                chosen = candidates[-1]
            elif policy == "best_fit":
                chosen = candidates[0]
                for b in candidates[1:]:
                    if _max_load(b) > _max_load(chosen):
                        chosen = b
            elif policy == "worst_fit":
                chosen = candidates[0]
                for b in candidates[1:]:
                    if _max_load(b) < _max_load(chosen):
                        chosen = b
            else:  # random_fit
                chosen = candidates[int(rng.integers(len(candidates)))]

            chosen.pack(item)
            bin_of[item.uid] = chosen
            assignment[item.uid] = chosen.index
            if policy == "move_to_front" and recency[0] is not chosen:
                recency.remove(chosen)
                recency.insert(0, chosen)

        return ReferenceResult(assignment=assignment, num_bins=len(bins), policy=policy)
