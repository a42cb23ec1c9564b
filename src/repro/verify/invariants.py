"""The invariant auditor: executable statements of the paper's guarantees.

Every check takes a finished run (or an instance) and returns a list of
:class:`Violation` records — empty means the invariant held.  The
catalogue (see docs/verification.md for the theorem citations):

``capacity``
    Per-dimension bin load never exceeds capacity at any event instant
    (feasibility, Section 2.1).  Checked by an independent replay of the
    assignment — not by trusting :class:`~repro.core.bins.Bin` state.
``half-open``
    Active intervals are ``[a, e)``: an item departing at ``t`` frees
    its capacity *before* an arrival at ``t`` is placed, and a bin's
    usage period is exactly the hull of its members' intervals.
``no-reuse``
    A bin that empties closes and never receives another item: the union
    of a bin's member intervals has a single connected component.
``any-fit``
    A new bin is opened only when no currently open candidate bin fits
    the arriving item (the defining Any Fit property, Algorithm 1) — for
    policies whose candidate list is *all* open bins.
``theorem-bound``
    ``cost(ALG) ≤ UB(μ, d) · LB(R)`` for the theorem-bound policies,
    where ``UB`` is the Table 1 upper bound (Thm. 2 for Move To Front,
    Thm. 3 for First Fit, Thm. 4 for Next Fit) and ``LB`` the Lemma 1
    lower bound on OPT.  The proofs bound the algorithm's cost against
    the Lemma 1 quantities themselves, so this per-instance form is
    sound (see :mod:`repro.analysis.proofs`).
``cost-dominance``
    ``cost(ALG) ≥ LB(R) ≥ span(R)`` — no algorithm beats the optimum.
``opt-ordering``
    ``span(R) ≤ LB(R) ≤ UB_offline(R)`` and Lemma 1(i) dominates (ii)
    and (iii), where ``UB_offline`` is the certified FFD bracket from
    :func:`repro.optimum.opt_cost.optimum_cost_bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..analysis.theory import upper_bound
from ..core.events import EventKind, event_stream
from ..core.instance import Instance
from ..core.packing import Packing
from ..core.vectors import EPS
from ..optimum.lower_bounds import (
    height_lower_bound,
    opt_lower_bound,
    span_lower_bound,
    utilization_lower_bound,
)
from ..optimum.opt_cost import optimum_cost_bounds

__all__ = [
    "Violation",
    "FULL_LIST_POLICIES",
    "THEOREM_BOUND_POLICIES",
    "check_capacity",
    "check_half_open",
    "check_any_fit",
    "check_theorem_bound",
    "check_opt_ordering",
    "audit_run",
    "audit_instance",
]

#: Relative tolerance for cost/bound comparisons (floats summed over
#: thousands of events).
_TOL = 1e-9

#: Policies whose candidate list is all open bins, making the Any Fit
#: property checkable from the final packing alone.  Next Fit prunes its
#: list (|L| = 1) and the harmonic/clairvoyant extensions partition it.
FULL_LIST_POLICIES = frozenset(
    {"move_to_front", "first_fit", "best_fit", "worst_fit", "last_fit", "random_fit"}
)

#: Table 1 rows with a finite upper bound, i.e. policies for which the
#: ``theorem-bound`` invariant applies.
THEOREM_BOUND_POLICIES = frozenset({"move_to_front", "first_fit", "next_fit"})


@dataclass(frozen=True)
class Violation:
    """One failed invariant: which check, and a human-readable diagnosis."""

    check: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.message}"


def _slack(capacity: np.ndarray) -> np.ndarray:
    return capacity + EPS * np.maximum(capacity, 1.0)


# ----------------------------------------------------------------------
# per-run checks
# ----------------------------------------------------------------------

def check_capacity(packing: Packing) -> List[Violation]:
    """Feasibility: replay the assignment; per-dimension load ≤ capacity.

    Loads are recomputed from the instance and the assignment alone at
    every arrival instant (between arrivals a bin's load only falls), so
    the check is independent of all engine bookkeeping.
    """
    inst = packing.instance
    out: List[Violation] = []
    missing = [it.uid for it in inst.items if it.uid not in packing.assignment]
    if missing:
        return [Violation("capacity", f"items without a bin assignment: {missing}")]
    slack = _slack(inst.capacity)
    by_bin: Dict[int, List] = {}
    for it in inst.items:
        by_bin.setdefault(packing.assignment[it.uid], []).append(it)
    for index, items in sorted(by_bin.items()):
        starts = np.array([it.arrival for it in items])
        ends = np.array([it.departure for it in items])
        sizes = np.stack([it.size for it in items])
        for t in sorted({it.arrival for it in items}):
            load = sizes[(starts <= t) & (t < ends)].sum(axis=0)
            if np.any(load > slack):
                out.append(Violation(
                    "capacity",
                    f"bin {index} over capacity at t={t}: load {load.tolist()} "
                    f"> capacity {inst.capacity.tolist()}",
                ))
    return out


def check_half_open(packing: Packing) -> List[Violation]:
    """Half-open semantics and the no-reuse bin lifecycle.

    Each bin's recorded usage period must be the hull of its member
    intervals, and the union of those intervals must be contiguous (a
    bin that went empty would have closed for good — finding a gap means
    the engine reused a closed bin).
    """
    inst = packing.instance
    by_uid = {it.uid: it for it in inst.items}
    out: List[Violation] = []
    for rec in packing.bins:
        items = [by_uid[uid] for uid in rec.item_uids]
        hull = (min(it.arrival for it in items), max(it.departure for it in items))
        if abs(hull[0] - rec.opened_at) > _TOL or abs(hull[1] - rec.closed_at) > _TOL:
            out.append(Violation(
                "half-open",
                f"bin {rec.index} usage period [{rec.opened_at}, {rec.closed_at}) "
                f"is not the member hull [{hull[0]}, {hull[1]})",
            ))
        # contiguity: sweep member intervals in arrival order; a strict
        # gap before the last departure means the bin emptied and was
        # reused after closing
        frontier = None
        for it in sorted(items, key=lambda i: i.arrival):
            if frontier is not None and it.arrival > frontier + _TOL:
                out.append(Violation(
                    "no-reuse",
                    f"bin {rec.index} was empty on [{frontier}, {it.arrival}) "
                    f"but received item {it.uid} afterwards",
                ))
                break
            frontier = it.departure if frontier is None else max(frontier, it.departure)
    return out


def check_any_fit(packing: Packing) -> List[Violation]:
    """The defining Any Fit property, by chronological replay.

    Valid only for :data:`FULL_LIST_POLICIES`; the caller gates on the
    policy name.  Whenever an item is the first of its bin, no open bin
    may have fit it (with the engine's own fit tolerance, under the
    half-open event order: departures at ``t`` free capacity first).
    """
    inst = packing.instance
    slack = _slack(inst.capacity)
    loads: Dict[int, np.ndarray] = {}
    # residents per bin in pack order: recomputing the load from them on
    # departure reproduces the engine's float summation exactly, so a
    # boundary-exact fit cannot flip verdict on accumulated drift
    residents: Dict[int, Dict[int, np.ndarray]] = {}
    out: List[Violation] = []
    for ev in event_stream(inst):
        index = packing.assignment[ev.item.uid]
        if ev.kind is EventKind.DEPARTURE:
            del residents[index][ev.item.uid]
            if residents[index]:
                load = np.zeros(inst.d)
                for size in residents[index].values():
                    load += size
                loads[index] = load
            else:
                del residents[index], loads[index]
            continue
        if index not in loads:
            for other, load in loads.items():
                if np.all(load + ev.item.size <= slack):
                    out.append(Violation(
                        "any-fit",
                        f"item {ev.item.uid} opened bin {index} at t={ev.time} "
                        f"although open bin {other} (load {load.tolist()}) fit it",
                    ))
            loads[index] = np.zeros(inst.d)
            residents[index] = {}
        loads[index] = loads[index] + ev.item.size
        residents[index][ev.item.uid] = ev.item.size
    return out


def check_theorem_bound(
    packing: Packing, policy: str, lower_bound: Optional[float] = None
) -> List[Violation]:
    """Upper bounds of Theorems 2/3/4 plus universal cost dominance.

    ``lower_bound`` is the instance's :func:`opt_lower_bound
    <repro.optimum.lower_bounds.opt_lower_bound>` when the caller already
    computed it (one instance is audited once per policy); ``None``
    computes it.
    """
    inst = packing.instance
    lb = opt_lower_bound(inst) if lower_bound is None else lower_bound
    cost = packing.cost
    out: List[Violation] = []
    tol = _TOL * max(1.0, cost)
    if cost + tol < lb:
        out.append(Violation(
            "cost-dominance",
            f"{policy} cost {cost:.6g} is below the OPT lower bound {lb:.6g}",
        ))
    if cost + tol < span_lower_bound(inst):
        out.append(Violation(
            "cost-dominance",
            f"{policy} cost {cost:.6g} is below span {inst.span:.6g}",
        ))
    if policy in THEOREM_BOUND_POLICIES:
        bound = upper_bound(policy, max(inst.mu, 1.0), inst.d) * lb
        if cost > bound + _TOL * max(1.0, bound):
            out.append(Violation(
                "theorem-bound",
                f"{policy} cost {cost:.6g} exceeds its theorem bound "
                f"{bound:.6g} (UB(mu={inst.mu:g}, d={inst.d}) x LB={lb:.6g})",
            ))
    return out


# ----------------------------------------------------------------------
# per-instance checks
# ----------------------------------------------------------------------

def check_opt_ordering(instance: Instance) -> List[Violation]:
    """Lemma 1 dominance and the offline bracket ordering.

    ``span ≤ LB``, ``util ≤ LB`` (bound (i) dominates (ii) and (iii)),
    and ``LB ≤ UB_offline`` where the upper end of the certified bracket
    comes from a feasible per-segment FFD repacking.
    """
    height = height_lower_bound(instance)
    util = utilization_lower_bound(instance)
    span = span_lower_bound(instance)
    lb = max(height, util, span)  # opt_lower_bound, from the bounds at hand
    _, offline_ub = optimum_cost_bounds(instance)
    out: List[Violation] = []

    def expect(name: str, lhs: float, rhs: float) -> None:
        if lhs > rhs + _TOL * max(1.0, abs(rhs)):
            out.append(Violation(
                "opt-ordering", f"{name}: {lhs:.6g} > {rhs:.6g}"
            ))

    expect("span <= height (Lemma 1(i) dominates (iii))", span, height)
    expect("util <= height (Lemma 1(i) dominates (ii))", util, height)
    expect("span <= opt_lower", span, lb)
    expect("opt_lower <= offline FFD upper bound", lb, offline_ub)
    return out


# ----------------------------------------------------------------------
# bundles
# ----------------------------------------------------------------------

def audit_run(
    packing: Packing,
    policy: Optional[str] = None,
    lower_bound: Optional[float] = None,
) -> List[Violation]:
    """All per-run invariants applicable to ``packing``.

    ``policy`` defaults to the packing's recorded algorithm name; the
    Any Fit and theorem-bound checks are gated on it.  ``lower_bound``
    goes to :func:`check_theorem_bound`.
    """
    name = policy if policy is not None else packing.algorithm
    out = check_capacity(packing)
    out += check_half_open(packing)
    if name in FULL_LIST_POLICIES:
        out += check_any_fit(packing)
    out += check_theorem_bound(packing, name, lower_bound)
    return out


def audit_instance(instance: Instance) -> List[Violation]:
    """All per-instance (algorithm-free) invariants."""
    return check_opt_ordering(instance)
