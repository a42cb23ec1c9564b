"""The offline optimum cost ``OPT(R)`` via the Eq. 2 integral.

The optimal offline algorithm may repack items (Section 2.2), bins are
indistinguishable, and idle bins cost nothing, so the minimum achievable
cost is pointwise:

.. math::  OPT(R) = \\int OPT(R, t)\\, dt

where ``OPT(R, t)`` is the minimum number of unit bins holding the items
active at ``t`` — a static vector-bin-packing problem.  The active set is
constant between event times, so the integral is a finite sum over
breakpoint segments.

Exact values use :func:`repro.optimum.vbp_solver.solve_exact` per
segment (with memoisation on the active uid-set, since consecutive
segments differ by one item and repeats are common);
:func:`optimum_cost_bounds` returns fast certified brackets using the
load lower bound and the FFD upper bound instead.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple

import numpy as np

from ..core.errors import SolverLimitError
from ..core.instance import Instance
from ..core.items import Item

from .vbp_solver import first_fit_decreasing, load_lower_bound, solve_exact

__all__ = ["optimum_cost", "optimum_cost_bounds", "active_segments"]


def _segment_positions(instance: Instance) -> Iterator[Tuple[float, float, np.ndarray]]:
    """``(start, end, positions)`` of every breakpoint segment with active items.

    ``positions`` indexes ``instance.items`` in instance order (FFD's
    stable tie order depends on it); one comparison over the time
    columns picks each segment's active items.
    """
    arrivals = instance.arrival_times
    departures = instance.departure_times
    times = instance.event_times()
    for t0, t1 in zip(times, times[1:]):
        active = np.flatnonzero((arrivals <= t0) & (departures >= t1))
        if active.size:
            yield t0, t1, active


def active_segments(instance: Instance) -> List[Tuple[float, float, List[Item]]]:
    """Breakpoint segments with their active item sets.

    Returns ``(start, end, active_items)`` triples covering the instance
    horizon; segments with no active items are skipped (they contribute
    zero to every integral).
    """
    items = instance.items
    return [
        (t0, t1, [items[j] for j in active.tolist()])
        for t0, t1, active in _segment_positions(instance)
    ]


def optimum_cost(
    instance: Instance,
    max_nodes_per_segment: int = 200_000,
) -> float:
    """Exact ``OPT(R)`` by integrating exact per-segment bin minima.

    Raises
    ------
    SolverLimitError
        If any segment's exact solve exhausts its node budget.  Use
        :func:`optimum_cost_bounds` for instances too large to certify.
    """
    cache: Dict[FrozenSet[int], int] = {}
    total = 0.0
    for t0, t1, active in active_segments(instance):
        key = frozenset(it.uid for it in active)
        if key not in cache:
            cache[key] = solve_exact(
                [it.size for it in active],
                instance.capacity,
                max_nodes=max_nodes_per_segment,
            )
        total += cache[key] * (t1 - t0)
    return total


def optimum_cost_bounds(instance: Instance) -> Tuple[float, float]:
    """Certified ``(lower, upper)`` bracket on ``OPT(R)``.

    * lower: per-segment load lower bound (equals Lemma 1(i) overall);
    * upper: per-segment FFD — feasible for the repacking-allowed
      offline optimum, hence a true upper bound.

    Both are polynomial-time; the bracket is often tight in practice
    (FFD meets the load bound on most random segments).
    """
    sizes = instance.size_matrix
    capacity = instance.capacity
    cache: Dict[bytes, Tuple[int, int]] = {}
    lower = 0.0
    upper = 0.0
    for t0, t1, active in _segment_positions(instance):
        key = active.tobytes()
        bounds = cache.get(key)
        if bounds is None:
            mat = sizes[active]  # stacked once, read by both helpers
            bounds = cache[key] = (
                max(load_lower_bound(mat, capacity), 1),
                len(first_fit_decreasing(mat, capacity)),
            )
        dt = t1 - t0
        lower += bounds[0] * dt
        upper += bounds[1] * dt
    return lower, upper
