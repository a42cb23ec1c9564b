"""Lemma 1: lower bounds on the optimum cost.

For an instance ``R`` the paper uses three lower bounds on ``OPT(R)``:

(i)   the *height* bound ``∫ ceil(||s(R,t)||_inf) dt`` — at any instant
      at least ``ceil`` of the max normalised per-dimension load bins are
      needed;
(ii)  the *utilisation* bound ``(1/d) Σ_r ||s(r)||_inf ℓ(I(r))``;
(iii) the *span* bound ``span(R)``.

Bound (i) dominates (ii) and (iii).  The Section 7 experiments normalise
every algorithm's cost by bound (i), which is what
:func:`opt_lower_bound` returns by default.

All integrals are computed by a vectorised sweepline over the ``2n``
events: the active-load vector is piecewise constant between event
times, so the integral is a finite sum (cf. Eq. 2).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.instance import Instance

__all__ = [
    "load_profile",
    "height_lower_bound",
    "fractional_height_bound",
    "utilization_lower_bound",
    "span_lower_bound",
    "opt_lower_bound",
    "all_lower_bounds",
]

#: Guard subtracted inside ``ceil`` so float noise (e.g. a load of
#: ``2.0000000001`` from summing many sizes) does not inflate the bound.
_CEIL_GUARD = 1e-9


def load_profile(instance: Instance) -> Tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant aggregate load ``s(R, t)``.

    Returns
    -------
    (times, loads):
        ``times`` has shape ``(k,)`` — the sorted unique event times;
        ``loads`` has shape ``(k-1, d)`` where row ``j`` is the constant
        load on ``[times[j], times[j+1])``.
    """
    d = instance.d
    sizes = instance.size_matrix

    times = np.concatenate([instance.arrival_times, instance.departure_times])
    deltas = np.concatenate([sizes, -sizes])
    order = np.argsort(times, kind="stable")
    times = times[order]
    deltas = deltas[order]

    # group deltas by unique time: cumulative load after processing all
    # events at each unique time
    cum = np.cumsum(deltas, axis=0)
    unique_times, group_end = np.unique(times, return_index=True)
    # index of last event at each unique time = next group start - 1
    last = np.append(group_end[1:], len(times)) - 1
    loads_after = cum[last]
    # clip tiny negatives from float cancellation
    loads_after = np.maximum(loads_after, 0.0)
    return unique_times, loads_after[:-1].reshape(-1, d)


def _segment_lengths(times: np.ndarray) -> np.ndarray:
    return np.diff(times)


def height_lower_bound(instance: Instance) -> float:
    """Lemma 1(i): ``∫ ceil(max_j s(R,t)_j / cap_j) dt``.

    The tightest of the three bounds; used as the OPT proxy in the
    Section 7 experiments.
    """
    times, loads = load_profile(instance)
    if times.size < 2:
        return 0.0
    normalised = loads / instance.capacity[np.newaxis, :]
    height = np.ceil(np.max(normalised, axis=1) - _CEIL_GUARD)
    height = np.maximum(height, 0.0)
    return float(np.dot(height, _segment_lengths(times)))


def fractional_height_bound(instance: Instance) -> float:
    """The un-rounded variant ``∫ ||s(R,t)||_inf dt`` (normalised).

    Weaker than :func:`height_lower_bound`; it is the quantity the
    Lemma 1(ii) proof integrates, exposed for the tests that verify the
    proof's chain of inequalities numerically.
    """
    times, loads = load_profile(instance)
    if times.size < 2:
        return 0.0
    normalised = loads / instance.capacity[np.newaxis, :]
    return float(np.dot(np.max(normalised, axis=1), _segment_lengths(times)))


def utilization_lower_bound(instance: Instance) -> float:
    """Lemma 1(ii): ``(1/d) Σ_r ||s(r)||_inf · ℓ(I(r))`` (normalised).

    Reads the instance's columns with the arithmetic of
    ``instance.normalized().total_utilization() / d``: sizes scaled by
    the reciprocal capacity unless it is (close to) all ones, and the
    per-item products summed left to right in item order.
    """
    sizes = instance.size_matrix
    if not np.allclose(instance.capacity, 1.0):
        sizes = sizes * (1.0 / instance.capacity)
    durations = instance.departure_times - instance.arrival_times
    products = np.max(sizes, axis=1) * durations
    return sum(products.tolist()) / instance.d


def span_lower_bound(instance: Instance) -> float:
    """Lemma 1(iii): ``span(R)``."""
    return instance.span


def opt_lower_bound(instance: Instance) -> float:
    """The best (largest) of the Lemma 1 bounds.

    Mathematically this equals :func:`height_lower_bound` except for
    degenerate numerical cases, but taking the max costs little and is
    robust.
    """
    return max(
        height_lower_bound(instance),
        utilization_lower_bound(instance),
        span_lower_bound(instance),
    )


def all_lower_bounds(instance: Instance) -> dict:
    """All three Lemma 1 bounds keyed by name (for reports/tests)."""
    return {
        "height": height_lower_bound(instance),
        "utilization": utilization_lower_bound(instance),
        "span": span_lower_bound(instance),
    }
