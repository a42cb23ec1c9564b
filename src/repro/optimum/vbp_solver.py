"""Exact and heuristic *static* vector bin packing.

The optimum integral (Eq. 2) reduces MinUsageTime DVBP's offline optimum
to a sequence of classic vector-bin-packing subproblems: at each instant,
how few unit bins can hold the currently active items?  This module
solves that static subproblem:

* :func:`first_fit_decreasing` — the FFD heuristic (sort by L∞ size,
  first fit), giving a feasible packing and hence an **upper** bound;
* :func:`load_lower_bound` — ``ceil`` of the max normalised dimension
  total, a fast **lower** bound;
* :func:`solve_exact` — branch-and-bound exact minimum with an FFD
  incumbent, load-based pruning, and identical-bin symmetry breaking.

The solver is exponential in the worst case; ``max_nodes`` bounds the
search and a :class:`~repro.core.errors.SolverLimitError` reports an
exhausted budget so callers can fall back to the bracket
``[load_lower_bound, first_fit_decreasing]``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import SolverLimitError
from ..core.vectors import EPS

__all__ = [
    "first_fit_decreasing",
    "best_fit_decreasing",
    "load_lower_bound",
    "solve_exact",
]


def _as_matrix(sizes: Sequence[np.ndarray], capacity: np.ndarray) -> np.ndarray:
    if isinstance(sizes, np.ndarray) and sizes.ndim == 2:
        return np.asarray(sizes, dtype=np.float64)  # already stacked
    if len(sizes) == 0:
        return np.zeros((0, capacity.size))
    return np.asarray(np.stack(sizes), dtype=np.float64)


def _slack(capacity: np.ndarray) -> np.ndarray:
    return capacity + EPS * np.maximum(capacity, 1.0)


def _decreasing_order(mat: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Item indices by decreasing normalised L∞ size; ties keep input order."""
    return np.argsort(-np.max(mat / capacity[np.newaxis, :], axis=1), kind="stable")


def first_fit_decreasing(
    sizes: Sequence[np.ndarray], capacity: np.ndarray
) -> List[List[int]]:
    """FFD packing: items sorted by decreasing L∞ size, then First Fit.

    Returns the packing as a list of bins, each a list of indices into
    ``sizes``.  The number of bins is an upper bound on the optimum.

    Bin loads are the rows of one ``(n, d)`` matrix, so each item is
    tested against every open bin in one comparison; the fit test and
    the load update are the per-bin ``load + size <= slack`` and
    ``load += size`` of the textbook loop, element for element.
    """
    mat = _as_matrix(sizes, capacity)
    if mat.shape[0] == 0:
        return []
    slack = _slack(capacity)
    loads = np.empty_like(mat)
    bins: List[List[int]] = []
    for idx in _decreasing_order(mat, capacity).tolist():
        size = mat[idx]
        nb = len(bins)
        fit = (loads[:nb] + size <= slack).all(axis=1).nonzero()[0]
        if fit.size:
            b = int(fit[0])
            loads[b] += size
            bins[b].append(idx)
        else:
            loads[nb] = size
            bins.append([idx])
    return bins


def best_fit_decreasing(
    sizes: Sequence[np.ndarray], capacity: np.ndarray
) -> List[List[int]]:
    """BFD packing: like FFD but each item goes to the fullest fitting bin.

    Fullness is measured by the L∞ of the normalised load; among equally
    full bins the first opened wins.  Another feasible heuristic;
    occasionally beats FFD, so the exact solver seeds its incumbent with
    the better of the two.
    """
    mat = _as_matrix(sizes, capacity)
    if mat.shape[0] == 0:
        return []
    slack = _slack(capacity)
    loads = np.empty_like(mat)
    bins: List[List[int]] = []
    for idx in _decreasing_order(mat, capacity).tolist():
        size = mat[idx]
        nb = len(bins)
        fit = (loads[:nb] + size <= slack).all(axis=1).nonzero()[0]
        if fit.size:
            fullness = np.max(loads[fit] / capacity, axis=1)
            b = int(fit[np.argmax(fullness)])
            loads[b] += size
            bins[b].append(idx)
        else:
            loads[nb] = size
            bins.append([idx])
    return bins


def load_lower_bound(sizes: Sequence[np.ndarray], capacity: np.ndarray) -> int:
    """``ceil(max_j Σ_r s(r)_j / cap_j)`` — the Lemma 1(i) bound at one instant."""
    mat = _as_matrix(sizes, capacity)
    if mat.shape[0] == 0:
        return 0
    total = mat.sum(axis=0) / capacity
    return int(np.ceil(float(np.max(total)) - 1e-9))


def solve_exact(
    sizes: Sequence[np.ndarray],
    capacity: np.ndarray,
    max_nodes: int = 200_000,
) -> int:
    """Exact minimum number of bins for the given item sizes.

    Branch and bound over items in decreasing L∞ order.  At each node an
    item is tried in every *distinct* open-bin load (identical loads are
    symmetric — only the first is expanded) and in one new bin.  Pruning:
    ``bins_open + load_lower_bound(remaining beyond residual)`` is a
    valid optimistic completion only in a weak form, so we use the
    standard ``max(bins_open, ceil(total remaining load / capacity))``
    style bound via the aggregate load of unplaced items.

    Parameters
    ----------
    sizes:
        Item size vectors.
    capacity:
        Bin capacity vector.
    max_nodes:
        Search budget; exceeded budgets raise
        :class:`~repro.core.errors.SolverLimitError`.

    Returns
    -------
    int
        The exact optimum bin count.
    """
    mat = _as_matrix(sizes, capacity)
    n = mat.shape[0]
    if n == 0:
        return 0
    slack = _slack(capacity)

    # incumbent: better of FFD and BFD
    upper = min(
        len(first_fit_decreasing(sizes, capacity)),
        len(best_fit_decreasing(sizes, capacity)),
    )
    lower = max(load_lower_bound(sizes, capacity), 1)
    if upper <= lower:
        return upper

    items = mat[_decreasing_order(mat, capacity)]
    # suffix aggregate loads for pruning
    suffix = np.zeros((n + 1, mat.shape[1]))
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + items[i]

    best = upper
    nodes = 0

    def recurse(i: int, loads: List[np.ndarray]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > max_nodes:
            raise SolverLimitError(
                f"exact VBP exceeded {max_nodes} nodes (n={n}); "
                f"certified bracket is [{lower}, {best}]"
            )
        if i == n:
            best = min(best, len(loads))
            return
        if len(loads) >= best:
            return
        # optimistic completion: the remaining aggregate load must be
        # absorbed by the open bins' (aggregated, hence optimistic)
        # residual space plus new bins — a valid lower bound on the
        # final bin count from this node.
        remaining = suffix[i]
        residual = sum((capacity - load for load in loads), np.zeros_like(capacity))
        extra_needed = int(max(0.0, np.ceil(np.max((remaining - residual) / capacity) - 1e-9)))
        if len(loads) + extra_needed >= best:
            return
        size = items[i]
        seen: List[np.ndarray] = []
        for b, load in enumerate(loads):
            if np.all(load + size <= slack):
                if any(np.allclose(load, s) for s in seen):
                    continue  # symmetric to an already-tried bin
                seen.append(load.copy())
                loads[b] = load + size
                recurse(i + 1, loads)
                loads[b] = load
        if len(loads) + 1 < best:
            loads.append(size.copy())
            recurse(i + 1, loads)
            loads.pop()

    recurse(0, [])
    return best
