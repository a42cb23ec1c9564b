"""Vector helpers for multi-dimensional resource demands.

The paper works with item sizes in :math:`\\mathbb{R}^d_{\\ge 0}` and uses
the :math:`L_\\infty` norm throughout (Proposition 1).  This module wraps
the handful of vector operations the rest of the library needs behind a
small, well-tested API so the packing code never reaches for raw NumPy
idioms inline.

All functions accept anything convertible to a 1-D ``float64`` array and
are safe for ``d = 1``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidItemError

__all__ = [
    "EPS",
    "as_size_vector",
    "linf",
    "l1",
    "lp",
    "fits",
    "check_proposition1",
    "dominates",
]

#: Relative tolerance used in all capacity comparisons.  The adversarial
#: constructions of Theorems 5/6/8 rely on exact threshold arithmetic
#: (loads like ``1 - eps'``); a small tolerance keeps float rounding from
#: flipping fit decisions the proofs depend on.
EPS: float = 1e-9

_INF = float("inf")

VectorLike = Union[Sequence[float], np.ndarray, float, int]


def as_size_vector(value: VectorLike, d: Union[int, None] = None) -> np.ndarray:
    """Coerce ``value`` to a non-negative 1-D ``float64`` size vector.

    Parameters
    ----------
    value:
        A scalar (interpreted as a 1-D size), a sequence, or an ndarray.
    d:
        If given, the required dimensionality; a mismatch raises
        :class:`InvalidItemError`.

    Returns
    -------
    numpy.ndarray
        A fresh (owned) ``float64`` array of shape ``(d,)``.

    Raises
    ------
    InvalidItemError
        If the vector has negative entries, is not 1-D, is empty, or does
        not match ``d``.
    """
    arr = np.array(value, dtype=np.float64, ndmin=1)
    # one pass accepts the common case; ``0.0 <= v < inf`` fails for NaN,
    # infinities and negatives alike, and the checks below name the cause
    if (
        arr.ndim == 1
        and arr.size
        and (d is None or arr.size == d)
        and all(0.0 <= v < _INF for v in arr.tolist())
    ):
        return arr
    if arr.ndim != 1:
        raise InvalidItemError(f"size vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidItemError("size vector must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InvalidItemError(f"size vector must be finite, got {arr!r}")
    if np.any(arr < 0):
        raise InvalidItemError(f"size vector must be non-negative, got {arr!r}")
    if d is not None and arr.size != d:
        raise InvalidItemError(f"expected dimension {d}, got {arr.size}")
    return arr


def linf(v: np.ndarray) -> float:
    """Return :math:`\\|v\\|_\\infty = \\max_j v_j` for a non-negative vector."""
    return float(np.max(v))


def l1(v: np.ndarray) -> float:
    """Return :math:`\\|v\\|_1 = \\sum_j v_j` for a non-negative vector."""
    return float(np.sum(v))


def lp(v: np.ndarray, p: float) -> float:
    """Return the :math:`L_p` norm of a non-negative vector.

    ``p = inf`` is accepted and routed to :func:`linf`; ``p = 1`` takes
    the same summation path as :func:`l1` (bit-identical, since
    ``x ** 1.0 == x`` exactly in IEEE-754).  Values ``p < 1`` are
    rejected: they do not define a norm, matching the ``p >= 1``
    contract of :func:`repro.algorithms.best_fit.load_measure`.
    """
    if not p >= 1:  # also rejects NaN (and -inf, before the isinf route)
        raise ValueError(f"p must be >= 1 for an L_p norm, got {p}")
    if np.isinf(p):
        return linf(v)
    return float(np.sum(v**p) ** (1.0 / p))


def fits(load: VectorLike, size: VectorLike, capacity: VectorLike) -> bool:
    """Return ``True`` if an item of ``size`` fits a bin at ``load``.

    The check is per-dimension: ``load + size <= capacity`` within a
    relative tolerance of :data:`EPS` (scaled by the capacity so the
    tolerance is meaningful for non-unit capacities, e.g. the B=100
    integer experiments of Section 7).  It runs on Python floats, whose
    adds and compares are the IEEE-754 float64 operations of a float64
    array, so a vectorised check over a load matrix agrees with it bit
    for bit.

    Raises
    ------
    ValueError
        If the three vectors differ in length (nothing is broadcast).
    """
    load, size, capacity = _floats(load), _floats(size), _floats(capacity)
    if not len(load) == len(size) == len(capacity):
        raise ValueError(
            f"fits needs vectors of one length, got load {len(load)}, "
            f"size {len(size)}, capacity {len(capacity)}"
        )
    for used, need, cap in zip(load, size, capacity):
        # ``max(cap, 1.0)`` as a conditional: the builtin call costs more
        # than the rest of the dimension's check
        if not used + need <= cap + EPS * (cap if cap > 1.0 else 1.0):
            return False
    return True


_F64 = np.dtype(np.float64)


def _floats(v: VectorLike) -> list:
    """``v`` as a flat list of Python floats (a float64 vector's values)."""
    if type(v) is np.ndarray and v.dtype is _F64 and v.ndim == 1:
        return v.tolist()
    return np.asarray(v, dtype=np.float64).reshape(-1).tolist()


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Return ``True`` if ``a >= b`` in every dimension (within tolerance)."""
    return bool(np.all(a + EPS >= b))


def check_proposition1(vectors: Iterable[np.ndarray]) -> bool:
    """Numerically verify Proposition 1(ii) for a collection of vectors.

    Checks ``||sum v_i||_inf <= sum ||v_i||_inf <= d * ||sum v_i||_inf``.
    Used by property tests; returns ``True`` when the sandwich holds
    (within :data:`EPS`), ``False`` otherwise.  An empty collection
    trivially satisfies the proposition.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not vecs:
        return True
    total = np.sum(vecs, axis=0)
    d = total.size
    lhs = linf(total)
    mid = sum(linf(v) for v in vecs)
    rhs = d * lhs
    return lhs <= mid + EPS and mid <= rhs + EPS
