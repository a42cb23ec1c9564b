"""Online algorithm interfaces and the Any Fit base class.

``Algorithm 1`` of the paper is a template: maintain a list ``L`` of open
bins; on arrival, pack into a bin of ``L`` if any fits (never opening a
new bin when one fits — the *Any Fit property*); otherwise open a new
bin; maintain ``L`` on packs and departures.  Concrete family members
differ only in

* which fitting bin of ``L`` they select (Line 5), and
* how ``L`` is reordered/pruned (Lines 9 and 12).

:class:`AnyFitAlgorithm` implements the template once — including the
fit check over a load matrix kept in step with ``L`` and the
enforcement of the Any Fit property — so subclasses only provide
:meth:`choose` plus the list-maintenance hooks.
"""

from __future__ import annotations

import abc
import operator
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.bins import Bin
from ..core.errors import AlgorithmError
from ..core.instance import Instance
from ..core.items import Item
from ..core.vectors import EPS

__all__ = ["OnlineAlgorithm", "AnyFitAlgorithm", "SCALAR_SCAN_ROWS"]

#: Longest open list :meth:`AnyFitAlgorithm._fitting_rows` scans on
#: Python floats; a longer one takes one numpy comparison.  Below about
#: this many rows the fixed cost of the numpy calls exceeds the
#: per-row cost of the Python loop (the crossover measurement is in
#: ``docs/performance.md``).  Both scans make the same IEEE-754 adds
#: and compares, so the constant changes speed, never a fit result.
SCALAR_SCAN_ROWS = 10


class OnlineAlgorithm(abc.ABC):
    """Contract between the simulation engine and a dispatch policy.

    The engine owns bin lifecycle (creation, packing, departure
    processing, cost accounting); the algorithm only decides *where* each
    arriving item goes.  Implementations must be resettable: the engine
    calls :meth:`start` before every run.
    """

    #: Human-readable policy name used in reports/legends.
    name: str = "online"

    #: Fast-kernel hook: the name of the
    #: :mod:`repro.simulation.fastpath` policy kernel whose decisions
    #: this algorithm reproduces exactly, or ``None`` when only the
    #: classic engine may run it.  The stock Section 7 classes set it;
    #: configurations that change decisions (e.g. a non-default Best Fit
    #: load measure) clear it on the instance.  Setting the attribute is
    #: necessary but not sufficient — the class must also be registered
    #: via :func:`repro.simulation.fastpath.register_kernel_class`, so a
    #: subclass overriding ``choose`` cannot inherit eligibility by
    #: accident.
    fast_kernel: Optional[str] = None

    #: Unbounded-audit toggle.  Some policies accrue O(stream-length)
    #: proof bookkeeping that no *online* decision ever reads (Next
    #: Fit's ``release_log`` for the Theorem 4 check is the one case
    #: today).  The streaming engine and the placement service clear
    #: this flag before :meth:`start` so long-lived runs stay
    #: O(live-state); the classic engines leave it on, so the offline
    #: analyses (:mod:`repro.analysis.proofs`) see the full trail.
    #: Must never influence dispatch decisions — only what is recorded.
    audit_mode: bool = True

    #: Optional stats collector bound by an instrumented engine for the
    #: duration of one run (see ``repro.observability``).  Class-level
    #: ``None`` means instrumentation costs nothing unless enabled.
    _collector = None

    def bind_collector(self, collector) -> None:
        """Attach (or with ``None`` detach) a stats collector.

        Called by :class:`~repro.simulation.engine.Engine` around an
        instrumented run.  Subclasses with hot-path counters read
        ``self._collector`` and skip counting when it is ``None``.
        """
        self._collector = collector

    @abc.abstractmethod
    def start(self, instance: Instance) -> None:
        """Reset all per-run state for a fresh simulation of ``instance``."""

    @abc.abstractmethod
    def dispatch(
        self,
        item: Item,
        now: float,
        open_new_bin: Callable[[], Bin],
    ) -> Bin:
        """Return the bin ``item`` must be packed into.

        Implementations may call ``open_new_bin()`` at most once to
        create a fresh bin; the engine packs the item into the returned
        bin and performs capacity checks.
        """

    def notify_departure(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        """Hook invoked after ``item`` leaves ``bin_`` (Line 10-12).

        ``closed`` is ``True`` when the departure emptied the bin.  The
        default implementation does nothing.
        """

    def notify_packed(self, bin_: Bin, item: Item, now: float) -> None:
        """Hook invoked after the engine packs ``item`` into ``bin_``
        outside :meth:`dispatch` — the destination of a repacking move.

        The :class:`~repro.simulation.live.LivePacking` core calls this,
        :meth:`dispatch` and :meth:`notify_departure` for every load
        change it makes, so a policy may cache loads.  The default
        implementation does nothing.
        """

    # ------------------------------------------------------------------
    # snapshot/restore (service mode)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the policy's mutable mid-run state.

        Bins are referenced by index (the engine owns the bin objects);
        :meth:`import_state` re-binds them.  The base contract raises —
        a policy must opt in explicitly, because silently snapshotting a
        policy with unexported state (an RNG, a recency order) would
        restore into *different* future decisions.
        :class:`AnyFitAlgorithm` and the stock Section 7 policies all
        opt in; see :class:`~repro.streaming.service.PlacementService`.
        """
        raise AlgorithmError(
            f"{self.name} does not support state export; override "
            "export_state/import_state to make it snapshottable"
        )

    def import_state(self, state: Mapping[str, Any], bins_by_index: Mapping[int, Bin]) -> None:
        """Inverse of :meth:`export_state`.

        Call :meth:`start` first (it binds the capacity and resets the
        derived per-run state), then this to re-adopt the snapshot.
        ``bins_by_index`` maps bin index → live bin object for every bin
        the snapshot references.
        """
        raise AlgorithmError(
            f"{self.name} does not support state import; override "
            "export_state/import_state to make it snapshottable"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class AnyFitAlgorithm(OnlineAlgorithm):
    """Base class implementing Algorithm 1's outer loop.

    Subclass responsibilities:

    * :meth:`choose` — pick one bin from the non-empty list of fitting
      candidates (in ``L``-order);
    * optionally :meth:`on_packed` — reorder ``L`` after a pack (e.g.
      Move To Front moves the bin to the front);
    * optionally :meth:`on_new_bin` — position a freshly opened bin in
      ``L`` (default: append);
    * optionally :meth:`on_closed` — react to a bin closing (default:
      the base class already removes closed bins from ``L``).

    The base class guarantees the **Any Fit property**: a new bin is
    opened only when no bin in ``L`` fits the item.  It also verifies
    that :meth:`choose` returns one of the offered candidates, raising
    :class:`AlgorithmError` otherwise — so a buggy selection rule fails
    loudly instead of producing an infeasible or non-Any-Fit packing.

    **The load matrix.**  Next to ``L`` the base class keeps a float64
    matrix whose row ``i`` is a copy of ``L[i].load``, and :meth:`start`
    computes the tolerance-adjusted capacity slack once, so a candidate
    scan compares rows already in place against it.  Up to
    :data:`SCALAR_SCAN_ROWS` open bins the scan runs on the rows as
    Python floats; a longer ``L`` takes one numpy comparison laid out
    one row per dimension, and ANDs its d rows.  Both make the adds and
    compares of :func:`~repro.core.vectors.fits_batch`, so they agree
    with it bit for bit.  Rows are only ever copied from ``bin.load``,
    never recomputed, so every fit result is bit-identical to stacking
    the loads afresh.  A row is re-read when its bin's load changes:

    * the bin :meth:`dispatch` returned, at the next call into the
      policy (the engine packs it after :meth:`dispatch` returns);
    * a departing bin, in :meth:`notify_departure`;
    * a repacking move's destination, in :meth:`notify_packed`.

    Subclasses therefore change ``L`` only through the list helpers
    (:meth:`_append`, :meth:`_move_to_front`, :meth:`_remove`,
    :meth:`_reset`), which shift the rows in step.
    """

    def __init__(self) -> None:
        self._list: List[Bin] = []
        self._capacity: Optional[np.ndarray] = None
        #: ``capacity + EPS * max(capacity, 1)``, as a ``(d, 1)`` column
        #: for the numpy scan and as Python floats for the scalar one
        self._slack = np.empty((0, 1))
        self._slack_floats: List[float] = []
        #: row ``i`` is a copy of ``self._list[i].load``; rows past
        #: ``len(self._list)`` are spare capacity
        self._loads = np.empty((0, 0))
        #: row of the bin :meth:`dispatch` is returning (-1: none) — the
        #: engine packs it afterwards, so the row is re-read on the next
        #: call; inside :meth:`on_packed` it is the receiving bin's row
        self._packing = -1

    # ------------------------------------------------------------------
    # OnlineAlgorithm API
    # ------------------------------------------------------------------
    def start(self, instance: Instance) -> None:
        capacity = instance.capacity
        self._capacity = capacity
        slack = capacity + EPS * np.maximum(capacity, 1.0)
        self._slack = slack[:, np.newaxis]
        self._slack_floats = slack.tolist()
        self._loads = np.empty((16, capacity.size))
        self._reset(())

    @property
    def open_list(self) -> Sequence[Bin]:
        """Read-only view of the candidate list ``L`` (for tests/analysis)."""
        return tuple(self._list)

    def dispatch(self, item: Item, now: float, open_new_bin: Callable[[], Bin]) -> Bin:
        if self._capacity is None:
            raise AlgorithmError(f"{self.name}: dispatch before start()")
        self._reread_packed()
        rows = self._fitting_rows(item)
        if rows:
            lst = self._list
            candidates = [lst[i] for i in rows]
            chosen = self.choose(item, candidates, now)
            k = _position(candidates, chosen)
            if k < 0:
                raise AlgorithmError(
                    f"{self.name}.choose returned a bin that was not offered "
                    f"(item {item.uid})"
                )
            self._packing = rows[k]
        else:
            chosen = open_new_bin()
            self.on_new_bin(chosen, item, now)
        self.on_packed(chosen, item, now)
        return chosen

    def notify_departure(self, bin_: Bin, item: Item, now: float, closed: bool) -> None:
        self._reread_packed()
        # Next Fit's released bins depart from outside L
        row = _position(self._list, bin_)
        if row >= 0:
            if closed:
                self._remove(row)
            else:
                self._loads[row] = bin_.load
        if closed:
            self.on_closed(bin_, now)

    def notify_packed(self, bin_: Bin, item: Item, now: float) -> None:
        self._reread_packed()
        row = _position(self._list, bin_)
        if row >= 0:
            self._loads[row] = bin_.load

    def export_state(self) -> Dict[str, Any]:
        """Snapshot ``L`` as a list of bin indexes (order is the state).

        Sufficient for every stock Any Fit policy whose only mutable
        state *is* the ordered open list (First/Last/Best/Worst Fit,
        Move To Front); policies with extra state extend the dict.
        """
        return {"open_list": [b.index for b in self._list]}

    def import_state(self, state: Mapping[str, Any], bins_by_index: Mapping[int, Bin]) -> None:
        if self._capacity is None:
            raise AlgorithmError(f"{self.name}: import_state before start()")
        self._reset([bins_by_index[i] for i in state["open_list"]])

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        """Select one bin from ``candidates`` (non-empty, in ``L``-order)."""

    def on_new_bin(self, bin_: Bin, item: Item, now: float) -> None:
        """Insert a freshly opened bin into ``L``.  Default: append."""
        self._append(bin_)

    def on_packed(self, bin_: Bin, item: Item, now: float) -> None:
        """Maintain ``L`` after packing (Line 9).  Default: no-op."""

    def on_closed(self, bin_: Bin, now: float) -> None:
        """React to a bin closing (already removed from ``L``)."""

    # ------------------------------------------------------------------
    # list helpers: every change to L shifts the load rows with it
    # ------------------------------------------------------------------
    def _append(self, bin_: Bin) -> None:
        """Append the freshly opened ``bin_`` to ``L``."""
        n = len(self._list)
        self._reserve(n + 1)
        self._loads[n] = bin_.load
        self._list.append(bin_)
        self._packing = n  # bins enter L only when dispatch opens them

    def _move_to_front(self, row: int) -> None:
        """Move the bin at ``row`` to the front of ``L``."""
        if row == 0:
            return
        loads = self._loads
        front = loads[row].copy()
        loads[1:row + 1] = loads[:row]
        loads[0] = front
        self._list.insert(0, self._list.pop(row))
        if self._packing == row:
            self._packing = 0
        elif 0 <= self._packing < row:
            self._packing += 1

    def _remove(self, row: int) -> None:
        """Drop the bin at ``row`` from ``L``."""
        n = len(self._list)
        self._loads[row:n - 1] = self._loads[row + 1:n]
        del self._list[row]
        if self._packing == row:
            self._packing = -1
        elif self._packing > row:
            self._packing -= 1

    def _reset(self, bins: Sequence[Bin]) -> None:
        """Replace ``L`` by ``bins``, reusing the matrix buffer."""
        self._list = []  # no old rows to carry over if the buffer grows
        self._packing = -1
        self._reserve(len(bins))
        for i, b in enumerate(bins):
            self._loads[i] = b.load
        self._list = list(bins)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _reserve(self, rows: int) -> None:
        """Grow the matrix buffer (doubling) to hold at least ``rows``."""
        loads = self._loads
        if rows > len(loads):
            grown = np.empty((max(rows, 2 * len(loads)), loads.shape[1]))
            n = len(self._list)
            grown[:n] = loads[:n]
            self._loads = grown

    def _reread_packed(self) -> None:
        """Copy the load of the bin the last dispatch returned into its row."""
        row = self._packing
        if row >= 0:
            self._loads[row] = self._list[row].load
            self._packing = -1

    def _fitting_rows(self, item: Item) -> List[int]:
        """Rows of ``L`` whose bin can fit ``item``, in ``L``-order.

        The hot path of every simulation.  A short ``L`` is scanned row
        by row on Python floats, where one numpy call would cost more
        than the whole loop; a longer one in one numpy comparison.  Row
        ``i`` fits iff ``load + size <= slack`` in every dimension, the
        same IEEE-754 operations on either path.
        """
        n = len(self._list)
        if not n:
            return []
        col = self._collector
        if col is not None:
            col.candidate_scans += 1
            col.fit_checks += n
        if n <= SCALAR_SCAN_ROWS:
            size = item.size.tolist()
            slack = self._slack_floats
            rows = []
            for i, load in enumerate(self._loads[:n].tolist()):
                for used, need, room in zip(load, size, slack):
                    if not used + need <= room:
                        break
                else:
                    rows.append(i)
            return rows
        # one row per dimension, so the compare and the ANDs run along L
        sums = np.add(self._loads[:n].T, item.size[:, np.newaxis], order="C")
        ok = sums <= self._slack
        mask = ok[0]
        for row in ok[1:]:
            mask &= row
        return mask.nonzero()[0].tolist()


def _position(seq: List[Any], obj: Any) -> int:
    """Index of ``obj`` in ``seq``, or -1 when absent, in one scan.

    ``operator.indexOf`` rather than ``list.index``: the latter's
    ``ValueError`` message formats ``repr(obj)``, which for a
    :class:`Bin` costs more than the whole search.
    """
    try:
        return operator.indexOf(seq, obj)
    except ValueError:
        return -1
