"""Flat-array fast-path twin of the classic simulation :class:`Engine`.

The classic engine replays Algorithm 1 over per-bin Python objects: every
arrival turns the vectorised fit check into a list of candidate bin
objects for the policy, and every bin transition walks observer hooks.
That object traversal — not the arithmetic — dominates the Table 2 /
Figure 4 sweeps and the ``repro verify`` fuzz harness.

:class:`FastEngine` keeps the *same decision procedure* in flat parallel
arrays instead:

* a dense residual-capacity matrix ``loads`` of shape ``(slots, d)`` with
  one row per ever-opened bin slot, updated incrementally on pack and
  recomputed per-row on departure (see below);
* ``alive`` open/closed flags plus tombstone compaction, so closed bins
  cost nothing after a compaction sweep and the matrix stays dense;
* a pre-sorted event-index array built once per run (``np.lexsort`` over
  ``(time, kind, seq)``) replacing the per-run event-object construction,
  preserving the exact departures-before-arrivals tie-break of
  :mod:`repro.core.events`;
* per-policy selection kernels: first-fit ``argmax`` over the fit mask,
  best/worst-fit masked ``argmax``/``argmin`` over row loads, Move To
  Front recency-list front-scan, Next Fit single-row cursor check, and a
  stream-compatible Random Fit draw.

Bit-identity contract
---------------------
For every policy in :data:`FAST_POLICIES` the engine produces the *same
item → bin assignment, bit for bit*, as the classic engine — not merely
the same cost.  Two details make this non-trivial:

1. **Departures re-sum, never subtract.**  :meth:`repro.core.bins.Bin.remove`
   recomputes the load by summing the remaining residents sequentially in
   pack order; ``(a + b) + c - b`` differs from ``a + c`` by an ulp in
   float64, so an incremental subtract would eventually flip a fit
   decision near the tolerance threshold.  The fast path performs the
   identical sequential re-sum on the affected row only.
2. **New bins copy, never accumulate.**  A fresh bin's load is
   ``0.0 + size`` elementwise, which is bitwise equal to ``size`` for the
   non-negative finite sizes :func:`repro.core.vectors.as_size_vector`
   admits, so opening writes the size row directly.

Backends
--------
Two interchangeable kernel backends produce identical decisions, each
with one replay loop:

* ``"numpy"`` — vectorised mask/argmin/argmax kernels
  (:meth:`FastEngine._replay_numpy`) for six policies.  Next Fit
  inspects one bin per arrival, so numpy row operations would cost more
  in dispatch than they compute; the numpy backend runs it through the
  python kernel on plain-float copies of the context's arrays;
* ``"python"`` — pure-Python short-circuit scans over lists of floats
  (:meth:`FastEngine._replay_python`), all seven policies.  The scans
  stop at the first fitting bin where the policy allows, which changes
  nothing observable: the *selected* bin is the same, and the
  per-dimension float adds/compares are the same IEEE-754 double
  operations numpy performs elementwise.

With ``backend=None`` an engine replays on :func:`choose_backend`'s
pick for its instance; ``FastEngine(..., backend=...)`` pins one.  The
replay loops are deliberately written out long-hand per backend —
factoring the shared bookkeeping through per-event callables would put
several Python method calls back on the hot path, which is exactly the
overhead this module exists to remove.  Seeded ``random_fit`` trials
(:meth:`FastEngine.run_trials`) replay one seed at a time through the
re-armed engine, sharing its context and scratch buffers.

Load-measure kernels
--------------------
``BestFit``/``WorstFit`` rank candidates by a configurable load measure
(``linf``/``l1``/``lp``, see :func:`repro.algorithms.best_fit.load_measure`).
All three measures have fast kernels, and the resolved policy spec
carries the measure — ``"best_fit"`` (L-inf), ``"best_fit:l1"``,
``"best_fit:lp:3.0"`` — through every dispatch path.
``lp`` with ``p = 1`` is normalised to the ``l1`` kernel and ``p = inf``
to ``linf`` (both bitwise-identical weight computations, since
``x ** 1.0 == x`` exactly and the classic ``lp`` routes ``inf`` to
``linf`` itself).

Integration
-----------
:class:`~repro.simulation.batch.BatchRunner` is the one route into this
engine from ``run(..., engine="batch")`` and ``parallel_sweep(...,
engine="batch")``: it replays eligible policies here (see
:func:`fast_policy_for`) and runs the rest on the classic engine.
``repro.verify`` holds the safety net: a classic-vs-fastpath
differential oracle in the harness, a three-way corpus test, and a
deliberately broken stale-residual mutant that must be caught.
"""

from __future__ import annotations

import operator
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

import numpy as _np

from ..algorithms.best_fit import BestFit, WorstFit
from ..algorithms.first_fit import FirstFit
from ..algorithms.last_fit import LastFit
from ..algorithms.move_to_front import MoveToFront
from ..algorithms.next_fit import NextFit
from ..algorithms.random_fit import RandomFit
from ..core.errors import AlgorithmError, ConfigurationError
from ..core.events import event_order
from ..core.instance import Instance
from ..core.packing import Packing
from ..core.vectors import EPS
from ..observability.stats import StatsCollector

__all__ = [
    "NUMPY_BACKEND",
    "PYTHON_BACKEND",
    "BACKENDS",
    "FAST_POLICIES",
    "choose_backend",
    "parse_policy_spec",
    "fast_policy_for",
    "fast_ineligibility_reason",
    "ReplayContext",
    "FastEngine",
]

NUMPY_BACKEND = "numpy"
PYTHON_BACKEND = "python"

#: Every kernel backend; an explicit ``backend=`` must name one.
BACKENDS = (NUMPY_BACKEND, PYTHON_BACKEND)

#: The seven Section 7 registry policies the fast kernels implement.
FAST_POLICIES = frozenset(
    {
        "move_to_front",
        "first_fit",
        "next_fit",
        "best_fit",
        "worst_fit",
        "last_fit",
        "random_fit",
    }
)

_INITIAL_SLOTS = 64
#: Compact the slot arrays once at least this many tombstones exist *and*
#: they are at least half of all slots — amortised O(1) per close.
_COMPACT_MIN_DEAD = 32


#: Mean-concurrency threshold of :func:`choose_backend`.  Below it the
#: pure-python backend's short-circuit scans beat numpy's per-arrival
#: mask/argmax kernel overhead (few open bins, tiny masks); above it the
#: vectorised kernels win.  Calibrated on the bench grid: the Table 2 /
#: Figure 4 shapes (n=1000, mu<=100, ~5-50 concurrent items) sit well
#: below, the xlarge fastpath scenario (n=5000, mu=100, ~250 concurrent)
#: well above.
_PYTHON_MAX_MEAN_CONCURRENCY = 128.0


def choose_backend(instance: Instance) -> str:
    """Pick the likely-fastest backend for replaying ``instance``.

    The decision keys on the estimated mean number of concurrently
    active items, ``total_duration / horizon length``: per-arrival work
    is proportional to the number of open bins, which this ratio bounds.
    Both backends produce bit-identical assignments, so this is purely a
    performance choice, and the default of every :class:`FastEngine`
    and :class:`ReplayContext` built without an explicit ``backend``.
    """
    length = instance.horizon.length
    if length <= 0.0:
        return NUMPY_BACKEND
    mean_concurrency = instance.total_duration / length
    if mean_concurrency <= _PYTHON_MAX_MEAN_CONCURRENCY:
        return PYTHON_BACKEND
    return NUMPY_BACKEND


def _backend_for(instance: Instance, backend: Optional[str]) -> str:
    """``backend`` checked against :data:`BACKENDS`; ``None`` = :func:`choose_backend`."""
    if backend is None:
        return choose_backend(instance)
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown fastpath backend {backend!r}; expected one of "
            f"{', '.join(repr(b) for b in BACKENDS)}"
        )
    return backend


# ----------------------------------------------------------------------
# eligibility: which algorithm objects may be routed to the fast path
# ----------------------------------------------------------------------

#: Load measures the BestFit/WorstFit kernels implement.
_MEASURES = ("linf", "l1", "lp")

#: The classes whose decisions a kernel reproduces, keyed by *exact*
#: class: a subclass may override ``choose``/``on_packed`` and silently
#: diverge, so it is not eligible.
_KERNELS: Dict[type, str] = {
    MoveToFront: "move_to_front",
    FirstFit: "first_fit",
    NextFit: "next_fit",
    BestFit: "best_fit",
    WorstFit: "worst_fit",
    LastFit: "last_fit",
    RandomFit: "random_fit",
}


def parse_policy_spec(spec: str) -> Tuple[str, str, Optional[float]]:
    """Split a fast policy spec into ``(base, measure, p)``.

    Specs are the strings :func:`fast_policy_for` resolves to and every
    dispatch path (``FastEngine``, the batch runner, the oracles)
    passes around: a bare policy name from
    :data:`FAST_POLICIES` (L-inf measure), ``"<policy>:l1"``, or
    ``"<policy>:lp:<p>"`` with ``p >= 1`` (``best_fit``/``worst_fit``
    only — the other kernels have no load-measure knob).  Raises
    :class:`~repro.core.errors.ConfigurationError` on malformed specs.
    """
    parts = str(spec).split(":")
    base = parts[0]
    if base not in FAST_POLICIES:
        raise ConfigurationError(
            f"fastpath does not implement policy {base!r}; supported: "
            f"{', '.join(sorted(FAST_POLICIES))}"
        )
    if len(parts) == 1:
        return base, "linf", None
    measure = parts[1]
    if base not in ("best_fit", "worst_fit"):
        raise ConfigurationError(
            f"policy {base!r} has no load-measure variants (spec {spec!r})"
        )
    if measure == "linf" and len(parts) == 2:
        return base, "linf", None
    if measure == "l1" and len(parts) == 2:
        return base, "l1", None
    if measure == "lp":
        if len(parts) != 3:
            raise ConfigurationError(
                f"lp spec needs an exponent, e.g. '{base}:lp:3.0' (got {spec!r})"
            )
        try:
            p = float(parts[2])
        except ValueError:
            raise ConfigurationError(
                f"lp exponent {parts[2]!r} is not a float (spec {spec!r})"
            ) from None
        if not p >= 1:  # also rejects NaN
            raise ConfigurationError(
                f"lp measure requires p >= 1, got {p} (spec {spec!r})"
            )
        return base, "lp", p
    raise ConfigurationError(
        f"unknown load measure in fast policy spec {spec!r}; expected "
        f"'{base}', '{base}:l1', or '{base}:lp:<p>'"
    )


def fast_policy_for(algorithm: Union[str, object]) -> Optional[Tuple[str, int]]:
    """Resolve an algorithm spec to ``(policy_spec, seed)`` if fast-eligible.

    Accepts a registry name, a policy spec string (see
    :func:`parse_policy_spec`), or an algorithm object.  An object is
    eligible when (a) its exact class is one of the seven stock policy
    classes (a subclass is rejected outright), (b) its load measure, if
    any, is ``linf``, ``l1`` or ``lp`` with ``p >= 1``, and (c) its
    ``seed`` attribute, if any, is an actual integer.  The
    resolved spec carries the load measure (``"best_fit:l1"``,
    ``"worst_fit:lp:3.0"``), so every dispatch path replays the right
    kernel.  Returns ``None`` when the classic engine must be used.
    """
    if isinstance(algorithm, str):
        if algorithm in FAST_POLICIES:
            return algorithm, 0
        try:
            parse_policy_spec(algorithm)
        except ConfigurationError:
            return None
        return algorithm, 0
    kernel = _KERNELS.get(type(algorithm))
    if kernel is None:
        return None
    measure = getattr(algorithm, "measure", None) or "linf"
    if measure not in _MEASURES:
        return None
    p: Optional[float] = None
    if measure == "lp":
        raw_p = getattr(algorithm, "p", None)
        try:
            p = float(raw_p)
        except (TypeError, ValueError):
            return None
        if not p >= 1:  # also rejects NaN
            return None
    try:
        # operator.index rejects None/floats/strings instead of crashing
        # mid-dispatch with a bare TypeError (or silently truncating).
        seed = operator.index(getattr(algorithm, "seed", 0))
    except TypeError:
        return None
    if measure == "linf":
        spec = kernel
    elif measure == "l1":
        spec = f"{kernel}:l1"
    else:
        spec = f"{kernel}:lp:{p!r}"
    return spec, seed


def fast_ineligibility_reason(algorithm: Union[str, object]) -> Optional[str]:
    """Why :func:`fast_policy_for` rejects this spec (``None`` = eligible).

    The distinct causes matter operationally: a policy whose *class* has
    no kernel will never speed up, while a stock class whose
    *configuration* (load measure, exponent or seed) falls outside what
    the kernels take could gain a kernel in a later PR.
    :class:`~repro.simulation.batch.BatchRunner` surfaces this reason
    through the once-per-cause :class:`RuntimeWarning` and the
    ``fastpath_fallbacks`` counter, so sweeps silently pinned to the
    classic engine are visible.  Every reason contains the phrase
    ``"no fast kernel"``.
    """
    if fast_policy_for(algorithm) is not None:
        return None
    if isinstance(algorithm, str):
        try:
            parse_policy_spec(algorithm)
        except ConfigurationError as exc:
            return f"no fast kernel for policy {algorithm!r} ({exc})"
        return f"no fast kernel for policy {algorithm!r}"
    cls = type(algorithm).__name__
    if type(algorithm) not in _KERNELS:
        return f"no fast kernel for class {cls}"
    try:
        operator.index(getattr(algorithm, "seed", 0))
    except TypeError:
        return (
            f"no fast kernel dispatch for {cls}: seed "
            f"{getattr(algorithm, 'seed', None)!r} is not an integer"
        )
    measure = getattr(algorithm, "measure", None) or "linf"
    return (
        f"no fast kernel for this {cls} configuration "
        f"(measure={measure!r}, p={getattr(algorithm, 'p', None)!r})"
    )


# ----------------------------------------------------------------------
# shared replay inputs
# ----------------------------------------------------------------------
class ReplayContext:
    """Policy-independent replay inputs for one ``(instance, backend)``.

    Everything a kernel reads but never writes: the instance's size
    matrix (its read-only ``size_matrix`` column, or that column's
    ``tolist()`` on the python backend), the tolerance-adjusted capacity
    slack, the flat event-index list of
    :func:`~repro.core.events.event_order` (``pos`` for arrivals and
    ``n + pos`` for departures), and the uid list used to emit the final
    assignment.  Building these is
    roughly half the cost of a single replay at Table 2 scale, so
    :class:`~repro.simulation.batch.BatchRunner` builds one context per
    instance and shares it across all N policies x M trials; a lone
    :class:`FastEngine` builds its own lazily on first run.
    """

    __slots__ = (
        "instance",
        "backend",
        "n",
        "d",
        "sizes",
        "slack",
        "order",
        "uids",
        "_python_layout",
    )

    def __init__(self, instance: Instance, backend: Optional[str] = None) -> None:
        resolved = _backend_for(instance, backend)
        items = instance.items
        n = len(items)
        self.instance = instance
        self.backend = resolved
        self.n = n
        self.d = instance.d
        # value < n is the arrival of item position `value`; value >= n
        # is the departure of `value - n`; both backends share it.  Built
        # first, so its own uid list is freed before this one exists.
        self.order = event_order(instance)
        self.uids = [it.uid for it in items]
        if resolved != PYTHON_BACKEND:
            capacity = _np.asarray(instance.capacity, dtype=_np.float64)
            self.slack = capacity + EPS * _np.maximum(capacity, 1.0)
            self.sizes = instance.size_matrix
            self._python_layout = None
        else:
            self.slack = [float(c) + EPS * max(float(c), 1.0) for c in instance.capacity]
            self.sizes = instance.size_matrix.tolist()
            self._python_layout = (self.sizes, self.slack)

    def python_layout(self) -> Tuple[List[List[float]], List[float]]:
        """``(sizes, slack)`` as lists of Python floats: the python kernel's input.

        A python-backend context holds them from the start.  A numpy one
        converts its arrays on the first call and keeps the lists, so the
        Next Fit replays it serves (Next Fit always runs the python
        kernel) convert once per context, not once per replay.
        """
        if self._python_layout is None:
            self._python_layout = (self.sizes.tolist(), self.slack.tolist())
        return self._python_layout


#: Sentinel distinguishing "leave the collector alone" from "clear it"
#: in :meth:`FastEngine.reset`.
_UNSET = object()


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class FastEngine:
    """Replays one instance through one fast policy kernel.

    Drop-in counterpart of :class:`~repro.simulation.engine.Engine` for
    the policies in :data:`FAST_POLICIES`: same single-use contract, same
    returned :class:`~repro.core.packing.Packing`, bit-identical item →
    bin assignment.  It does **not** support observers — observer fan-out
    is per-event Python dispatch, the cost the fast path removes; runs
    that need observers go through the classic engine (``run`` routes
    them there).

    Parameters
    ----------
    instance:
        The instance to replay.
    policy:
        A policy name from :data:`FAST_POLICIES`.
    seed:
        Random stream seed (``random_fit`` only; ignored otherwise).
    collector:
        Optional :class:`~repro.observability.stats.StatsCollector`.
        When given, the run records the same counters as an instrumented
        classic run — identical deterministic part — plus the
        ``fastpath_runs`` tally.
    backend:
        ``"numpy"`` or ``"python"``; default :func:`choose_backend`'s
        pick for ``instance``.
    context:
        Optional pre-built :class:`ReplayContext` for this instance and
        backend — the batched sweep path builds one per instance and
        shares it across policies/trials.  Built lazily when omitted.
    """

    __slots__ = (
        "instance",
        "policy",
        "name",
        "seed",
        "collector",
        "backend",
        "_base",
        "_measure",
        "_p",
        "_ran",
        "_ctx",
        "_scratch_loads",
        "_scratch_fit",
        "_scratch_ok",
        "_scratch_mask",
        "_scratch_w",
        "_scratch_stamp",
    )

    #: Mutation hook for :mod:`repro.verify.mutation`: the stale-residual
    #: mutant subclass flips this to skip the departure re-sum, which the
    #: classic-vs-fastpath differential oracle must catch.
    _stale_residual_bug = False

    def __init__(
        self,
        instance: Instance,
        policy: str,
        seed: int = 0,
        collector: Optional[StatsCollector] = None,
        backend: Optional[str] = None,
        context: Optional[ReplayContext] = None,
    ) -> None:
        resolved = _backend_for(instance, backend)
        self._apply_policy(policy)
        if context is not None:
            if context.instance is not instance:
                raise ConfigurationError(
                    "replay context was built for a different instance"
                )
            if context.backend != resolved:
                raise ConfigurationError(
                    f"replay context targets backend {context.backend!r}, "
                    f"engine uses {resolved!r}"
                )
        self.instance = instance
        self.seed = int(seed)
        self.collector = collector
        self.backend = resolved
        self._ran = False
        self._ctx = context
        # numpy scratch buffers (residual matrix + bookkeeping), kept
        # across reset() so re-armed replays skip the reallocation.
        self._scratch_loads = None
        self._scratch_fit = None
        self._scratch_ok = None
        self._scratch_mask = None
        self._scratch_w = None
        self._scratch_stamp = None

    def _apply_policy(self, policy: str) -> None:
        """Parse and install a policy spec (see :func:`parse_policy_spec`).

        ``self.policy`` keeps the spec as given; ``self.name`` mirrors the
        classic algorithm object's ``name`` for that configuration
        (``"best_fit_l1"``, ``"best_fit_lp3"``), so collectors and packing
        labels match classic runs.  The kernel-facing measure is
        normalised: ``lp`` with ``p = 1`` runs the ``l1`` kernel and
        ``p = inf`` the ``linf`` kernel — both produce bitwise-identical
        weights to the classic measure functions.
        """
        base, measure, p = parse_policy_spec(policy)
        self.policy = str(policy)
        if measure == "linf":
            self.name = base
        elif measure == "l1":
            self.name = f"{base}_l1"
        else:
            self.name = f"{base}_lp{p:g}"
        if measure == "lp":
            if p == float("inf"):
                measure, p = "linf", None
            elif p == 1.0:
                measure, p = "l1", None
        self._base = base
        self._measure = measure
        self._p = p

    # ------------------------------------------------------------------
    def reset(
        self,
        policy: Optional[str] = None,
        seed: Optional[int] = None,
        context: Optional[ReplayContext] = None,
        instance: Optional[Instance] = None,
        collector=_UNSET,
    ) -> "FastEngine":
        """Re-arm the engine for another replay, reusing scratch buffers.

        The single-use contract of :meth:`run` still holds between
        resets — ``reset()`` is the *explicit* opt-in that makes reuse
        safe: it clears the ran flag and (optionally) swaps the policy,
        seed, collector, instance, or shared :class:`ReplayContext`,
        while the residual-matrix scratch buffers stay allocated.  This
        is what lets :class:`~repro.simulation.batch.BatchRunner` replay
        one instance under N policies x M trials without N*M
        reallocations.  Returns ``self`` for chaining.
        """
        if context is not None:
            if instance is not None and context.instance is not instance:
                raise ConfigurationError(
                    "reset(): context and instance arguments disagree"
                )
            if context.backend != self.backend:
                raise ConfigurationError(
                    f"replay context targets backend {context.backend!r}, "
                    f"engine uses {self.backend!r}"
                )
            instance = context.instance
        if instance is not None and instance is not self.instance:
            self.instance = instance
            self._ctx = None  # stale context: rebuilt lazily (or adopted below)
        if context is not None:
            self._ctx = context
        if policy is not None:
            self._apply_policy(policy)
        if seed is not None:
            self.seed = int(seed)
        if collector is not _UNSET:
            self.collector = collector
        self._ran = False
        return self

    # ------------------------------------------------------------------
    def run(self) -> Packing:
        """Execute the full event stream and return the final packing.

        Like the classic engine, a :class:`FastEngine` is single-use: a
        second call raises :class:`~repro.core.errors.AlgorithmError`
        unless the engine is explicitly re-armed with :meth:`reset`.
        """
        return Packing.from_assignment(
            self.instance, self._execute(), algorithm=self.name
        )

    def run_assignment(self) -> Dict[int, int]:
        """Execute the replay and return the raw uid → bin-id assignment.

        Skips :class:`~repro.core.packing.Packing` construction — the
        batched sweep path derives Eq. 1 cost and the bin count directly
        from the assignment (bit-identically) instead of materialising
        per-bin objects.  Same single-use/:meth:`reset` contract as
        :meth:`run`.
        """
        return self._execute()

    def run_trials(self, seeds) -> List[Dict[int, int]]:
        """Replay one instance under many ``random_fit`` seeds in one call.

        Every seed replays through the re-armed engine, so the
        :class:`ReplayContext` (event index, sizes, slack) and the
        scratch buffers serve all of them; only the draw stream differs
        per trial.  Returns one assignment per seed, each bit-identical
        to a fresh single run with that seed.

        The call re-arms the engine itself, so it also works after a
        prior :meth:`run`; it leaves :attr:`seed` as it found it and the
        engine spent, like :meth:`run`.
        """
        if self._base != "random_fit":
            raise ConfigurationError(
                "run_trials() batches seeded trials; only random_fit consumes "
                f"the seed (engine policy is {self.policy!r})"
            )
        seed_list = [int(s) for s in seeds]
        seed = self.seed
        try:
            return [self.reset(seed=s)._execute() for s in seed_list]
        finally:
            self.seed = seed

    def _execute(self) -> Dict[int, int]:
        if self._ran:
            raise AlgorithmError(
                "FastEngine instances are single-use; build a new one or call reset()"
            )
        self._ran = True
        col = self.collector
        t_run = perf_counter() if col is not None else 0.0
        if col is not None:
            col.run_started(self.instance, self)
        if self.backend == PYTHON_BACKEND or self._base == "next_fit":
            # Next Fit inspects exactly one bin per arrival, so numpy row
            # operations cost more in dispatch than they compute; both
            # backends run it through the python kernel (bit-identical:
            # the same IEEE-754 adds and compares).
            assignment = self._replay_python(col)
        else:
            assignment = self._replay_numpy(col)
        if col is not None:
            col.fastpath_runs += 1
            col.note_fastpath_backend(self.backend)
            col.run_finished(
                perf_counter() - t_run,
                context={"instance": self.instance.name, "n": self.instance.n,
                         "engine": "fast", "backend": self.backend},
            )
        return assignment

    def _context(self) -> ReplayContext:
        ctx = self._ctx
        if ctx is None or ctx.instance is not self.instance:
            ctx = self._ctx = ReplayContext(self.instance, self.backend)
        return ctx

    # ------------------------------------------------------------------
    # numpy backend
    # ------------------------------------------------------------------
    def _replay_numpy(self, col: Optional[StatsCollector]) -> Dict[int, int]:
        np = _np
        inst = self.instance
        items = inst.items
        n = len(items)
        timing = col is not None
        if n == 0:
            if timing:
                col.record_run_totals(0, 0, 0, 0, 0, 0.0)
            return {}
        d = inst.d
        ctx = self._context()
        slack = ctx.slack
        sizes = ctx.sizes
        order = ctx.order

        base = self._base
        measure = self._measure
        p_exp = self._p
        inv_p = 1.0 / p_exp if p_exp else 0.0
        mtf = base == "move_to_front"
        bf = base == "best_fit"
        wf = base == "worst_fit"
        ff = base == "first_fit"
        lf = base == "last_fit"
        ranked = bf or wf
        linf_m = measure == "linf"
        l1_m = measure == "l1"
        rng = np.random.default_rng(self.seed) if base == "random_fit" else None

        # Residuals live **transposed** -- one (d, slots) matrix -- so the
        # fit test runs as d - 1 chained row ANDs over contiguous rows
        # instead of an axis-1 logical_and.reduce, which costs ~2x as
        # much at this kernel's slot counts (tens of open bins).  Reuse
        # the scratch buffers from a previous (reset) run when the
        # dimensionality matches.  No zeroing needed: a slot column only
        # becomes visible to the kernels (all reads are over [:n_slots])
        # after an open writes that column, and compaction shrinks the
        # visible prefix.
        loads = self._scratch_loads
        if loads is not None and loads.shape[0] == d:
            cap_slots = loads.shape[1]
            fit_buf = self._scratch_fit
            ok_buf = self._scratch_ok
            mask_buf = self._scratch_mask
            w_buf = self._scratch_w
            stamp_buf = self._scratch_stamp
        else:
            cap_slots = _INITIAL_SLOTS
            loads = np.zeros((d, cap_slots), dtype=np.float64)
            # out= targets of the per-arrival kernels: loads + size, the
            # per-dimension comparison, and the fit mask; plus the
            # per-slot weight (best/worst fit) and recency-stamp
            # (move_to_front) vectors.  Preallocating removes every
            # per-arrival temporary allocation from the hot loop.
            fit_buf = np.empty((d, cap_slots), dtype=np.float64)
            ok_buf = np.empty((d, cap_slots), dtype=bool)
            mask_buf = np.empty(cap_slots, dtype=bool)
            w_buf = np.empty(cap_slots, dtype=np.float64)
            stamp_buf = np.empty(cap_slots, dtype=np.float64)
        sizes_col = sizes.reshape(n, d, 1)  # per-item (d, 1) broadcast views
        slack_col = slack.reshape(d, 1)
        residents: List[List[int]] = []  # item positions per slot, pack order
        slot_bin: List[int] = []  # slot -> bin id
        alive: List[bool] = []  # compaction bookkeeping; not in the hot path
        slot_of: Dict[int, int] = {}  # bin id -> slot
        bin_of = [0] * n  # item position -> bin id
        n_slots = n_dead = open_count = bin_count = 0
        tcount = 0  # MTF recency stamps: later placement = higher stamp
        stale = self._stale_residual_bug
        neg_inf = -np.inf
        pos_inf = np.inf

        # Hoisted C entry points.  ``np.add.reduce`` is deliberate where
        # it appears: the ``np.sum`` wrapper adds several microseconds of
        # pure-Python dispatch per call and reduces with the identical
        # pairwise routine.
        np_add = np.add
        np_less_equal = np.less_equal
        np_logical_and = np.logical_and
        np_add_reduce = np.add.reduce
        np_power = np.power
        np_where = np.where
        np_accumulate = np.add.accumulate

        pc = perf_counter
        scans = checks = peak_open = closed = 0
        dispatch_s = 0.0

        # Per-``m`` view cache: slicing the buffers per arrival costs
        # more than the kernels themselves when the open list is stable,
        # and ``m`` only changes on open/compact/grow.
        view_m = -1
        loads_m = tmp = ok2 = mask = wv = st = None
        ok_rows: List = []

        for ev in order:  # already python ints (ReplayContext pre-lists)
            if ev < n:  # ---------------------------------- arrival
                pos = ev
                if timing:
                    t0 = pc()
                slot = -1
                if n_slots:
                    if timing and open_count:
                        # Same semantics as the classic hot path: one
                        # scan per arrival with a non-empty open list,
                        # one fit check per open bin it inspects.
                        scans += 1
                        checks += open_count
                    m = n_slots
                    if m != view_m:
                        view_m = m
                        loads_m = loads[:, :m]
                        tmp = fit_buf[:, :m]
                        ok2 = ok_buf[:, :m]
                        ok_rows = [ok2[j] for j in range(d)]
                        mask = ok_rows[0] if d == 1 else mask_buf[:m]
                        wv = w_buf[:m]
                        st = stamp_buf[:m]
                    np_add(loads_m, sizes_col[pos], out=tmp)
                    np_less_equal(tmp, slack_col, out=ok2)
                    if d > 1:
                        np_logical_and(ok_rows[0], ok_rows[1], out=mask)
                        for j in range(2, d):
                            np_logical_and(mask, ok_rows[j], out=mask)
                    # Closed slots hold +inf residuals (written at close
                    # time), so the fit test rejects them without a
                    # separate alive conjunction.
                    if mtf:
                        # first fitting bin in recency order == fitting
                        # slot with the highest (unique) stamp
                        sel = int(np_where(mask, st, neg_inf).argmax())
                        if mask[sel]:
                            slot = sel
                    elif ff:
                        sel = int(mask.argmax())
                        if mask[sel]:
                            slot = sel
                    elif lf:
                        sel = m - 1 - int(mask[::-1].argmax())
                        if mask[sel]:
                            slot = sel
                    elif ranked:
                        # argmax/argmin keep the first occurrence, i.e.
                        # the earliest-opened bin -- the classic
                        # tie-break.
                        if bf:
                            sel = int(np_where(mask, wv, neg_inf).argmax())
                        else:
                            sel = int(np_where(mask, wv, pos_inf).argmin())
                        if mask[sel]:
                            slot = sel
                    else:  # random_fit: same draw count/modulus as classic
                        fitting = mask.nonzero()[0]
                        if fitting.size:
                            slot = int(fitting[int(rng.integers(fitting.size))])

                size = sizes[pos]
                if slot >= 0:
                    opened_new = False
                    bid = slot_bin[slot]
                    colv = loads[:, slot]
                    np_add(colv, size, out=colv)
                    residents[slot].append(pos)
                else:
                    opened_new = True
                    bid = bin_count
                    bin_count += 1
                    if n_slots == cap_slots:
                        cap_slots *= 2
                        grown = np.zeros((d, cap_slots), dtype=np.float64)
                        grown[:, :n_slots] = loads
                        loads = grown
                        fit_buf = np.empty((d, cap_slots), dtype=np.float64)
                        ok_buf = np.empty((d, cap_slots), dtype=bool)
                        mask_buf = np.empty(cap_slots, dtype=bool)
                        grown_w = np.empty(cap_slots, dtype=np.float64)
                        grown_w[:n_slots] = w_buf[:n_slots]
                        w_buf = grown_w
                        grown_s = np.empty(cap_slots, dtype=np.float64)
                        grown_s[:n_slots] = stamp_buf[:n_slots]
                        stamp_buf = grown_s
                        view_m = -1  # views point at the old buffers
                    slot = n_slots
                    n_slots += 1
                    slot_bin.append(bid)
                    alive.append(True)
                    colv = loads[:, slot]
                    colv[:] = size  # bitwise equal to zeros + size
                    residents.append([pos])
                    slot_of[bid] = slot
                    open_count += 1
                bin_of[pos] = bid
                if ranked:
                    # Incremental per-slot weight: the same measure
                    # function of the same load vector the classic scan
                    # would evaluate, computed once per mutation instead
                    # of once per candidate per arrival.
                    if linf_m:
                        w_buf[slot] = max(colv.tolist())  # exact: no rounding
                    elif l1_m:
                        # contiguous copy so np.add.reduce follows the
                        # same pairwise routine as the classic np.sum
                        # over a bin's (contiguous) load vector
                        w_buf[slot] = np_add_reduce(colv.copy())
                    else:  # lp: (sum(v**p)) ** (1/p)
                        rc = colv.copy()
                        np_power(rc, p_exp, out=rc)  # ufunc pow, as classic v**p
                        # outer root via C pow (python float **), matching
                        # the classic np.float64.__pow__ -- numpy's
                        # vectorized power loop drifts from it in the
                        # last ulp
                        w_buf[slot] = float(np_add_reduce(rc)) ** inv_p
                elif mtf:
                    stamp_buf[slot] = tcount  # move to front of recency order
                    tcount += 1
                if timing:
                    dispatch_s += pc() - t0
                    if opened_new and open_count > peak_open:
                        peak_open = open_count
            else:  # ---------------------------------------- departure
                pos = ev - n
                bid = bin_of[pos]
                slot = slot_of[bid]
                res = residents[slot]
                res.remove(pos)
                if res:
                    if not stale:
                        # Re-sum sequentially in pack order, exactly like
                        # Bin.remove -- see "Bit-identity contract" above.
                        # ufunc.accumulate is a sequential left-to-right
                        # recurrence (never pairwise), so the running sum
                        # is bitwise identical to the explicit loop; the
                        # one- and two-resident shortcuts are the same
                        # sum with fewer dispatches (0 + a == a and
                        # (0 + a) + b == a + b exactly).
                        lr = len(res)
                        colv = loads[:, slot]
                        if lr == 1:
                            colv[:] = sizes[res[0]]
                        elif lr == 2:
                            np_add(sizes[res[0]], sizes[res[1]], out=colv)
                        else:
                            acc = sizes[res]
                            np_accumulate(acc, axis=0, out=acc)
                            colv[:] = acc[-1]
                        if ranked:
                            if linf_m:
                                w_buf[slot] = max(colv.tolist())
                            elif l1_m:
                                w_buf[slot] = np_add_reduce(colv.copy())
                            else:
                                rc = colv.copy()
                                np_power(rc, p_exp, out=rc)
                                w_buf[slot] = float(np_add_reduce(rc)) ** inv_p
                else:
                    alive[slot] = False
                    loads[:, slot] = pos_inf  # hard-reject in the fit test
                    del slot_of[bid]
                    n_dead += 1
                    open_count -= 1
                    if timing:
                        closed += 1
                    if n_dead >= _COMPACT_MIN_DEAD and 2 * n_dead >= n_slots:
                        keep = [s for s in range(n_slots) if alive[s]]
                        k = len(keep)
                        idx = np.asarray(keep, dtype=np.intp)
                        loads[:, :k] = loads[:, idx]  # stable: opening order
                        if ranked:
                            w_buf[:k] = w_buf[idx]
                        elif mtf:
                            stamp_buf[:k] = stamp_buf[idx]
                        slot_bin[:] = [slot_bin[s] for s in keep]
                        alive[:] = [True] * k
                        residents[:] = [residents[s] for s in keep]
                        slot_of.clear()
                        for s in range(k):
                            slot_of[slot_bin[s]] = s
                        n_slots = k
                        n_dead = 0
                        view_m = -1  # the open prefix shrank

        if timing:
            col.record_run_totals(
                arrivals=n,
                departures=n,
                bins_opened=bin_count,
                bins_closed=closed,
                peak_open_bins=peak_open,
                dispatch_time_s=dispatch_s,
            )
            col.candidate_scans += scans
            col.fit_checks += checks
        self._scratch_loads = loads
        self._scratch_fit = fit_buf
        self._scratch_ok = ok_buf
        self._scratch_mask = mask_buf
        self._scratch_w = w_buf
        self._scratch_stamp = stamp_buf
        uids = ctx.uids
        return {uids[pos]: bin_of[pos] for pos in range(n)}

    # ------------------------------------------------------------------
    # pure-python backend
    # ------------------------------------------------------------------
    def _replay_python(self, col: Optional[StatsCollector]) -> Dict[int, int]:
        inst = self.instance
        items = inst.items
        n = len(items)
        timing = col is not None
        if n == 0:
            if timing:
                col.record_run_totals(0, 0, 0, 0, 0, 0.0)
            return {}
        d = inst.d
        ctx = self._context()
        sizes, slack = ctx.python_layout()
        order = ctx.order

        base = self._base
        measure = self._measure
        p_exp = self._p
        mtf = base == "move_to_front"
        nf = base == "next_fit"
        rng = _np.random.default_rng(self.seed) if base == "random_fit" else None

        if measure == "linf":
            # builtin max performs no arithmetic, so it agrees bitwise
            # with the classic float(np.max(load)).
            def slot_weight(s: int) -> float:
                return max(loads[s])

        elif measure == "l1":
            # The classic l1 is float(np.sum(load)) — numpy's pairwise
            # reduction, which differs bitwise from Python's sequential
            # builtin sum for d >= 8.  Route through numpy to match.
            def slot_weight(s: int) -> float:
                return float(_np.sum(_np.asarray(loads[s])))

        else:  # lp

            def slot_weight(s: int) -> float:
                row = _np.asarray(loads[s])
                return float(_np.sum(row**p_exp) ** (1.0 / p_exp))

        loads: List[List[float]] = []  # one row per slot (no preallocation)
        slot_bin: List[int] = []
        alive: List[bool] = []
        residents: List[List[int]] = []
        slot_of: Dict[int, int] = {}
        bin_of = [0] * n
        recency: List[int] = []
        current = -1
        n_slots = n_dead = open_count = bin_count = 0
        stale = self._stale_residual_bug
        dims = range(d)

        pc = perf_counter
        scans = checks = peak_open = closed = 0
        dispatch_s = 0.0

        def fits_slot(s: int, size: List[float]) -> bool:
            # Same IEEE-754 double add/compare numpy applies elementwise.
            row = loads[s]
            for j in dims:
                if row[j] + size[j] > slack[j]:
                    return False
            return True

        for ev in order:
            if ev < n:  # ---------------------------------- arrival
                pos = ev
                if timing:
                    t0 = pc()
                size = sizes[pos]
                slot = -1
                if nf:
                    if current >= 0:
                        if timing:
                            scans += 1
                            checks += 1
                        s = slot_of[current]
                        if fits_slot(s, size):
                            slot = s
                elif open_count:
                    if timing:
                        scans += 1
                        checks += open_count
                    if mtf:
                        for bid in recency:
                            s = slot_of[bid]
                            if fits_slot(s, size):
                                slot = s
                                break
                    elif base == "first_fit":
                        for s in range(n_slots):
                            if alive[s] and fits_slot(s, size):
                                slot = s
                                break
                    elif base == "last_fit":
                        for s in range(n_slots - 1, -1, -1):
                            if alive[s] and fits_slot(s, size):
                                slot = s
                                break
                    elif base == "best_fit":
                        best_w = 0.0
                        for s in range(n_slots):
                            if alive[s] and fits_slot(s, size):
                                w = slot_weight(s)
                                # strict > keeps the earliest-opened bin
                                # on ties, the classic tie-break
                                if slot < 0 or w > best_w:
                                    slot, best_w = s, w
                    elif base == "worst_fit":
                        worst_w = 0.0
                        for s in range(n_slots):
                            if alive[s] and fits_slot(s, size):
                                w = slot_weight(s)
                                if slot < 0 or w < worst_w:
                                    slot, worst_w = s, w
                    else:  # random_fit
                        fitting = [
                            s for s in range(n_slots) if alive[s] and fits_slot(s, size)
                        ]
                        if fitting:
                            slot = fitting[int(rng.integers(len(fitting)))]

                if slot >= 0:
                    opened_new = False
                    bid = slot_bin[slot]
                    row = loads[slot]
                    for j in dims:
                        row[j] += size[j]
                    residents[slot].append(pos)
                else:
                    opened_new = True
                    bid = bin_count
                    bin_count += 1
                    slot = n_slots
                    n_slots += 1
                    slot_bin.append(bid)
                    alive.append(True)
                    loads.append(list(size))  # 0.0 + x == x exactly
                    residents.append([pos])
                    slot_of[bid] = slot
                    open_count += 1
                    if nf:
                        current = bid
                bin_of[pos] = bid
                if mtf and (not recency or recency[0] != bid):
                    if not opened_new:
                        recency.remove(bid)
                    recency.insert(0, bid)
                if timing:
                    dispatch_s += pc() - t0
                    if opened_new and open_count > peak_open:
                        peak_open = open_count
            else:  # ---------------------------------------- departure
                pos = ev - n
                bid = bin_of[pos]
                slot = slot_of[bid]
                res = residents[slot]
                res.remove(pos)
                if res:
                    if not stale:
                        row = [0.0] * d
                        for p in res:
                            sp = sizes[p]
                            for j in dims:
                                row[j] += sp[j]
                        loads[slot] = row
                else:
                    alive[slot] = False
                    del slot_of[bid]
                    n_dead += 1
                    open_count -= 1
                    if timing:
                        closed += 1
                    if mtf:
                        recency.remove(bid)
                    elif nf and current == bid:
                        current = -1
                    if n_dead >= _COMPACT_MIN_DEAD and 2 * n_dead >= n_slots:
                        keep = [s for s in range(n_slots) if alive[s]]
                        loads[:] = [loads[s] for s in keep]
                        slot_bin[:] = [slot_bin[s] for s in keep]
                        residents[:] = [residents[s] for s in keep]
                        alive[:] = [True] * len(keep)
                        slot_of.clear()
                        for s, bid_ in enumerate(slot_bin):
                            slot_of[bid_] = s
                        n_slots = len(keep)
                        n_dead = 0

        if timing:
            col.record_run_totals(
                arrivals=n,
                departures=n,
                bins_opened=bin_count,
                bins_closed=closed,
                peak_open_bins=peak_open,
                dispatch_time_s=dispatch_s,
            )
            col.candidate_scans += scans
            col.fit_checks += checks
        uids = ctx.uids
        return {uids[pos]: bin_of[pos] for pos in range(n)}
