"""Per-run statistics: the structured record every instrumented run emits.

:class:`StatsCollector` is the mutable object the engine (and the Any
Fit hot path) write into while a simulation runs; :class:`RunStats` is
the immutable snapshot taken afterwards.  The split keeps the hot path
cheap — plain integer attribute stores, no dataclass churn per event —
while giving everything downstream (sinks, the bench harness, the
parallel sweep aggregation) a frozen, serialisable record.

Counter semantics
-----------------
``events`` / ``arrivals`` / ``departures``
    Events replayed by the engine (``events = arrivals + departures``).
``bins_opened`` / ``bins_closed`` / ``peak_open_bins``
    Bin lifecycle totals plus the peak simultaneously open count.
``candidate_scans`` / ``fit_checks``
    The Any Fit hot path: one *scan* per arrival that found a non-empty
    open list (scalar or numpy, see
    :data:`~repro.algorithms.base.SCALAR_SCAN_ROWS`), and one *fit
    check* per candidate bin that scan inspected.  ``fit_checks`` is
    the size of the work the dispatch loop does — the quantity perf PRs
    on the hot path must drive down.
``fastpath_runs``
    How many of the observed runs were executed by the flat-array
    :class:`~repro.simulation.fastpath.FastEngine` rather than the
    classic engine (0 for purely classic collectors).  The fast engine
    reports the same scan/check semantics, so this is the only counter
    telling the twin engines apart.
``fastpath_fallbacks``
    How many runs *requested* the fast engine but were executed by the
    classic engine instead — either because the policy has no fast
    kernel (ineligible) or because the kernel failed and the run
    degraded gracefully.  Deterministic for a fixed (algorithm,
    instance, engine-request) triple.
``fastpath_backend``
    Which kernel backend (``"numpy"``/``"python"``) executed the
    observed fastpath runs — ``""`` when no fastpath run was observed,
    ``"mixed"`` when several backends were.
    Recorded so bench and sweep regressions are attributable to a tier
    without re-deriving the chooser's decision; an execution fact, so
    :meth:`RunStats.deterministic_part` zeroes it like
    ``streaming_runs``.
``streaming_runs`` / ``stream_flushes`` / ``peak_live_items``
    The streaming-engine path (:mod:`repro.streaming`): how many runs
    the streaming engine executed, how many periodic cost flushes it
    emitted, and the peak number of simultaneously live items it held
    (the quantity its O(peak-open-items) memory contract is stated in).
    Like the fault-recovery counters below, these describe *how* a run
    was executed — which engine, what flush cadence — not what it
    computed, so all three are zeroed in
    :meth:`RunStats.deterministic_part`: an instrumented-vs-plain or
    streaming-vs-classic differential must stay bit-identical on the
    deterministic part.
``repacking_runs`` / ``migrations``
    The migration-budget path (:mod:`repro.repacking`): how many runs
    the repacking engine executed and how many item relocations it
    performed in total.  ``repacking_runs`` is an execution fact (like
    ``streaming_runs``) and is zeroed in
    :meth:`RunStats.deterministic_part`; ``migrations`` is part of the
    *computation* — a budget-k run with moves is a genuinely different
    packing — and is kept, so the budget-0 differential still asserts
    ``migrations == 0`` implicitly through bit-identity.
``retries`` / ``unit_timeouts`` / ``units_resumed`` / ``pool_restarts``
    Orchestration-side fault-recovery counters (see
    :mod:`repro.orchestration`): work units re-executed after a worker
    fault, units abandoned for exceeding the per-unit timeout, units
    skipped on resume because a checkpoint already held their results,
    and process-pool respawns after a ``BrokenProcessPool`` (or a
    timeout-forced recycle).  These record what happened *to* the sweep,
    not what the sweep computed — they are excluded from
    :meth:`RunStats.deterministic_part` because an interrupted-and-
    resumed run must still aggregate bit-identically to an uninterrupted
    one.
``dispatch_time_s`` / ``wall_time_s``
    Wall-clock spent inside arrival dispatch (policy decision + pack)
    vs. the whole run (event replay + observer fan-out included).
``peak_rss_bytes``
    Optional process peak RSS sampled at run end (``None`` when
    sampling is off or the platform lacks :mod:`resource`).

All counters are deterministic for a fixed (algorithm, instance) pair;
only the two wall-time fields and RSS vary between repeats.  Equality
of the deterministic part is what the cross-process aggregation tests
assert.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, Iterable, Mapping, Optional

try:  # POSIX-only; the collector degrades gracefully without it
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["RunStats", "StatsCollector"]


def _peak_rss_bytes() -> Optional[int]:
    """Current process peak RSS in bytes, or ``None`` if unavailable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes using the platform convention.
    """
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    import sys

    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


@dataclass(frozen=True)
class RunStats:
    """Immutable per-run (or aggregated multi-run) statistics record."""

    algorithm: str = ""
    runs: int = 0
    events: int = 0
    arrivals: int = 0
    departures: int = 0
    bins_opened: int = 0
    bins_closed: int = 0
    peak_open_bins: int = 0
    candidate_scans: int = 0
    fit_checks: int = 0
    fastpath_runs: int = 0
    fastpath_fallbacks: int = 0
    fastpath_backend: str = ""
    streaming_runs: int = 0
    stream_flushes: int = 0
    peak_live_items: int = 0
    repacking_runs: int = 0
    migrations: int = 0
    retries: int = 0
    unit_timeouts: int = 0
    units_resumed: int = 0
    pool_restarts: int = 0
    dispatch_time_s: float = 0.0
    wall_time_s: float = 0.0
    peak_rss_bytes: Optional[int] = None

    @property
    def events_per_sec(self) -> float:
        """Event throughput over the whole run (0.0 for a zero-time run)."""
        return self.events / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def checks_per_scan(self) -> float:
        """Mean open-list length seen by the vectorised fit check."""
        return self.fit_checks / self.candidate_scans if self.candidate_scans else 0.0

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form, including the derived throughput fields."""
        out = asdict(self)
        out["events_per_sec"] = self.events_per_sec
        out["checks_per_scan"] = self.checks_per_scan
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunStats":
        """Rebuild from :meth:`to_dict` output (derived fields ignored)."""
        fields = {f for f in cls.__dataclass_fields__}  # noqa: C416 - py39
        return cls(**{k: v for k, v in data.items() if k in fields})

    def to_json(self) -> str:
        """Single-line JSON form (the JSON-lines sink record payload)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunStats":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- aggregation ----------------------------------------------------
    @classmethod
    def aggregate(cls, parts: Iterable["RunStats"]) -> "RunStats":
        """Combine records from several runs (or several worker processes).

        Counters and times sum; peaks take the max (each worker's peak is
        a valid lower bound on its own process peak, and peaks are not
        additive across processes); ``algorithm`` is kept when unanimous
        and set to ``"mixed"`` otherwise.
        """
        parts = list(parts)
        if not parts:
            return cls()
        names = {p.algorithm for p in parts}
        backends = {p.fastpath_backend for p in parts if p.fastpath_backend}
        rss = [p.peak_rss_bytes for p in parts if p.peak_rss_bytes is not None]
        return cls(
            algorithm=names.pop() if len(names) == 1 else "mixed",
            runs=sum(p.runs for p in parts),
            events=sum(p.events for p in parts),
            arrivals=sum(p.arrivals for p in parts),
            departures=sum(p.departures for p in parts),
            bins_opened=sum(p.bins_opened for p in parts),
            bins_closed=sum(p.bins_closed for p in parts),
            peak_open_bins=max(p.peak_open_bins for p in parts),
            candidate_scans=sum(p.candidate_scans for p in parts),
            fit_checks=sum(p.fit_checks for p in parts),
            fastpath_runs=sum(p.fastpath_runs for p in parts),
            fastpath_fallbacks=sum(p.fastpath_fallbacks for p in parts),
            fastpath_backend=(
                backends.pop() if len(backends) == 1 else ("mixed" if backends else "")
            ),
            streaming_runs=sum(p.streaming_runs for p in parts),
            stream_flushes=sum(p.stream_flushes for p in parts),
            peak_live_items=max(p.peak_live_items for p in parts),
            repacking_runs=sum(p.repacking_runs for p in parts),
            migrations=sum(p.migrations for p in parts),
            retries=sum(p.retries for p in parts),
            unit_timeouts=sum(p.unit_timeouts for p in parts),
            units_resumed=sum(p.units_resumed for p in parts),
            pool_restarts=sum(p.pool_restarts for p in parts),
            dispatch_time_s=sum(p.dispatch_time_s for p in parts),
            wall_time_s=sum(p.wall_time_s for p in parts),
            peak_rss_bytes=max(rss) if rss else None,
        )

    def deterministic_part(self) -> "RunStats":
        """Copy with the timing/RSS and fault-recovery fields zeroed.

        Two runs of the same (algorithm, instance) pair — serial, across
        processes, or interrupted-and-resumed — must agree exactly on
        this part; tests, the parallel aggregation check, and the
        resume-determinism oracle compare it.  The fault-recovery
        counters (``retries``/``unit_timeouts``/``units_resumed``/
        ``pool_restarts``) describe the *execution history*, not the
        computation, so they are zeroed alongside the timings — and so
        do the streaming-path counters (``streaming_runs``/
        ``stream_flushes``/``peak_live_items``): which engine executed a
        run and how often it flushed are execution facts, and the
        classic engine does not track live items at all, so leaving any
        of them in would break the instrumented-vs-plain and
        streaming-vs-classic bit-identity differentials.
        """
        return replace(
            self,
            fastpath_backend="",
            streaming_runs=0,
            stream_flushes=0,
            peak_live_items=0,
            repacking_runs=0,
            retries=0,
            unit_timeouts=0,
            units_resumed=0,
            pool_restarts=0,
            dispatch_time_s=0.0,
            wall_time_s=0.0,
            peak_rss_bytes=None,
        )


class StatsCollector:
    """Mutable accumulator the engine writes into during a run.

    One collector may observe any number of runs (the bench harness
    reuses one per scenario cell); counters accumulate across runs and
    :meth:`snapshot` freezes the running totals into a
    :class:`RunStats`.  The Any Fit base class increments
    ``candidate_scans`` / ``fit_checks`` directly on this object — plain
    attribute adds, the cheapest hook Python offers.

    Parameters
    ----------
    sink:
        Optional :class:`~repro.observability.sinks.TraceSink`; each
        finished run is emitted as a ``"run"`` record.
    sample_rss:
        When ``True``, record process peak RSS at every run end.
    """

    __slots__ = (
        "sink",
        "sample_rss",
        "algorithm",
        "runs",
        "arrivals",
        "departures",
        "bins_opened",
        "bins_closed",
        "peak_open_bins",
        "candidate_scans",
        "fit_checks",
        "fastpath_runs",
        "fastpath_fallbacks",
        "fastpath_backend",
        "streaming_runs",
        "stream_flushes",
        "peak_live_items",
        "repacking_runs",
        "migrations",
        "retries",
        "unit_timeouts",
        "units_resumed",
        "pool_restarts",
        "dispatch_time_s",
        "wall_time_s",
        "peak_rss_bytes",
    )

    def __init__(self, sink=None, sample_rss: bool = False) -> None:
        self.sink = sink
        self.sample_rss = sample_rss
        self.algorithm = ""
        self.runs = 0
        self.arrivals = 0
        self.departures = 0
        self.bins_opened = 0
        self.bins_closed = 0
        self.peak_open_bins = 0
        self.candidate_scans = 0
        self.fit_checks = 0
        self.fastpath_runs = 0
        self.fastpath_fallbacks = 0
        self.fastpath_backend = ""
        self.streaming_runs = 0
        self.stream_flushes = 0
        self.peak_live_items = 0
        self.repacking_runs = 0
        self.migrations = 0
        self.retries = 0
        self.unit_timeouts = 0
        self.units_resumed = 0
        self.pool_restarts = 0
        self.dispatch_time_s = 0.0
        self.wall_time_s = 0.0
        self.peak_rss_bytes: Optional[int] = None

    # -- orchestration hooks (sweep-level fault recovery) ---------------
    def record_fault_event(self, kind: str, count: int = 1) -> None:
        """Count one orchestration fault-recovery event.

        ``kind`` is one of ``"retry"``, ``"unit_timeout"``,
        ``"unit_resumed"``, ``"pool_restart"``, ``"fastpath_fallback"``
        — the counter of the same family is bumped by ``count`` and,
        when a sink is attached, a trace event of that kind is emitted.
        Unknown kinds raise :class:`ValueError` (a typo here would
        silently lose fault telemetry otherwise).
        """
        if kind == "retry":
            self.retries += count
        elif kind == "unit_timeout":
            self.unit_timeouts += count
        elif kind == "unit_resumed":
            self.units_resumed += count
        elif kind == "pool_restart":
            self.pool_restarts += count
        elif kind == "fastpath_fallback":
            self.fastpath_fallbacks += count
        else:
            raise ValueError(f"unknown fault event kind {kind!r}")

    # -- engine hooks -------------------------------------------------------
    def run_started(self, instance, algorithm) -> None:
        """Note the policy name of the run that starts."""
        self.algorithm = getattr(algorithm, "name", type(algorithm).__name__)

    def record_run_totals(
        self,
        arrivals: int,
        departures: int,
        bins_opened: int,
        bins_closed: int,
        peak_open_bins: int,
        dispatch_time_s: float,
    ) -> None:
        """Add one run's lifecycle totals.

        An engine's :class:`~repro.simulation.live.LivePacking` core
        counts per event in its own collector, and the engine pushes the
        totals here once per run.
        """
        self.arrivals += arrivals
        self.departures += departures
        self.bins_opened += bins_opened
        self.bins_closed += bins_closed
        if peak_open_bins > self.peak_open_bins:
            self.peak_open_bins = peak_open_bins
        self.dispatch_time_s += dispatch_time_s

    def note_fastpath_backend(self, backend: str) -> None:
        """Record which kernel backend executed a fastpath run.

        The first noted backend is kept; observing a different one later
        degrades the field to ``"mixed"`` (same unanimity rule as
        :meth:`RunStats.aggregate` applies across processes).
        """
        if not backend:
            return
        current = self.fastpath_backend
        if not current:
            self.fastpath_backend = backend
        elif current != backend:
            self.fastpath_backend = "mixed"

    def run_finished(self, wall_time_s: float, context: Optional[Mapping[str, Any]] = None) -> None:
        """Close out one run: totals, optional RSS sample, sink emission."""
        self.runs += 1
        self.wall_time_s += wall_time_s
        if self.sample_rss:
            rss = _peak_rss_bytes()
            if rss is not None:
                self.peak_rss_bytes = max(self.peak_rss_bytes or 0, rss)
        if self.sink is not None:
            record = self.snapshot().to_dict()
            if context:
                record.update(context)
            self.sink.emit("run", record)

    # -- reading --------------------------------------------------------
    def snapshot(self) -> RunStats:
        """Freeze the running totals into an immutable :class:`RunStats`."""
        return RunStats(
            algorithm=self.algorithm,
            runs=self.runs,
            events=self.arrivals + self.departures,
            arrivals=self.arrivals,
            departures=self.departures,
            bins_opened=self.bins_opened,
            bins_closed=self.bins_closed,
            peak_open_bins=self.peak_open_bins,
            candidate_scans=self.candidate_scans,
            fit_checks=self.fit_checks,
            fastpath_runs=self.fastpath_runs,
            fastpath_fallbacks=self.fastpath_fallbacks,
            fastpath_backend=self.fastpath_backend,
            streaming_runs=self.streaming_runs,
            stream_flushes=self.stream_flushes,
            peak_live_items=self.peak_live_items,
            repacking_runs=self.repacking_runs,
            migrations=self.migrations,
            retries=self.retries,
            unit_timeouts=self.unit_timeouts,
            units_resumed=self.units_resumed,
            pool_restarts=self.pool_restarts,
            dispatch_time_s=self.dispatch_time_s,
            wall_time_s=self.wall_time_s,
            peak_rss_bytes=self.peak_rss_bytes,
        )

    def reset(self) -> None:
        """Zero every accumulator (the sink binding is kept)."""
        self.algorithm = ""
        self.runs = 0
        self.arrivals = 0
        self.departures = 0
        self.bins_opened = 0
        self.bins_closed = 0
        self.peak_open_bins = 0
        self.candidate_scans = 0
        self.fit_checks = 0
        self.fastpath_runs = 0
        self.fastpath_fallbacks = 0
        self.fastpath_backend = ""
        self.streaming_runs = 0
        self.stream_flushes = 0
        self.peak_live_items = 0
        self.repacking_runs = 0
        self.migrations = 0
        self.retries = 0
        self.unit_timeouts = 0
        self.units_resumed = 0
        self.pool_restarts = 0
        self.dispatch_time_s = 0.0
        self.wall_time_s = 0.0
        self.peak_rss_bytes = None
