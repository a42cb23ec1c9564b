"""Runtime observability: per-run stats and trace sinks.

The simulation engine is the hot path of every experiment, yet until
this layer existed the repo had no way to *measure* it — no per-phase
timings, no dispatch counters, no reproducible baseline to judge perf
PRs against.  This package provides that measurement plane:

* :mod:`repro.observability.stats` — :class:`RunStats` (the structured
  per-run record: events processed, bins opened, fit checks, dispatch
  wall-time, peak open bins, optional RSS) and the mutable
  :class:`StatsCollector` the engine writes into;
* :mod:`repro.observability.sinks` — the pluggable :class:`TraceSink`
  family (:class:`NullSink` no-op default, :class:`MemorySink`,
  JSON-lines :class:`JsonLinesSink`).

The perf suites that write ``BENCH_core.json`` live in :mod:`repro.bench`.

Instrumentation is strictly opt-in: with a ``None`` collector the one
engine loop reads no clock and counts no candidate scans, so tier-1
test timings are unaffected (see docs/observability.md for the measured
overhead protocol).
"""

from .sinks import JsonLinesSink, MemorySink, NullSink, TraceSink
from .stats import RunStats, StatsCollector

__all__ = [
    "JsonLinesSink",
    "MemorySink",
    "NullSink",
    "RunStats",
    "StatsCollector",
    "TraceSink",
]
