"""Runtime observability: counters, timers, per-run stats, trace sinks.

The simulation engine is the hot path of every experiment, yet until
this layer existed the repo had no way to *measure* it — no per-phase
timings, no dispatch counters, no reproducible baseline to judge perf
PRs against.  This package provides that measurement plane:

* :mod:`repro.observability.metrics` — a low-overhead :class:`Counter` /
  :class:`Timer` pair and a :class:`MetricsRegistry` to group them;
* :mod:`repro.observability.stats` — :class:`RunStats` (the structured
  per-run record: events processed, bins opened, fit checks, dispatch
  wall-time, peak open bins, optional RSS) and the mutable
  :class:`StatsCollector` the engine writes into;
* :mod:`repro.observability.sinks` — the pluggable :class:`TraceSink`
  family (:class:`NullSink` no-op default, :class:`MemorySink`,
  JSON-lines :class:`JsonLinesSink`);
* :mod:`repro.observability.bench` — the pinned-seed benchmark suite
  behind ``benchmarks/harness.py`` and ``python -m repro bench``,
  which writes the ``BENCH_core.json`` perf trajectory file.

Instrumentation is strictly opt-in: with a ``None`` collector the one
engine loop reads no clock and counts no candidate scans, so tier-1
test timings are unaffected (see docs/observability.md for the measured
overhead protocol).
"""

from .metrics import Counter, MetricsRegistry, Timer
from .sinks import JsonLinesSink, MemorySink, NullSink, TraceSink
from .stats import RunStats, StatsCollector

#: Names served lazily from .bench via module __getattr__ (PEP 562).
#: The bench suite imports the simulation layer, and the simulation
#: engine imports this package for StatsCollector — loading bench
#: eagerly here would close that loop into a circular import.
_BENCH_EXPORTS = (
    "BenchScenario",
    "CORE_SCENARIOS",
    "SMOKE_SCENARIOS",
    "measure_overhead",
    "run_scenario",
    "run_suite",
    "write_bench",
)


def __getattr__(name):
    if name in _BENCH_EXPORTS:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BenchScenario",
    "CORE_SCENARIOS",
    "Counter",
    "JsonLinesSink",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "RunStats",
    "SMOKE_SCENARIOS",
    "StatsCollector",
    "Timer",
    "TraceSink",
    "measure_overhead",
    "run_scenario",
    "run_suite",
    "write_bench",
]
