"""Discrete-event simulation of online DVBP packing."""

from .billing import (
    BilledSummary,
    QuantumAwareMoveToFront,
    billed_cost,
    billing_overhead,
    summarize_billing,
)
from .batch import (
    BatchRunner,
    InstanceSpec,
    batch_run_many,
    clear_instance_cache,
    instance_cache_info,
    materialize,
    register_spec_generator,
    spec_batch,
)
from .engine import Engine, SimulationObserver, simulate
from .fastpath import (
    FAST_POLICIES,
    FastEngine,
    ReplayContext,
    available_backends,
    choose_backend,
    default_backend,
    fast_policy_for,
    fast_simulate,
    register_kernel_class,
)
from .instrumentation import LeaderTracker, LoadSnapshotter, UsagePeriodTracker
from .metrics import (
    PackingMetrics,
    compute_metrics,
    cost_breakdown_by_bin,
    open_bins_timeline,
)
from .parallel import UnitResult, aggregate_sweep_stats, parallel_sweep
from .runner import compare_algorithms, run, run_many
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "BatchRunner",
    "BilledSummary",
    "Engine",
    "InstanceSpec",
    "QuantumAwareMoveToFront",
    "batch_run_many",
    "billed_cost",
    "billing_overhead",
    "clear_instance_cache",
    "instance_cache_info",
    "materialize",
    "register_spec_generator",
    "spec_batch",
    "summarize_billing",
    "FAST_POLICIES",
    "FastEngine",
    "ReplayContext",
    "available_backends",
    "choose_backend",
    "default_backend",
    "fast_policy_for",
    "fast_simulate",
    "register_kernel_class",
    "LeaderTracker",
    "LoadSnapshotter",
    "PackingMetrics",
    "SimulationObserver",
    "TraceRecord",
    "TraceRecorder",
    "UnitResult",
    "aggregate_sweep_stats",
    "parallel_sweep",
    "UsagePeriodTracker",
    "compare_algorithms",
    "compute_metrics",
    "cost_breakdown_by_bin",
    "open_bins_timeline",
    "run",
    "run_many",
    "simulate",
]
