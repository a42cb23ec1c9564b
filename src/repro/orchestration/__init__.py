"""Fault-tolerant, resumable sweep orchestration.

This package makes long sweeps survive the failures that real runs hit:
worker crashes, hung units, dead process pools, and the orchestrator
itself being killed mid-run.  Three modules:

* :mod:`~repro.orchestration.checkpoint` — crash-safe sharded result
  persistence (append-only JSONL shards + hashed manifest, atomic
  renames) and the sweep fingerprint that binds a store to one sweep.
* :mod:`~repro.orchestration.faults` — retry/backoff primitives and the
  deterministic env-driven fault-injection harness (``REPRO_FAULT_*``).
* :mod:`~repro.orchestration.sweep` — the one serial/pooled loop that
  :func:`repro.simulation.parallel.parallel_sweep` runs every sweep's
  payloads through: checkpoint flushes, resume, retries, per-unit
  timeouts and pool recovery, bit-identical in output whether or not
  the run was interrupted.

The guiding invariant: **recovery never changes results**.  Retried
units re-run byte-identical payloads, resumed runs merge stored and
fresh units into exactly what an uninterrupted run returns, and the
:func:`repro.verify.resume_equality_check` oracle enforces this
end-to-end for both engines.
"""

from .checkpoint import (
    CheckpointStore,
    atomic_write,
    record_to_result,
    result_to_record,
    sweep_fingerprint,
)
from .faults import (
    ENV_FAULT_KILL_AFTER,
    ENV_FAULT_MODE,
    ENV_FAULT_TIMES,
    ENV_FAULT_UNITS,
    FaultPlan,
    InjectedWorkerFault,
    RetryPolicy,
    call_with_retry,
    fault_aware_unit,
)

__all__ = [
    "CheckpointStore",
    "atomic_write",
    "ENV_FAULT_KILL_AFTER",
    "ENV_FAULT_MODE",
    "ENV_FAULT_TIMES",
    "ENV_FAULT_UNITS",
    "FaultPlan",
    "InjectedWorkerFault",
    "RetryPolicy",
    "call_with_retry",
    "fault_aware_unit",
    "record_to_result",
    "result_to_record",
    "sweep_fingerprint",
]
