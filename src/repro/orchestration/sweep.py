"""The one serial/pooled loop that executes sweep payloads.

:func:`repro.simulation.parallel.parallel_sweep` builds a sweep's
payloads and hands them to :func:`execute`, which runs them in-process
(``processes=0``) or on a ``ProcessPoolExecutor`` with:

* **Checkpointing** — completed units stream into a
  :class:`~repro.orchestration.checkpoint.CheckpointStore` (append-only
  JSONL shards, atomic flushes), so a crash or ctrl-C loses at most the
  units completed since the last flush, and nothing that was flushed.
* **Resume** — with ``resume=True``, units already in the checkpoint are
  skipped (counted as ``units_resumed``); a payload holding only some
  completed units re-runs just the rest.  The merged output is
  bit-identical to an uninterrupted run, which the
  :func:`repro.verify.resume_equality_check` oracle enforces.
* **Per-payload retry** — a payload that raises is re-queued up to the
  policy's ``retries`` times with deterministic exponential backoff
  (:class:`~repro.orchestration.faults.RetryPolicy`); the attempt
  number lives outside the payload, so a retried payload computes
  exactly what the first attempt would have.
* **BrokenProcessPool recovery** — a worker death kills every in-flight
  future of a ``ProcessPoolExecutor``; the loop respawns the pool and
  re-queues all in-flight payloads with their attempt count bumped, so
  one crashing payload cannot take completed work (or innocent
  neighbours) down with it.
* **Per-payload timeout** — a payload running past ``unit_timeout``
  seconds cannot be cancelled in-place (the worker is busy), so the
  pool is recycled: workers are terminated, the expired payload
  re-queues with its attempt bumped, other in-flight payloads re-queue
  unchanged.
* **Graceful engine degradation** — ``engine="fast"`` units that hit a
  kernel failure fall back to the classic engine *inside the worker*
  (see :func:`repro.simulation.engine.simulate`), surfacing as
  ``fastpath_fallbacks`` in the unit's stats rather than as a fault.

Deterministic fault injection for tests and the CI kill-resume job is
driven entirely by ``REPRO_FAULT_*`` environment variables — see
:mod:`repro.orchestration.faults`.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.errors import UnitFailedError
from ..observability.sinks import TraceSink
from ..observability.stats import StatsCollector
from ..simulation.parallel import Payload, UnitResult, payload_unit_keys
from .checkpoint import CheckpointStore
from .faults import FaultPlan, RetryPolicy, fault_aware_unit

__all__ = ["execute"]


def _emit(sink: Optional[TraceSink], kind: str, payload: dict) -> None:
    if sink is not None:
        sink.emit(kind, payload)


class _SweepState:
    """Mutable bookkeeping shared by the serial and pooled executors."""

    def __init__(
        self,
        store: Optional[CheckpointStore],
        collector: StatsCollector,
        sink: Optional[TraceSink],
        flush_every: int,
        plan: FaultPlan,
    ) -> None:
        self.store = store
        self.collector = collector
        self.sink = sink
        self.flush_every = max(int(flush_every), 1)
        self.plan = plan
        self.results: List[UnitResult] = []
        self.since_flush = 0

    def complete(self, results: List[UnitResult]) -> int:
        """Record one payload's results; returns how many units it completed.

        Each unit is checkpointed on its own, so flush cadence and resume
        keys do not depend on how many units a payload carried.
        """
        for result in results:
            self.results.append(result)
            if self.store is not None:
                self.store.append(result)
                self.since_flush += 1
                if self.since_flush >= self.flush_every:
                    self.flush()
        return len(results)

    def flush(self) -> None:
        if self.store is not None and self.since_flush:
            self.store.flush()
            self.since_flush = 0
            _emit(
                self.sink,
                "checkpoint_flush",
                {"flushes": self.store.flushes, "units": len(self.store)},
            )
            # kill-resume smoke hook: die *after* a durable flush
            self.plan.maybe_kill_self(self.store.flushes)


def execute(
    payloads: Sequence[Payload],
    processes: Optional[int],
    store: Optional[CheckpointStore],
    resume: bool,
    policy: RetryPolicy,
    unit_timeout: Optional[float],
    flush_every: int,
    max_units: Optional[int],
    collector: Optional[StatsCollector],
    sink: Optional[TraceSink],
) -> List[UnitResult]:
    """Run ``payloads``; return every completed unit, resumed ones first.

    The arguments are those of
    :func:`~repro.simulation.parallel.parallel_sweep`, with the
    checkpoint store opened and the retry policy resolved.  The final
    checkpoint flush happens even when a payload exhausts its retries.
    """
    col = collector if collector is not None else StatsCollector()
    resumed: Dict[Tuple[str, int], UnitResult] = {}
    if store is not None and resume:
        wanted = {k for p in payloads for k in payload_unit_keys(p)}
        resumed = {k: v for k, v in store.completed.items() if k in wanted}
        if resumed:
            col.record_fault_event("unit_resumed", count=len(resumed))
            _emit(sink, "unit_resumed", {"count": len(resumed)})

    pending: Deque[Tuple[int, Payload]] = deque(
        (0, p) for p in (_strip_resumed(p, resumed) for p in payloads) if p is not None
    )
    state = _SweepState(store, col, sink, flush_every, FaultPlan.from_env())
    try:
        if processes == 0:
            _run_serial(pending, state, policy, max_units)
        else:
            workers = processes or os.cpu_count() or 1
            _run_pooled(pending, state, policy, workers, unit_timeout, max_units)
    finally:
        state.flush()
    return list(resumed.values()) + state.results


def _strip_resumed(
    payload: Payload, resumed: Dict[Tuple[str, int], UnitResult]
) -> Optional[Payload]:
    """Drop already-completed entries from a payload (``None`` = all done).

    Resuming mid-payload re-runs only the algorithms the checkpoint is
    missing for that instance — the basis of the resume-mid-batch
    bit-identity guarantee.
    """
    entries = tuple(e for e in payload.entries if (e[0], payload.index) not in resumed)
    return payload._replace(entries=entries) if entries else None


def _fail(state: _SweepState, payload: Payload, cause: BaseException) -> None:
    """Flush completed work, then give up on one payload."""
    state.flush()
    raise UnitFailedError(
        f"units {payload_unit_keys(payload)} exhausted their retry budget; "
        f"completed units are checkpointed — rerun with resume=True to keep "
        f"them (cause: {type(cause).__name__}: {cause})"
    ) from cause


def _run_serial(
    pending: Deque[Tuple[int, Payload]],
    state: _SweepState,
    policy: RetryPolicy,
    max_units: Optional[int],
) -> None:
    """In-process executor: retry loop per payload, no preemption."""
    completed = 0
    while pending:
        if max_units is not None and completed >= max_units:
            return
        attempt, payload = pending.popleft()
        while True:
            try:
                result = fault_aware_unit((attempt, payload))
                break
            except Exception as exc:
                if attempt >= policy.retries:
                    _fail(state, payload, exc)
                attempt += 1
                state.collector.record_fault_event("retry")
                _emit(
                    state.sink,
                    "retry",
                    {"units": payload_unit_keys(payload), "attempt": attempt},
                )
                time.sleep(policy.delay(attempt))
        completed += state.complete(result)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, stuck workers included.

    ``shutdown(wait=False)`` alone leaves a hung worker running its
    current task forever; terminating the worker processes is the only
    way to reclaim the slot.  ``_processes`` is executor-internal, so
    guard the access — on interpreters without it the zombies survive
    until process exit, which degrades but does not corrupt.
    """
    procs = list(getattr(pool, "_processes", {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, AttributeError):  # already dead, or exotic platform
            pass


def _run_pooled(
    pending: Deque[Tuple[int, Payload]],
    state: _SweepState,
    policy: RetryPolicy,
    workers: int,
    unit_timeout: Optional[float],
    max_units: Optional[int],
) -> None:
    """Process-pool executor with retry, timeout, and pool recovery."""
    col = state.collector
    pool = ProcessPoolExecutor(max_workers=workers)
    inflight: Dict[Future, Tuple[int, Payload, float]] = {}
    completed = 0

    def requeue(attempt: int, payload: Payload, bump: bool, cause: BaseException) -> None:
        if bump and attempt >= policy.retries:
            _fail(state, payload, cause)
        pending.appendleft((attempt + 1 if bump else attempt, payload))

    def recycle(kind: str, faulted: Set[Future], cause: BaseException) -> None:
        """Respawn the pool; re-queue every in-flight payload.

        Payloads whose futures are in ``faulted`` get their attempt
        bumped (counting against the retry budget); the rest re-queue
        unchanged.
        """
        nonlocal pool
        faulted_units = sorted(
            key for f in faulted for key in payload_unit_keys(inflight[f][1])
        )
        for future, (attempt, payload, _) in list(inflight.items()):
            requeue(attempt, payload, future in faulted, cause)
        inflight.clear()
        col.record_fault_event("pool_restart")
        if faulted and kind == "broken_pool":
            col.record_fault_event("retry", count=len(faulted))
        _emit(state.sink, "pool_restart", {"cause": kind, "faulted": faulted_units})
        _terminate_pool(pool)
        pool = ProcessPoolExecutor(max_workers=workers)

    try:
        while pending or inflight:
            # keep the pool saturated without materialising every future
            while pending and len(inflight) < workers * 2:
                if max_units is not None and completed + len(inflight) >= max_units:
                    break
                attempt, payload = pending.popleft()
                future = pool.submit(fault_aware_unit, (attempt, payload))
                inflight[future] = (attempt, payload, time.monotonic())
            if not inflight:
                return  # max_units reached with nothing left in flight

            poll: Optional[float] = None
            if unit_timeout is not None:
                now = time.monotonic()
                deadlines = [t0 + unit_timeout for _, _, t0 in inflight.values()]
                poll = max(0.0, min(deadlines) - now) + 0.01
            done, _ = wait(set(inflight), timeout=poll, return_when=FIRST_COMPLETED)

            if unit_timeout is not None:
                now = time.monotonic()
                expired = {
                    future
                    for future, (_, _, t0) in inflight.items()
                    if future not in done and now - t0 > unit_timeout
                }
                if expired:
                    col.record_fault_event("unit_timeout", count=len(expired))
                    for future in expired:
                        attempt, payload, _ = inflight[future]
                        _emit(
                            state.sink,
                            "unit_timeout",
                            {"units": payload_unit_keys(payload), "attempt": attempt},
                        )
                    # harvest whatever did finish before tearing down
                    for future in done:
                        attempt, payload, _ = inflight.pop(future)
                        try:
                            completed += state.complete(future.result())
                        except Exception as exc:
                            requeue(attempt, payload, True, exc)
                            col.record_fault_event("retry")
                    recycle("timeout", expired, TimeoutError("unit timeout"))
                    continue

            broken: Optional[BrokenProcessPool] = None
            for future in done:
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    # A worker death breaks *every* in-flight future at
                    # once, and nothing identifies which payload killed
                    # it — the future surfacing the error first is
                    # arbitrary.  Leave inflight intact for recycle().
                    broken = exc
                    break
                except Exception as exc:
                    attempt, payload, _ = inflight.pop(future)
                    requeue(attempt, payload, True, exc)
                    col.record_fault_event("retry")
                    _emit(
                        state.sink,
                        "retry",
                        {"units": payload_unit_keys(payload), "attempt": attempt + 1},
                    )
                    time.sleep(policy.delay(attempt + 1))
                else:
                    inflight.pop(future)
                    completed += state.complete(result)
            if broken is not None:
                # every in-flight payload is a suspect: bump them all, so
                # the actual culprit cannot re-run at an attempt whose
                # fault it would hit again
                recycle("broken_pool", set(inflight), broken)
    finally:
        _terminate_pool(pool)
