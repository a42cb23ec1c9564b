"""Worker fault handling: retries, backoff, and deterministic injection.

Two halves:

* **Recovery primitives** — :class:`RetryPolicy` (bounded retry with
  deterministic exponential backoff) and :func:`call_with_retry` (the
  serial-path / single-run retry loop, also used by ``repro run``).
* **Deterministic fault injection** — :class:`FaultPlan`, an
  env-triggered harness that makes selected work units fail on their
  early attempts.  Fault injection must reach *worker processes*, which
  inherit the parent's environment under both fork and spawn start
  methods, so the trigger is environment variables rather than Python
  state:

  ``REPRO_FAULT_UNITS``
      Comma-separated unit selectors, each ``algorithm:index`` or
      ``*:index`` (any algorithm) or a bare ``index``.  Example:
      ``"first_fit:3,*:7"``.
  ``REPRO_FAULT_MODE``
      ``"raise"`` (default) — the worker raises
      :class:`InjectedWorkerFault`, exercising the per-unit retry path;
      ``"exit"`` — the worker calls ``os._exit(17)``, killing the
      process and exercising the ``BrokenProcessPool`` recovery path;
      ``"hang"`` — the worker sleeps far past any sane unit timeout,
      exercising the timeout + pool-recycle path.
  ``REPRO_FAULT_TIMES``
      How many attempts of a selected unit fail before it succeeds
      (default 1: the first attempt fails, the retry completes).  This
      is what makes injection *deterministic yet recoverable* — a unit
      that failed unconditionally could never be retried to success.
  ``REPRO_FAULT_KILL_AFTER``
      Orchestrator-side: SIGKILL the *sweep process itself* immediately
      after its N-th checkpoint flush.  This is the kill-resume smoke
      hook (``tools/kill_resume_smoke.py`` and the CI job): the death is
      mid-run, un-catchable, and lands at a deterministic point.

The plan is re-read from the environment in each worker (module-level
entry points, picklable by design), so no injection state needs to cross
the process boundary.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import FrozenSet, List, Mapping, Optional, Tuple

from ..simulation.parallel import Payload, UnitResult, payload_unit_keys, simulate_payload

__all__ = [
    "InjectedWorkerFault",
    "FaultPlan",
    "RetryPolicy",
    "call_with_retry",
    "fault_aware_unit",
    "ENV_FAULT_UNITS",
    "ENV_FAULT_MODE",
    "ENV_FAULT_TIMES",
    "ENV_FAULT_KILL_AFTER",
]

ENV_FAULT_UNITS = "REPRO_FAULT_UNITS"
ENV_FAULT_MODE = "REPRO_FAULT_MODE"
ENV_FAULT_TIMES = "REPRO_FAULT_TIMES"
ENV_FAULT_KILL_AFTER = "REPRO_FAULT_KILL_AFTER"

_HANG_SECONDS = 3600.0


class InjectedWorkerFault(RuntimeError):
    """The deterministic failure raised by ``REPRO_FAULT_MODE=raise``."""


@dataclass(frozen=True)
class FaultPlan:
    """Parsed injection plan (empty plan = injection disabled).

    ``units`` holds ``(algorithm_or_*, instance_index)`` selectors;
    ``mode`` is ``raise``/``exit``/``hang``; ``times`` is the number of
    failing attempts per selected unit; ``kill_after_flushes`` is the
    orchestrator-side SIGKILL trigger (``None`` = off).
    """

    units: FrozenSet[Tuple[str, int]] = frozenset()
    mode: str = "raise"
    times: int = 1
    kill_after_flushes: Optional[int] = None

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "FaultPlan":
        """Parse the plan from ``REPRO_FAULT_*`` (unset = empty plan)."""
        env = os.environ if environ is None else environ
        spec = env.get(ENV_FAULT_UNITS, "").strip()
        units: List[Tuple[str, int]] = []
        for token in filter(None, (t.strip() for t in spec.split(","))):
            if ":" in token:
                algo, _, idx = token.rpartition(":")
            else:
                algo, idx = "*", token
            units.append((algo or "*", int(idx)))
        kill_raw = env.get(ENV_FAULT_KILL_AFTER, "").strip()
        return cls(
            units=frozenset(units),
            mode=env.get(ENV_FAULT_MODE, "raise").strip() or "raise",
            times=int(env.get(ENV_FAULT_TIMES, "1") or "1"),
            kill_after_flushes=int(kill_raw) if kill_raw else None,
        )

    @property
    def active(self) -> bool:
        """Whether any worker-side injection is configured."""
        return bool(self.units)

    def should_fail(self, algorithm: str, index: int, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) of a unit fails."""
        if attempt >= self.times:
            return False
        return (algorithm, index) in self.units or ("*", index) in self.units

    def trigger(self, algorithm: str, index: int, attempt: int) -> None:
        """Fail in the configured mode (no-op if this attempt passes)."""
        if not self.should_fail(algorithm, index, attempt):
            return
        if self.mode == "exit":
            os._exit(17)
        if self.mode == "hang":
            time.sleep(_HANG_SECONDS)
            return
        raise InjectedWorkerFault(
            f"injected fault: unit ({algorithm}, {index}) attempt {attempt}"
        )

    def maybe_kill_self(self, flushes: int) -> None:
        """Orchestrator-side SIGKILL after the configured flush count."""
        if self.kill_after_flushes is not None and flushes >= self.kill_after_flushes:
            os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    ``delay(attempt)`` is the sleep before re-running attempt number
    ``attempt`` (1-based for the first retry):
    ``min(backoff_base_s * backoff_factor**(attempt-1), max_backoff_s)``.
    No jitter — sweep workloads have no thundering-herd peer to avoid,
    and deterministic delays keep fault-injection tests reproducible.
    """

    retries: int = 0
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (attempt >= 1), in seconds."""
        if attempt <= 0:
            return 0.0
        return min(
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )


def call_with_retry(
    fn,
    policy: RetryPolicy,
    label: str = "call",
    collector=None,
    sleep=time.sleep,
):
    """Run ``fn()`` with the policy's bounded retry + backoff.

    The in-process recovery primitive behind the serial sweep path and
    ``repro run --retries``.  Each failed attempt bumps the collector's
    ``retries`` counter (when one is given); the final failure re-raises
    the last exception unchanged.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except Exception:
            if attempt >= policy.retries:
                raise
            attempt += 1
            if collector is not None:
                collector.record_fault_event("retry")
            sleep(policy.delay(attempt))


def fault_aware_unit(task: Tuple[int, Payload]) -> List[UnitResult]:
    """Worker entry point: fault injection check, then the real payload.

    ``task`` is ``(attempt, payload)`` where ``payload`` is a
    :class:`~repro.simulation.parallel.Payload`; the result is
    :func:`~repro.simulation.parallel.simulate_payload`'s list of
    :class:`UnitResult`.  The attempt number stays *outside* the payload
    so the simulated work is byte-identical across attempts — retries
    cannot change results.  Module-level (picklable) for spawn-method
    pools.

    Selectors are checked against every ``(algorithm, index)`` unit the
    payload carries, so ``first_fit:3`` fails the payload holding that
    unit whether it carries one unit or a batch engine's whole policy
    fan-out of instance 3.
    """
    attempt, payload = task
    plan = FaultPlan.from_env()
    if plan.active:
        for name, index in payload_unit_keys(payload):
            plan.trigger(name, index, attempt)
    return simulate_payload(payload)
