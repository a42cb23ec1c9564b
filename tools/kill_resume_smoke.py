#!/usr/bin/env python3
"""Kill-resume smoke test: SIGKILL a sweep mid-run, resume, compare.

The strongest claim the orchestration layer makes is that *recovery
never changes results*: a sweep that is killed uncleanly (no exception
handlers, no atexit — ``SIGKILL``) and then resumed from its checkpoint
must produce aggregates bit-identical to an uninterrupted run.  Unit
tests fabricate interruptions with ``max_units``; this script kills a
real process.

Protocol:

1. Run the sweep in-process, no checkpointing — the reference.
2. Spawn a child (``--child``) running the same sweep with a checkpoint
   directory and ``REPRO_FAULT_KILL_AFTER=2`` in its environment: the
   orchestrator SIGKILLs itself right after its 2nd durable flush
   (``flush_every=1``, so mid-run by construction).  The parent asserts
   the child died by signal and left a loadable, partial checkpoint.
3. Resume in-process from the orphaned checkpoint and assert the merged
   results match the reference exactly and that at least the flushed
   units were skipped, not recomputed.

Exit status 0 on success; raises (non-zero) on any mismatch.  Used by
the ``kill-resume`` CI job; run locally with::

    PYTHONPATH=src python tools/kill_resume_smoke.py
    PYTHONPATH=src python tools/kill_resume_smoke.py --engine batch

``--engine`` selects the sweep engine for every phase (the reference,
the killed child, and the resume — and the checkpoint fingerprint binds
to it).  ``batch`` exercises the grouped dispatch path, where the child
completes whole per-instance payloads atomically and the resume must
trim exactly the flushed entries out of each batch payload.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.observability.stats import StatsCollector  # noqa: E402
from repro.orchestration import (  # noqa: E402
    ENV_FAULT_KILL_AFTER,
    CheckpointStore,
    sweep_fingerprint,
)
from repro.simulation.parallel import parallel_sweep  # noqa: E402
from repro.workloads.base import generate_batch  # noqa: E402
from repro.workloads.uniform import UniformWorkload  # noqa: E402

ALGOS = ["first_fit", "move_to_front", "random_fit"]
KWARGS = {"random_fit": {"seed": 42}}
KILL_AFTER_FLUSHES = 2


def make_batch():
    """The fixed workload every phase of the protocol shares."""
    gen = UniformWorkload(d=2, n=30, mu=5, T=25, B=10)
    return generate_batch(gen, 6, seed=7)


def run_sweep(engine="classic", checkpoint_dir=None, resume=False, collector=None):
    """One sweep over the shared workload (serial: deterministic order)."""
    return parallel_sweep(
        ALGOS,
        make_batch(),
        processes=0,
        algorithm_kwargs=KWARGS,
        engine=engine,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        flush_every=1,
        collector=collector,
    )


def aggregates(results):
    """The comparison key: every per-unit number that reaches a paper table."""
    return {
        name: [(r.instance_index, r.cost, r.num_bins, r.lower_bound)
               for r in results[name]]
        for name in sorted(results)
    }


def child_main(checkpoint_dir: str, engine: str) -> int:
    """Sweep under the kill plan — never returns normally in the smoke."""
    run_sweep(engine=engine, checkpoint_dir=checkpoint_dir)
    return 0  # only reachable if the kill hook did not fire


def parent_main(engine: str) -> int:
    print(f"[1/3] reference run (in-process, no checkpoint, engine={engine})")
    reference = aggregates(run_sweep(engine=engine))
    total_units = sum(len(v) for v in reference.values())

    with tempfile.TemporaryDirectory(prefix="kill-resume-") as ckpt:
        print(f"[2/3] child run, SIGKILL after flush #{KILL_AFTER_FLUSHES}")
        env = dict(os.environ)
        env[ENV_FAULT_KILL_AFTER] = str(KILL_AFTER_FLUSHES)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", ckpt,
             "--engine", engine],
            env=env,
            timeout=600,
        )
        if proc.returncode == 0:
            raise SystemExit("child survived: the kill hook never fired")
        print(f"      child died with returncode {proc.returncode} (expected)")

        fingerprint = sweep_fingerprint(ALGOS, make_batch(), KWARGS, engine)
        store = CheckpointStore(ckpt, fingerprint=fingerprint)
        flushed = len(store)
        if flushed < KILL_AFTER_FLUSHES:
            raise SystemExit(
                f"checkpoint holds {flushed} units, expected >= {KILL_AFTER_FLUSHES}"
            )
        if flushed >= total_units:
            raise SystemExit("child finished the whole sweep before dying")
        print(f"      checkpoint survived with {flushed}/{total_units} units")

        print("[3/3] resume from the orphaned checkpoint")
        col = StatsCollector()
        resumed = aggregates(run_sweep(engine=engine, checkpoint_dir=ckpt,
                                       resume=True, collector=col))
        stats = col.snapshot()
        if stats.units_resumed != flushed:
            raise SystemExit(
                f"resume recomputed flushed work: units_resumed="
                f"{stats.units_resumed}, checkpoint held {flushed}"
            )
        if resumed != reference:
            raise SystemExit("resumed aggregates differ from the reference run")

    print(f"OK: {total_units} units, {flushed} resumed, aggregates bit-identical")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", metavar="CHECKPOINT_DIR", default=None,
                        help="internal: run the killable sweep phase")
    parser.add_argument("--engine", choices=["classic", "batch"],
                        default="classic",
                        help="sweep engine for every phase (bound into the "
                             "checkpoint fingerprint)")
    args = parser.parse_args()
    if args.child is not None:
        return child_main(args.child, args.engine)
    return parent_main(args.engine)


if __name__ == "__main__":
    raise SystemExit(main())
