"""One fault-tolerant driver for all paper artifacts: ``repro experiments``.

The :data:`ARTIFACTS` registry maps artifact names to adapters with one
shared signature, so the CLI (and tests) can run any subset of the
paper's tables and figures through a single code path with uniform
fault-tolerance semantics:

* **Per-artifact resume** — with an ``out_dir`` and ``resume=True``, an
  artifact whose rendered output file already exists is skipped
  entirely.  Cheap artifacts just re-run; this matters for a multi-hour
  ``figure4 --scale full`` sandwiched between quick ones.
* **Intra-artifact resume** — checkpointable artifacts (currently
  ``figure4``) additionally thread ``checkpoint_dir``/``resume`` down
  to :func:`repro.simulation.parallel.parallel_sweep`, each under its own
  ``<checkpoint_dir>/<artifact>`` subdirectory, so even the interrupted
  artifact loses at most one flush interval.
* **Per-artifact retry** — every artifact runs under
  :func:`repro.orchestration.faults.call_with_retry`, so a transient
  failure (full disk, OOM-killed child) retries with backoff instead of
  abandoning the artifacts queued behind it.

Outputs are written atomically (temp file + rename), so a partially
rendered artifact can never be mistaken for a completed one by a later
``resume=True`` pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..observability.stats import StatsCollector
from ..orchestration.checkpoint import _atomic_write
from ..orchestration.faults import RetryPolicy, call_with_retry
from .config import ExperimentConfig, QUICK
from .figure4 import render_figure4, run_figure4
from .figures123 import figures123_artifact
from .table1 import render_table1, render_table1_bounds, run_table1
from .table2 import table2_artifact

__all__ = ["Artifact", "ARTIFACTS", "run_experiments"]


@dataclass(frozen=True)
class Artifact:
    """One registry entry: a paper artifact the driver can regenerate.

    ``runner`` takes ``(config, **knobs)`` and returns the rendered
    text; ``checkpointable`` marks artifacts that honour the
    ``checkpoint_dir``/``resume``/``retries``/``unit_timeout`` knobs
    internally (the others accept and ignore them).
    """

    name: str
    description: str
    runner: Callable[..., str]
    checkpointable: bool = False


def _table1_artifact(config: ExperimentConfig = QUICK, **_: object) -> str:
    # modest k range: the driver's default scale is "quick"
    rows = run_table1(ks=(2, 4, 8))
    return render_table1_bounds() + "\n\n" + render_table1(rows)


def _figure4_artifact(
    config: ExperimentConfig = QUICK,
    processes: int = 0,
    engine: str = "classic",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    **_: object,
) -> str:
    result = run_figure4(
        config=config, processes=processes, engine=engine,
        checkpoint_dir=checkpoint_dir, resume=resume,
        retries=retries, unit_timeout=unit_timeout,
    )
    return render_figure4(result)


#: Every artifact ``repro experiments`` can regenerate, in run order.
ARTIFACTS: Dict[str, Artifact] = {
    "table1": Artifact(
        name="table1",
        description="measured CR lower bounds on the adversarial families",
        runner=_table1_artifact,
    ),
    "table2": Artifact(
        name="table2",
        description="experimental parameter table",
        runner=table2_artifact,
    ),
    "figures123": Artifact(
        name="figures123",
        description="Figures 1-3 diagrams regenerated from instrumented runs",
        runner=figures123_artifact,
    ),
    "figure4": Artifact(
        name="figure4",
        description="average-case performance sweep (checkpointable)",
        runner=_figure4_artifact,
        checkpointable=True,
    ),
}


def run_experiments(
    names: Optional[Sequence[str]] = None,
    config: ExperimentConfig = QUICK,
    processes: int = 0,
    engine: str = "classic",
    out_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    collector: Optional[StatsCollector] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, str]:
    """Run the named artifacts (default: all, in registry order).

    Returns ``{artifact_name: rendered_text}``.  Skipped artifacts
    (``resume=True`` and their ``<out_dir>/<name>.txt`` already exists)
    map to the existing file's contents, so the return value is complete
    either way.  Unknown names raise ``KeyError`` before anything runs.
    """
    selected: List[Artifact] = []
    for name in names if names else list(ARTIFACTS):
        if name not in ARTIFACTS:
            raise KeyError(
                f"unknown artifact {name!r}; known: {', '.join(ARTIFACTS)}"
            )
        selected.append(ARTIFACTS[name])

    say = progress if progress is not None else (lambda _msg: None)
    policy = RetryPolicy(retries=int(retries))
    out: Dict[str, str] = {}
    for artifact in selected:
        path = (
            os.path.join(out_dir, f"{artifact.name}.txt")
            if out_dir is not None
            else None
        )
        if resume and path is not None and os.path.exists(path):
            say(f"[{artifact.name}] already rendered; skipping (resume)")
            with open(path, "r", encoding="utf-8") as fh:
                out[artifact.name] = fh.read()
            continue
        say(f"[{artifact.name}] running: {artifact.description}")
        sub_ckpt = (
            os.path.join(checkpoint_dir, artifact.name)
            if checkpoint_dir is not None and artifact.checkpointable
            else None
        )
        text = call_with_retry(
            lambda a=artifact, c=sub_ckpt: a.runner(
                config, processes=processes, engine=engine,
                checkpoint_dir=c, resume=resume,
                retries=retries, unit_timeout=unit_timeout,
            ),
            policy,
            label=artifact.name,
            collector=collector,
        )
        out[artifact.name] = text
        if path is not None:
            os.makedirs(out_dir, exist_ok=True)
            _atomic_write(path, text if text.endswith("\n") else text + "\n")
            say(f"[{artifact.name}] wrote {path}")
    return out
