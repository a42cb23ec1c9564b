"""Figure 4: average-case performance of Any Fit algorithms.

For each ``(d, μ)`` cell of the Table 2 grid, generate ``m`` uniform
random instances, run the seven Section 7 algorithms on each, and record
the mean ± std of the performance ratio (cost / Lemma 1(i) lower bound).
The output mirrors the paper's 18-panel figure as one series per
algorithm per ``d`` panel, with ``μ`` on the x-axis.

Expected shape (paper's observations, which the tests assert at QUICK
scale): Move To Front best; First Fit ≈ Best Fit close behind with FF
lower variance; Next Fit degrades as μ grows; Worst Fit worst; Random
and Worst Fit have the highest variance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.registry import PAPER_ALGORITHMS
from ..analysis.report import format_series_chart, format_table
from ..analysis.sweep import SweepCell, sweep_cell
from ..workloads.base import generate_batch
from ..workloads.uniform import UniformWorkload
from .config import ExperimentConfig, QUICK

__all__ = ["Figure4Result", "run_figure4", "render_figure4"]


@dataclass(frozen=True)
class Figure4Result:
    """All cells of the Figure 4 grid.

    ``cells[(d, mu)]`` is the :class:`~repro.analysis.sweep.SweepCell`
    with per-algorithm stats for that panel point.
    """

    config: ExperimentConfig
    algorithms: Tuple[str, ...]
    cells: Mapping[Tuple[int, int], SweepCell]

    def series(self, d: int) -> Dict[str, List[float]]:
        """Mean-ratio series (one per algorithm) over μ for panel ``d``."""
        out: Dict[str, List[float]] = {a: [] for a in self.algorithms}
        for mu in self.config.mu_values:
            cell = self.cells[(d, mu)]
            for a in self.algorithms:
                out[a].append(cell.stats[a].mean)
        return out

    def std_series(self, d: int) -> Dict[str, List[float]]:
        """Std-deviation series (error bars) over μ for panel ``d``."""
        out: Dict[str, List[float]] = {a: [] for a in self.algorithms}
        for mu in self.config.mu_values:
            cell = self.cells[(d, mu)]
            for a in self.algorithms:
                out[a].append(cell.stats[a].std)
        return out

    def winner(self, d: int, mu: int) -> str:
        """Best (lowest mean ratio) algorithm in one cell."""
        return self.cells[(d, mu)].ranking()[0]


def run_figure4(
    config: ExperimentConfig = QUICK,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    processes: int = 0,
    engine: str = "classic",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
) -> Figure4Result:
    """Run the full Figure 4 sweep under ``config``.

    Instances are generated per cell from seeds spawned off
    ``config.seed`` (stable across runs and across algorithm sets, so
    adding an algorithm does not change anyone else's numbers).

    ``processes > 0`` fans each cell's (algorithm, instance) units across
    a process pool — the intended mode for ``--scale full`` (the paper's
    m = 1000); results are identical to the serial path.

    ``checkpoint_dir`` makes the sweep crash-safe: each ``(d, μ)`` cell
    persists into its own ``d{d}-mu{mu}`` subdirectory, so an
    interrupted full-scale run restarted with ``resume=True`` skips
    every completed unit — finished cells load instantly, the
    interrupted cell loses at most one flush interval, and the final
    numbers are bit-identical to an uninterrupted run.  ``retries`` and
    ``unit_timeout`` are the per-unit fault-tolerance knobs of
    :func:`repro.simulation.parallel.parallel_sweep`.
    """
    cells: Dict[Tuple[int, int], SweepCell] = {}
    master = np.random.SeedSequence(config.seed)
    # one child seed per (d, mu) cell, in grid order
    children = master.spawn(len(config.d_values) * len(config.mu_values))
    idx = 0
    for d in config.d_values:
        for mu in config.mu_values:
            gen = UniformWorkload(d=d, n=config.n, mu=mu, T=config.T, B=config.B)
            if engine == "batch":
                # ship compact specs: workers regenerate the instances
                # locally (LRU-cached), bit-identical to generate_batch
                from ..simulation.batch import spec_batch

                instances = spec_batch(gen, config.m, seed=children[idx])
            else:
                instances = generate_batch(gen, config.m, seed=children[idx])
            idx += 1
            cell_dir = (
                os.path.join(checkpoint_dir, f"d{d}-mu{mu}")
                if checkpoint_dir is not None
                else None
            )
            cells[(d, mu)] = sweep_cell(
                algorithms, instances, params={"d": d, "mu": mu},
                processes=processes, engine=engine,
                checkpoint_dir=cell_dir, resume=resume,
                retries=retries, unit_timeout=unit_timeout,
            )
    return Figure4Result(config=config, algorithms=tuple(algorithms), cells=cells)


def figure4_csv(result: Figure4Result) -> str:
    """CSV form of the Figure 4 measurements (one row per cell×algorithm).

    Columns: ``d, mu, algorithm, mean, std, count`` — everything a
    plotting tool needs to redraw the 18 panels.
    """
    lines = ["d,mu,algorithm,mean,std,count"]
    for d in result.config.d_values:
        for mu in result.config.mu_values:
            cell = result.cells[(d, mu)]
            for algo in result.algorithms:
                st = cell.stats[algo]
                lines.append(
                    f"{d},{mu},{algo},{st.mean:.6f},{st.std:.6f},{st.count}"
                )
    return "\n".join(lines) + "\n"


def render_figure4(result: Figure4Result) -> str:
    """Text rendering: one table + ASCII chart per ``d`` panel."""
    blocks: List[str] = []
    for d in result.config.d_values:
        series = result.series(d)
        stds = result.std_series(d)
        headers = ["mu"] + [f"{a} (mean±std)" for a in result.algorithms]
        rows = []
        for j, mu in enumerate(result.config.mu_values):
            row: List[object] = [mu]
            for a in result.algorithms:
                row.append(f"{series[a][j]:.3f}±{stds[a][j]:.3f}")
            rows.append(row)
        blocks.append(
            format_table(headers, rows, title=f"Figure 4 panel: d = {d} "
                         f"(performance ratio vs Lemma 1(i) lower bound)")
        )
        blocks.append(
            format_series_chart(
                list(result.config.mu_values), series, title=f"[chart] d = {d}"
            )
        )
    return "\n\n".join(blocks)
