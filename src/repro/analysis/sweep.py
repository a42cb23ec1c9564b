"""Parameter-sweep harness: algorithms × generators × instances.

The workhorse behind Figure 4 and the extension studies: run a set of
algorithms over a batch of instances from each generator configuration,
collect per-instance performance ratios, and aggregate.

Ratios are computed against the Lemma 1(i) lower bound (the paper's
metric).  The lower bound is computed once per instance and shared across
algorithms, and instances are generated once per configuration and shared
across algorithms — both essential for apples-to-apples comparisons and
for keeping the m = 1000 sweeps fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.instance import Instance
from .aggregate import SampleStats, summarize
from .theory import TABLE1, lower_bound, upper_bound

__all__ = ["SweepCell", "sweep_cell"]


@dataclass(frozen=True)
class SweepCell:
    """Results of one (generator configuration) × (algorithm set) cell.

    Attributes
    ----------
    params:
        The configuration's parameters (e.g. ``{"d": 2, "mu": 10}``).
    ratios:
        Per-algorithm list of per-instance performance ratios.
    stats:
        Per-algorithm :class:`~repro.analysis.aggregate.SampleStats`.
    """

    params: Mapping[str, object]
    ratios: Mapping[str, List[float]]
    stats: Mapping[str, SampleStats]

    def mean(self, algorithm: str) -> float:
        """Mean ratio of ``algorithm`` in this cell."""
        return self.stats[algorithm].mean

    def ranking(self) -> List[str]:
        """Algorithms sorted by mean ratio, best first."""
        return sorted(self.stats, key=lambda a: self.stats[a].mean)

    def within_theory(self, mu: float, d: int) -> Dict[str, bool]:
        """Check each algorithm's mean ratio against its Table 1 upper bound.

        Only algorithms with a Table 1 row are checked.  Because the
        ratio denominator is a lower bound on OPT, measured ratios can
        only *over*-estimate the true ratio, so ``mean <= upper bound``
        is the expected (not guaranteed) direction — this is a smoke
        check used by tests and reports.
        """
        out: Dict[str, bool] = {}
        for algo, st in self.stats.items():
            if algo in TABLE1:
                out[algo] = st.mean <= upper_bound(algo, mu, d)
        return out


def sweep_cell(
    algorithms: Sequence[str],
    instances: Iterable[Instance],
    params: Optional[Mapping[str, object]] = None,
    algorithm_kwargs: Optional[Mapping[str, Mapping[str, object]]] = None,
    processes: int = 0,
    engine: str = "classic",
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
) -> SweepCell:
    """Run ``algorithms`` over ``instances`` and aggregate ratios.

    The units run through
    :func:`repro.simulation.parallel.parallel_sweep`, and each ratio is
    :attr:`UnitResult.ratio <repro.simulation.parallel.UnitResult.ratio>`
    (``inf`` for a positive cost over a zero lower bound).

    Parameters
    ----------
    algorithms:
        Registry names.
    instances:
        The instance batch (consumed once; pass a list to reuse).
    params:
        Arbitrary labels describing this cell (stored verbatim).
    algorithm_kwargs:
        Optional per-algorithm constructor kwargs, keyed by name.  A
        ``seed`` kwarg is a *base* seed: every (algorithm, instance)
        unit runs with its own seed spawned from it, so seeded policies
        draw from independent streams per instance.
    processes:
        ``0`` (default) runs in-process; a positive integer is the
        worker count of a process pool.  Results are identical either
        way.
    engine:
        ``"classic"`` (default), ``"batch"``, or any other
        engine :func:`~repro.simulation.parallel.parallel_sweep` accepts;
        all engines are bit-identical.  With ``"batch"`` the whole policy
        fan-out of each instance shares one
        :class:`~repro.simulation.batch.BatchRunner`, and ``instances``
        may be compact :class:`~repro.simulation.batch.InstanceSpec`
        sources.
    checkpoint_dir / resume / retries / unit_timeout:
        Fault-tolerance knobs, forwarded to
        :func:`~repro.simulation.parallel.parallel_sweep`, so an
        interrupted cell can resume from its checkpoint.
    """
    # imported per call, so a wrapper installed on the module attribute
    # (a tracer's, say) sees every sweep
    from ..simulation.parallel import parallel_sweep

    unit_results = parallel_sweep(
        algorithms,
        list(instances),
        processes=processes,
        algorithm_kwargs=algorithm_kwargs,
        engine=engine,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        retries=retries,
        unit_timeout=unit_timeout,
    )
    ratios = {name: [r.ratio for r in unit_results[name]] for name in algorithms}
    stats = {name: summarize(vals) for name, vals in ratios.items() if vals}
    return SweepCell(params=dict(params or {}), ratios=ratios, stats=stats)
