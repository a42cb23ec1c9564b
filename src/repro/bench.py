"""The pinned-seed perf suites behind ``repro bench`` and ``BENCH_core.json``.

Each suite times one path of the stack on a pinned scenario grid: the
core grid (uniform workloads, ``d ∈ {1, 2, 4}`` × small / medium /
large ``n``) through all seven Any Fit variants of the paper's Section
7 study, the classic-vs-FastEngine comparison (with the L1/Lp
measure-kernel cells), the per-unit-vs-batched sweep, the
bounded-memory stream, the Theorem 5/6/8 attack grid, the
migration-budget frontier, and the instrumentation overhead protocol.

Suites and records
------------------
Every ``repro bench --suite`` name is a :class:`Suite` in
:data:`SUITES`: the key its record is stored under, its run function,
and the headline flag (if any) that decides the command's exit code.
:func:`run_bench` runs one and wraps its result in the one envelope —
``suite``, ``generated_unix``, ``python``, ``platform``, ``repeats``,
``total_wall_time_s``, then the suite's ``headline``/``scenarios`` and
extras (``algorithms``, ``backends``, ``item_memory``, …).
:func:`write_record` stores a record under its key of a
``{"schema": SCHEMA, key: record, ...}`` document, replacing that key
only, so no suite needs to know about any other.

Reproducibility
---------------
Scenario seeds are pinned (derived deterministically from the suite
base seed), wall-times are the **minimum** over ``repeats`` runs (the
standard low-noise estimator for short benchmarks), and all counter
fields are exactly reproducible — so two runs differ only in the
timing fields.  See docs/observability.md for how to read the file.
"""

from __future__ import annotations

import inspect
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from .core.errors import ConfigurationError
from .observability.sinks import TraceSink
from .observability.stats import StatsCollector, _peak_rss_bytes
from .optimum.lower_bounds import height_lower_bound
from .orchestration.checkpoint import atomic_write
from .simulation.fastpath import BACKENDS, NUMPY_BACKEND, FastEngine
from .simulation.runner import run
from .workloads.uniform import UniformWorkload

__all__ = [
    "SCHEMA",
    "BASE_SEED",
    "BenchScenario",
    "CORE_SCENARIOS",
    "SMOKE_SCENARIOS",
    "MEDIUM_SCENARIO",
    "FASTPATH_SCENARIOS",
    "FASTPATH_SMOKE_SCENARIOS",
    "SweepBenchScenario",
    "BATCH_SCENARIOS",
    "BATCH_SMOKE_SCENARIOS",
    "StreamBenchScenario",
    "STREAMING_SCENARIOS",
    "STREAMING_SMOKE_SCENARIOS",
    "RepackBenchScenario",
    "REPACKING_SCENARIOS",
    "REPACKING_SMOKE_SCENARIOS",
    "REPACK_FRONTIER_GRID",
    "MEASURE_KERNEL_SPECS",
    "run_scenario",
    "run_suite",
    "run_fastpath_scenario",
    "run_fastpath_suite",
    "run_measure_kernel_cells",
    "run_batch_scenario",
    "run_batch_suite",
    "run_streaming_scenario",
    "run_streaming_suite",
    "run_adversary_suite",
    "run_repacking_scenario",
    "run_repacking_suite",
    "measure_overhead",
    "run_overhead_suite",
    "measure_item_memory",
    "Suite",
    "SUITES",
    "list_suites",
    "get_suite",
    "run_bench",
    "read_bench",
    "write_record",
]

#: Schema tag of the output document; its records carry no schema.
SCHEMA = "repro-bench/v2"

#: Suite base seed (the paper's arXiv date, matching ExperimentConfig).
BASE_SEED = 20230419


def _params(scenario) -> Dict[str, Any]:
    """JSON-ready parameter record of a scenario: every field but its name."""
    return {k: v for k, v in asdict(scenario).items() if k != "name"}


def _timed(fn: Callable[..., Any], *args, **kwargs) -> Tuple[float, Any]:
    """``(seconds, result)`` of one ``fn(*args, **kwargs)`` call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _best_of(repeats: int, trial: Callable[[], Tuple[float, Any]]) -> Tuple[float, Any]:
    """Run ``trial`` ``repeats`` times (at least once); keep the fastest.

    ``trial`` returns ``(seconds, result)``; the pair with the smallest
    seconds wins (the first of equals).  Anything built in ``trial``
    before it calls :func:`_timed` stays outside the timed region.
    """
    return min((trial() for _ in range(max(1, repeats))), key=lambda r: r[0])


@dataclass(frozen=True)
class BenchScenario:
    """One benchmark cell: a pinned uniform-workload configuration."""

    name: str
    d: int
    n: int
    size: str  # "small" | "medium" | "large" (grouping label)
    mu: int = 10
    T: int = 1000
    B: int = 100
    seed: int = BASE_SEED

    def build_instance(self):
        """Materialise the scenario's (deterministic) instance."""
        gen = UniformWorkload(d=self.d, n=self.n, mu=self.mu, T=self.T, B=self.B,
                              name=self.name)
        return gen.sample_seeded(self.seed)


def _grid(sizes: Dict[str, int], d_values: Sequence[int]) -> List[BenchScenario]:
    out: List[BenchScenario] = []
    for d in d_values:
        for size, n in sizes.items():
            out.append(
                BenchScenario(
                    name=f"uniform-d{d}-{size}",
                    d=d,
                    n=n,
                    size=size,
                    # distinct pinned seed per cell, derived deterministically
                    seed=BASE_SEED + 100_000 * d + n,
                )
            )
    return out


#: The standard suite: 3 dimensions × 3 sizes = 9 scenarios, each run
#: through all seven Any Fit variants.  ``large`` matches the paper's
#: Table 2 sequence length (n = 1000).
CORE_SCENARIOS: List[BenchScenario] = _grid(
    {"small": 200, "medium": 600, "large": 1200}, d_values=(1, 2, 4)
)

#: A seconds-fast subset for tests and smoke checks (same record shape).
SMOKE_SCENARIOS: List[BenchScenario] = _grid(
    {"small": 40, "medium": 80}, d_values=(1, 2)
)

#: The cell used by the overhead protocol (and quoted in docs): the
#: middle of the grid, where per-event work is representative.
MEDIUM_SCENARIO: BenchScenario = next(
    s for s in CORE_SCENARIOS if s.d == 2 and s.size == "medium"
)

#: The twin-engine comparison grid: the three large core cells plus one
#: extra-large high-concurrency sweep cell (``mu = 100`` keeps ~250
#: items resident, so the open list — the classic engine's per-arrival
#: scan cost — is deep).  The xlarge cell is "the largest pinned
#: sweep scenario" the fastpath acceptance speedup is judged on.
FASTPATH_SCENARIOS: List[BenchScenario] = [
    s for s in CORE_SCENARIOS if s.size == "large"
] + [
    BenchScenario(
        name="uniform-d2-xlarge-sweep",
        d=2,
        n=5000,
        size="xlarge",
        mu=100,
        T=1000,
        B=100,
        seed=BASE_SEED + 100_000 * 2 + 5000,
    )
]

#: A seconds-fast fastpath subset for tests and the CI smoke leg.
FASTPATH_SMOKE_SCENARIOS: List[BenchScenario] = _grid(
    {"small": 40}, d_values=(1, 2)
)


@dataclass(frozen=True)
class SweepBenchScenario:
    """One batched-sweep benchmark cell: a pinned *multi-instance* sweep.

    Unlike :class:`BenchScenario` (one instance, one algorithm at a
    time) this pins a whole sweep cell — ``m`` instances of one uniform
    workload, fanned out over all seven policies — because the batched
    engine's whole point is amortising per-instance work across that
    fan-out.  Instances derive from ``seed`` exactly as
    :func:`repro.workloads.base.generate_batch` spawns them, so the
    per-unit baseline and the spec-shipped batch path replay identical
    inputs.
    """

    name: str
    d: int
    n: int
    mu: int
    m: int  # instances per cell
    T: int = 1000
    B: int = 100
    seed: int = BASE_SEED

    def generator(self) -> UniformWorkload:
        return UniformWorkload(d=self.d, n=self.n, mu=self.mu, T=self.T, B=self.B)

    def build_instances(self):
        """The pinned instance batch (per-unit baseline inputs)."""
        from .workloads.base import generate_batch

        return generate_batch(self.generator(), self.m, seed=self.seed)

    def build_specs(self):
        """Spec twins of :meth:`build_instances` (batched-path inputs)."""
        from .simulation.batch import spec_batch

        return spec_batch(self.generator(), self.m, seed=self.seed)


def _sweep_grid(
    d_values: Sequence[int], mu_values: Sequence[int], n: int, m: int
) -> List[SweepBenchScenario]:
    return [
        SweepBenchScenario(
            name=f"table2-d{d}-mu{mu}",
            d=d,
            n=n,
            mu=mu,
            m=m,
            seed=BASE_SEED + 1_000_000 * d + mu,
        )
        for d in d_values
        for mu in mu_values
    ]


#: The batched-sweep comparison grid: Table-2-sized cells (n = 1000, the
#: paper's sequence length) across two dimensions and two mean
#: durations.  The ``engine="batch"`` speedup over per-unit fastpath
#: dispatch is recorded from this grid's totals (the committed record
#: reads 2.09x); the suite gates only on ``identical``.
BATCH_SCENARIOS: List[SweepBenchScenario] = _sweep_grid(
    d_values=(1, 2), mu_values=(10, 100), n=1000, m=3
)

#: A seconds-fast batch subset for tests and the CI smoke leg.
BATCH_SMOKE_SCENARIOS: List[SweepBenchScenario] = _sweep_grid(
    d_values=(1, 2), mu_values=(10,), n=120, m=2
)


@dataclass(frozen=True)
class StreamBenchScenario:
    """One bounded-memory streaming cell: a pinned Poisson stream.

    Unlike every other scenario class here, this one never materialises
    an :class:`~repro.core.instance.Instance` — the whole point is that
    the stream is consumed lazily by the
    :class:`~repro.streaming.StreamingEngine`, so memory scales with the
    *peak number of concurrently live items* (≈ ``rate`` × mean
    duration, ~11k for the headline cell) while the stream itself runs
    to millions of items.  The headline cell is a ten-million-event
    (five-million-item) stream dispatched through ``next_fit``, the
    O(1)-per-arrival policy — deep-open-list policies like ``first_fit``
    scan the whole open list per arrival and get a shorter cell of their
    own.
    """

    name: str
    policy: str
    d: int
    rate: float
    horizon: float
    seed: int = BASE_SEED

    def workload(self):
        """The pinned Poisson stream source."""
        from .workloads.poisson import PoissonWorkload

        return PoissonWorkload(d=self.d, rate=self.rate, horizon=self.horizon)


#: The bounded-memory grid: the ~10M-event next_fit headline plus a
#: ~200k-event first_fit cell (deep open list, representative of the
#: Any Fit scan cost).  Expected item counts are ``rate * horizon``;
#: events are twice that.
STREAMING_SCENARIOS: List[StreamBenchScenario] = [
    StreamBenchScenario(
        name="poisson-d2-rate5000-next_fit",
        policy="next_fit",
        d=2,
        rate=5000.0,
        horizon=1000.0,
        seed=BASE_SEED + 1,
    ),
    StreamBenchScenario(
        name="poisson-d2-rate100-first_fit",
        policy="first_fit",
        d=2,
        rate=100.0,
        horizon=1000.0,
        seed=BASE_SEED + 2,
    ),
]

#: A seconds-fast streaming subset for tests and the CI smoke leg.
STREAMING_SMOKE_SCENARIOS: List[StreamBenchScenario] = [
    StreamBenchScenario(
        name="poisson-d2-rate50-next_fit-smoke",
        policy="next_fit",
        d=2,
        rate=50.0,
        horizon=40.0,
        seed=BASE_SEED + 3,
    ),
    StreamBenchScenario(
        name="poisson-d2-rate50-first_fit-smoke",
        policy="first_fit",
        d=2,
        rate=50.0,
        horizon=40.0,
        seed=BASE_SEED + 4,
    ),
]


@dataclass(frozen=True)
class RepackBenchScenario:
    """One migration-frontier cell: a pinned instance + dispatch policy.

    ``kind`` selects the construction: ``"thm5"``/``"thm6"`` build the
    paper's lower-bound gadgets — the workloads the no-recourse model is
    *provably* bad on, and therefore where bounded repacking must show a
    strict win — and ``"uniform"`` is a churny random workload where the
    improvement is incremental rather than structural.
    """

    name: str
    policy: str
    kind: str  # "thm5" | "thm6" | "uniform"
    d: int = 2
    k: int = 3
    mu: float = 8.0
    n: int = 200
    seed: int = BASE_SEED

    def build(self):
        """Materialise the pinned instance."""
        if self.kind == "thm5":
            from .workloads.adversarial import theorem5_instance

            return theorem5_instance(d=self.d, k=self.k, mu=self.mu).instance
        if self.kind == "thm6":
            from .workloads.adversarial import theorem6_instance

            return theorem6_instance(d=self.d, k=self.k, mu=self.mu).instance
        return UniformWorkload(
            d=self.d, n=self.n, mu=self.mu, T=60, B=5, name=self.name
        ).sample_seeded(self.seed)


#: The (repacker, budget) frontier every repacking scenario sweeps; the
#: budget-0 ``no_repack`` anchor is the no-recourse baseline the other
#: points are measured against.
REPACK_FRONTIER_GRID: List[tuple] = [
    ("no_repack", 0.0),
    ("greedy_consolidate", 1.0),
    ("greedy_consolidate", 2.0),
    ("greedy_consolidate", 4.0),
    ("budgeted_rebalance", 0.25),
    ("budgeted_rebalance", 0.5),
    ("budgeted_rebalance", 1.0),
]

#: The migration-frontier grid: both lower-bound gadget families (where
#: bounded repacking must beat the no-recourse cost strictly) plus a
#: churny uniform cell.
REPACKING_SCENARIOS: List[RepackBenchScenario] = [
    RepackBenchScenario(name="thm5-d2-k3-mu8-first_fit", policy="first_fit",
                        kind="thm5", d=2, k=3, mu=8.0),
    RepackBenchScenario(name="thm6-d2-k4-mu8-next_fit", policy="next_fit",
                        kind="thm6", d=2, k=4, mu=8.0),
    RepackBenchScenario(name="uniform-d2-n200-mu10-first_fit",
                        policy="first_fit", kind="uniform", d=2, n=200,
                        mu=10.0, seed=BASE_SEED + 11),
]

#: A seconds-fast repacking subset for tests and the CI smoke leg.
REPACKING_SMOKE_SCENARIOS: List[RepackBenchScenario] = [
    RepackBenchScenario(name="thm5-d1-k2-mu6-first_fit-smoke",
                        policy="first_fit", kind="thm5", d=1, k=2, mu=6.0),
    RepackBenchScenario(name="thm6-d1-k2-mu6-next_fit-smoke",
                        policy="next_fit", kind="thm6", d=1, k=2, mu=6.0),
    RepackBenchScenario(name="uniform-d2-n60-mu8-first_fit-smoke",
                        policy="first_fit", kind="uniform", d=2, n=60,
                        mu=8.0, seed=BASE_SEED + 12),
]


def run_scenario(
    scenario: BenchScenario,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
    sink: Optional[TraceSink] = None,
) -> Dict[str, Any]:
    """Run one scenario through every algorithm; return its JSON record.

    Per algorithm the cell of the run with the smallest collector
    wall-time over ``repeats`` runs is kept; counters and costs are
    identical across repeats for the deterministic policies and
    per-seed-stable for Random Fit, which the registry seeds afresh —
    its default seed makes even that deterministic.
    """
    instance = scenario.build_instance()
    lb = height_lower_bound(instance)

    def trial(name: str) -> Tuple[float, Dict[str, Any]]:
        collector = StatsCollector(sink=sink)
        packing = run(make_algorithm(name), instance, collector=collector)
        stats = collector.snapshot()
        return stats.wall_time_s, {
            "wall_time_s": stats.wall_time_s,
            "dispatch_time_s": stats.dispatch_time_s,
            "events": stats.events,
            "events_per_sec": stats.events_per_sec,
            "cost": packing.cost,
            "cost_ratio": packing.cost / lb,
            "num_bins": packing.num_bins,
            "peak_open_bins": stats.peak_open_bins,
            "candidate_scans": stats.candidate_scans,
            "fit_checks": stats.fit_checks,
        }

    record = {
        "name": scenario.name,
        "params": _params(scenario),
        "lower_bound": lb,
        "results": {
            name: _best_of(repeats, lambda: trial(name))[1] for name in algorithms
        },
    }
    if sink is not None:
        sink.emit("scenario", record)
    return record


def run_suite(
    scenarios: Sequence[BenchScenario] = tuple(CORE_SCENARIOS),
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
    sink: Optional[TraceSink] = None,
    progress=None,
) -> Dict[str, Any]:
    """Run the core grid; return its ``algorithms`` and ``scenarios``.

    ``progress`` is an optional ``callable(str)`` (e.g. ``print``)
    invoked once per finished scenario.
    """
    records = []
    for scenario in scenarios:
        record = run_scenario(scenario, algorithms, repeats=repeats, sink=sink)
        records.append(record)
        if progress is not None:
            slowest = max(r["wall_time_s"] for r in record["results"].values())
            progress(f"  {scenario.name}: {len(record['results'])} algorithms, "
                     f"slowest {slowest * 1e3:.1f} ms")
    return {"algorithms": list(algorithms), "scenarios": records}


#: The L1/Lp measure-kernel cells: label -> (fast policy spec,
#: (registry name, constructor kwargs)).
MEASURE_KERNEL_SPECS = (
    ("best_fit_l1", "best_fit:l1", ("best_fit", {"measure": "l1"})),
    ("best_fit_l2", "best_fit:lp:2.0", ("best_fit", {"measure": "lp", "p": 2.0})),
    ("worst_fit_l1", "worst_fit:l1", ("worst_fit", {"measure": "l1"})),
)


def run_measure_kernel_cells(
    scenario: BenchScenario, repeats: int = 3
) -> Dict[str, Any]:
    """Time classic vs the numpy fast kernel for the L1/Lp measure cells.

    The measure variants were fast-ineligible before the L1/Lp kernels
    landed; these cells pin their speedup (and bit-identity) into the
    trajectory file the same way the default-measure grid does.
    """
    instance = scenario.build_instance()
    cells: Dict[str, Any] = {}
    for label, spec, (base, kwargs) in MEASURE_KERNEL_SPECS:
        classic_s, classic = _best_of(
            repeats, lambda: _timed(run, make_algorithm(base, **kwargs), instance)
        )
        fast_s, fast = _best_of(
            repeats,
            lambda: _timed(FastEngine(instance, spec, backend=NUMPY_BACKEND).run),
        )
        cells[label] = {
            "spec": spec,
            "classic_s": classic_s,
            "fast_numpy_s": fast_s,
            "speedup_numpy": classic_s / fast_s if fast_s > 0 else 0.0,
            "cost": classic.cost,
            "num_bins": classic.num_bins,
            "identical": dict(fast.assignment) == dict(classic.assignment),
        }
    return cells


def run_fastpath_scenario(
    scenario: BenchScenario,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
) -> Dict[str, Any]:
    """Time classic vs fastpath on one scenario; return its JSON record.

    Per algorithm: the classic engine and every fastpath backend
    (:data:`~repro.simulation.fastpath.BACKENDS`) replay the same pinned
    instance, wall-time taken as the minimum over ``repeats``
    uninstrumented runs (pure engine speed, no collector).  Every fast packing is checked for assignment equality
    against the classic one — the ``identical`` flag pins the
    twin-engine contract into the perf trajectory file itself.
    """
    instance = scenario.build_instance()
    results: Dict[str, Any] = {}
    for name in algorithms:
        classic_s, classic = _best_of(
            repeats, lambda: _timed(run, make_algorithm(name), instance)
        )
        cell: Dict[str, Any] = {
            "classic_s": classic_s,
            "cost": classic.cost,
            "num_bins": classic.num_bins,
        }
        identical = True
        for backend in BACKENDS:
            fast_s, fast = _best_of(
                repeats,
                lambda: _timed(FastEngine(instance, name, backend=backend).run),
            )
            identical = identical and dict(fast.assignment) == dict(classic.assignment)
            cell[f"fast_{backend}_s"] = fast_s
            cell[f"speedup_{backend}"] = classic_s / fast_s if fast_s > 0 else 0.0
        cell["identical"] = identical
        results[name] = cell

    totals: Dict[str, Any] = {
        "classic_s": sum(c["classic_s"] for c in results.values()),
        "identical": all(c["identical"] for c in results.values()),
    }
    for backend in BACKENDS:
        fast_total = sum(c[f"fast_{backend}_s"] for c in results.values())
        totals[f"fast_{backend}_s"] = fast_total
        totals[f"speedup_{backend}"] = (
            totals["classic_s"] / fast_total if fast_total > 0 else 0.0
        )
    return {
        "name": scenario.name,
        "params": _params(scenario),
        "backends": list(BACKENDS),
        "results": results,
        "totals": totals,
    }


def run_fastpath_suite(
    scenarios: Sequence[BenchScenario] = tuple(FASTPATH_SCENARIOS),
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
    progress=None,
) -> Dict[str, Any]:
    """Run the twin-engine comparison suite.

    The ``headline`` block repeats the totals of the largest scenario
    (by ``n``) — the number the acceptance gate and the README quote —
    except ``identical``, which covers every scenario of the grid and
    the L1/Lp measure-kernel cells (:func:`run_measure_kernel_cells`,
    run on the grid's first ``d = 2`` scenario).
    """
    records = []
    for scenario in scenarios:
        record = run_fastpath_scenario(scenario, algorithms, repeats=repeats)
        records.append(record)
        if progress is not None:
            speedups = ", ".join(
                f"{b} {record['totals'][f'speedup_{b}']:.1f}x" for b in BACKENDS
            )
            progress(
                f"  {scenario.name}: classic {record['totals']['classic_s']:.2f} s, "
                f"speedup {speedups}, identical={record['totals']['identical']}"
            )
    measure_scenario = next((s for s in scenarios if s.d == 2), scenarios[0])
    measure = run_measure_kernel_cells(measure_scenario, repeats=repeats)
    if progress is not None:
        for label, cell in measure.items():
            progress(
                f"  {measure_scenario.name} {label}: classic "
                f"{cell['classic_s']:.2f} s, fast {cell['fast_numpy_s']:.3f} s "
                f"({cell['speedup_numpy']:.1f}x), identical={cell['identical']}"
            )
    largest = max(records, key=lambda r: r["params"]["n"])
    return {
        "backends": list(BACKENDS),
        "algorithms": list(algorithms),
        "headline": {
            "scenario": largest["name"],
            **largest["totals"],
            "identical": all(r["totals"]["identical"] for r in records)
            and all(c["identical"] for c in measure.values()),
        },
        "measure_scenario": measure_scenario.name,
        "measure_kernels": measure,
        "scenarios": records,
    }


def _unit_key_tuples(sweep: Dict[str, Any]) -> Dict[str, List[tuple]]:
    """Comparable aggregate tuples of one sweep result mapping."""
    return {
        name: [(r.instance_index, r.cost, r.num_bins, r.lower_bound) for r in units]
        for name, units in sweep.items()
    }


def run_batch_scenario(
    scenario: SweepBenchScenario,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
) -> Dict[str, Any]:
    """Time per-unit classic dispatch vs batched dispatch on one cell.

    Both sides drive the real sweep entry points end to end,
    serialisation included: the baseline is
    ``parallel_sweep(processes=0, engine="classic")`` — one worker unit
    per (algorithm, instance), each replayed on the classic engine —
    and the batched side is ``parallel_sweep(processes=0,
    engine="batch")`` fed compact
    :class:`~repro.simulation.batch.InstanceSpec` sources (the in-worker
    instance cache is cleared before every repeat, so regeneration cost
    is *included*).  Wall-time is the minimum over ``repeats``; the
    ``identical`` flag records that the two paths produced bit-identical
    aggregates, pinning the contract into the trajectory file.
    """
    from .simulation.batch import clear_instance_cache
    from .simulation.parallel import parallel_sweep

    instances = scenario.build_instances()
    specs = scenario.build_specs()

    def batched() -> Tuple[float, Any]:
        clear_instance_cache()
        return _timed(parallel_sweep, list(algorithms), specs, processes=0,
                      engine="batch")

    per_unit_s, per_unit = _best_of(repeats, lambda: _timed(
        parallel_sweep, list(algorithms), instances, processes=0, engine="classic"
    ))
    batch_s, batched_units = _best_of(repeats, batched)
    identical = _unit_key_tuples(per_unit) == _unit_key_tuples(batched_units)

    return {
        "name": scenario.name,
        "params": _params(scenario),
        "units": len(algorithms) * scenario.m,
        "per_unit_s": per_unit_s,
        "batch_s": batch_s,
        "speedup": per_unit_s / batch_s if batch_s > 0 else 0.0,
        "identical": identical,
    }


def run_batch_suite(
    scenarios: Sequence[SweepBenchScenario] = tuple(BATCH_SCENARIOS),
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
    progress=None,
) -> Dict[str, Any]:
    """Run the batched-sweep comparison suite.

    The ``headline`` block aggregates the grid's totals — summed
    per-unit and batched wall-times and the resulting overall speedup,
    which is recorded, not gated (the suite's gate is ``identical``) —
    and ``item_memory`` records the per-object footprint ``__slots__``
    buys on hot per-event objects
    (:func:`measure_item_memory`).
    """
    records = []
    for scenario in scenarios:
        record = run_batch_scenario(scenario, algorithms, repeats=repeats)
        records.append(record)
        if progress is not None:
            progress(
                f"  {record['name']}: per-unit {record['per_unit_s'] * 1e3:.1f} ms, "
                f"batch {record['batch_s'] * 1e3:.1f} ms, "
                f"speedup {record['speedup']:.1f}x, "
                f"identical={record['identical']}"
            )
    per_unit_total = sum(r["per_unit_s"] for r in records)
    batch_total = sum(r["batch_s"] for r in records)
    return {
        "algorithms": list(algorithms),
        "headline": {
            "per_unit_s": per_unit_total,
            "batch_s": batch_total,
            "speedup": per_unit_total / batch_total if batch_total > 0 else 0.0,
            "identical": all(r["identical"] for r in records),
        },
        "item_memory": measure_item_memory(),
        "scenarios": records,
    }


def run_streaming_scenario(
    scenario: StreamBenchScenario, repeats: int = 1
) -> Dict[str, Any]:
    """Run one bounded-memory stream end to end; return its JSON record.

    A fresh :class:`~repro.streaming.StreamingEngine` consumes the
    scenario's lazily generated Poisson stream with
    ``record_assignment=False`` — *nothing* on this path is O(stream
    length): no instance, no item list, no assignment map.  Wall-time is
    the minimum over ``repeats`` (default 1 — the headline cell runs
    minutes); counters come from the fastest run and are seed-stable.
    ``peak_rss_mb`` is the process high-water mark after the runs, the
    operational "does 10M events fit in memory" number.
    """
    from .streaming import StreamingEngine

    workload = scenario.workload()
    wall, result = _best_of(repeats, lambda: _timed(
        StreamingEngine(
            make_algorithm(scenario.policy), workload.capacity,
            record_assignment=False, flush_every=1_000_000,
        ).run,
        workload.stream_seeded(scenario.seed),
    ))
    return {
        "name": scenario.name,
        "params": _params(scenario),
        "wall_time_s": wall,
        "items": result.arrivals,
        "events": result.events,
        "events_per_sec": result.events / wall if wall > 0 else 0.0,
        "cost": result.cost,
        "bins_opened": result.bins_opened,
        "peak_open_bins": result.peak_open_bins,
        "peak_live_items": result.peak_live_items,
        "flushes": result.flushes,
        "peak_rss_mb": (_peak_rss_bytes() or 0) / 2**20,
    }


def run_streaming_suite(
    scenarios: Sequence[StreamBenchScenario] = tuple(STREAMING_SCENARIOS),
    repeats: int = 1,
    progress=None,
) -> Dict[str, Any]:
    """Run the bounded-memory suite.

    The ``headline`` block repeats the largest cell (by event count):
    events/sec throughput, the peak live-item count (the memory model's
    O(live) bound made measurable — compare it against ``items`` to see
    the stream was never materialised), and the process peak RSS.
    """
    records = []
    # ru_maxrss is a process high-water mark: running the largest cell
    # first makes the peak RSS attributable to the headline cell
    ordered = sorted(
        scenarios, key=lambda s: s.rate * s.horizon, reverse=True
    )
    for scenario in ordered:
        record = run_streaming_scenario(scenario, repeats=repeats)
        records.append(record)
        if progress is not None:
            progress(
                f"  {record['name']}: {record['events']} events in "
                f"{record['wall_time_s']:.1f} s "
                f"({record['events_per_sec']:.0f}/s), "
                f"peak live {record['peak_live_items']} of "
                f"{record['items']} items, "
                f"rss {record['peak_rss_mb']:.0f} MiB"
            )
    largest = max(records, key=lambda r: r["events"])
    return {
        "headline": {
            "scenario": largest["name"],
            "events": largest["events"],
            "items": largest["items"],
            "events_per_sec": largest["events_per_sec"],
            "peak_live_items": largest["peak_live_items"],
            "peak_open_bins": largest["peak_open_bins"],
            "peak_rss_mb": largest["peak_rss_mb"],
        },
        "scenarios": records,
    }


def run_adversary_suite(
    scenarios=None,
    repeats: int = 1,
    progress=None,
) -> Dict[str, Any]:
    """Time the adaptive-adversary must-exceed scenario grid.

    Each cell records the induced-instance size, the certified ratio and
    the fraction of the theoretical bound it achieved, plus wall time
    (minimum over ``repeats`` — only the timing fields vary between
    runs; the ratios are seed-pinned and exactly reproducible).  The
    ``headline`` block carries the tightest bounded-ratio margin (the
    scenario closest to its required fraction) and the largest amplifier
    ratio — the numbers a perf/correctness trajectory should watch.
    """
    from .adversaries.scenarios import MUST_EXCEED_SCENARIOS, run_scenario as _run_sc

    if scenarios is None:
        scenarios = MUST_EXCEED_SCENARIOS
    records = []
    for scenario in scenarios:
        wall, outcome = _best_of(repeats, lambda: _timed(_run_sc, scenario, seed=0))
        res = outcome.result
        finite = res.theoretical_bound != float("inf")
        record = {
            "name": scenario.label,
            "attack": scenario.attack,
            "policy": scenario.policy,
            "mu": scenario.mu,
            "d": scenario.d,
            "items": res.n,
            "certified_ratio": res.certified_ratio,
            "required": outcome.required,
            # None for the unboundedness attacks (JSON has no inf)
            "theoretical_bound": res.theoretical_bound if finite else None,
            "fraction_of_bound": res.fraction_of_bound if finite else None,
            "passed": outcome.passed,
            "replay_identical": res.replay_identical,
            "wall_time_s": wall,
        }
        records.append(record)
        if progress is not None:
            progress(
                f"  {record['name']}: ratio {record['certified_ratio']:.3f} "
                f"(required {record['required']:.3f}), {record['items']} items "
                f"in {record['wall_time_s']:.2f} s"
            )
    bounded = [r for r in records if r["theoretical_bound"] is not None]
    unbounded = [r for r in records if r["theoretical_bound"] is None]
    tightest = min(
        bounded, key=lambda r: r["certified_ratio"] / r["required"], default=None
    )
    amplifier = max(
        unbounded, key=lambda r: r["certified_ratio"], default=None
    )
    return {
        "headline": {
            "scenarios": len(records),
            "all_passed": all(r["passed"] for r in records),
            "tightest_scenario": tightest["name"] if tightest else None,
            "tightest_margin": (
                tightest["certified_ratio"] / tightest["required"]
                if tightest else None
            ),
            "max_amplifier_ratio": (
                amplifier["certified_ratio"] if amplifier else None
            ),
        },
        "scenarios": records,
    }


def run_repacking_scenario(
    scenario: RepackBenchScenario, repeats: int = 1
) -> Dict[str, Any]:
    """Sweep one scenario's cost-vs-migration frontier; return its record.

    The whole :data:`REPACK_FRONTIER_GRID` runs on one
    :class:`~repro.simulation.batch.BatchRunner` (one instance, one
    shared lower bound), one ``run_units`` call per frontier point with
    its ``"repacking:<repacker>:<budget>"`` engine spec, so the bench
    exercises exactly the wiring sweeps use.  Two zero-migration
    yardsticks anchor the frontier from below:
    the offline :func:`~repro.optimum.offline_assignment.greedy_assignment`
    (full hindsight, no moves ever) and the clairvoyant
    :class:`~repro.algorithms.clairvoyant.DurationClassifiedFirstFit`
    (knows durations, still online and no-recourse).  Wall-time is the
    minimum over ``repeats``; every other field is seed-pinned.
    """
    from .algorithms.clairvoyant import DurationClassifiedFirstFit
    from .optimum.offline_assignment import greedy_assignment
    from .simulation.batch import BatchRunner

    instance = scenario.build()

    def frontier_units():
        runner = BatchRunner(instance)
        return [
            unit
            for repacker, budget in REPACK_FRONTIER_GRID
            for unit in runner.run_units(
                [(scenario.policy, None)], collect_stats=True,
                engine=f"repacking:{repacker}:{budget}",
            )
        ]

    best_wall, units = _best_of(repeats, lambda: _timed(frontier_units))
    baseline = next(
        u.cost for (rep, _), u in zip(REPACK_FRONTIER_GRID, units)
        if rep == "no_repack"
    )
    frontier = [
        {
            "repacker": repacker,
            "budget": budget,
            "cost": unit.cost,
            "num_bins": unit.num_bins,
            "moves": unit.stats.migrations if unit.stats is not None else None,
            "cost_vs_no_recourse": unit.cost / baseline if baseline > 0 else 1.0,
        }
        for (repacker, budget), unit in zip(REPACK_FRONTIER_GRID, units)
    ]
    best = min(frontier, key=lambda f: f["cost"])
    offline = greedy_assignment(instance)
    clairvoyant = run(DurationClassifiedFirstFit(), instance)
    return {
        "name": scenario.name,
        "params": _params(scenario),
        "items": instance.n,
        "wall_time_s": best_wall,
        "no_recourse_cost": baseline,
        "offline_greedy_cost": offline.cost,
        "clairvoyant_cost": clairvoyant.cost,
        "lower_bound": units[0].lower_bound,
        "frontier": frontier,
        "best": {
            "repacker": best["repacker"],
            "budget": best["budget"],
            "cost": best["cost"],
            "improvement": (
                (baseline - best["cost"]) / baseline if baseline > 0 else 0.0
            ),
        },
    }


def run_repacking_suite(
    scenarios: Sequence[RepackBenchScenario] = tuple(REPACKING_SCENARIOS),
    repeats: int = 1,
    progress=None,
) -> Dict[str, Any]:
    """Run the migration-frontier suite.

    The ``headline`` reports whether every lower-bound gadget scenario
    (``thm5``/``thm6``) achieved a *strict* cost improvement under some
    budgeted policy — the structural claim of the repacking subsystem:
    the workloads that force the no-recourse lower bounds stop being
    worst cases once bounded migration is allowed.  ``gadgets_improved``
    is the pass/fail gate the CLI turns into an exit code.
    """
    records = []
    for scenario in scenarios:
        record = run_repacking_scenario(scenario, repeats=repeats)
        records.append(record)
        if progress is not None:
            best = record["best"]
            progress(
                f"  {record['name']}: no-recourse {record['no_recourse_cost']:.1f} "
                f"-> best {best['cost']:.1f} "
                f"({best['repacker']}:{best['budget']:g}, "
                f"{best['improvement']:.0%} saved), offline "
                f"{record['offline_greedy_cost']:.1f}"
            )
    gadgets = [r for r in records if r["params"]["kind"] in ("thm5", "thm6")]
    gadgets_improved = bool(gadgets) and all(
        r["best"]["cost"] < r["no_recourse_cost"] - 1e-9 for r in gadgets
    )
    biggest = max(records, key=lambda r: r["best"]["improvement"])
    return {
        "headline": {
            "scenarios": len(records),
            "gadgets_improved": gadgets_improved,
            "biggest_improvement": biggest["best"]["improvement"],
            "biggest_improvement_scenario": biggest["name"],
        },
        "scenarios": records,
    }


def measure_item_memory(count: int = 10_000) -> Dict[str, Any]:
    """Per-object memory of the slotted :class:`~repro.core.items.Item`.

    Allocates ``count`` items and an equally sized batch of a
    structurally identical *dict-backed* twin dataclass under
    ``tracemalloc`` and reports bytes per object for both, plus the
    saving.  On interpreters without dataclass ``slots=True`` support
    (< 3.10, where ``DATACLASS_SLOTS`` degrades to a no-op) the two
    numbers simply come out equal — recorded as a zero saving, never an
    error.
    """
    import tracemalloc
    from dataclasses import dataclass as _dataclass, field as _field

    import numpy as _np

    from .core.items import Item
    from .core.vectors import as_size_vector

    @_dataclass(frozen=True)
    class _DictItem:
        # Item minus __slots__: same fields, same per-instance array
        # copy in __post_init__, so the measured delta is purely the
        # object-layout (__dict__) cost.
        arrival: float
        departure: float
        size: Any = _field(repr=False)
        uid: int = 0

        def __post_init__(self) -> None:
            object.__setattr__(self, "size", as_size_vector(self.size))

    size = _np.ones(2)

    def _measure(factory) -> int:
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        objs = [factory(i) for i in range(count)]
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del objs
        return max(0, after - before)

    slotted = _measure(lambda i: Item(uid=i, size=size, arrival=0.0, departure=1.0))
    dict_backed = _measure(
        lambda i: _DictItem(uid=i, size=size, arrival=0.0, departure=1.0)
    )
    return {
        "count": count,
        "slots_bytes_per_item": slotted / count,
        "dict_bytes_per_item": dict_backed / count,
        "savings_bytes_per_item": max(0.0, (dict_backed - slotted) / count),
        "slots_enabled": not hasattr(
            Item(uid=0, size=size, arrival=0.0, departure=1.0), "__dict__"
        ),
    }


def measure_overhead(
    scenario: Optional[BenchScenario] = None,
    algorithm: str = "move_to_front",
    repeats: int = 5,
) -> Dict[str, Any]:
    """Measure what attaching a :class:`StatsCollector` costs the engine.

    The engine has one loop; a collector makes it read the clock and
    count candidate scans.  This runs ``repeats`` *interleaved pairs* of
    a plain run (``collector=None`` — the default every test and
    experiment uses) and a run with a collector and the default no-op
    sink, on the harness's medium scenario, and reports the minimum of
    each side plus the relative overhead.  Interleaving pairs (rather
    than timing the two sides back to back) cancels clock-frequency and
    cache drift on shared machines; the clock is **process CPU time**,
    not wall time, so scheduler preemption on loaded machines does not
    pollute a sub-millisecond difference measurement.  The documented
    budget is 2%: perf PRs touching the engine should re-run this.
    """
    scenario = scenario or MEDIUM_SCENARIO
    instance = scenario.build_instance()

    clock = time.process_time
    plain_s = instrumented_s = float("inf")
    for _ in range(max(1, repeats)):  # pairs, so not a _best_of trial
        algo = make_algorithm(algorithm)
        t0 = clock()
        run(algo, instance)
        plain_s = min(plain_s, clock() - t0)

        algo = make_algorithm(algorithm)
        collector = StatsCollector()
        t0 = clock()
        run(algo, instance, collector=collector)
        instrumented_s = min(instrumented_s, clock() - t0)
    return {
        "scenario": scenario.name,
        "algorithm": algorithm,
        "plain_s": plain_s,
        "instrumented_s": instrumented_s,
        "overhead_frac": instrumented_s / plain_s - 1.0 if plain_s > 0 else 0.0,
    }


def run_overhead_suite(repeats: int = 5) -> Dict[str, Any]:
    """The overhead protocol as a suite: its report is the headline."""
    return {"headline": measure_overhead(repeats=repeats)}


# ----------------------------------------------------------------------
# the suite registry, the envelope and the output document
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One ``repro bench --suite`` entry.

    ``run(repeats=...)`` returns the suite's result: its ``headline``,
    ``scenarios`` and extras.  Its ``repeats`` default is the suite's
    default, and it takes ``progress`` and ``sink`` only if it reports
    to them.  ``key`` is where :func:`write_record` stores the record,
    and ``gate`` names the headline flag that must be true for the
    suite to pass.
    """

    key: str
    run: Callable[..., Dict[str, Any]]
    gate: Optional[str] = None

    def passed(self, record: Dict[str, Any]) -> bool:
        """Whether ``record`` clears this suite's gate (always, without one)."""
        return self.gate is None or bool(record["headline"][self.gate])


#: Every ``--suite`` name.  A smoke form shares its full suite's key.
SUITES: Dict[str, Suite] = {
    "core": Suite("core", run_suite),
    "smoke": Suite("core", partial(run_suite, SMOKE_SCENARIOS)),
    "fastpath": Suite("fastpath", run_fastpath_suite, "identical"),
    "fastpath-smoke": Suite(
        "fastpath", partial(run_fastpath_suite, FASTPATH_SMOKE_SCENARIOS),
        "identical",
    ),
    "batch": Suite("batch", run_batch_suite, "identical"),
    "batch-smoke": Suite(
        "batch", partial(run_batch_suite, BATCH_SMOKE_SCENARIOS), "identical"
    ),
    "streaming": Suite("streaming", run_streaming_suite),
    "streaming-smoke": Suite(
        "streaming", partial(run_streaming_suite, STREAMING_SMOKE_SCENARIOS)
    ),
    "adversary": Suite("adversary", run_adversary_suite, "all_passed"),
    "repacking": Suite("repacking", run_repacking_suite, "gadgets_improved"),
    "repacking-smoke": Suite(
        "repacking", partial(run_repacking_suite, REPACKING_SMOKE_SCENARIOS),
        "gadgets_improved",
    ),
    "overhead": Suite("overhead", run_overhead_suite),
}


def list_suites() -> List[str]:
    """Every registered suite name, in registration order."""
    return list(SUITES)


def get_suite(name: str) -> Suite:
    """The registered suite ``name``."""
    try:
        return SUITES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench suite {name!r}; choose from {list_suites()}"
        ) from None


def run_bench(
    name: str,
    repeats: Optional[int] = None,
    progress=None,
    sink: Optional[TraceSink] = None,
) -> Dict[str, Any]:
    """Run the registered suite ``name`` and return its record.

    ``repeats=None`` takes the suite's own default.  ``progress`` gets
    a line per finished scenario, and ``sink`` the per-run records of
    the suites that trace (core and smoke) plus, for every suite, one
    ``"suite"`` record: the envelope without its scenarios.
    """
    suite = get_suite(name)
    params = inspect.signature(suite.run).parameters
    if repeats is None:
        repeats = params["repeats"].default
    options = {key: value for key, value in (("progress", progress), ("sink", sink))
               if key in params}
    t0 = time.perf_counter()
    result = suite.run(repeats=repeats, **options)
    record = {
        "suite": name,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "total_wall_time_s": time.perf_counter() - t0,
        **result,
    }
    if sink is not None:
        sink.emit("suite", {k: v for k, v in record.items() if k != "scenarios"})
    return record


def read_bench(path: str) -> Dict[str, Any]:
    """The bench document at ``path``; an empty one if there is no file.

    A path that exists but does not hold a readable :data:`SCHEMA`
    document raises :class:`~repro.core.errors.ConfigurationError`
    naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {"schema": SCHEMA}
    except (OSError, ValueError):
        doc = None
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"{path} is not a {SCHEMA} document; refusing to overwrite it"
        )
    return doc


def write_record(path: str, key: str, record: Dict[str, Any]) -> None:
    """Store ``record`` under ``key`` of the document at ``path``.

    Every other key is kept as it was; the write is atomic.
    """
    doc = read_bench(path)
    doc[key] = record
    atomic_write(path, json.dumps(doc, indent=2) + "\n")
