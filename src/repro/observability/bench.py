"""The pinned-seed perf-baseline suite behind ``BENCH_core.json``.

This module defines the standardized benchmark every perf PR is judged
against: a grid of uniform workloads (``d ∈ {1, 2, 4}`` × small /
medium / large ``n``) run through all seven Any Fit variants of the
paper's Section 7 study, with wall-time, event throughput, hot-path
counters, and cost ratios recorded per (scenario, algorithm) cell.

Entry points
------------
* ``python -m repro bench`` — the CLI wrapper;
* ``benchmarks/harness.py`` — the repo-root script that writes
  ``BENCH_core.json`` (the perf trajectory file);
* :func:`run_suite` / :func:`run_scenario` — the library API;
* :func:`run_batch_suite` — the batched-sweep comparison (per-unit
  fastpath dispatch vs ``engine="batch"``), nested under the
  ``"batch"`` key of ``BENCH_core.json``;
* :func:`measure_overhead` — the instrumentation-overhead protocol
  (plain engine loop vs. instrumented loop with the default no-op
  sink), used to enforce the documented <= 2% budget.

Reproducibility
---------------
Scenario seeds are pinned (derived deterministically from the suite
base seed), wall-times are the **minimum** over ``repeats`` runs (the
standard low-noise estimator for short benchmarks), and all counter
fields are exactly reproducible — so two harness runs differ only in
the timing fields.  See docs/observability.md for how to read and
update the trajectory file.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from ..optimum.lower_bounds import height_lower_bound
from ..simulation.fastpath import available_backends, fast_simulate
from ..simulation.runner import run
from ..workloads.uniform import UniformWorkload
from .sinks import TraceSink
from .stats import StatsCollector

__all__ = [
    "SCHEMA",
    "FASTPATH_SCHEMA",
    "BASE_SEED",
    "BenchScenario",
    "CORE_SCENARIOS",
    "SMOKE_SCENARIOS",
    "FASTPATH_SCENARIOS",
    "FASTPATH_SMOKE_SCENARIOS",
    "BATCH_SCHEMA",
    "SweepBenchScenario",
    "BATCH_SCENARIOS",
    "BATCH_SMOKE_SCENARIOS",
    "STREAMING_SCHEMA",
    "StreamBenchScenario",
    "STREAMING_SCENARIOS",
    "STREAMING_SMOKE_SCENARIOS",
    "ADVERSARY_SCHEMA",
    "REPACKING_SCHEMA",
    "RepackBenchScenario",
    "REPACKING_SCENARIOS",
    "REPACKING_SMOKE_SCENARIOS",
    "REPACK_FRONTIER_GRID",
    "run_scenario",
    "run_suite",
    "run_fastpath_scenario",
    "run_fastpath_suite",
    "VECTORIZED_SCHEMA",
    "VECTORIZED_TRIALS",
    "VECTORIZED_SMOKE_TRIALS",
    "VECTORIZED_SCENARIO",
    "VECTORIZED_SMOKE_SCENARIO",
    "MEASURE_KERNEL_SPECS",
    "run_vectorized_trials_scenario",
    "run_measure_kernel_cells",
    "run_vectorized_suite",
    "merge_vectorized",
    "NUMBA_SCHEMA",
    "NUMBA_TRIALS",
    "NUMBA_SMOKE_TRIALS",
    "run_numba_suite",
    "merge_numba",
    "run_batch_scenario",
    "run_batch_suite",
    "run_streaming_scenario",
    "run_streaming_suite",
    "run_adversary_suite",
    "run_repacking_scenario",
    "run_repacking_suite",
    "write_bench",
    "merge_fastpath",
    "merge_suite",
    "COMPANION_SUITES",
    "measure_overhead",
    "measure_item_memory",
]

#: Schema tag stamped on every payload; bump on incompatible changes.
SCHEMA = "repro-bench/v1"

#: Schema tag of the twin-engine comparison payload nested under the
#: ``"fastpath"`` key of ``BENCH_core.json``.
FASTPATH_SCHEMA = "repro-bench-fastpath/v1"

#: Schema tag of the batched-sweep comparison payload nested under the
#: ``"batch"`` key of ``BENCH_core.json``.
BATCH_SCHEMA = "repro-bench-batch/v1"

#: Schema tag of the bounded-memory long-stream payload nested under the
#: ``"streaming"`` key of ``BENCH_core.json``.
STREAMING_SCHEMA = "repro-bench-streaming/v1"

#: Schema tag of the adaptive-adversary payload nested under the
#: ``"adversary"`` key of ``BENCH_core.json``.
ADVERSARY_SCHEMA = "repro-bench-adversary/v1"

#: Schema tag of the migration-budget frontier payload nested under the
#: ``"repacking"`` key of ``BENCH_core.json``.
REPACKING_SCHEMA = "repro-bench-repacking/v1"

#: Suite base seed (the paper's arXiv date, matching ExperimentConfig).
BASE_SEED = 20230419


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

    def params(self) -> Dict[str, Any]:
        """JSON-ready parameter record."""
        return {"d": self.d, "n": self.n, "mu": self.mu, "T": self.T,
                "B": self.B, "seed": self.seed, "size": self.size}


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

#: A seconds-fast subset for tests and smoke checks (same schema).
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
    trials: int = 8  # seeded random_fit trials in the trials sub-bench

    def generator(self) -> UniformWorkload:
        return UniformWorkload(d=self.d, n=self.n, mu=self.mu, T=self.T, B=self.B)

    def build_instances(self):
        """The pinned instance batch (per-unit baseline inputs)."""
        from ..workloads.base import generate_batch

        return generate_batch(self.generator(), self.m, seed=self.seed)

    def build_specs(self):
        """Spec twins of :meth:`build_instances` (batched-path inputs)."""
        from ..simulation.batch import spec_batch

        return spec_batch(self.generator(), self.m, seed=self.seed)

    def params(self) -> Dict[str, Any]:
        """JSON-ready parameter record."""
        return {"d": self.d, "n": self.n, "mu": self.mu, "m": self.m,
                "T": self.T, "B": self.B, "seed": self.seed,
                "trials": self.trials}


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
#: durations.  The ``engine="batch"`` acceptance speedup (>= 3x over
#: per-unit fastpath dispatch) is judged on this grid's totals.
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
        from ..workloads.poisson import PoissonWorkload

        return PoissonWorkload(d=self.d, rate=self.rate, horizon=self.horizon)

    def params(self) -> Dict[str, Any]:
        """JSON-ready parameter record."""
        return {"policy": self.policy, "d": self.d, "rate": self.rate,
                "horizon": self.horizon, "seed": self.seed}


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
            from ..workloads.adversarial import theorem5_instance

            return theorem5_instance(d=self.d, k=self.k, mu=self.mu).instance
        if self.kind == "thm6":
            from ..workloads.adversarial import theorem6_instance

            return theorem6_instance(d=self.d, k=self.k, mu=self.mu).instance
        return UniformWorkload(
            d=self.d, n=self.n, mu=self.mu, T=60, B=5, name=self.name
        ).sample_seeded(self.seed)

    def params(self) -> Dict[str, Any]:
        """JSON-ready parameter record."""
        return {"policy": self.policy, "kind": self.kind, "d": self.d,
                "k": self.k, "mu": self.mu, "n": self.n, "seed": self.seed}


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

    Wall-time per algorithm is the minimum over ``repeats`` instrumented
    runs; counters and costs are taken from the last run (they are
    identical across repeats for the deterministic policies and
    per-seed-stable for Random Fit, which the registry seeds afresh —
    its default seed makes even that deterministic).
    """
    instance = scenario.build_instance()
    lb = height_lower_bound(instance)
    results: Dict[str, Any] = {}
    for name in algorithms:
        best: Optional[Dict[str, Any]] = None
        for _ in range(max(1, repeats)):
            collector = StatsCollector(sink=sink)
            packing = run(make_algorithm(name), instance, collector=collector)
            stats = collector.snapshot()
            cell = {
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
            if best is None or cell["wall_time_s"] < best["wall_time_s"]:
                best = cell
        results[name] = best
    record = {
        "name": scenario.name,
        "params": scenario.params(),
        "lower_bound": lb,
        "results": results,
    }
    if sink is not None:
        sink.emit("scenario", record)
    return record


def run_suite(
    scenarios: Sequence[BenchScenario] = tuple(CORE_SCENARIOS),
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
    suite: str = "core",
    sink: Optional[TraceSink] = None,
    progress=None,
) -> Dict[str, Any]:
    """Run the whole suite and return the ``BENCH_core.json`` payload.

    ``progress`` is an optional ``callable(str)`` (e.g. ``print``)
    invoked once per finished scenario.
    """
    t0 = time.perf_counter()
    records = []
    for scenario in scenarios:
        record = run_scenario(scenario, algorithms, repeats=repeats, sink=sink)
        records.append(record)
        if progress is not None:
            slowest = max(r["wall_time_s"] for r in record["results"].values())
            progress(f"  {scenario.name}: {len(record['results'])} algorithms, "
                     f"slowest {slowest * 1e3:.1f} ms")
    payload = {
        "schema": SCHEMA,
        "suite": suite,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "algorithms": list(algorithms),
        "total_wall_time_s": time.perf_counter() - t0,
        "scenarios": records,
    }
    if sink is not None:
        sink.emit("suite", {k: v for k, v in payload.items() if k != "scenarios"})
    return payload


def run_fastpath_scenario(
    scenario: BenchScenario,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
    backends: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Time classic vs fastpath on one scenario; return its JSON record.

    Per algorithm: the classic engine and every requested fastpath
    backend replay the same pinned instance, wall-time taken as the
    minimum over ``repeats`` uninstrumented runs (pure engine speed, no
    collector).  Every fast packing is checked for assignment equality
    against the classic one — the ``identical`` flag pins the
    twin-engine contract into the perf trajectory file itself.
    """
    backends = tuple(backends) if backends is not None else available_backends()
    instance = scenario.build_instance()
    results: Dict[str, Any] = {}
    for name in algorithms:
        classic_s = float("inf")
        classic = None
        for _ in range(max(1, repeats)):
            algo = make_algorithm(name)
            t0 = time.perf_counter()
            classic = run(algo, instance)
            classic_s = min(classic_s, time.perf_counter() - t0)
        cell: Dict[str, Any] = {
            "classic_s": classic_s,
            "cost": classic.cost,
            "num_bins": classic.num_bins,
        }
        identical = True
        for backend in backends:
            fast_s = float("inf")
            fast = None
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                fast = fast_simulate(name, instance, backend=backend)
                fast_s = min(fast_s, time.perf_counter() - t0)
            identical = identical and dict(fast.assignment) == dict(classic.assignment)
            cell[f"fast_{backend}_s"] = fast_s
            cell[f"speedup_{backend}"] = classic_s / fast_s if fast_s > 0 else 0.0
        cell["identical"] = identical
        results[name] = cell

    totals: Dict[str, Any] = {
        "classic_s": sum(c["classic_s"] for c in results.values()),
        "identical": all(c["identical"] for c in results.values()),
    }
    for backend in backends:
        fast_total = sum(c[f"fast_{backend}_s"] for c in results.values())
        totals[f"fast_{backend}_s"] = fast_total
        totals[f"speedup_{backend}"] = (
            totals["classic_s"] / fast_total if fast_total > 0 else 0.0
        )
    return {
        "name": scenario.name,
        "params": scenario.params(),
        "backends": list(backends),
        "results": results,
        "totals": totals,
    }


def run_fastpath_suite(
    scenarios: Sequence[BenchScenario] = tuple(FASTPATH_SCENARIOS),
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
    backends: Optional[Sequence[str]] = None,
    suite: str = "fastpath",
    progress=None,
) -> Dict[str, Any]:
    """Run the twin-engine comparison suite; return its JSON payload.

    The ``headline`` block repeats the totals of the largest scenario
    (by ``n``) — the number the acceptance gate and the README quote.
    """
    backends = tuple(backends) if backends is not None else available_backends()
    t0 = time.perf_counter()
    records = []
    for scenario in scenarios:
        record = run_fastpath_scenario(
            scenario, algorithms, repeats=repeats, backends=backends
        )
        records.append(record)
        if progress is not None:
            speedups = ", ".join(
                f"{b} {record['totals'][f'speedup_{b}']:.1f}x" for b in backends
            )
            progress(
                f"  {scenario.name}: classic {record['totals']['classic_s']:.2f} s, "
                f"speedup {speedups}, identical={record['totals']['identical']}"
            )
    largest = max(records, key=lambda r: r["params"]["n"])
    payload = {
        "schema": FASTPATH_SCHEMA,
        "suite": suite,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "backends": list(backends),
        "algorithms": list(algorithms),
        "total_wall_time_s": time.perf_counter() - t0,
        "headline": {"scenario": largest["name"], **largest["totals"]},
        "scenarios": records,
    }
    return payload


# ----------------------------------------------------------------------
# the trial-lockstep vectorized suite (nested under fastpath/vectorized)
# ----------------------------------------------------------------------

#: Schema tag of the trial-lockstep comparison payload nested under
#: ``BENCH_core.json``'s ``"fastpath"`` key as ``"vectorized"``.
VECTORIZED_SCHEMA = "repro-bench-fastpath-vectorized/v1"

#: Trial fan-out width of the full vectorized suite: wide enough that
#: per-trial kernel dispatch dominates the sequential baseline (the
#: acceptance gate compares lockstep vs per-trial dispatch at >= 64).
VECTORIZED_TRIALS = 64

#: Seconds-fast width for tests and the CI smoke leg.
VECTORIZED_SMOKE_TRIALS = 8

#: The cell the trial fan-out and measure-kernel comparisons run on.
VECTORIZED_SCENARIO: BenchScenario = next(
    s for s in FASTPATH_SCENARIOS if s.d == 2 and s.size == "large"
)
VECTORIZED_SMOKE_SCENARIO: BenchScenario = next(
    s for s in FASTPATH_SMOKE_SCENARIOS if s.d == 2
)

#: The L1/Lp measure-kernel cells: label -> (fast policy spec,
#: (registry name, constructor kwargs)).
MEASURE_KERNEL_SPECS = (
    ("best_fit_l1", "best_fit:l1", ("best_fit", {"measure": "l1"})),
    ("best_fit_l2", "best_fit:lp:2.0", ("best_fit", {"measure": "lp", "p": 2.0})),
    ("worst_fit_l1", "worst_fit:l1", ("worst_fit", {"measure": "l1"})),
)


def run_vectorized_trials_scenario(
    scenario: BenchScenario,
    n_trials: int = VECTORIZED_TRIALS,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Time an M-trial ``random_fit`` fan-out: lockstep vs per-trial.

    Both timings go through :meth:`BatchRunner.run_trials` — the same
    shared-context dispatch path — differing only in the ``vectorized``
    flag, so the comparison isolates the trial-lockstep kernel from
    per-trial re-dispatch.  The classic baseline is one seeded classic
    run extrapolated to the fan-out width (running the full fan-out
    classically would dominate the whole suite's wall time for no
    information: classic trials are independent and identical in cost).
    The ``identical`` flag requires per-trial cost/bin agreement between
    both dispatch modes *and* bit-identity of the lockstep seed-0
    assignment against the classic engine.
    """
    from ..simulation.batch import BatchRunner
    from ..simulation.fastpath import FastEngine

    instance = scenario.build_instance()
    seeds = list(range(n_trials))
    sequential_s = float("inf")
    seq_units = None
    for _ in range(max(1, repeats)):
        runner = BatchRunner(instance)
        t0 = time.perf_counter()
        seq_units = runner.run_trials(seeds, vectorized=False)
        sequential_s = min(sequential_s, time.perf_counter() - t0)
    vectorized_s = float("inf")
    vec_units = None
    for _ in range(max(1, repeats)):
        runner = BatchRunner(instance)
        t0 = time.perf_counter()
        vec_units = runner.run_trials(seeds, vectorized=True)
        vectorized_s = min(vectorized_s, time.perf_counter() - t0)
    classic_per_trial_s = float("inf")
    classic = None
    for _ in range(max(1, repeats)):
        algo = make_algorithm("random_fit", seed=seeds[0])
        t0 = time.perf_counter()
        classic = run(algo, instance)
        classic_per_trial_s = min(classic_per_trial_s, time.perf_counter() - t0)
    classic_extrapolated_s = classic_per_trial_s * n_trials
    identical = (
        [(u.cost, u.num_bins) for u in seq_units]
        == [(u.cost, u.num_bins) for u in vec_units]
    )
    lock0 = FastEngine(instance, "random_fit", backend="vectorized").run_trials(
        seeds[:1]
    )[0]
    identical = identical and lock0 == dict(classic.assignment)
    return {
        "name": scenario.name,
        "params": scenario.params(),
        "n_trials": n_trials,
        "sequential_s": sequential_s,
        "vectorized_s": vectorized_s,
        "classic_per_trial_s": classic_per_trial_s,
        "classic_extrapolated_s": classic_extrapolated_s,
        "speedup_vs_sequential": (
            sequential_s / vectorized_s if vectorized_s > 0 else 0.0
        ),
        "speedup_vs_classic": (
            classic_extrapolated_s / vectorized_s if vectorized_s > 0 else 0.0
        ),
        "identical": identical,
    }


def run_measure_kernel_cells(
    scenario: BenchScenario, repeats: int = 3
) -> Dict[str, Any]:
    """Time classic vs the numpy fast kernel for the L1/Lp measure cells.

    The measure variants were fast-ineligible before the L1/Lp kernels
    landed; these cells pin their speedup (and bit-identity) into the
    trajectory file the same way the default-measure grid does.
    """
    from ..simulation.fastpath import FastEngine

    instance = scenario.build_instance()
    cells: Dict[str, Any] = {}
    for label, spec, (base, kwargs) in MEASURE_KERNEL_SPECS:
        classic_s = float("inf")
        classic = None
        for _ in range(max(1, repeats)):
            algo = make_algorithm(base, **kwargs)
            t0 = time.perf_counter()
            classic = run(algo, instance)
            classic_s = min(classic_s, time.perf_counter() - t0)
        fast_s = float("inf")
        fast = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            fast = FastEngine(instance, spec).run()
            fast_s = min(fast_s, time.perf_counter() - t0)
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


def run_vectorized_suite(
    trials_scenario: Optional[BenchScenario] = None,
    measure_scenario: Optional[BenchScenario] = None,
    n_trials: int = VECTORIZED_TRIALS,
    repeats: int = 3,
    suite: str = "fastpath-vectorized",
    progress=None,
) -> Dict[str, Any]:
    """Run the trial-lockstep + measure-kernel suite; return its payload."""
    trials_scenario = trials_scenario or VECTORIZED_SCENARIO
    measure_scenario = measure_scenario or trials_scenario
    t0 = time.perf_counter()
    trials = run_vectorized_trials_scenario(
        trials_scenario, n_trials=n_trials, repeats=repeats
    )
    if progress is not None:
        progress(
            f"  {trials['name']}: {n_trials} trials, lockstep "
            f"{trials['vectorized_s']:.2f} s vs per-trial "
            f"{trials['sequential_s']:.2f} s "
            f"({trials['speedup_vs_sequential']:.2f}x), "
            f"classic-extrapolated {trials['classic_extrapolated_s']:.1f} s "
            f"({trials['speedup_vs_classic']:.1f}x), "
            f"identical={trials['identical']}"
        )
    measure = run_measure_kernel_cells(measure_scenario, repeats=repeats)
    if progress is not None:
        for label, cell in measure.items():
            progress(
                f"  {measure_scenario.name} {label}: classic "
                f"{cell['classic_s']:.2f} s, fast {cell['fast_numpy_s']:.3f} s "
                f"({cell['speedup_numpy']:.1f}x), "
                f"identical={cell['identical']}"
            )
    identical = trials["identical"] and all(
        c["identical"] for c in measure.values()
    )
    return {
        "schema": VECTORIZED_SCHEMA,
        "suite": suite,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "n_trials": n_trials,
        "trials": trials,
        "measure_kernels": measure,
        "headline": {
            "scenario": trials["name"],
            "n_trials": n_trials,
            "speedup_vs_sequential": trials["speedup_vs_sequential"],
            "speedup_vs_classic": trials["speedup_vs_classic"],
            "identical": identical,
        },
        "total_wall_time_s": time.perf_counter() - t0,
    }


def merge_vectorized(
    core_payload: Dict[str, Any], vectorized_payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Nest a vectorized suite payload under ``fastpath.vectorized``.

    The trial-lockstep record rides inside the existing ``"fastpath"``
    block of ``BENCH_core.json`` (creating it when absent) so the
    twin-engine trajectory stays one sub-document.
    """
    merged = dict(core_payload)
    fastpath = dict(merged.get("fastpath") or {})
    fastpath["vectorized"] = vectorized_payload
    merged["fastpath"] = fastpath
    return merged


# ----------------------------------------------------------------------
# the numba JIT suite (nested under fastpath/numba)
# ----------------------------------------------------------------------

#: Schema tag of the JIT-kernel comparison payload nested under
#: ``BENCH_core.json``'s ``"fastpath"`` key as ``"numba"``.
NUMBA_SCHEMA = "repro-bench-fastpath-numba/v1"

#: Trial fan-out width of the numba trial-lockstep cell.
NUMBA_TRIALS = 64

#: Seconds-fast width for tests and the CI smoke leg.
NUMBA_SMOKE_TRIALS = 8


def run_numba_suite(
    scenarios: Optional[Sequence[BenchScenario]] = None,
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    n_trials: int = NUMBA_TRIALS,
    repeats: int = 3,
    suite: str = "fastpath-numba",
    progress=None,
) -> Dict[str, Any]:
    """Run the JIT-kernel comparison suite; return its JSON payload.

    When numba is importable the suite first pays the one-off JIT cost
    through an explicit :func:`~repro.simulation.kernels_numba.warmup`
    — recorded separately as ``jit_compile_s``, never folded into the
    per-run timings — then reuses :func:`run_fastpath_scenario` with
    ``backends=("numpy", "numba")`` so every cell carries both the
    classic speedup and the numba-vs-numpy ratio, plus a numba
    trial-lockstep cell mirroring the vectorized one.

    When numba is missing (or disabled via ``REPRO_NUMBA_DISABLE``) the
    payload is an honest stub — ``{"available": false, "reason": ...}``
    — never fabricated timings, so a re-run on a numba-less host leaves
    an auditable record instead of silently skipping the suite.  The
    ``pyfunc_mode`` flag marks runs taken with ``REPRO_NUMBA_PYFUNC``
    (uncompiled kernels; timings are then plumbing checks, not perf).
    """
    from ..simulation import kernels_numba as _knl
    from ..simulation.fastpath import FastEngine

    t0 = time.perf_counter()
    base: Dict[str, Any] = {
        "schema": NUMBA_SCHEMA,
        "suite": suite,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    if not _knl.kernels_ready():
        base.update(
            available=False,
            reason=_knl.unavailable_reason(),
            total_wall_time_s=time.perf_counter() - t0,
        )
        if progress is not None:
            progress(f"  numba unavailable: {base['reason']}")
        return base
    jit_compile_s = _knl.warmup()
    scenarios = (
        tuple(scenarios) if scenarios is not None else tuple(FASTPATH_SCENARIOS)
    )
    records = []
    for scenario in scenarios:
        record = run_fastpath_scenario(
            scenario, algorithms, repeats=repeats, backends=("numpy", "numba")
        )
        events = 2 * record["params"]["n"]
        for cell in record["results"].values():
            cell["events"] = events
            nmb = cell["fast_numba_s"]
            cell["events_per_sec_numba"] = events / nmb if nmb > 0 else 0.0
            cell["speedup_vs_numpy"] = (
                cell["fast_numpy_s"] / nmb if nmb > 0 else 0.0
            )
        tot = record["totals"]
        tot["speedup_vs_numpy"] = (
            tot["fast_numpy_s"] / tot["fast_numba_s"]
            if tot["fast_numba_s"] > 0
            else 0.0
        )
        tot["events_per_sec_numba"] = (
            events * len(record["results"]) / tot["fast_numba_s"]
            if tot["fast_numba_s"] > 0
            else 0.0
        )
        records.append(record)
        if progress is not None:
            progress(
                f"  {record['name']}: numba {tot['speedup_numba']:.1f}x classic, "
                f"{tot['speedup_vs_numpy']:.1f}x numpy, "
                f"{tot['events_per_sec_numba']:.0f} events/s, "
                f"identical={tot['identical']}"
            )
    largest = max(records, key=lambda r: r["params"]["n"])

    # trial fan-out: one batched replay_trials call vs per-seed numpy runs
    instance = next(
        s for s in scenarios if s.name == largest["name"]
    ).build_instance()
    seeds = list(range(n_trials))
    numba_trials_s = float("inf")
    nmb_units = None
    for _ in range(max(1, repeats)):
        eng = FastEngine(instance, "random_fit", backend="numba")
        t1 = time.perf_counter()
        nmb_units = eng.run_trials(seeds)
        numba_trials_s = min(numba_trials_s, time.perf_counter() - t1)
    numpy_trials_s = float("inf")
    ref_units = None
    for _ in range(max(1, repeats)):
        eng = FastEngine(instance, "random_fit", backend="numpy")
        t1 = time.perf_counter()
        ref_units = eng.run_trials(seeds)
        numpy_trials_s = min(numpy_trials_s, time.perf_counter() - t1)
    trials = {
        "scenario": largest["name"],
        "n_trials": n_trials,
        "numba_s": numba_trials_s,
        "numpy_s": numpy_trials_s,
        "speedup_vs_numpy": (
            numpy_trials_s / numba_trials_s if numba_trials_s > 0 else 0.0
        ),
        "identical": nmb_units == ref_units,
    }
    if progress is not None:
        progress(
            f"  trials x{n_trials}: numba {numba_trials_s:.2f} s vs numpy "
            f"{numpy_trials_s:.2f} s ({trials['speedup_vs_numpy']:.1f}x), "
            f"identical={trials['identical']}"
        )

    base.update(
        available=True,
        pyfunc_mode=_knl.pyfunc_mode(),
        jit_compile_s=jit_compile_s,
        repeats=repeats,
        algorithms=list(algorithms),
        scenarios=records,
        trials=trials,
        headline={
            "scenario": largest["name"],
            "jit_compile_s": jit_compile_s,
            "speedup_numba": largest["totals"]["speedup_numba"],
            "speedup_vs_numpy": largest["totals"]["speedup_vs_numpy"],
            "events_per_sec_numba": largest["totals"]["events_per_sec_numba"],
            "identical": largest["totals"]["identical"]
            and trials["identical"],
        },
        total_wall_time_s=time.perf_counter() - t0,
    )
    return base


def merge_numba(
    core_payload: Dict[str, Any], numba_payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Nest a numba suite payload under ``fastpath.numba``.

    Mirrors :func:`merge_vectorized`: the JIT record rides inside the
    existing ``"fastpath"`` block of ``BENCH_core.json`` (creating it
    when absent) so the twin-engine trajectory stays one sub-document.
    """
    merged = dict(core_payload)
    fastpath = dict(merged.get("fastpath") or {})
    fastpath["numba"] = numba_payload
    merged["fastpath"] = fastpath
    return merged


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
    """Time per-unit fastpath dispatch vs batched dispatch on one cell.

    Both sides drive the real sweep entry points end to end,
    serialisation included: the baseline is
    ``parallel_sweep(processes=0, engine="fast")`` — one worker unit per
    (algorithm, instance), each re-reading the instance dict, rebuilding
    the event index, and recomputing the lower bound — and the batched
    side is ``parallel_sweep(processes=0, engine="batch")`` fed compact
    :class:`~repro.simulation.batch.InstanceSpec` sources (the in-worker
    instance cache is cleared before every repeat, so regeneration cost
    is *included*).  Wall-time is the minimum over ``repeats``; the
    ``identical`` flag records that the two paths produced bit-identical
    aggregates, pinning the contract into the trajectory file.

    A ``trials`` sub-benchmark times ``m`` seeded ``random_fit`` trials
    dispatched as fresh per-unit engines versus one
    :meth:`~repro.simulation.batch.BatchRunner.run_trials` invocation on
    the scenario's first instance.
    """
    from ..simulation.batch import BatchRunner, clear_instance_cache
    from ..simulation.fastpath import FastEngine
    from ..simulation.parallel import parallel_sweep

    instances = scenario.build_instances()
    specs = scenario.build_specs()

    per_unit_s = float("inf")
    per_unit = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        per_unit = parallel_sweep(
            list(algorithms), instances, processes=0, engine="fast"
        )
        per_unit_s = min(per_unit_s, time.perf_counter() - t0)

    batch_s = float("inf")
    batched = None
    for _ in range(max(1, repeats)):
        clear_instance_cache()
        t0 = time.perf_counter()
        batched = parallel_sweep(
            list(algorithms), specs, processes=0, engine="batch"
        )
        batch_s = min(batch_s, time.perf_counter() - t0)

    identical = _unit_key_tuples(per_unit) == _unit_key_tuples(batched)

    # trials sub-bench: M seeded random_fit replays of the first instance
    first = instances[0]
    seeds = list(range(scenario.trials))
    trials_unit_s = float("inf")
    unit_trials = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        unit_trials = [FastEngine(first, "random_fit", seed=s).run() for s in seeds]
        trials_unit_s = min(trials_unit_s, time.perf_counter() - t0)
    trials_batch_s = float("inf")
    batch_trials = None
    for _ in range(max(1, repeats)):
        runner = BatchRunner(first)
        t0 = time.perf_counter()
        batch_trials = runner.run_trials(seeds)
        trials_batch_s = min(trials_batch_s, time.perf_counter() - t0)
    trials_identical = len(batch_trials) == len(unit_trials) and all(
        u.cost == p.cost and u.num_bins == p.num_bins
        for u, p in zip(batch_trials, unit_trials)
    )

    return {
        "name": scenario.name,
        "params": scenario.params(),
        "units": len(algorithms) * scenario.m,
        "per_unit_s": per_unit_s,
        "batch_s": batch_s,
        "speedup": per_unit_s / batch_s if batch_s > 0 else 0.0,
        "identical": identical,
        "trials": {
            "seeds": len(seeds),
            "per_unit_s": trials_unit_s,
            "batch_s": trials_batch_s,
            "speedup": trials_unit_s / trials_batch_s if trials_batch_s > 0 else 0.0,
            "identical": trials_identical,
        },
    }


def run_batch_suite(
    scenarios: Sequence[SweepBenchScenario] = tuple(BATCH_SCENARIOS),
    algorithms: Sequence[str] = tuple(PAPER_ALGORITHMS),
    repeats: int = 3,
    suite: str = "batch",
    progress=None,
) -> Dict[str, Any]:
    """Run the batched-sweep comparison suite; return its JSON payload.

    The ``headline`` block aggregates the grid's totals — summed
    per-unit and batched wall-times and the resulting overall speedup
    (the >= 3x acceptance number) — and ``item_memory`` records the
    per-object footprint the ``__slots__`` satellite buys on hot
    per-event objects (:func:`measure_item_memory`).
    """
    t0 = time.perf_counter()
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
    payload = {
        "schema": BATCH_SCHEMA,
        "suite": suite,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "algorithms": list(algorithms),
        "total_wall_time_s": time.perf_counter() - t0,
        "headline": {
            "per_unit_s": per_unit_total,
            "batch_s": batch_total,
            "speedup": per_unit_total / batch_total if batch_total > 0 else 0.0,
            "identical": all(r["identical"] for r in records),
        },
        "item_memory": measure_item_memory(),
        "scenarios": records,
    }
    return payload


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set size in MiB (0.0 if unknown).

    ``ru_maxrss`` is a high-water mark for the whole process, so on a
    suite of several scenarios only the *first* (largest) cell's number
    is attributable; the suite runner orders scenarios largest-first and
    records the per-scenario delta-free value as-is, documented as a
    process peak.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0.0
    rss = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        rss /= 1024.0
    return rss / 1024.0


def run_streaming_scenario(
    scenario: StreamBenchScenario,
    repeats: int = 1,
    flush_every: int = 1_000_000,
) -> Dict[str, Any]:
    """Run one bounded-memory stream end to end; return its JSON record.

    A fresh :class:`~repro.streaming.StreamingEngine` consumes the
    scenario's lazily generated Poisson stream with
    ``record_assignment=False`` — *nothing* on this path is O(stream
    length): no instance, no item list, no assignment map.  Wall-time is
    the minimum over ``repeats`` (default 1 — the headline cell runs
    minutes); counters come from the last run and are seed-stable.
    ``peak_rss_mb`` is the process high-water mark after the run, the
    operational "does 10M events fit in memory" number.
    """
    from ..streaming import StreamingEngine

    workload = scenario.workload()
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeats)):
        algo = make_algorithm(scenario.policy)
        engine = StreamingEngine(
            algo, workload.capacity, record_assignment=False,
            flush_every=flush_every,
        )
        t0 = time.perf_counter()
        result = engine.run(workload.stream_seeded(scenario.seed))
        wall = time.perf_counter() - t0
        cell = {
            "wall_time_s": wall,
            "items": result.arrivals,
            "events": result.events,
            "events_per_sec": result.events / wall if wall > 0 else 0.0,
            "cost": result.cost,
            "bins_opened": result.bins_opened,
            "peak_open_bins": result.peak_open_bins,
            "peak_live_items": result.peak_live_items,
            "flushes": result.flushes,
            "peak_rss_mb": _peak_rss_mb(),
        }
        if best is None or cell["wall_time_s"] < best["wall_time_s"]:
            best = cell
    return {"name": scenario.name, "params": scenario.params(), **best}


def run_streaming_suite(
    scenarios: Sequence[StreamBenchScenario] = tuple(STREAMING_SCENARIOS),
    repeats: int = 1,
    suite: str = "streaming",
    progress=None,
) -> Dict[str, Any]:
    """Run the bounded-memory suite; return its JSON payload.

    The ``headline`` block repeats the largest cell (by event count):
    events/sec throughput, the peak live-item count (the memory model's
    O(live) bound made measurable — compare it against ``items`` to see
    the stream was never materialised), and the process peak RSS.
    """
    t0 = time.perf_counter()
    records = []
    # largest first, so the process-peak RSS number is attributable to
    # the headline cell (see _peak_rss_mb)
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
    payload = {
        "schema": STREAMING_SCHEMA,
        "suite": suite,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "total_wall_time_s": time.perf_counter() - t0,
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
    return payload


def run_adversary_suite(
    scenarios=None,
    repeats: int = 1,
    suite: str = "adversary",
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
    from ..adversaries.scenarios import MUST_EXCEED_SCENARIOS, run_scenario as _run_sc

    if scenarios is None:
        scenarios = MUST_EXCEED_SCENARIOS
    t0 = time.perf_counter()
    records = []
    for scenario in scenarios:
        best = None
        for _ in range(max(1, repeats)):
            s0 = time.perf_counter()
            outcome = _run_sc(scenario, seed=0)
            wall = time.perf_counter() - s0
            if best is None or wall < best["wall_time_s"]:
                res = outcome.result
                finite = res.theoretical_bound != float("inf")
                best = {
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
        records.append(best)
        if progress is not None:
            progress(
                f"  {best['name']}: ratio {best['certified_ratio']:.3f} "
                f"(required {best['required']:.3f}), {best['items']} items "
                f"in {best['wall_time_s']:.2f} s"
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
        "schema": ADVERSARY_SCHEMA,
        "suite": suite,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "total_wall_time_s": time.perf_counter() - t0,
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

    The whole :data:`REPACK_FRONTIER_GRID` runs through a single
    :class:`~repro.simulation.batch.BatchRunner` pass using the reserved
    ``"_repack"`` entry key (one instance, one shared lower bound, one
    amortised context), so the bench exercises exactly the wiring sweeps
    use.  Two zero-migration yardsticks anchor the frontier from below:
    the offline :func:`~repro.optimum.offline_assignment.greedy_assignment`
    (full hindsight, no moves ever) and the clairvoyant
    :class:`~repro.algorithms.clairvoyant.DurationClassifiedFirstFit`
    (knows durations, still online and no-recourse).  Wall-time is the
    minimum over ``repeats``; every other field is seed-pinned.
    """
    from ..algorithms.clairvoyant import DurationClassifiedFirstFit
    from ..optimum.offline_assignment import greedy_assignment
    from ..simulation.batch import BatchRunner

    instance = scenario.build()
    entries = [
        (scenario.policy, {"_repack": {"policy": repacker, "budget": budget}})
        for repacker, budget in REPACK_FRONTIER_GRID
    ]
    best_wall: Optional[float] = None
    units = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        runner = BatchRunner(instance)
        units = runner.run_units(entries, collect_stats=True)
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall = wall
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
        "params": scenario.params(),
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
    suite: str = "repacking",
    progress=None,
) -> Dict[str, Any]:
    """Run the migration-frontier suite; return its JSON payload.

    The ``headline`` reports whether every lower-bound gadget scenario
    (``thm5``/``thm6``) achieved a *strict* cost improvement under some
    budgeted policy — the structural claim of the repacking subsystem:
    the workloads that force the no-recourse lower bounds stop being
    worst cases once bounded migration is allowed.  ``gadgets_improved``
    is the pass/fail gate the CLI turns into an exit code.
    """
    t0 = time.perf_counter()
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
        "schema": REPACKING_SCHEMA,
        "suite": suite,
        "generated_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "total_wall_time_s": time.perf_counter() - t0,
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

    from ..core.items import Item
    from ..core.vectors import as_size_vector

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


def merge_fastpath(core_payload: Dict[str, Any], fastpath_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Attach a fastpath suite payload to a core suite payload.

    ``BENCH_core.json`` stays one file: the core grid at the top level
    (unchanged schema) with the twin-engine comparison nested under
    ``"fastpath"``, so the perf trajectory records both engines side by
    side.  Kept as the historical alias of
    ``merge_suite(core, "fastpath", payload)``.
    """
    return merge_suite(core_payload, "fastpath", fastpath_payload)


#: Every companion suite that nests under the core ``BENCH_core.json``
#: payload.  Core re-runs (CLI and ``benchmarks/harness.py``) carry
#: these keys over from the existing file so re-running one suite never
#: clobbers another's trajectory.
COMPANION_SUITES = ("fastpath", "batch", "streaming", "adversary", "repacking")


def merge_suite(
    core_payload: Dict[str, Any], key: str, payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Attach a companion suite payload under ``key`` of the core payload.

    Generalisation of :func:`merge_fastpath` for the growing family of
    nested suites (:data:`COMPANION_SUITES`): the core grid stays at
    the top level with its unchanged schema, and each companion nests
    under its own key, so re-running one suite never clobbers another's
    trajectory.
    """
    merged = dict(core_payload)
    merged[key] = payload
    return merged


def write_bench(payload: Dict[str, Any], path: str) -> None:
    """Write a suite payload as pretty-printed JSON (trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def measure_overhead(
    scenario: Optional[BenchScenario] = None,
    algorithm: str = "move_to_front",
    repeats: int = 5,
) -> Dict[str, Any]:
    """Measure the cost of the instrumented engine loop.

    Runs ``repeats`` *interleaved pairs* of a plain run
    (``collector=None`` — the default every test and experiment uses)
    and an instrumented run with the default no-op sink, on the
    harness's medium scenario, and reports the minimum of each side plus
    the relative overhead.  Interleaving pairs (rather than timing the
    two sides back to back) cancels clock-frequency and cache drift on
    shared machines; the clock is **process CPU time**, not wall time,
    so scheduler preemption on loaded machines does not pollute a
    sub-millisecond difference measurement.  The documented budget is
    2%: perf PRs touching the engine should re-run this.
    """
    scenario = scenario or MEDIUM_SCENARIO
    instance = scenario.build_instance()

    clock = time.process_time
    plain_s = instrumented_s = float("inf")
    for _ in range(max(1, repeats)):
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
        "repeats": repeats,
        "plain_s": plain_s,
        "instrumented_s": instrumented_s,
        "overhead_frac": instrumented_s / plain_s - 1.0 if plain_s > 0 else 0.0,
    }
