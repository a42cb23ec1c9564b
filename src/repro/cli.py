"""Command-line interface: ``python -m repro <experiment>`` / ``dvbp``.

Subcommands regenerate each paper artefact:

* ``table1``  — measured CR lower bounds on the adversarial families,
  plus the paper's bound formulas;
* ``table2``  — the experimental parameter table;
* ``figure1`` / ``figure2`` / ``figure3`` — the analysis diagrams;
* ``figure4`` — the average-case sweep (``--scale quick|full|smoke``),
  now crash-safe: ``--checkpoint-dir``/``--resume`` persist and reload
  completed units, ``--retries``/``--unit-timeout`` bound worker faults
  (see docs/architecture.md, "Checkpointing & fault tolerance");
* ``experiments`` — regenerate any subset of the paper's artifacts
  through the fault-tolerant driver (:mod:`repro.experiments.driver`);
* ``compare`` — run all registered algorithms on one generated instance
  and print the metric table (a quick interactive probe);
* ``bench``   — one registered pinned-seed perf suite per run, written
  under its own key of ``BENCH_core.json`` (see docs/observability.md);
* ``verify``  — the differential/invariant fuzzing harness
  (``--profile quick|deep``; see docs/verification.md) or a single
  Theorem 2/4 proof decomposition (``--theorem``);
* ``attack``  — run one adaptive lower-bound adversary against a live
  policy and print its certified-ratio trajectory, or ``--attack all``
  for the must-exceed-bound scenario grid (see docs/adversaries.md);
* ``serve``   — a long-lived :class:`~repro.streaming.PlacementService`
  speaking JSON-lines over stdin/stdout, with snapshot/restore
  (see docs/streaming.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .algorithms.registry import PAPER_ALGORITHMS, available_algorithms
from .analysis.report import format_table
from .experiments.config import FULL, QUICK, SMOKE
from .experiments.figure4 import render_figure4, run_figure4
from .experiments.figures123 import run_figure1, run_figure2, run_figure3
from .experiments.table1 import render_table1, render_table1_bounds, run_table1
from .experiments.table2 import render_table2
from .simulation.metrics import compute_metrics
from .simulation.runner import compare_algorithms
from .workloads.uniform import UniformWorkload

__all__ = ["main"]

_SCALES = {"full": FULL, "quick": QUICK, "smoke": SMOKE}


def _add_fault_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    """The shared orchestration knobs (see docs/architecture.md)."""
    parser.add_argument("--checkpoint-dir", default=None, dest="checkpoint_dir",
                        help="persist completed units here (crash-safe JSONL "
                             "shards); required for --resume")
    parser.add_argument("--resume", action="store_true",
                        help="skip units already in the checkpoint; results "
                             "are bit-identical to an uninterrupted run")
    parser.add_argument("--retries", type=int, default=0,
                        help="per-unit retry budget with exponential backoff")
    parser.add_argument("--unit-timeout", type=float, default=None,
                        dest="unit_timeout",
                        help="per-unit wall-clock budget in seconds (pooled "
                             "runs recycle the worker pool on expiry)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvbp",
        description="MinUsageTime Dynamic Vector Bin Packing (SPAA 2023) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="verify Table 1 bounds on adversarial families")
    p1.add_argument("--mu", type=float, default=5.0, help="duration ratio of the families")
    p1.add_argument("--ks", type=int, nargs="+", default=[2, 4, 8, 16],
                    help="family growth parameters")
    p1.add_argument("--d", type=int, nargs="+", default=[1, 2, 3], dest="d_values")

    sub.add_parser("table2", help="print the experimental parameter table")

    sub.add_parser("figure1", help="MF leading/non-leading decomposition diagram")
    sub.add_parser("figure2", help="FF usage-period decomposition diagram")

    p3 = sub.add_parser("figure3", help="Any Fit execution on the Theorem 5 instance")
    p3.add_argument("--d", type=int, default=2)
    p3.add_argument("--k", type=int, default=3)
    p3.add_argument("--mu", type=float, default=4.0)
    p3.add_argument("--algorithm", default="first_fit", choices=available_algorithms())

    p4 = sub.add_parser("figure4", help="average-case performance sweep")
    p4.add_argument("--scale", choices=sorted(_SCALES), default="quick",
                    help="full = paper's Table 2 (slow); quick = same grid, smaller m")
    p4.add_argument("--processes", type=int, default=0,
                    help="fan (algorithm, instance) units across N worker processes")
    p4.add_argument("--csv", default=None,
                    help="also write the measurements as CSV to this path")
    p4.add_argument("--engine", choices=["classic", "fast", "batch"],
                    default="classic",
                    help="simulation engine for every unit (bit-identical "
                         "results); batch = group each instance's whole "
                         "policy fan-out into one BatchRunner pass and ship "
                         "compact instance specs to workers")
    _add_fault_tolerance_flags(p4)

    pe = sub.add_parser(
        "experiments",
        help="regenerate paper artifacts through the fault-tolerant driver",
    )
    pe.add_argument("--artifacts", nargs="+", default=None,
                    metavar="NAME",
                    help="artifact subset (default: all); see repro.experiments.driver")
    pe.add_argument("--scale", choices=sorted(_SCALES), default="quick")
    pe.add_argument("--processes", type=int, default=0)
    pe.add_argument("--engine", choices=["classic", "fast", "batch"],
                    default="classic")
    pe.add_argument("--out-dir", default=None, dest="out_dir",
                    help="write each artifact to <out-dir>/<name>.txt (atomic); "
                         "with --resume, existing outputs are skipped")
    _add_fault_tolerance_flags(pe)

    pc = sub.add_parser("compare", help="run all paper algorithms on one random instance")
    pc.add_argument("--d", type=int, default=2)
    pc.add_argument("--n", type=int, default=500)
    pc.add_argument("--mu", type=int, default=10)
    pc.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("search", help="hunt for high-competitive-ratio instances")
    ps.add_argument("--algorithm", default="next_fit", choices=available_algorithms())
    ps.add_argument("--d", type=int, default=1)
    ps.add_argument("--n", type=int, default=12)
    ps.add_argument("--mu", type=float, default=5.0)
    ps.add_argument("--budget", type=int, default=200)
    ps.add_argument("--hill-climb", type=int, default=100, dest="hill_climb")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--save", default=None, help="write the worst instance as JSON")

    po = sub.add_parser(
        "offline", help="online vs offline (no-repack greedy/local-search, repack bracket)"
    )
    po.add_argument("--d", type=int, default=2)
    po.add_argument("--n", type=int, default=60)
    po.add_argument("--mu", type=int, default=10)
    po.add_argument("--seed", type=int, default=0)

    pg = sub.add_parser("generate", help="generate an instance and write it to JSON")
    pg.add_argument("path", help="output file")
    pg.add_argument("--workload", default="uniform",
                    choices=["uniform", "trace", "poisson"])
    pg.add_argument("--d", type=int, default=2)
    pg.add_argument("--n", type=int, default=500)
    pg.add_argument("--mu", type=int, default=10)
    pg.add_argument("--seed", type=int, default=0)

    pr = sub.add_parser("run", help="run one algorithm on an instance JSON file")
    pr.add_argument("path", help="instance file written by `generate` or to_json()")
    pr.add_argument("--algorithm", default="move_to_front",
                    choices=available_algorithms())
    pr.add_argument("--validate", action="store_true",
                    help="audit the packing before reporting")
    pr.add_argument("--engine",
                    choices=["classic", "fast", "batch", "streaming",
                             "repacking"],
                    default="classic",
                    help="fast = the flat-array FastEngine (bit-identical "
                         "packings, several times faster; falls back to "
                         "classic for policies without a fast kernel); "
                         "batch = one BatchRunner pass (same results; pays "
                         "off over many replays); streaming = the "
                         "bounded-memory event loop (same results on every "
                         "policy; memory scales with peak live items); "
                         "repacking = the migration-budget engine (may "
                         "relocate live items within --budget after each "
                         "event; budget 0 is bit-identical to classic)")
    pr.add_argument("--repacker", default=None,
                    help="repacking policy (no_repack, greedy_consolidate, "
                         "budgeted_rebalance); only with --engine repacking")
    pr.add_argument("--budget", type=float, default=None,
                    help="migration budget: per-event move cap, or "
                         "amortized credit rate for budgeted_rebalance; "
                         "only with --engine repacking")
    pr.add_argument("--retries", type=int, default=0,
                    help="retry the run with exponential backoff on failure")
    pr.add_argument("--unit-timeout", type=float, default=None,
                    dest="unit_timeout",
                    help="abort the run after this many seconds (each retry "
                         "gets a fresh budget; SIGALRM-based, POSIX only)")

    pb = sub.add_parser(
        "bench", help="run one pinned-seed perf suite (writes JSON)"
    )
    pb.add_argument("--suite", default="core", metavar="SUITE",
                    help="core = the Section 7 grid through all seven Any "
                         "Fit variants; fastpath = classic vs FastEngine, "
                         "plus the L1/Lp measure kernels; "
                         "batch = per-unit vs batched sweep dispatch; "
                         "streaming = the bounded-memory long stream; "
                         "adversary = the must-exceed-bound attack grid; "
                         "repacking = the migration-budget cost frontier; "
                         "overhead = the cost of attaching a stats "
                         "collector.  smoke and *-smoke are seconds-fast "
                         "subsets that write their full suite's key; an "
                         "unknown name exits 2 and lists every name")
    pb.add_argument("--repeats", type=int, default=None,
                    help="runs per timed cell; wall-time is the min "
                         "(default: the suite's own, 1 for streaming, "
                         "adversary and repacking, 5 for overhead, 3 "
                         "otherwise)")
    pb.add_argument("--output", default="BENCH_core.json",
                    help="output JSON path (defaults to ./BENCH_core.json); "
                         "the run replaces only its suite's key")
    pb.add_argument("--trace", default=None,
                    help="also emit per-run records to this JSON-lines file")

    pss = sub.add_parser(
        "serve",
        help="run a long-lived placement service over JSON-lines "
             "stdin/stdout (see docs/streaming.md for the protocol)",
    )
    pss.add_argument("--policy", default="move_to_front",
                     choices=available_algorithms())
    pss.add_argument("--capacity", type=float, nargs="+", default=[100.0],
                     help="bin capacity: one value per dimension, or a "
                          "single scalar combined with --d")
    pss.add_argument("--d", type=int, default=1,
                     help="dimensions when --capacity is a single scalar")
    pss.add_argument("--seed", type=int, default=0,
                     help="seed for random_fit (ignored by other policies)")
    pss.add_argument("--restore", default=None, metavar="PATH",
                     help="resume from a checksummed snapshot file (written "
                          "by the snapshot op or --snapshot-on-exit); "
                          "--policy/--capacity/--d/--seed are then ignored")
    pss.add_argument("--snapshot-on-exit", default=None, metavar="PATH",
                     dest="snapshot_on_exit",
                     help="write a checksummed snapshot here when the "
                          "request stream ends")

    pv = sub.add_parser(
        "verify",
        help="run the differential/invariant fuzz harness (--profile) or "
             "check a Theorem 2/4 proof decomposition (--theorem)",
    )
    pv.add_argument("--profile", choices=["quick", "deep"], default=None,
                    help="run the repro.verify harness: every corpus instance "
                         "through all seven policies against the reference "
                         "simulator and invariant auditor")
    pv.add_argument("--instances", type=int, default=None,
                    help="override the profile's corpus size (replay/debug)")
    pv.add_argument("--theorem", type=int, choices=[2, 4], default=2)
    pv.add_argument("--d", type=int, default=2)
    pv.add_argument("--n", type=int, default=300)
    pv.add_argument("--mu", type=int, default=20)
    pv.add_argument("--seed", type=int, default=None,
                    help="workload seed (--theorem path) or corpus seed "
                         "override (--profile path)")

    from .adversaries.attacks import ATTACKS as _ATTACKS

    pa = sub.add_parser(
        "attack",
        help="run an adaptive lower-bound adversary against a live policy "
             "and print its certified-ratio trajectory",
    )
    pa.add_argument("--attack", default="all",
                    choices=sorted(_ATTACKS) + ["all"],
                    help="which attack to run; 'all' runs the "
                         "must-exceed-bound scenario grid that repro verify "
                         "uses and exits non-zero on any failure")
    pa.add_argument("--policy", default=None, choices=available_algorithms(),
                    help="policy to attack (default: the attack's target)")
    pa.add_argument("--mu", type=float, default=4.0,
                    help="duration ratio the attack is built for")
    pa.add_argument("--d", type=int, default=1, help="resource dimensions")
    pa.add_argument("--rounds", type=int, default=None,
                    help="explicit construction size (default: auto-sized to "
                         "reach --fraction of the theoretical bound)")
    pa.add_argument("--fraction", type=float, default=0.9,
                    help="target fraction of the bound when auto-sizing")
    pa.add_argument("--threshold", type=float, default=50.0,
                    help="stop threshold for the unbounded-ratio attacks")
    pa.add_argument("--seed", type=int, default=0,
                    help="adversary RNG seed (determines the induced instance)")
    pa.add_argument("--trajectory", type=int, default=0, metavar="N",
                    help="print every N-th certified-ratio trajectory point")
    pa.add_argument("--json", action="store_true", dest="as_json",
                    help="print the result summary as JSON instead of a table")

    return parser


def _with_timeout(fn, timeout: Optional[float]):
    """Run ``fn()`` under a SIGALRM wall-clock budget (POSIX only).

    ``timeout=None`` — or a platform without ``SIGALRM`` — runs ``fn``
    unguarded.  On expiry raises :class:`TimeoutError`, which the
    caller's retry policy treats like any other failure.
    """
    import signal as _signal

    if timeout is None or not hasattr(_signal, "SIGALRM"):
        return fn()

    def _expired(signum, frame):
        raise TimeoutError(f"run exceeded --unit-timeout ({timeout:g}s)")

    previous = _signal.signal(_signal.SIGALRM, _expired)
    _signal.setitimer(_signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        _signal.setitimer(_signal.ITIMER_REAL, 0.0)
        _signal.signal(_signal.SIGALRM, previous)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point.  Returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "table1":
        rows = run_table1(ks=tuple(args.ks), d_values=tuple(args.d_values), mu=args.mu)
        print(render_table1_bounds(mu=args.mu, d_values=tuple(args.d_values)))
        print()
        print(render_table1(rows))
    elif args.command == "table2":
        print(render_table2())
    elif args.command == "figure1":
        print(run_figure1())
    elif args.command == "figure2":
        print(run_figure2())
    elif args.command == "figure3":
        print(run_figure3(d=args.d, k=args.k, mu=args.mu, algorithm=args.algorithm))
    elif args.command == "figure4":
        result = run_figure4(
            config=_SCALES[args.scale], processes=args.processes,
            engine=args.engine, checkpoint_dir=args.checkpoint_dir,
            resume=args.resume, retries=args.retries,
            unit_timeout=args.unit_timeout,
        )
        print(render_figure4(result))
        if args.csv:
            from .experiments.figure4 import figure4_csv

            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(figure4_csv(result))
            print(f"\n[csv written to {args.csv}]")
    elif args.command == "experiments":
        from .experiments.driver import run_experiments

        rendered = run_experiments(
            names=args.artifacts, config=_SCALES[args.scale],
            processes=args.processes, engine=args.engine,
            out_dir=args.out_dir, checkpoint_dir=args.checkpoint_dir,
            resume=args.resume, retries=args.retries,
            unit_timeout=args.unit_timeout, progress=print,
        )
        if not args.out_dir:
            print("\n\n".join(rendered.values()))
    elif args.command == "compare":
        gen = UniformWorkload(d=args.d, n=args.n, mu=args.mu)
        instance = gen.sample_seeded(args.seed)
        packings = compare_algorithms(PAPER_ALGORITHMS, instance)
        headers = ["algorithm", "cost", "bins", "max concurrent", "avg utilization"]
        rows = []
        for name, packing in packings.items():
            m = compute_metrics(packing)
            rows.append([name, m.cost, m.num_bins, m.max_concurrent, m.average_utilization])
        print(format_table(headers, rows, title=f"All algorithms on {instance!r}"))
    elif args.command == "search":
        from .analysis.competitive import random_search

        result = random_search(
            args.algorithm, d=args.d, n=args.n, mu=args.mu,
            budget=args.budget, hill_climb=args.hill_climb, seed=args.seed,
        )
        print(f"worst instance found for {args.algorithm} "
              f"(after {result.evaluations} evaluations):")
        print(f"  n = {result.instance.n}, mu = {result.instance.mu:g}, "
              f"d = {result.instance.d}")
        print(f"  cost = {result.cost:.3f}, certified OPT <= {result.opt_upper:.3f}")
        print(f"  certified competitive ratio >= {result.ratio:.3f}")
        if args.save:
            with open(args.save, "w", encoding="utf-8") as fh:
                fh.write(result.instance.to_json())
            print(f"  instance written to {args.save}")
    elif args.command == "offline":
        from .optimum.offline_assignment import greedy_assignment, local_search
        from .optimum.opt_cost import optimum_cost_bounds
        from .simulation.runner import run as run_one

        instance = UniformWorkload(d=args.d, n=args.n, mu=args.mu).sample_seeded(args.seed)
        rows = []
        for name in ("move_to_front", "first_fit"):
            rows.append([f"online {name}", run_one(name, instance).cost])
        rows.append(["offline greedy (no repack)", greedy_assignment(instance).cost])
        rows.append(["offline local search (no repack)", local_search(instance).cost])
        lo, hi = optimum_cost_bounds(instance)
        rows.append(["offline repack optimum (bracket)", f"[{lo:.1f}, {hi:.1f}]"])
        print(format_table(["solution", "cost"], rows,
                           title=f"Online vs offline on {instance!r}"))
    elif args.command == "generate":
        from .workloads.poisson import PoissonWorkload
        from .workloads.trace import CloudTraceWorkload

        if args.workload == "uniform":
            gen = UniformWorkload(d=args.d, n=args.n, mu=args.mu)
        elif args.workload == "trace":
            gen = CloudTraceWorkload()
        else:
            gen = PoissonWorkload(d=args.d)
        instance = gen.sample_seeded(args.seed)
        with open(args.path, "w", encoding="utf-8") as fh:
            fh.write(instance.to_json())
        print(f"wrote {instance!r} to {args.path}")
    elif args.command == "run":
        from .core.instance import Instance

        with open(args.path, "r", encoding="utf-8") as fh:
            instance = Instance.from_json(fh.read())
        from .orchestration.faults import RetryPolicy, call_with_retry
        from .simulation.runner import effective_engine
        from .simulation.runner import run as run_one

        if args.engine != "repacking" and (
            args.repacker is not None or args.budget is not None
        ):
            print("--repacker/--budget require --engine repacking",
                  file=sys.stderr)
            return 2
        effective = effective_engine(args.algorithm, engine=args.engine)
        repack_kwargs = (
            {"repacker": args.repacker, "budget": args.budget}
            if args.engine == "repacking" else {}
        )
        packing = call_with_retry(
            lambda: _with_timeout(
                lambda: run_one(args.algorithm, instance,
                                validate=args.validate, engine=args.engine,
                                **repack_kwargs),
                args.unit_timeout,
            ),
            RetryPolicy(retries=args.retries),
            label=f"run {args.algorithm}",
        )
        m = compute_metrics(packing)
        rows = [[k, v] for k, v in m.as_dict().items()]
        engine_note = (
            f"{effective} engine"
            if effective == args.engine
            else f"{effective} engine; {args.engine} requested"
        )
        if args.engine == "repacking":
            engine_note = (
                f"repacking engine, {args.repacker or 'no_repack'}"
                + (f":{args.budget:g}" if args.budget is not None else "")
            )
        print(format_table(["metric", "value"], rows,
                           title=f"{args.algorithm} on {instance!r} "
                                 f"({engine_note})"))
    elif args.command == "bench":
        from .bench import get_suite, read_bench, run_bench, write_record
        from .core.errors import ConfigurationError
        from .observability.sinks import JsonLinesSink

        try:
            suite = get_suite(args.suite)
            read_bench(args.output)  # refuse a foreign file before the run
        except ConfigurationError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        sink = JsonLinesSink(args.trace) if args.trace else None
        print(f"running {args.suite} suite ...")
        try:
            record = run_bench(args.suite, repeats=args.repeats,
                               progress=print, sink=sink)
        finally:
            if sink is not None:
                sink.close()
        write_record(args.output, suite.key, record)
        headline = ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in record.get("headline", {}).items()
        )
        print(f"suite finished in {record['total_wall_time_s']:.1f} s "
              f"(repeats={record['repeats']}); {headline or 'no headline'}; "
              f"wrote {args.output} [{suite.key}]")
        return 0 if suite.passed(record) else 1
    elif args.command == "serve":
        import json as _json

        from .core.errors import DVBPError
        from .streaming.service import PlacementService, serve_loop

        if args.restore:
            try:
                svc = PlacementService.restore_from(args.restore)
            except (DVBPError, OSError) as exc:
                print(_json.dumps({"ok": False, "error": str(exc)}), flush=True)
                return 2
            print(f'{{"ok": true, "restored": "{args.restore}"}}', flush=True)
        else:
            cap = (args.capacity[0] if len(args.capacity) == 1
                   else args.capacity)
            svc = PlacementService(policy=args.policy, capacity=cap,
                                   d=args.d, seed=args.seed)

        def _emit(line: str) -> None:
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

        serve_loop(svc, sys.stdin, _emit)
        if args.snapshot_on_exit:
            svc.snapshot_to(args.snapshot_on_exit)
    elif args.command == "verify":
        if args.profile is not None:
            from .verify import run_verify

            report = run_verify(
                profile=args.profile, instances=args.instances,
                seed=args.seed, progress=print,
            )
            print(report.render())
            return 0 if report.ok else 1

        from .analysis.proofs import verify_theorem2, verify_theorem4

        seed = 0 if args.seed is None else args.seed
        instance = UniformWorkload(d=args.d, n=args.n, mu=args.mu).sample_seeded(seed)
        report = (verify_theorem2 if args.theorem == 2 else verify_theorem4)(instance)
        rows = [
            [c.name, c.lhs, c.rhs, "OK" if c.holds else "VIOLATED"]
            for c in report.checks
        ]
        print(format_table(
            ["inequality", "lhs", "rhs", "verdict"], rows,
            title=f"Theorem {args.theorem} proof decomposition on {instance!r}",
        ))
        print(f"\nall inequalities hold: {report.all_hold}")
        return 0 if report.all_hold else 1
    elif args.command == "attack":
        import json as _json

        from .adversaries import AttackConfig, must_exceed_report, run_attack

        if args.attack == "all":
            outcomes = must_exceed_report(seed=args.seed)
            rows = [
                [
                    o.scenario.label,
                    f"{o.achieved:.3f}",
                    f"{o.required:.3f}",
                    o.result.n,
                    "PASS" if o.passed else "FAIL",
                ]
                for o in outcomes
            ]
            print(format_table(
                ["scenario", "certified ratio", "required", "items", "verdict"],
                rows, title="Must-exceed-bound scenario grid",
            ))
            return 0 if all(o.passed for o in outcomes) else 1

        config = AttackConfig(
            mu=args.mu, d=args.d, rounds=args.rounds,
            target_fraction=args.fraction, ratio_threshold=args.threshold,
        )
        result = run_attack(args.attack, config=config,
                            policy=args.policy, seed=args.seed)
        if args.as_json:
            print(_json.dumps(result.summary(), indent=2))
        else:
            rows = [[k, v] for k, v in result.summary().items()]
            print(format_table(
                ["field", "value"], rows,
                title=f"{result.attack} vs {result.policy}",
            ))
            if args.trajectory > 0:
                points = result.trajectory[::args.trajectory]
                if result.trajectory and result.trajectory[-1] not in points:
                    points = points + (result.trajectory[-1],)
                print("\ncertified-ratio trajectory "
                      f"(every {args.trajectory}th of {len(result.trajectory)} points):")
                for pt in points:
                    print(f"  step {pt.step:5d}  t={pt.time:9.3f}  "
                          f"bins={pt.bins_opened:4d}  "
                          f"cost={pt.committed_cost:10.3f}  "
                          f"opt<= {pt.opt_upper:10.3f}  "
                          f"ratio={pt.certified_ratio:7.3f}")
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
