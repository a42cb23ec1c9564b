#!/usr/bin/env python3
"""Benchmark of the DVBP reproduction: four workloads through their public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (``BENCHMARK.json`` says why
each was chosen):

* ``table2-sweep``  -- ``run_figure4`` over all 18 Table-2 cells, seven
  policies, ``engine="batch"``, serial;
* ``serve-poisson`` -- ``repro serve --policy move_to_front --d 2`` as a
  subprocess, driven by one closed-loop client over its pipe;
* ``verify-quick``  -- ``run_verify("quick", seed=S)``;
* ``dense-sweep``   -- ``sweep_cell`` over one d=2, mu=100, n=5000 cell
  (about 256 live items, so the numpy kernels run), ``engine="batch"``,
  serial.  Not in ``BENCHMARK.json``: on a shared two-core host its
  10-seed spread reached the 0.25 bound, so it is run by hand when a
  change touches the numpy side of ``choose_backend``.

With ``--trace 0`` each repetition runs in a fresh interpreter (so the
program's caches start cold) until ``--seconds`` have been measured, and
the end-to-end metrics are medians over repetitions.  With ``--trace 1``
one untraced and one traced repetition give the per-layer split (see
``spans.py``).  Outputs are checked against independent computations
after the timed phase (see ``suite.py``).  An operation is counted once
however many repetitions ran it, and fails if its output fails a check
in any of them, so ``attempted`` and ``failed`` depend on the seed, not
on how many repetitions fit in ``--seconds``.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
print every metric with its unit.

``python3 perfbench/selftest.py`` runs every workload at toy size and
plants wrong answers that the checks must catch.

Paths no timed workload exercises (only the traced ``verify-quick`` run
reaches the first):

* ``FastEngine.run_trials`` trial-lockstep replays -- only ``repro
  verify`` and the ``repro bench`` module call them;
* the numba kernels -- numba is optional, and without it the program
  falls back to numpy;
* the ``processes > 0`` worker pool -- the sweeps run serially so that
  all load comes from one process; on a host with few cores a pool's
  timings would mostly measure the scheduler.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import suite  # noqa: E402  (benchmark-local module next to this file)

WORKLOADS = ("table2-sweep", "dense-sweep", "serve-poisson", "verify-quick")
SWEEPS = ("table2-sweep", "dense-sweep")

#: (name, unit, better) -- end-to-end, every workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("events_per_s", "events/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

#: Layer self time as a share of the traced wall time, keyed by span layer.
SHARES = (
    ("experiments.figure4", "run_figure4 itself: spec batches per cell"),
    ("analysis.sweep_cell", "sweep_cell itself: ratio lists"),
    ("analysis.summarize", "per-policy summary statistics"),
    ("parallel.parallel_sweep", "payload build, batch-unit dispatch, result sort"),
    ("batch.run_units", "run_units minus children: Eq. 1 cost recompute, unit records"),
    ("workloads.sample", "instance generation"),
    ("optimum.lower_bound", "Lemma 1 height bound"),
    ("fastpath.context", "ReplayContext: size matrix and event ordering"),
    ("fastpath.replay", "fastpath kernels"),
    ("service.protocol", "serve_loop itself: JSON decode/encode, op routing"),
    ("service.place", "PlacementService.place minus dispatch and pack"),
    ("service.depart", "PlacementService.depart minus remove and notify"),
    ("service.stats", "PlacementService.stats and cost"),
    ("algorithms.dispatch", "Any Fit candidate scan and selection"),
    ("algorithms.notify_departure", "open-list upkeep on departures"),
    ("streaming.pack", "StreamBin.pack"),
    ("streaming.remove", "StreamBin.remove: departure re-sum"),
    ("engine.run", "classic Engine runs of the verify harness"),
    ("verify.harness", "run_verify itself"),
    ("verify.corpus", "corpus construction outside the generators"),
    ("verify.reference", "reference simulator differential"),
    ("verify.invariants", "instance/run audits and Eq. 1 cost check"),
    ("verify.fastpath_oracle", "classic-vs-fastpath differential"),
    ("verify.streaming_oracle", "classic-vs-streaming differential"),
    ("verify.repacking_oracle", "classic-vs-repacking budget-0 differential"),
    ("verify.repack_audit", "budget-k repacking run and migration audit"),
    ("verify.batch_oracle", "batched-pass differential"),
    ("verify.instrumented", "plain-vs-instrumented differential"),
    ("verify.sweep_resume", "sweep and resume equality checks"),
    ("verify.mutation", "mutation smoke test"),
    ("adversaries.must_exceed", "adaptive-adversary must-exceed scenarios"),
)

#: (name, unit, better) -- per layer, from the traced run, every workload
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    *((f"{layer}_frac", "ratio", "lower") for layer, _ in SHARES),
    ("serve.ipc_frac", "ratio", "lower"),
    ("workloads.instances", "count", "higher"),
    ("workloads.items", "count", "higher"),
    ("workloads.live_items_mean", "items", "higher"),
    ("workloads.live_items_peak", "items", "higher"),
    ("optimum.lower_bound_calls", "count", "lower"),
    ("fastpath.contexts", "count", "lower"),
    ("fastpath.replays", "count", "higher"),
    ("fastpath.replays_python", "count", "higher"),
    ("fastpath.replays_numpy", "count", "higher"),
    ("fastpath.replays_vectorized", "count", "higher"),
    ("service.places", "count", "higher"),
    ("service.departs", "count", "higher"),
    ("service.stats_polls", "count", "higher"),
    ("service.open_bins_mean", "bins", "lower"),
    ("algorithms.dispatch_calls", "count", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.violations", "count", "lower"),
)

#: a run must end within 180 s; repetitions stop starting after this
DEADLINE_S = 150.0
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """A repetition could not produce a result."""


def child_env(trace: bool = False) -> dict:
    """Environment of every program process: ``src`` importable, bytecode
    cached inside the checkout, and no ``REPRO_*`` override (the backend
    the program picks is the one users get)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    if trace:
        env["PERFBENCH_TRACE_DIR"] = str(BUILD / "traces")
    return env


def spawn_worker(workload: str, seed: int, size: str, mode: str, timeout: float) -> dict:
    """One worker process; adds ``setup_s`` (spawn to first timed operation)."""
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), size, mode],
        cwd=ROOT, env=child_env(trace=mode == "traced"), capture_output=True,
        text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker {workload} {mode} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_first"] - t_spawn
    return out


def serve_session(lines, ops, timeout: float, probe_only: bool = False) -> dict:
    """Start ``repro serve``, probe it with ``stats`` (end of set-up), then
    send each request and wait for its reply (closed loop, one client)."""
    with open(BUILD / "serve-stderr.log", "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--policy", suite.SERVE_POLICY,
             "--d", str(suite.SERVE_D)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log, text=True, bufsize=1,
        )
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        out = {"replies": [], "rtt_place_s": []}
        try:
            proc.stdin.write('{"op": "stats"}\n')
            proc.stdin.flush()
            if not proc.stdout.readline():
                raise BenchError("repro serve gave no reply to the set-up probe")
            out["setup_s"] = time.monotonic() - t_spawn
            if not probe_only:
                clock = time.perf_counter
                replies, rtts = out["replies"], out["rtt_place_s"]
                start = clock()
                try:
                    for op, line in zip(ops, lines):
                        t = clock()
                        proc.stdin.write(line + "\n")
                        proc.stdin.flush()
                        raw = proc.stdout.readline()
                        if op == "place":
                            rtts.append(clock() - t)
                        replies.append(raw)
                except OSError:
                    pass  # the server died: the missing replies count as failed
                out["wall_s"] = clock() - start
                out["peak_rss_mb"] = _peak_rss_mb(proc.pid)
            proc.stdin.close()
            proc.wait(timeout=30)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    out["replies"] = [_parse_reply(r) for r in out["replies"]]
    return out


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc status")


def _parse_reply(raw: str):
    try:
        return json.loads(raw) if raw else None
    except ValueError:
        return None


# ----------------------------------------------------------------------
# planted wrong answers (self-test only)
# ----------------------------------------------------------------------
def plant(kind: str, workload: str, rep: dict, seed: int, size: str) -> None:
    """Corrupt one output of ``rep`` in place, as a faulty program would."""
    import random

    rng = random.Random(seed)
    if kind == "cost" and workload in SWEEPS:
        cell, policy, i = rng.choice(suite.sweep_units(workload, seed, size))
        ratios = rep["output"][cell][policy]
        ratios[i] = math.nextafter(ratios[i], math.inf)
    elif kind in ("bin", "drop") and workload == "serve-poisson":
        places = [k for k, r in enumerate(rep["replies"]) if r and "bin" in r]
        k = rng.choice(places)
        if kind == "bin":
            rep["replies"][k] = dict(rep["replies"][k], bin=rep["replies"][k]["bin"] + 1)
        else:
            rep["replies"][k] = None
    else:
        raise SystemExit(f"--plant {kind} does not apply to {workload}")


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
class Run:
    """Everything one invocation measures and checks."""

    def __init__(self, args) -> None:
        self.workload, self.seed, self.size = args.workload, args.seed, args.size
        self.seconds, self.plant = args.seconds, args.plant
        self._planted = False
        self.t0 = time.monotonic()
        self.attempted = 0
        self.failures = {}  # failed operation -> what went wrong, first seen
        self.crashes = 0
        self.correct = True
        self._expected = None
        if self.workload == "serve-poisson":
            instance = suite.serve_instance(self.seed, self.size)
            self.instance = instance
            self.requests = suite.serve_requests(instance)
            self.serve_lines = suite.serve_lines(self.requests)
            self.ops = [r["op"] for r in self.requests]

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t0)

    # -- repetitions ----------------------------------------------------
    def rep(self, mode: str = "timed", in_process: bool = False) -> dict:
        """One repetition: ``timed``, ``probe`` (set-up only) or ``traced``.

        serve-poisson runs ``repro serve`` as a subprocess, except when
        traced or ``in_process``: then a worker drives ``serve_loop``
        over the same request lines.
        """
        if self.workload == "serve-poisson" and mode != "traced" and not in_process:
            out = serve_session(
                self.serve_lines, self.ops, self.remaining(), probe_only=mode == "probe"
            )
        else:
            out = spawn_worker(self.workload, self.seed, self.size, mode, self.remaining())
        if self.plant and mode != "probe" and not self._planted:
            plant(self.plant, self.workload, out, self.seed, self.size)
            self._planted = True
        return out

    def events(self, rep: dict) -> int:
        """Item arrivals plus departures the repetition completed."""
        if self.workload in SWEEPS:
            units = suite.sweep_units(self.workload, self.seed, self.size)
            return len(units) * 2 * suite.SIZES[self.workload][self.size]["n"]
        if self.workload == "serve-poisson":
            return sum(1 for op in self.ops if op != "stats")
        return rep["output"]["events"]

    # -- checks ---------------------------------------------------------
    def check(self, rep: dict) -> None:
        wl = self.workload
        if wl in SWEEPS:
            if self._expected is None:
                self._expected = suite.sweep_expected(wl, self.seed, self.size)
            units = suite.sweep_units(wl, self.seed, self.size)
            attempted, failures = suite.check_sweep(units, rep["output"], self._expected)
            ok = not failures
        elif wl == "serve-poisson":
            if self._expected is None:
                self._expected = suite.serve_expected(self.instance, self.requests)
            attempted, failures = suite.check_serve(
                self.requests, rep["replies"], self._expected
            )
            ok = not failures
        else:
            attempted, failures, ok = suite.check_verify(rep["output"], self.size)
        self.attempted = max(self.attempted, attempted)
        for key, problem in failures.items():
            self.failures.setdefault(key, problem)
        self.correct = self.correct and ok

    def crashed(self, exc: Exception) -> None:
        """A repetition after the first died: one more failed operation."""
        self.crashes += 1
        self.failures[("crash", self.crashes)] = str(exc)
        self.correct = False

    @property
    def counts(self) -> tuple:
        """(attempted, failed) over distinct operations."""
        return self.attempted + self.crashes, len(self.failures)

    # -- trace 0 ----------------------------------------------------------
    def measure(self) -> dict:
        reps = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            try:
                reps.append(self.rep())
            except (BenchError, subprocess.TimeoutExpired) as exc:
                self.crashed(exc)
                if not reps:
                    raise
                break
            took = time.monotonic() - began
            # start another repetition only if one as long ends within --seconds
            if time.monotonic() - start + took > self.seconds or self.remaining() < took:
                break
        measured = time.monotonic() - start
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES and self.remaining() > 0:
            setups.append(self.rep("probe")["setup_s"])
        for rep in reps:
            self.check(rep)

        walls = [r["wall_s"] for r in reps]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "events_per_s": statistics.median(self.events(r) / r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        say(f"{len(reps)} repetitions in {measured:.1f} s, walls "
            f"{' '.join(f'{w:.3f}' for w in walls)} s; {len(setups)} set-up samples")
        self.say_metrics(metrics, END_TO_END)
        attempted, failed = self.counts
        say(f"failed_frac {failed / max(attempted, 1):.6g} ratio "
            f"({failed} of {attempted} operations)")
        if self.workload == "serve-poisson":
            rtts = sorted(x * 1e6 for r in reps for x in r["rtt_place_s"])
            say(f"place_p50_us {_quantile(rtts, 0.50):.1f} us")
            say(f"place_p99_us {_quantile(rtts, 0.99):.1f} us "
                     f"({len(rtts)} place samples, {len(rtts) // 100} beyond p99)")
            self.say_serve_mix()
        return metrics

    # -- trace 1 ----------------------------------------------------------
    def trace(self) -> dict:
        untraced = self.rep()
        session = None
        if self.workload == "serve-poisson":
            session, untraced = untraced, self.rep(in_process=True)
            self.check(session)
        self.check(untraced)
        traced = self.rep("traced")
        self.check(traced)

        layers = traced["layers"]
        wall = traced["wall_s"]
        metrics = {
            "cli.import_s": traced["cli_import_s"],
            "trace.wall_s": wall,
            "trace.overhead_frac": wall / untraced["wall_s"] - 1.0,
            "trace.unattributed_frac": 1.0 - sum(v["self_s"] for v in layers.values()) / wall,
        }
        for layer, _ in SHARES:
            metrics[f"{layer}_frac"] = layers.get(layer, {}).get("self_s", 0.0) / wall
        metrics["serve.ipc_frac"] = (
            (session["wall_s"] - untraced["wall_s"]) / session["wall_s"] if session else 0.0
        )

        def calls(layer):
            return layers.get(layer, {}).get("calls", 0)

        instances = traced["instances"]
        backends = traced["replay_backends"]
        metrics.update({
            "workloads.instances": len(instances),
            "workloads.items": sum(i["n"] for i in instances),
            "workloads.live_items_mean": (
                statistics.fmean(i["live_mean"] for i in instances) if instances else 0.0
            ),
            "workloads.live_items_peak": max((i["live_peak"] for i in instances), default=0),
            "optimum.lower_bound_calls": calls("optimum.lower_bound"),
            "fastpath.contexts": calls("fastpath.context"),
            "fastpath.replays": sum(backends.values()),
            "fastpath.replays_python": backends.get("python", 0),
            "fastpath.replays_numpy": backends.get("numpy", 0),
            "fastpath.replays_vectorized": backends.get("vectorized", 0),
            "service.places": calls("service.place"),
            "service.departs": calls("service.depart"),
            "service.stats_polls": (
                self.ops.count("stats") if self.workload == "serve-poisson" else 0
            ),
            "service.open_bins_mean": (
                self._expected["open_bins_mean"] if self.workload == "serve-poisson" else 0.0
            ),
            "algorithms.dispatch_calls": calls("algorithms.dispatch"),
            "verify.checks": traced["output"]["checks"] if self.workload == "verify-quick" else 0,
            "verify.violations": (
                len(traced["output"]["violations"]) if self.workload == "verify-quick" else 0
            ),
        })
        say(f"traced wall {wall:.3f} s, untraced {untraced['wall_s']:.3f} s"
                 + (f", subprocess session {session['wall_s']:.3f} s" if session else ""))
        if "spans_file" in traced:
            say(f"{traced['spans']} spans written to {traced['spans_file']}")
        say("layer self times (s, share of traced wall, calls):")
        for layer, why in SHARES:
            if layers.get(layer, {}).get("calls"):
                row = layers[layer]
                say(f"  {layer:<28} {row['self_s']:9.4f} s {row['self_s'] / wall:7.2%} "
                         f"{row['calls']:>8}  {why}")
        self.say_metrics(metrics, PER_LAYER)
        self.say_traffic(traced)
        return metrics

    # -- reporting --------------------------------------------------------
    def say_metrics(self, metrics: dict, table) -> None:
        for name, unit, _ in table:
            say(f"{name} {metrics[name]:.6g} {unit}")

    def say_serve_mix(self) -> None:
        mix = {op: self.ops.count(op) for op in ("place", "depart", "stats")}
        if self._expected is not None:
            say(f"request mix {mix}; open bins per place: mean "
                     f"{self._expected['open_bins_mean']:.1f}, peak "
                     f"{self._expected['open_bins_peak']}")

    def say_traffic(self, traced: dict) -> None:
        instances = traced["instances"]
        if self.workload == "table2-sweep":
            config = suite.table2_config(self.seed, self.size)
            cells = [(d, mu) for d in config.d_values for mu in config.mu_values]
            say("live items per cell (d, mu): time-mean / peak")
            for k, (d, mu) in enumerate(cells):
                chunk = instances[k * config.m:(k + 1) * config.m]
                say(f"  d={d} mu={mu}: "
                         f"{statistics.fmean(i['live_mean'] for i in chunk):.1f} / "
                         f"{max(i['live_peak'] for i in chunk)}")
        elif self.workload == "dense-sweep":
            say("live items (d=2, mu=100): time-mean "
                     f"{statistics.fmean(i['live_mean'] for i in instances):.1f} / peak "
                     f"{max(i['live_peak'] for i in instances)}")
        elif self.workload == "serve-poisson":
            self.say_serve_mix()
        say(f"replays by resolved backend: {traced['replay_backends'] or 'none'}")


def say(line: str) -> None:
    print(line, flush=True)


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return math.nan
    return sorted_values[min(int(q * len(sorted_values)), len(sorted_values) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="input size; toy is for the self-test")
    ap.add_argument("--plant", choices=("cost", "bin", "drop"), default=None,
                    help="self-test: corrupt one output before checking it")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    BUILD.mkdir(parents=True, exist_ok=True)
    (BUILD / "traces").mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.dont_write_bytecode = False
    # compile once so every set-up sample reads cached bytecode, as an
    # installed package would
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, check=True,
    )

    run = Run(args)
    say(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    try:
        metrics = run.trace() if args.trace else run.measure()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems = list(run.failures.values())
    for problem in problems[:20]:
        say(f"FAILED {problem}")
    if len(problems) > 20:
        say(f"... and {len(problems) - 20} more failures")
    attempted, failed = run.counts
    print(json.dumps({
        "correct": run.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
