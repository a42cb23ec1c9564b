#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that

* every workload (also ``dense-sweep``, which ``BENCHMARK.json`` does
  not list), untraced and traced, prints every metric that
  ``BENCHMARK.json`` names, with its unit, and passes its own checks;
* planted wrong answers are caught and counted as failed: one perturbed
  unit cost in each sweep, one perturbed bin in a ``place`` reply, one
  dropped reply;
* ``attempted`` and ``failed`` do not depend on how many repetitions fit
  in ``--seconds``;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", "--size", "toy"]
    proc = subprocess.run(cmd + list(args), cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    tables = {0: manifest["end_to_end"], 1: manifest["per_layer"]}
    listed = [w["name"] for w in manifest["workloads"]]
    expect(set(listed) <= set(WORKLOADS), "BENCHMARK.json lists only known workloads")
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", name, "--trace", str(trace))
            res = result(proc)
            lines = proc.stdout.splitlines()
            wanted = {m["name"]: m["unit"] for m in tables[trace]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted, f"{name} trace {trace}: emits exactly the named metrics and units")
            printed = all(
                any(line.startswith(f"{metric} ") and line.split()[2] == unit for line in lines)
                for metric, unit in wanted.items()
            )
            expect(printed, f"{name} trace {trace}: prints every metric with its unit")
            extra = ["failed_frac"] + (["place_p50_us", "place_p99_us"] if name == "serve-poisson" else [])
            if trace == 0:
                expect(all(any(line.startswith(f"{m} ") for line in lines) for m in extra),
                       f"{name}: prints {', '.join(extra)}")
            expect(res["correct"] and res["attempted"] >= 1,
                   f"{name} trace {trace}: outputs pass their checks "
                   f"({res['failed']} of {res['attempted']} operations failed)")

    planted = {}
    for name, kind in (
        ("table2-sweep", "cost"),
        ("dense-sweep", "cost"),
        ("serve-poisson", "bin"),
        ("serve-poisson", "drop"),
    ):
        res = planted[name, kind] = result(bench("--workload", name, "--plant", kind))
        expect(not res["correct"] and res["failed"] == 1,
               f"{name}: planted {kind} fault caught as 1 failed operation")

    # the counts depend on the seed, not on how many repetitions fit in --seconds
    one = planted["table2-sweep", "cost"]
    proc = bench("--workload", "table2-sweep", "--plant", "cost", "--seconds", "8")
    many = result(proc)
    reps = int(next(line for line in proc.stdout.splitlines() if " repetitions in " in line).split()[0])
    expect(reps > 1 and (many["attempted"], many["failed"]) == (one["attempted"], one["failed"]),
           f"table2-sweep: {reps} repetitions count each operation once "
           f"({many['failed']} of {many['attempted']} failed)")

    bare = ROOT / ".bench_build" / "perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in manifest["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        manifest["command"] + ["--workload", manifest["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    expect(proc.returncode != 0 and not printed_result,
           "without the program the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
