#!/usr/bin/env python
"""Fastpath benchmark: classic Engine vs FastEngine, merged into BENCH_core.json.

Runs the pinned-seed fastpath scenario grid (the three largest core
cells plus one extra-large sweep cell) through every fast-kernel policy,
timing the classic :class:`~repro.simulation.engine.Engine` against
:class:`~repro.simulation.fastpath.FastEngine` on each backend (numpy
and pure-python).  Each cell also re-asserts the bit-identity contract:
the ``identical`` flag records whether fast and classic packings agreed
on every item→bin assignment and the Eq. 1 cost.

The payload nests under the ``"fastpath"`` key of ``BENCH_core.json``
when that file already holds a core-suite payload — carrying over any
nested ``vectorized`` record rather than clobbering it — so one file
carries the whole perf trajectory.  The headline (largest
scenario) is the number quoted in the README: the numpy backend must
stay >= 3x classic and the pure-python fallback must not be slower than
classic.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/bench_fastpath.py            # full grid
    PYTHONPATH=src python benchmarks/bench_fastpath.py --smoke    # seconds-fast
    PYTHONPATH=src python benchmarks/bench_fastpath.py --backend python

Equivalent CLI form: ``python -m repro bench --suite fastpath``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Allow running as a plain script from a checkout without installing.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.observability.bench import (  # noqa: E402
    FASTPATH_SCENARIOS,
    FASTPATH_SMOKE_SCENARIOS,
    merge_fastpath,
    run_fastpath_suite,
    write_bench,
)
from repro.observability.bench import SCHEMA as _CORE_SCHEMA  # noqa: E402

_DEFAULT_OUTPUT = os.path.join(_REPO_ROOT, "BENCH_core.json")


def _load_existing(path: str):
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the seconds-fast smoke grid instead of the full one")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per (scenario, algorithm, engine); wall-time is the min")
    parser.add_argument("--backend", action="append", default=None,
                        choices=["numpy", "python"],
                        help="restrict to one backend (repeatable; default: both)")
    parser.add_argument("--output", default=_DEFAULT_OUTPUT,
                        help="output JSON path (default: BENCH_core.json at the repo root)")
    args = parser.parse_args(argv)

    scenarios = FASTPATH_SMOKE_SCENARIOS if args.smoke else FASTPATH_SCENARIOS

    suite = "fastpath-smoke" if args.smoke else "fastpath"
    print(f"running {suite} suite ({len(scenarios)} scenarios, "
          f"repeats={args.repeats}) ...")
    payload = run_fastpath_suite(
        scenarios=scenarios,
        repeats=args.repeats,
        backends=args.backend,
        suite=suite,
        progress=print,
    )

    # Nest under the core payload when the output file already holds one,
    # carrying over the nested vectorized record from the prior
    # fastpath block so a grid re-run never clobbers it.
    existing = _load_existing(args.output)
    if isinstance(existing, dict):
        prior = existing.get("fastpath", {})
        if isinstance(prior, dict) and "vectorized" in prior:
            payload["vectorized"] = prior["vectorized"]
    if isinstance(existing, dict) and existing.get("schema") == _CORE_SCHEMA:
        write_bench(merge_fastpath(existing, payload), args.output)
    else:
        write_bench(payload, args.output)

    head = payload["headline"]
    ups = ", ".join(
        f"{k.split('_', 1)[1]} {head[k]:.1f}x"
        for k in sorted(head) if k.startswith("speedup_")
    )
    print(f"suite finished in {payload['total_wall_time_s']:.1f} s; "
          f"headline ({head['scenario']}): {ups}, "
          f"identical={head['identical']}; wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
