"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SIZE MODE

``run.py`` starts this with ``src`` on ``PYTHONPATH``.  MODE is

* ``probe``  -- import and build the inputs, stop at the first timed
  operation (a set-up sample);
* ``timed``  -- run the entry point once, untraced;
* ``traced`` -- the same with every layer entry point wrapped in spans
  (see ``spans.py``), also timing the import of ``repro.cli``.

The last stdout line is one JSON object.  ``t_first`` is the
``time.monotonic()`` reading (system-wide on Linux) at the first timed
operation, so the parent can subtract its own reading at spawn time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv) -> int:
    workload, seed, size, mode = argv[1], int(argv[2]), argv[3], argv[4]
    out = {}
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (what every `repro` command imports)

    out["cli_import_s"] = time.perf_counter() - start

    import suite

    tracer = None
    if mode == "traced":
        import spans

        tracer = spans.Tracer()

    if workload in ("table2-sweep", "dense-sweep"):
        from repro.analysis.sweep import sweep_cell
        from repro.experiments.figure4 import run_figure4

        layer, entry = (
            ("experiments.figure4", run_figure4)
            if workload == "table2-sweep"
            else ("analysis.sweep_cell", sweep_cell)
        )
        if tracer is not None:
            entry = tracer.wrap(layer, entry)
        go = suite.run_sweep(workload, seed, size, entry)
    elif workload == "verify-quick":
        from repro.verify import run_verify

        entry = run_verify if tracer is None else tracer.wrap("verify.harness", run_verify)
        go = suite.run_verify_quick(seed, size, entry)
    else:  # serve-poisson, in-process: serve_loop over the same request lines
        from repro.streaming.service import PlacementService, serve_loop

        lines = suite.serve_lines(suite.serve_requests(suite.serve_instance(seed, size)))
        service = PlacementService(policy=suite.SERVE_POLICY, capacity=100.0, d=suite.SERVE_D)
        loop = serve_loop if tracer is None else tracer.wrap("service.protocol", serve_loop)
        replies = []

        def go():
            loop(service, lines, replies.append)
            return replies

    if tracer is not None:
        spans.install(tracer)

    out["t_first"] = time.monotonic()
    if mode == "probe":
        print(json.dumps(out))
        return 0
    start = time.perf_counter()
    result = go()
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload == "serve-poisson":
        out["replies"] = [json.loads(r) for r in result]
    else:
        out["output"] = result

    if tracer is not None:
        out["layers"] = tracer.summary()
        backends = {}
        for backend, runs in tracer.notes.get("replay_backends", []):
            backends[backend] = backends.get(backend, 0) + runs
        out["replay_backends"] = backends
        out["instances"] = []
        for inst in tracer.notes.get("instances", []):
            mean, peak = suite.live_item_profile(inst)
            out["instances"].append({"n": len(inst.items), "live_mean": mean, "live_peak": peak})
        trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
        if trace_dir:
            path = os.path.join(trace_dir, f"{workload}-seed{seed}-{size}.spans.tsv")
            tracer.write(path)
            out["spans_file"] = path
            out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
