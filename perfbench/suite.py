"""The four workloads: their inputs, their entry-point calls and their checks.

Every input is a pure function of the workload seed and a size
(``full`` for measurement, ``toy`` for the self-test).  Each check
compares the program's output with an independent computation made
outside the timed phase, and returns ``(attempted, failures)`` where an
operation is one (policy, instance) replay, one service request or one
verify check, and ``failures`` maps each failed operation's key to what
went wrong.  The keys let ``run.py`` count an operation once however
many repetitions ran it.

This module imports ``repro`` lazily: ``run.py`` must be able to load it
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, List, Tuple

SERVE_POLICY = "move_to_front"
SERVE_D = 2
STATS_EVERY = 100

SIZES = {
    # table2-sweep: instances per Table-2 cell
    "table2-sweep": {"full": {"n": 1000, "m": 2}, "toy": {"n": 40, "m": 1}},
    # dense-sweep: one d=2, mu=100 cell at cloud concurrency
    "dense-sweep": {"full": {"n": 5000, "m": 4}, "toy": {"n": 300, "m": 2}},
    # serve-poisson: arrival window of a rate-100 Poisson stream
    "serve-poisson": {"full": {"horizon": 100.0}, "toy": {"horizon": 2.0}},
    # verify-quick: corpus size (None = the profile's own 220)
    "verify-quick": {"full": {"instances": None}, "toy": {"instances": 6}},
}

#: (policy, instance) units re-run through the classic engine per rep
CHECK_SAMPLE = {
    "table2-sweep": {"full": 32, "toy": 10_000},
    "dense-sweep": {"full": 4, "toy": 10_000},
}


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
def table2_config(seed: int, size: str):
    from repro.experiments.config import ExperimentConfig

    p = SIZES["table2-sweep"][size]
    return ExperimentConfig(n=p["n"], T=1000, B=100, m=p["m"], seed=seed)


def dense_generator(size: str):
    from repro.workloads.uniform import UniformWorkload

    return UniformWorkload(d=2, n=SIZES["dense-sweep"][size]["n"], mu=100, T=1000, B=100)


def run_sweep(workload: str, seed: int, size: str, entry):
    """Build the sweep's inputs; return a call of ``entry`` on them that
    yields ``{cell: {policy: [ratio, ...]}}``.

    ``entry`` is ``run_figure4`` (table2-sweep) or ``sweep_cell``
    (dense-sweep), possibly wrapped by the traced run.
    """
    from repro.algorithms.registry import PAPER_ALGORITHMS

    if workload == "table2-sweep":
        config = table2_config(seed, size)

        def go():
            result = entry(config, engine="batch")
            return {f"{d},{mu}": dict(cell.ratios) for (d, mu), cell in result.cells.items()}

        return go
    from repro.simulation.batch import spec_batch

    specs = spec_batch(dense_generator(size), SIZES[workload][size]["m"], seed=seed)

    def go():
        cell = entry(PAPER_ALGORITHMS, specs, engine="batch")
        return {"2,100": dict(cell.ratios)}

    return go


def sweep_units(workload: str, seed: int, size: str) -> List[Tuple[str, str, int]]:
    """Every (cell, policy, instance index) unit of one rep, in sweep order."""
    from repro.algorithms.registry import PAPER_ALGORITHMS

    if workload == "table2-sweep":
        config = table2_config(seed, size)
        cells = [f"{d},{mu}" for d in config.d_values for mu in config.mu_values]
        m = config.m
    else:
        cells, m = ["2,100"], SIZES[workload][size]["m"]
    return [(c, p, i) for c in cells for p in PAPER_ALGORITHMS for i in range(m)]


def _cell_instances(workload: str, seed: int, size: str) -> Dict[str, list]:
    """Regenerate each cell's instances through ``generate_batch``.

    The sweep ships compact specs that workers materialise; the check
    draws the same instances through the eager generator API instead.
    """
    import numpy as np
    from repro.workloads.base import generate_batch
    from repro.workloads.uniform import UniformWorkload

    if workload == "dense-sweep":
        m = SIZES[workload][size]["m"]
        return {"2,100": generate_batch(dense_generator(size), m, seed=seed)}
    config = table2_config(seed, size)
    children = np.random.SeedSequence(config.seed).spawn(
        len(config.d_values) * len(config.mu_values)
    )
    out, idx = {}, 0
    for d in config.d_values:
        for mu in config.mu_values:
            gen = UniformWorkload(d=d, n=config.n, mu=mu, T=config.T, B=config.B)
            out[f"{d},{mu}"] = generate_batch(gen, config.m, seed=children[idx])
            idx += 1
    return out


def sweep_expected(workload: str, seed: int, size: str) -> Dict[Tuple[str, str, int], float]:
    """Classic-engine ratio of a seeded sample of units.

    Each sampled unit is replayed by the classic event loop (not the
    batch/fastpath kernels the sweep uses) and its Eq. 1 cost divided by
    the Lemma 1 bound, which is the ratio the sweep reports.
    """
    from repro.algorithms.registry import make_algorithm
    from repro.optimum.lower_bounds import height_lower_bound
    from repro.simulation.parallel import algorithm_accepts_seed, derive_unit_seeds
    from repro.simulation.runner import run

    units = sweep_units(workload, seed, size)
    count = min(CHECK_SAMPLE[workload][size], len(units))
    sample = random.Random(seed).sample(units, count)
    instances = _cell_instances(workload, seed, size)
    expected = {}
    for cell, policy, i in sample:
        inst = instances[cell][i]
        kwargs = {}
        if algorithm_accepts_seed(policy):
            # the sweep's documented per-unit seed stream (base seed 0)
            kwargs["seed"] = derive_unit_seeds(0, len(instances[cell]))[i]
        cost = run(make_algorithm(policy, **kwargs), inst).cost
        lb = height_lower_bound(inst)
        expected[(cell, policy, i)] = cost / lb if lb > 0 else (math.inf if cost > 0 else 1.0)
    return expected


def check_sweep(units, ratios, expected) -> Tuple[int, Dict[tuple, str]]:
    """Every unit: a finite ratio of at least 1 (cost >= Lemma 1 bound).
    Sampled units: bit-identical to the classic replay."""
    failures = {}
    for cell, policy, i in units:
        try:
            got = ratios[cell][policy][i]
        except (KeyError, IndexError, TypeError):
            got = None
        ok = isinstance(got, float) and math.isfinite(got) and got >= 1.0 - 1e-9
        want = expected.get((cell, policy, i))
        if ok and want is not None and got != want:
            ok = False
        if not ok:
            failures[(cell, policy, i)] = f"{cell}/{policy}/{i}: sweep {got!r} vs classic {want!r}"
    return len(units), failures


def live_item_profile(instance) -> Tuple[float, int]:
    """(time-averaged, peak) number of live items of one instance."""
    events = []
    total = 0.0
    for it in instance.items:
        total += it.departure - it.arrival
        events.append((it.departure, 0))
        events.append((it.arrival, 1))
    events.sort()
    live = peak = 0
    for _, kind in events:
        live += 1 if kind else -1
        peak = max(peak, live)
    span = max(it.departure for it in instance.items) - min(it.arrival for it in instance.items)
    return (total / span if span > 0 else float(len(instance.items))), peak


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_instance(seed: int, size: str):
    from repro.workloads.poisson import PoissonWorkload

    horizon = SIZES["serve-poisson"][size]["horizon"]
    return PoissonWorkload(d=SERVE_D, rate=100, horizon=horizon).sample_seeded(seed)


def serve_requests(instance) -> List[dict]:
    """The request stream: core.events order, open-ended places (departure
    times stay unknown to the service), explicit departs, a stats poll
    every ``STATS_EVERY`` requests and a final stats poll."""
    from repro.core.events import EventKind, event_stream

    requests = []
    for event in event_stream(instance):
        item = event.item
        if event.kind is EventKind.ARRIVAL:
            requests.append({
                "op": "place", "item_id": item.uid, "at": item.arrival,
                "size": [float(x) for x in item.size],
            })
        else:
            requests.append({"op": "depart", "item_id": item.uid, "at": item.departure})
        if len(requests) % STATS_EVERY == STATS_EVERY - 1:
            requests.append({"op": "stats"})
    requests.append({"op": "stats"})
    return requests


def serve_lines(requests: List[dict]) -> List[str]:
    return [json.dumps(r) for r in requests]


def serve_expected(instance, requests: List[dict]) -> dict:
    """What each reply must say, from one classic ``run`` of the instance.

    Walks the request stream against the classic assignment, tracking
    which bins hold live items, so that each depart's ``closed`` flag,
    each stats poll's live and open-bin counts, and the open bins a
    place scans are known without asking the service.
    """
    from repro.simulation.runner import run

    packing = run(SERVE_POLICY, instance)
    assignment = dict(packing.assignment)
    per_bin: Dict[int, int] = {}
    live = 0
    replies = []
    open_at_place = []
    for req in requests:
        op = req["op"]
        if op == "place":
            b = assignment[req["item_id"]]
            open_at_place.append(len(per_bin))
            per_bin[b] = per_bin.get(b, 0) + 1
            live += 1
            replies.append({"bin": b, "item_id": req["item_id"]})
        elif op == "depart":
            b = assignment[req["item_id"]]
            per_bin[b] -= 1
            closed = per_bin[b] == 0
            if closed:
                del per_bin[b]
            live -= 1
            replies.append({"closed": closed})
        else:
            replies.append({"live_items": live, "open_bins": len(per_bin)})
    return {
        "replies": replies,
        "cost": packing.cost,
        "open_bins_mean": sum(open_at_place) / max(len(open_at_place), 1),
        "open_bins_peak": max(open_at_place, default=0),
    }


def check_serve(requests, replies, expected) -> Tuple[int, Dict[int, str]]:
    """Each reply against the classic replay; the final cost within the
    streaming engine's 1e-9 relative tolerance (the service sums bin
    costs in close order, the packing in open order)."""
    failures = {}
    want_all = expected["replies"]
    for k, req in enumerate(requests):
        got = replies[k] if k < len(replies) else None
        want = want_all[k]
        if not isinstance(got, dict) or got.get("ok") is not True:
            bad = f"no reply or error reply {got!r}"
        elif any(got.get(key) != value for key, value in want.items()):
            bad = f"reply {got!r}, classic says {want!r}"
        elif k == len(requests) - 1 and not math.isclose(
            got.get("cost", math.nan), expected["cost"], rel_tol=1e-9, abs_tol=0.0
        ):
            bad = f"final cost {got.get('cost')!r}, classic {expected['cost']!r}"
        else:
            continue
        failures[k] = f"request {k} {req['op']}: {bad}"
    return len(requests), failures


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
def run_verify_quick(seed: int, size: str, entry):
    """A call of ``entry`` (``run_verify``, possibly wrapped) on the quick
    profile, yielding the report fields the check reads."""
    instances = SIZES["verify-quick"][size]["instances"]

    def go():
        report = entry("quick", instances=instances, seed=seed)
        return {
            "checks": report.checks,
            "instances_checked": report.instances_checked,
            "violations": [f"{where}: {v}" for where, v in report.violations],
            "adversary_outcomes": len(report.adversary_outcomes),
            "mutation_ran": report.mutation is not None,
            "events": report.stats.events,
        }

    return go


def check_verify(output, size: str) -> Tuple[int, Dict[str, str], bool]:
    """Each violation is one failed check, keyed by its text.  The report
    must also be complete: every corpus instance, every must-exceed
    scenario and the mutation smoke test ran.  Returns ``(..., complete)``."""
    from repro.adversaries import MUST_EXCEED_SCENARIOS
    from repro.verify.harness import PROFILES

    instances = SIZES["verify-quick"][size]["instances"] or PROFILES["quick"].instances
    complete = (
        output["checks"] >= 1
        and output["instances_checked"] == instances
        and output["adversary_outcomes"] == len(MUST_EXCEED_SCENARIOS)
        and output["mutation_ran"]
    )
    failures = {v: v for v in output["violations"]}
    if not complete:
        failures["incomplete"] = f"incomplete verify report: {output!r}"
    return output["checks"], failures, complete
