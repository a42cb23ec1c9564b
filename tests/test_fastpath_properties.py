"""Property-based tests for the fast-path engine (Hypothesis).

Driven by the :mod:`repro.verify.strategies` library: grid-valued
sizes/times make ties, exact fits, and simultaneous arrivals dense in
the search space — exactly the coincidences where a flat-array replay
could diverge from the classic engine by an ulp or a tie-break.

Every generated packing must (a) equal the classic engine's packing bit
for bit, and (b) pass the full invariant auditor — capacity feasibility,
half-open ``[a, e)`` semantics, the Any Fit replay, and the
Theorem 2/3/4 upper bounds where they apply.

The tier-1 profile keeps the cases small and derandomised; the CI fuzz
job widens the search via ``HYPOTHESIS_PROFILE=ci`` plus the
``fuzz``-marked deep variants (off-grid jittered sizes, both backends).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algorithms.registry import make_algorithm
from repro.simulation.fastpath import FastEngine, fast_simulate
from repro.simulation.runner import run
from repro.verify import strategies as sts
from repro.verify.invariants import audit_run
from repro.verify.oracles import cost_check

BACKENDS = ("numpy", "python")


def _classic(policy, inst):
    kwargs = {"seed": 0} if policy == "random_fit" else {}
    return run(make_algorithm(policy, **kwargs), inst)


@given(inst=sts.instances(max_items=14), policy=sts.policies())
def test_fastpath_equals_classic(inst, policy):
    classic = _classic(policy, inst)
    fast = fast_simulate(policy, inst, seed=0)
    assert fast.assignment == classic.assignment
    assert fast.cost == pytest.approx(classic.cost, rel=1e-12, abs=1e-12)


@given(inst=sts.instances(max_items=14), policy=sts.policies())
def test_fastpath_packing_passes_auditor(inst, policy):
    """The fast packing independently satisfies every run invariant:
    capacity, half-open intervals, Any Fit replay, theorem bounds."""
    fast = fast_simulate(policy, inst, seed=0)
    assert audit_run(fast, policy) == []
    assert cost_check(fast) == []


@given(inst=sts.adversarial_instances(), policy=sts.policies())
def test_fastpath_on_lower_bound_gadgets(inst, policy):
    """The paper's adversarial gadget families lean on simultaneous
    arrivals and exact fits — worst case for tie-break fidelity."""
    classic = _classic(policy, inst)
    fast = fast_simulate(policy, inst, seed=0)
    assert fast.assignment == classic.assignment


@given(inst=sts.instances(max_items=14), seed=sts.trial_seeds())
def test_trial_lockstep_rng_streams_pinned(inst, seed):
    """``run_trials`` on both backends consumes per-seed
    ``default_rng(seed)`` streams identical to the classic engine's —
    one draw per non-empty candidate set, in event order — and a
    re-armed replay of the same seed draws the same stream again."""
    classic = run(make_algorithm("random_fit", seed=seed), inst)
    for backend in BACKENDS:
        batched = FastEngine(inst, "random_fit", backend=backend).run_trials(
            [seed, seed]
        )
        assert batched == [dict(classic.assignment)] * 2, (backend, seed)


@pytest.mark.fuzz
@settings(max_examples=300, deadline=None)
@given(inst=sts.instances(max_items=20, jitter=True), policy=sts.policies())
def test_fastpath_equals_classic_jittered_deep(inst, policy):
    """Deep variant: off-grid continuous sizes exercise the EPS
    tolerance on every backend, and the auditor re-checks the result."""
    classic = _classic(policy, inst)
    for backend in BACKENDS:
        fast = FastEngine(inst, policy, seed=0, backend=backend).run()
        assert fast.assignment == classic.assignment, backend
    assert audit_run(classic, policy) == []


@pytest.mark.fuzz
@settings(max_examples=200, deadline=None)
@given(inst=sts.instances(max_items=25), policy=sts.policies())
def test_fastpath_auditor_deep(inst, policy):
    fast = fast_simulate(policy, inst, seed=0)
    assert audit_run(fast, policy) == []
    assert cost_check(fast) == []
