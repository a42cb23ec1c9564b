"""The verify harness end-to-end: profiles, mutation smoke-test, CLI.

Tier-1 runs the harness on a short corpus prefix; the full ``quick``
profile (220 instances — the CI gate's exact configuration) and a
deep-profile slice run under the ``fuzz`` marker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.errors import ConfigurationError
from repro.observability.stats import StatsCollector
from repro.verify.generators import CORPUS_RECIPES, corpus_list
from repro.verify.harness import PROFILES, run_verify
from repro.verify.mutation import broken_fit, mutation_smoke_test


def test_profiles_registered():
    assert set(PROFILES) == {"quick", "deep"}
    # the CI gate's acceptance floor: >= 200 instances in the quick profile
    assert PROFILES["quick"].instances >= 200
    assert PROFILES["deep"].instances > PROFILES["quick"].instances
    assert len(PROFILES["quick"].policies) == 7


def test_run_verify_short_prefix_is_clean():
    report = run_verify("quick", instances=len(CORPUS_RECIPES))
    assert report.ok
    assert report.instances_checked == len(CORPUS_RECIPES)
    # 7 default policies plus one cycled measure-variant (l1/lp) run
    assert report.runs == len(CORPUS_RECIPES) * 8
    assert report.violations == []
    assert report.mutation is not None and report.mutation.all_caught
    assert "all invariants held" in report.render()
    assert "mutation smoke-test" in report.render()
    # the adversary must-exceed scenarios run in every profile
    assert len(report.adversary_outcomes) == 8
    assert all(o.passed for o in report.adversary_outcomes)
    assert "adversary bounds: 8/8" in report.render()
    assert "null-adversary CAUGHT" in report.render()
    assert "budget-ignoring CAUGHT" in report.render()


def test_run_verify_records_work_counters():
    """The harness's engine runs flow through one shared StatsCollector."""
    collector = StatsCollector()
    report = run_verify("quick", instances=4, collector=collector)
    assert report.ok
    n_items = sum(e.instance.n for e in corpus_list(4, seed=PROFILES["quick"].seed))
    # 7 policies plus the cycled measure-variant run x every event; the
    # instrumented-differential oracle runs extra engine passes through
    # its own collectors, not this one
    assert report.stats.events == 8 * 2 * n_items
    # exact dispatch work: one scan per arrival that found L non-empty,
    # one fit check per open bin scanned (pinned; a change to how Any
    # Fit keeps L must leave both untouched)
    assert report.stats.candidate_scans == 881
    assert report.stats.fit_checks == 2351
    assert report.stats.dispatch_time_s > 0
    assert collector.snapshot().events == report.stats.events


def test_run_verify_unknown_profile():
    with pytest.raises(ConfigurationError):
        run_verify("exhaustive")


def test_mutation_smoke_test_catches_all_mutants():
    report = mutation_smoke_test(seed=0)
    assert report.capacity_caught
    assert report.any_fit_caught
    assert report.fastpath_caught
    assert report.null_adversary_caught
    assert report.repacking_caught
    assert report.typed_caught
    assert report.all_caught


@pytest.mark.parametrize("seed", [184, 316])
def test_eager_open_mutant_is_caught_at_every_seed(seed):
    # a sampled instance at these seeds never exposed the skipped scan
    report = mutation_smoke_test(seed=seed)
    assert report.any_fit_caught
    assert all(v.check == "any-fit" for v in report.any_fit_violations)


@pytest.mark.parametrize("seed", [None, 184, 316])
def test_one_instance_corpus_is_clean(seed):
    # one instance is a single batch payload, which no max_units cut
    # can leave half done; the resume oracle checks equality only
    report = run_verify("quick", instances=1, seed=seed)
    assert report.violations == []
    assert report.ok


def test_resume_oracle_still_interrupts_two_instances(monkeypatch):
    import repro.verify.oracles as oracles

    policies = ["first_fit", "move_to_front", "random_fit"]
    instances = [e.instance for e in corpus_list(2, seed=PROFILES["quick"].seed)]
    assert oracles.resume_equality_check(instances, policies) == []
    # an interruption that completes everything is reported again once
    # the sweep has two payloads per engine
    real = oracles.parallel_sweep

    def uninterrupted(*args, **kwargs):
        kwargs.pop("max_units", None)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "parallel_sweep", uninterrupted)
    problems = oracles.resume_equality_check(instances, policies)
    assert {v.message.split(":")[0] for v in problems} == \
        {"engine=classic", "engine=batch"}


def test_budget_ignoring_mutant_caught_by_budget_auditor():
    """The ledger-bypassing repacker is flagged by the move-log replay.

    Both halves of the auditor must fire: the per-event budget replay
    (two moves in one window against a budget of one) and the
    ledger-vs-log agreement check (the ledger recorded nothing).
    """
    report = mutation_smoke_test(seed=0)
    assert report.repacking_violations
    assert all(v.check == "repacking-audit" for v in report.repacking_violations)
    messages = " ".join(v.message for v in report.repacking_violations)
    assert "exceeding the per-event budget" in messages
    assert "enforcement was bypassed" in messages


def test_stale_residual_mutant_actually_diverges():
    """The broken fast engine packs differently from the classic one, is
    caught by the twin-engine oracle, and the violations name it."""
    report = mutation_smoke_test(seed=0)
    assert report.fastpath_violations
    assert all(v.check == "fastpath" for v in report.fastpath_violations)
    # the healthy fast engine on the same workload is clean, so the
    # divergence is the injected bug, not the workload
    from repro.verify.mutation import StaleResidualFastEngine
    from repro.verify.oracles import compare_with_fastpath
    from repro.workloads.uniform import UniformWorkload

    inst = UniformWorkload(d=2, n=60, mu=6, T=20, B=6, name="mutation").sample_seeded(2)
    from repro.simulation.runner import run as _run

    classic = _run("first_fit", inst)
    assert compare_with_fastpath(classic, "first_fit") == []
    stale = StaleResidualFastEngine(inst, "first_fit").run()
    assert compare_with_fastpath(classic, "first_fit", fast_packing=stale) != []


def test_render_reports_stale_residual_mutant():
    report = run_verify("quick", instances=2)
    assert "stale-residual CAUGHT" in report.render()


def test_render_reports_frozen_recency_mutant():
    report = run_verify("quick", instances=2)
    assert "frozen-recency CAUGHT" in report.render()


def test_missed_typed_mutant_fails_the_report():
    from repro.verify.harness import VerifyReport
    from repro.verify.mutation import MutationReport

    mutation = MutationReport(True, True, [], [], typed_caught=False)
    assert not mutation.all_caught
    report = VerifyReport("quick", mutation=mutation)
    assert not report.ok
    assert "frozen-recency MISSED" in report.render()


def test_run_verify_alternates_typed_twins(monkeypatch):
    """One typed replay per corpus instance: Move To Front's packing
    against ``recent`` on even indexes, First Fit's against ``first`` on
    odd ones; a violation it reports lands in the report."""
    from repro.verify import harness
    from repro.verify.invariants import Violation

    calls = []

    def spy(packing, selection, typed_packing=None):
        calls.append((packing.algorithm, selection))
        return [Violation("typed", "injected")] if len(calls) == 3 else []

    monkeypatch.setattr(harness, "compare_with_typed", spy)
    report = run_verify("quick", instances=4)
    assert calls == [("move_to_front", "recent"), ("first_fit", "first")] * 2
    assert [(where, v.message) for where, v in report.violations] == [
        (f"corpus[2]={corpus_list(4, seed=PROFILES['quick'].seed)[2].recipe}"
         "/typed-recent", "injected"),
    ]
    assert not report.ok


def test_frozen_recency_mutant_passes_the_packing_invariants():
    """The typed mutant's packings are feasible and Any Fit, so only the
    typed-vs-classic oracle can catch it; its ``first`` selection, which
    never reads recency, is still First Fit."""
    from repro.core.packing import Packing
    from repro.heterogeneous import typed_run
    from repro.simulation.runner import run as _run
    from repro.verify.invariants import check_any_fit, check_capacity
    from repro.verify.mutation import FrozenRecencyTypedAnyFit
    from repro.verify.oracles import _unit_fleet, compare_with_typed
    from repro.workloads.uniform import UniformWorkload

    inst = UniformWorkload(d=2, n=120, mu=20, T=60, B=20, name="frozen").sample_seeded(5)

    def frozen(selection):
        policy = FrozenRecencyTypedAnyFit(
            _unit_fleet(inst), opening_rule="cheapest", selection=selection
        )
        return typed_run(policy, inst, validate=True)

    recent = frozen("recent")
    as_classic = Packing.from_assignment(inst, recent.assignment)
    assert check_capacity(as_classic) == []
    assert check_any_fit(as_classic) == []
    assert compare_with_typed(_run("move_to_front", inst), "recent", typed_packing=recent)
    assert compare_with_typed(
        _run("first_fit", inst), "first", typed_packing=frozen("first")
    ) == []


def test_broken_fit_is_actually_broken():
    """The injected predicate ignores every dimension but the first."""
    load = np.array([0.2, 0.9])
    size = np.array([0.2, 0.9])
    cap = np.array([1.0, 1.0])
    assert broken_fit(load, size, cap)  # accepts an overflow in dim 1
    assert not broken_fit(np.array([0.9, 0.0]), size, cap)  # dim 0 still checked


def test_cli_verify_profile_quick():
    assert main(["verify", "--profile", "quick", "--instances", "6"]) == 0


def test_cli_verify_theorem_path_unchanged():
    assert main(["verify", "--theorem", "2", "--n", "60", "--mu", "5"]) == 0
    assert main(["verify", "--theorem", "4", "--n", "60", "--mu", "5", "--seed", "3"]) == 0


@pytest.mark.fuzz
def test_full_quick_profile():
    """The exact CI gate: 220 instances, all policies, zero violations."""
    report = run_verify("quick", progress=print)
    assert report.instances_checked >= 200
    assert report.ok, report.render()


@pytest.mark.fuzz
def test_deep_profile_slice():
    """A deep-profile slice: stride-1 instrumentation + exact-OPT checks."""
    report = run_verify("deep", instances=40)
    assert report.ok, report.render()
