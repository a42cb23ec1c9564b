"""The theorem-bound fuzzing harness behind ``repro verify --profile …``.

Drives the whole verification subsystem over a deterministic corpus
(:mod:`repro.verify.generators`): every corpus instance is checked for
the algorithm-free invariants, then replayed through all seven Section 7
policies with the reference differential oracle, the classic-vs-fastpath
twin-engine differential, the classic-vs-streaming bounded-memory
differential, the classic-vs-repacking budget-0 differential (the
migration engine's ``no_repack`` twin must be bit-identical), the
invariant auditor, and the Eq. 1 cost
recomputation; each instance then hosts one live budget-k repacking run
whose move log is replayed through the independent migration-budget
auditor (:func:`repro.verify.oracles.repacking_budget_check`,
alternating the greedy-consolidate and budgeted-rebalance policies),
then the whole policy set is re-run through one batched
:class:`~repro.simulation.batch.BatchRunner` pass which must reproduce
every assignment, bin count, and cost exactly; a stride of (instance,
policy) pairs additionally runs the plain-vs-instrumented engine
differential, and one small batch exercises the serial-vs-worker-vs-batched
sweep equality.  Every profile then runs the adaptive-adversary
must-exceed-bound scenarios (:data:`repro.adversaries.MUST_EXCEED_SCENARIOS`):
each lower-bound attack must certify the required fraction of its
theorem's bound (or drive the unbounded policies past the ratio
threshold) against the live engine, or the run fails.  The run ends
with the mutation smoke-test — if an injected mutant goes *uncaught*
(including the state-blind NullAdversary, which must *fail* the
adversary-bound check), the harness itself is broken, and that is
reported as a violation like any other.

Every engine run is instrumented through one shared
:class:`~repro.observability.stats.StatsCollector`, so the report carries
the oracle path's work counters (events, fit checks, dispatch time) in
the same :class:`~repro.observability.stats.RunStats` currency as the
perf-baseline suite — BENCH trajectory comparisons can therefore track
the verification workload too.

Profiles
--------
``quick``
    220 instances, every policy, instrumented differential every 5th
    pair — the CI gate (seconds to a couple of minutes).
``deep``
    1000 instances, instrumented differential on every pair, plus exact
    tiny-instance optimum cross-checks — the scheduled fuzz job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from ..adversaries.scenarios import ScenarioOutcome, must_exceed_report
from ..algorithms.best_fit import BestFit, WorstFit
from ..algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from ..core.errors import ConfigurationError, SolverLimitError
from ..observability.stats import RunStats, StatsCollector
from ..optimum.lower_bounds import opt_lower_bound
from ..optimum.opt_cost import optimum_cost, optimum_cost_bounds
from ..simulation.fastpath import FastEngine
from ..simulation.runner import run
from .generators import corpus
from .invariants import Violation, audit_instance, audit_run
from .mutation import MutationReport, mutation_smoke_test
from .oracles import (
    compare_with_batch,
    compare_with_fastpath,
    compare_with_reference,
    compare_with_repacking,
    compare_with_streaming,
    cost_check,
    instrumented_equality_check,
    repacking_budget_check,
    resume_equality_check,
    sweep_equality_check,
)

__all__ = ["VerifyProfile", "PROFILES", "VerifyReport", "run_verify"]

_TOL = 1e-9

#: Load-measure kernel variants cycled across the corpus: each instance
#: runs one classic (name, factory) pair against its fast-kernel spec,
#: so the L1/Lp eligibility closure is differential-tested on every
#: corpus shape without multiplying the per-instance work.
_MEASURE_VARIANTS: Tuple[Tuple[str, Callable[[], object], str], ...] = (
    ("best_fit_l1", lambda: BestFit(measure="l1"), "best_fit:l1"),
    ("best_fit_l2", lambda: BestFit(measure="lp", p=2.0), "best_fit:lp:2.0"),
    ("worst_fit_l1", lambda: WorstFit(measure="l1"), "worst_fit:l1"),
    ("worst_fit_lp3", lambda: WorstFit(measure="lp", p=3.0), "worst_fit:lp:3.0"),
)

#: Seeds of the lockstep-trials oracle (small: it runs on a stride of
#: corpus instances, on top of the full per-policy differential set).
_LOCKSTEP_SEEDS = (0, 1, 2, 3)


@dataclass(frozen=True)
class VerifyProfile:
    """Knobs of one harness configuration."""

    name: str
    instances: int
    seed: int
    policies: Tuple[str, ...] = tuple(PAPER_ALGORITHMS)
    #: run the plain-vs-instrumented differential on every k-th
    #: (instance, policy) pair
    instrumented_stride: int = 5
    #: corpus prefix size for the serial-vs-worker sweep equality check
    sweep_batch: int = 6
    #: cross-check the exact optimum on instances with at most this many
    #: items (0 disables; expensive)
    exact_opt_max_items: int = 0


PROFILES = {
    "quick": VerifyProfile(name="quick", instances=220, seed=20230613),
    "deep": VerifyProfile(
        name="deep",
        instances=1000,
        seed=20230613,
        instrumented_stride=1,
        sweep_batch=12,
        exact_opt_max_items=12,
    ),
}


@dataclass
class VerifyReport:
    """Everything one harness run learned."""

    profile: str
    instances_checked: int = 0
    runs: int = 0
    checks: int = 0
    violations: List[Tuple[str, Violation]] = field(default_factory=list)
    adversary_outcomes: Tuple[ScenarioOutcome, ...] = ()
    mutation: Optional[MutationReport] = None
    stats: RunStats = field(default_factory=RunStats)
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True iff no invariant was violated and every mutant was caught."""
        return not self.violations and (self.mutation is None or self.mutation.all_caught)

    def render(self) -> str:
        """Human-readable multi-line summary (the CLI output)."""
        lines = [
            f"verify profile={self.profile}: {self.instances_checked} instances, "
            f"{self.runs} policy runs, {self.checks} checks "
            f"in {self.wall_time_s:.1f} s",
            f"  work counters: events={self.stats.events}, "
            f"fit_checks={self.stats.fit_checks}, "
            f"candidate_scans={self.stats.candidate_scans}, "
            f"dispatch_time={self.stats.dispatch_time_s:.3f} s",
        ]
        if self.adversary_outcomes:
            passed = sum(1 for o in self.adversary_outcomes if o.passed)
            lines.append(
                f"  adversary bounds: {passed}/{len(self.adversary_outcomes)} "
                "scenarios exceeded their bound"
            )
            worst = min(
                (o for o in self.adversary_outcomes if o.required > 0),
                key=lambda o: o.achieved / o.required,
                default=None,
            )
            if worst is not None:
                lines.append(
                    f"    tightest: {worst.scenario.label} certified "
                    f"{worst.achieved:.3f} vs required {worst.required:.3f}"
                )
        if self.mutation is not None:
            lines.append(
                "  mutation smoke-test: broken-fit "
                f"{'CAUGHT' if self.mutation.capacity_caught else 'MISSED'}, "
                "eager-open "
                f"{'CAUGHT' if self.mutation.any_fit_caught else 'MISSED'}, "
                "stale-residual "
                f"{'CAUGHT' if self.mutation.fastpath_caught else 'MISSED'}, "
                "null-adversary "
                f"{'CAUGHT' if self.mutation.null_adversary_caught else 'MISSED'}, "
                "budget-ignoring "
                f"{'CAUGHT' if self.mutation.repacking_caught else 'MISSED'}"
            )
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            for where, v in self.violations[:20]:
                lines.append(f"    {where}: {v}")
            if len(self.violations) > 20:
                lines.append(f"    ... and {len(self.violations) - 20} more")
        else:
            lines.append("  all invariants held")
        return "\n".join(lines)


def _exact_opt_check(instance, cost_by_policy) -> List[Violation]:
    """Deep-profile cross-check: bracket and bound the *exact* optimum."""
    try:
        opt = optimum_cost(instance, max_nodes_per_segment=50_000)
    except SolverLimitError:
        return []
    lb = opt_lower_bound(instance)
    lo, hi = optimum_cost_bounds(instance)
    out: List[Violation] = []
    if not (lb <= opt + _TOL and lo <= opt + _TOL and opt <= hi + _TOL):
        out.append(Violation(
            "exact-opt",
            f"exact OPT {opt:.6g} outside certified bracket "
            f"[{lo:.6g}, {hi:.6g}] (Lemma 1 LB {lb:.6g})",
        ))
    for policy, cost in cost_by_policy.items():
        if cost + _TOL * max(1.0, cost) < opt:
            out.append(Violation(
                "exact-opt",
                f"{policy} cost {cost:.6g} beats the exact optimum {opt:.6g}",
            ))
    return out


def run_verify(
    profile: str = "quick",
    instances: Optional[int] = None,
    seed: Optional[int] = None,
    collector: Optional[StatsCollector] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> VerifyReport:
    """Run the verification harness and return its report.

    Parameters
    ----------
    profile:
        ``"quick"`` or ``"deep"`` (see :data:`PROFILES`).
    instances / seed:
        Optional overrides of the profile's corpus size and seed (used
        by tests and for violation replay).
    collector:
        Stats collector every engine run is instrumented through; a
        fresh one is created when omitted.  The report's ``stats`` field
        is its snapshot.
    progress:
        Optional ``print``-like callable for periodic progress lines.
    """
    try:
        prof = PROFILES[profile]
    except KeyError:
        raise ConfigurationError(
            f"unknown verify profile {profile!r}; available: "
            f"{', '.join(sorted(PROFILES))}"
        ) from None
    count = prof.instances if instances is None else int(instances)
    corpus_seed = prof.seed if seed is None else int(seed)
    col = collector if collector is not None else StatsCollector()
    report = VerifyReport(profile=prof.name)
    t0 = perf_counter()

    sweep_prefix = []
    for entry in corpus(count, seed=corpus_seed):
        where = f"corpus[{entry.index}]={entry.recipe}"
        inst = entry.instance
        for v in audit_instance(inst):
            report.violations.append((where, v))
        report.checks += 1
        if len(sweep_prefix) < prof.sweep_batch:
            sweep_prefix.append(inst)

        cost_by_policy = {}
        packing_by_policy = {}
        for p_idx, policy in enumerate(prof.policies):
            kwargs = {"seed": 0} if policy == "random_fit" else {}
            packing = run(make_algorithm(policy, **kwargs), inst, collector=col)
            report.runs += 1
            cost_by_policy[policy] = packing.cost
            packing_by_policy[policy] = packing
            for v in compare_with_reference(packing, policy, seed=0):
                report.violations.append((f"{where}/{policy}", v))
            for v in compare_with_fastpath(packing, policy, seed=0):
                report.violations.append((f"{where}/{policy}", v))
            for v in compare_with_streaming(packing, policy, seed=0):
                report.violations.append((f"{where}/{policy}", v))
            for v in compare_with_repacking(packing, policy, seed=0):
                report.violations.append((f"{where}/{policy}", v))
            for v in audit_run(packing, policy):
                report.violations.append((f"{where}/{policy}", v))
            for v in cost_check(packing):
                report.violations.append((f"{where}/{policy}", v))
            report.checks += 6
            pair = entry.index * len(prof.policies) + p_idx
            if prof.instrumented_stride and pair % prof.instrumented_stride == 0:
                for v in instrumented_equality_check(inst, policy, seed=0):
                    report.violations.append((f"{where}/{policy}", v))
                report.checks += 1

        # one live budget-k repacking run per instance, replayed through
        # the independent migration-budget auditor; policies alternate so
        # both recourse models (per-event cap, amortized credit) are
        # exercised across the corpus
        if entry.index % 2 == 0:
            for v in repacking_budget_check(
                inst, policy="first_fit", repacker="greedy_consolidate",
                budget=2.0, baseline_cost=cost_by_policy.get("first_fit"),
            ):
                report.violations.append((f"{where}/repack-audit", v))
        else:
            for v in repacking_budget_check(
                inst, policy="best_fit", repacker="budgeted_rebalance",
                budget=0.5,
            ):
                report.violations.append((f"{where}/repack-audit", v))
        report.checks += 1

        # one batched pass over the whole policy set: shared context,
        # shared scratch buffers, shared lower bound — must agree exactly
        for v in compare_with_batch(inst, packing_by_policy, seed=0):
            report.violations.append((f"{where}/batch", v))
        report.checks += 1

        # one load-measure kernel variant per instance (cycled): classic
        # BestFit/WorstFit under l1/lp versus the keyed fast kernel
        vname, vfactory, vspec = _MEASURE_VARIANTS[
            entry.index % len(_MEASURE_VARIANTS)
        ]
        vpacking = run(vfactory(), inst, collector=col)
        report.runs += 1
        for v in compare_with_fastpath(vpacking, vspec, seed=0):
            report.violations.append((f"{where}/{vname}", v))
        report.checks += 1

        # trial-lockstep oracle (strided): the numpy backend's batched
        # random_fit trials must reproduce independent per-seed single
        # replays bit for bit — and seed 0 must match the classic packing
        # above
        if entry.index % 4 == 0:
            lockstep = FastEngine(inst, "random_fit", backend="numpy").run_trials(
                _LOCKSTEP_SEEDS
            )
            single = FastEngine(inst, "random_fit", backend="numpy")
            ref = [single.reset(seed=s).run_assignment() for s in _LOCKSTEP_SEEDS]
            if lockstep != ref:
                report.violations.append((
                    f"{where}/lockstep",
                    Violation(
                        "lockstep",
                        "lockstep run_trials diverged from per-seed single "
                        f"numpy replays on seeds {_LOCKSTEP_SEEDS}",
                    ),
                ))
            classic_rf = packing_by_policy.get("random_fit")
            if (
                classic_rf is not None
                and lockstep
                and lockstep[0] != dict(classic_rf.assignment)
            ):
                report.violations.append((
                    f"{where}/lockstep",
                    Violation(
                        "lockstep",
                        "lockstep run_trials seed 0 diverged from the "
                        "classic random_fit packing",
                    ),
                ))
            report.checks += 1

        if prof.exact_opt_max_items and inst.n <= prof.exact_opt_max_items:
            for v in _exact_opt_check(inst, cost_by_policy):
                report.violations.append((where, v))
            report.checks += 1

        report.instances_checked += 1
        if progress is not None and (entry.index + 1) % 50 == 0:
            progress(
                f"  ... {entry.index + 1}/{count} instances, "
                f"{len(report.violations)} violations"
            )

    for v in sweep_equality_check(sweep_prefix, list(prof.policies[:3])):
        report.violations.append(("sweep-prefix", v))
    report.checks += 1

    # resume determinism: interrupted + resumed == uninterrupted, on
    # all three engines; include random_fit (when present) so per-unit
    # seed derivation is exercised through the checkpoint round-trip
    resume_policies = list(prof.policies[:2])
    if "random_fit" in prof.policies and "random_fit" not in resume_policies:
        resume_policies.append("random_fit")
    for v in resume_equality_check(
        sweep_prefix[:4], resume_policies, engines=("classic", "fast", "batch")
    ):
        report.violations.append(("resume-oracle", v))
    report.checks += 1

    # adaptive-adversary must-exceed-bound scenarios: every profile runs
    # the full grid against the live engine (seed pinned — the induced
    # instances are golden-tested, so any drift here is a regression)
    if progress is not None:
        progress("  ... running adversary must-exceed-bound scenarios")
    report.adversary_outcomes = must_exceed_report(seed=0)
    for outcome in report.adversary_outcomes:
        if not outcome.passed:
            report.violations.append((
                f"adversary/{outcome.scenario.label}",
                Violation("adversary-bound", outcome.message),
            ))
        report.checks += 1

    report.mutation = mutation_smoke_test(seed=corpus_seed)
    if not report.mutation.capacity_caught:
        report.violations.append((
            "mutation",
            Violation("mutation", "broken-fit mutant was NOT caught by the capacity auditor"),
        ))
    if not report.mutation.any_fit_caught:
        report.violations.append((
            "mutation",
            Violation("mutation", "eager-open mutant was NOT caught by the any-fit auditor"),
        ))
    if not report.mutation.fastpath_caught:
        report.violations.append((
            "mutation",
            Violation(
                "mutation",
                "stale-residual fastpath mutant was NOT caught by the "
                "twin-engine differential oracle",
            ),
        ))
    if not report.mutation.null_adversary_caught:
        report.violations.append((
            "mutation",
            Violation(
                "mutation",
                "NullAdversary mutant was NOT rejected by the "
                "must-exceed-bound check",
            ),
        ))
    if not report.mutation.repacking_caught:
        report.violations.append((
            "mutation",
            Violation(
                "mutation",
                "BudgetIgnoringRepacker mutant was NOT caught by the "
                "migration-budget auditor",
            ),
        ))
    report.checks += 1

    report.stats = col.snapshot()
    report.wall_time_s = perf_counter() - t0
    return report
