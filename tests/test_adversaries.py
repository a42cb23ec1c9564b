"""Tests for the adaptive adversary subsystem (repro.adversaries).

Three layers:

* **Must-exceed-bound scenarios** — every pinned scenario of
  :data:`repro.adversaries.MUST_EXCEED_SCENARIOS` achieves the certified
  fraction of its theorem's lower bound (or the ratio threshold, for the
  Theorem 7 unboundedness attacks) against the live engine, and the
  induced instance replays bit-identically through the classic engine.
* **Induced instances are first-class** — they pass the invariant
  auditor and all four engine differential oracles
  (reference / fastpath / streaming / batch), so the whole verification
  machinery applies to adversarial instances with no special cases.
* **The check has teeth** — the state-blind :class:`NullAdversary` must
  *fail* the same must-exceed check (the mutation smoke-test mirror),
  and the config validation rejects nonsense parameters.

A deeper (mu, d) grid is marked ``slow`` and excluded from tier-1.
"""

from __future__ import annotations

import math

import pytest

from repro.adversaries import (
    ATTACKS,
    MUST_EXCEED_SCENARIOS,
    Adversary,
    AdversaryDriver,
    AttackConfig,
    AttackScenario,
    make_adversary,
    must_exceed_report,
    null_adversary_outcome,
    run_attack,
    run_scenario,
)
from repro.core.errors import ConfigurationError
from repro.core.items import Item
from repro.simulation.runner import run
from repro.verify.invariants import audit_instance, audit_run
from repro.verify.mutation import mutation_smoke_test
from repro.verify.oracles import (
    compare_with_batch,
    compare_with_fastpath,
    compare_with_reference,
    compare_with_streaming,
)

# cache: driving an attack is not free, and several tests inspect the
# same scenario outcomes — run each pinned scenario once per session
_OUTCOMES = {}


def _outcome(scenario, seed=0):
    key = (scenario, seed)
    if key not in _OUTCOMES:
        _OUTCOMES[key] = run_scenario(scenario, seed=seed)
    return _OUTCOMES[key]


# ---------------------------------------------------------------------------
# must-exceed-bound scenarios
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario", MUST_EXCEED_SCENARIOS, ids=lambda s: s.label
)
def test_scenario_exceeds_bound(scenario):
    """Each attack certifies >= 90% of its theorem's bound (or the
    threshold) at its pinned (mu, d) points — the PR's acceptance bar."""
    outcome = _outcome(scenario)
    assert outcome.passed, outcome.message
    assert outcome.achieved >= outcome.required
    assert outcome.result.replay_identical


@pytest.mark.parametrize(
    "scenario", MUST_EXCEED_SCENARIOS, ids=lambda s: s.label
)
def test_scenario_bound_matches_theory(scenario):
    """The required value is the closed-form bound from repro.analysis.theory."""
    from repro.analysis.theory import (
        any_fit_lower_bound,
        move_to_front_lower_bound,
        next_fit_lower_bound,
    )

    outcome = _outcome(scenario)
    result = outcome.result
    if scenario.attack == "duration_revealing":
        assert result.theoretical_bound == any_fit_lower_bound(scenario.mu, scenario.d)
    elif scenario.attack == "next_fit_churner":
        assert result.theoretical_bound == next_fit_lower_bound(scenario.mu, scenario.d)
    elif scenario.attack == "leader_targeting":
        assert result.theoretical_bound == move_to_front_lower_bound(
            scenario.mu, scenario.d
        )
    else:  # best_fit_amplifier: Theorem 7 — unbounded
        assert math.isinf(result.theoretical_bound)
        assert outcome.required == scenario.threshold


def test_amplifier_respects_configured_threshold():
    """The amplifier stops promptly once past an arbitrary threshold."""
    res = run_attack(
        "best_fit_amplifier",
        config=AttackConfig(mu=1.0, d=1, ratio_threshold=7.5),
    )
    assert res.certified_ratio >= 7.5
    # it must stop soon after crossing, not run to the item cap
    assert res.n < 100


# ---------------------------------------------------------------------------
# induced instances are first-class citizens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "scenario", MUST_EXCEED_SCENARIOS, ids=lambda s: s.label
)
def test_induced_instance_passes_auditor_and_oracles(scenario):
    """Auditor + all four engine differentials on every induced instance."""
    outcome = _outcome(scenario)
    inst = outcome.result.instance
    policy = scenario.policy
    assert audit_instance(inst) == []
    packing = run(policy, inst)
    assert audit_run(packing, policy) == []
    assert compare_with_reference(packing, policy, seed=0) == []
    assert compare_with_fastpath(packing, policy, seed=0) == []
    assert compare_with_streaming(packing, policy, seed=0) == []
    assert compare_with_batch(inst, {policy: packing}, seed=0) == []


def test_trajectory_is_monotone_and_consistent():
    """Cost is committed (never decreases) and the last trajectory point
    agrees with the final result."""
    res = run_attack("leader_targeting", config=AttackConfig(mu=4.0, d=1))
    assert len(res.trajectory) == res.n
    costs = [p.committed_cost for p in res.trajectory]
    assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))
    last = res.trajectory[-1]
    assert last.committed_cost == pytest.approx(res.cost)
    assert last.opt_upper == pytest.approx(res.opt_upper)
    assert last.certified_ratio == pytest.approx(res.certified_ratio)
    assert [p.step for p in res.trajectory] == list(range(res.n))


def test_certificate_dominates_bracket_lower_bound():
    """opt_upper is a true OPT upper bound: >= the certified FFD-bracket
    lower bound on the same instance (the driver cross-checks this too)."""
    from repro.optimum.opt_cost import optimum_cost_bounds

    for scenario in MUST_EXCEED_SCENARIOS[:4]:
        res = _outcome(scenario).result
        lo, _hi = optimum_cost_bounds(res.instance)
        assert res.opt_upper >= lo - 1e-9 * max(1.0, res.opt_upper)


# ---------------------------------------------------------------------------
# the check has teeth (mutation mirror)
# ---------------------------------------------------------------------------


def test_null_adversary_fails_the_bound_check():
    """The state-blind mutant must NOT reach the bound."""
    outcome = null_adversary_outcome(seed=0)
    assert not outcome.passed
    assert outcome.achieved < outcome.required
    # but its instance is still perfectly valid and replayable
    assert outcome.result.replay_identical
    assert audit_instance(outcome.result.instance) == []


def test_mutation_smoke_test_catches_null_adversary():
    report = mutation_smoke_test(seed=0)
    assert report.null_adversary_caught
    assert report.all_caught
    assert report.null_adversary_violations == []


def test_must_exceed_report_covers_all_scenarios():
    outcomes = must_exceed_report(seed=0)
    assert len(outcomes) == len(MUST_EXCEED_SCENARIOS)
    assert all(o.passed for o in outcomes)
    # every lower-bound theorem family and both unbounded policies appear
    attacks = {o.scenario.attack for o in outcomes}
    assert attacks == {
        "duration_revealing",
        "next_fit_churner",
        "leader_targeting",
        "best_fit_amplifier",
    }
    assert {o.scenario.policy for o in outcomes} >= {"best_fit", "worst_fit"}


# ---------------------------------------------------------------------------
# config validation and registry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu": 0.5},
        {"d": 0},
        {"rounds": 0},
        {"target_fraction": 0.0},
        {"target_fraction": 1.0},
        {"ratio_threshold": 1.0},
        {"max_items": 4},
    ],
)
def test_attack_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigurationError):
        AttackConfig(**kwargs)


def test_one_dimensional_attacks_reject_higher_d():
    for name in ("leader_targeting", "best_fit_amplifier"):
        with pytest.raises(ConfigurationError):
            make_adversary(name, AttackConfig(mu=4.0, d=2))


def test_unknown_attack_rejected():
    with pytest.raises(ConfigurationError):
        make_adversary("no_such_attack", AttackConfig())


def test_registry_is_complete():
    assert set(ATTACKS) == {
        "duration_revealing",
        "next_fit_churner",
        "leader_targeting",
        "best_fit_amplifier",
        "null_adversary",
    }
    for name, cls in ATTACKS.items():
        assert cls.name == name
        assert issubclass(cls, Adversary)


def test_rng_access_before_reset_raises():
    adv = make_adversary("null_adversary", AttackConfig())
    with pytest.raises(ConfigurationError):
        _ = adv.rng


def test_max_items_cap_trips_on_runaway_attack():
    """An attack that never stops is an error, not a hang."""

    class Runaway(Adversary):
        name = "runaway"

        def next_item(self, view):
            from repro.core.items import make_item

            return make_item(float(view.emitted), 1.0, [0.1] * view.d)

    with pytest.raises(Exception) as excinfo:
        AdversaryDriver(Runaway(AttackConfig(max_items=16))).run()
    assert "max_items" in str(excinfo.value)


def test_driver_rejects_decreasing_arrivals():
    class TimeTraveller(Adversary):
        name = "time_traveller"

        def next_item(self, view):
            from repro.core.items import make_item

            if view.emitted == 0:
                return make_item(5.0, 1.0, [0.1] * view.d)
            if view.emitted == 1:
                return make_item(1.0, 1.0, [0.1] * view.d)
            return None

    with pytest.raises(Exception) as excinfo:
        AdversaryDriver(TimeTraveller(AttackConfig())).run()
    assert "decreasing" in str(excinfo.value)


# ---------------------------------------------------------------------------
# deeper grid (excluded from tier-1 via the slow marker)
# ---------------------------------------------------------------------------

_DEEP_GRID = [
    AttackScenario("duration_revealing", "first_fit", mu=2.0, d=1),
    AttackScenario("duration_revealing", "first_fit", mu=3.0, d=2),
    AttackScenario("duration_revealing", "first_fit", mu=2.0, d=3),
    AttackScenario("next_fit_churner", "next_fit", mu=4.0, d=1),
    AttackScenario("next_fit_churner", "next_fit", mu=2.0, d=3),
    AttackScenario("leader_targeting", "move_to_front", mu=2.0, d=1),
    AttackScenario("leader_targeting", "move_to_front", mu=8.0, d=1),
    AttackScenario("best_fit_amplifier", "best_fit", mu=1.0, d=1, threshold=120.0),
    AttackScenario("best_fit_amplifier", "worst_fit", mu=1.0, d=1, threshold=120.0),
]


@pytest.mark.slow
@pytest.mark.parametrize("scenario", _DEEP_GRID, ids=lambda s: s.label)
def test_deep_grid_exceeds_bound(scenario):
    outcome = run_scenario(scenario, seed=0)
    assert outcome.passed, outcome.message


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scenarios_hold_across_seeds(seed):
    """The constructions are seed-robust, not one lucky draw."""
    for outcome in must_exceed_report(seed=seed):
        assert outcome.passed, f"seed={seed}: {outcome.message}"


# ----------------------------------------------------------------------
# the live view: incremental, but equal to a full rebuild
# ----------------------------------------------------------------------
def _rebuilt_view(core, handed):
    """The view of ``core`` rebuilt from every bin it opened, as its
    definition reads: open bins in index order, loads and residuals read
    afresh, the committed cost summed over all bins with history-max
    periods.  ``now``, ``emitted`` and ``last`` come from ``handed``."""
    from repro.adversaries.base import BinView, EngineView
    from repro.algorithms.base import AnyFitAlgorithm
    from repro.core.intervals import Interval

    algorithm, capacity = core.algorithm, core.capacity
    positions, candidate_order = {}, ()
    if isinstance(algorithm, AnyFitAlgorithm):
        positions = {b.index: i for i, b in enumerate(algorithm.open_list)}
        candidate_order = tuple(b.index for b in algorithm.open_list)
    bins = core.every_bin
    views, committed = [], 0.0
    for b in bins:
        end = b.closed_at
        if end is None:
            end = max((it.departure for it in b.history), default=b.opened_at)
        committed += Interval(b.opened_at, end).length
        if not b.is_open:
            continue
        views.append(BinView(
            index=b.index,
            load=tuple(float(x) for x in b.load),
            residual=tuple(float(c - x) for c, x in zip(capacity, b.load)),
            num_active=b.num_active,
            position=positions.get(b.index, -1),
        ))
    return EngineView(
        now=handed.now,
        policy=algorithm.name,
        capacity=tuple(float(c) for c in capacity),
        open_bins=tuple(views),
        candidate_order=candidate_order,
        bins_opened=len(bins),
        committed_cost=committed,
        emitted=handed.emitted,
        last=handed.last,
    )


def _drive_checking_views(adversary, policy, monkeypatch):
    """Run ``adversary`` against ``policy``, checking every view it is
    handed against :func:`_rebuilt_view`; return the result and views."""
    import repro.adversaries.driver as driver_mod
    from repro.simulation.live import LivePacking

    cores = []

    class RecordingCore(LivePacking):
        """The driver's core, keeping every bin it opened."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.every_bin = []
            cores.append(self)

        def _open_new_bin(self):
            fresh = super()._open_new_bin()
            self.every_bin.append(fresh)
            return fresh

    monkeypatch.setattr(driver_mod, "LivePacking", RecordingCore)
    next_item = adversary.next_item
    seen = []

    def checked_next_item(view):
        (core,) = cores
        expected = _rebuilt_view(core, view)
        assert view.emitted == len(seen)
        assert repr(view) == repr(expected)
        assert view == expected
        seen.append(view)
        return next_item(view)

    adversary.next_item = checked_next_item
    result = AdversaryDriver(adversary, policy=policy, seed=0).run()
    assert len(seen) == result.n + 1
    return result, seen


@pytest.mark.parametrize("scenario", MUST_EXCEED_SCENARIOS, ids=lambda s: s.label)
def test_every_view_equals_a_rebuilt_one(scenario, monkeypatch):
    config = AttackConfig(
        mu=scenario.mu,
        d=scenario.d,
        target_fraction=scenario.fraction,
        ratio_threshold=scenario.threshold if scenario.threshold is not None else 50.0,
    )
    adversary = make_adversary(scenario.attack, config)
    result, _ = _drive_checking_views(adversary, scenario.policy, monkeypatch)
    pinned = _outcome(scenario).result
    assert result.cost.hex() == pinned.cost.hex()
    assert result.trajectory == pinned.trajectory


class _Churn(Adversary):
    """Staggered random arrivals and durations: bins lose residents
    between arrivals without closing, which the scenarios above rarely
    do before their last arrival."""

    name = "churn"

    def next_item(self, view):
        if view.emitted >= 80:
            return None
        t = 0.25 * view.emitted
        duration = float(self.rng.uniform(0.3, 4.0))
        size = self.rng.uniform(0.05, 0.45, self.config.d)
        return Item(t, t + duration, size)

    def opt_upper(self):
        return None  # certify against the FFD bracket


@pytest.mark.parametrize(
    "policy", ["first_fit", "move_to_front", "next_fit", "best_fit", "worst_fit", "random_fit"]
)
def test_views_stay_equal_through_partial_departures(policy, monkeypatch):
    result, seen = _drive_checking_views(_Churn(AttackConfig(d=2)), policy, monkeypatch)
    assert result.replay_identical
    # a bin that lost a resident and stayed open was shown afresh
    shrunk = sum(
        1
        for before, after in zip(seen, seen[1:])
        for b in after.open_bins
        if (prev := before.bin_view(b.index)) is not None
        and b.num_active < prev.num_active
    )
    assert shrunk > 0
