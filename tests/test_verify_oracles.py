"""Differential oracles: cost recomputation, instrumented twin, sweep paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.core.instance import Instance
from repro.repacking import repacking_run
from repro.simulation.runner import run
from repro.verify.generators import CORPUS_RECIPES, corpus_list
from repro.verify.harness import _repack_audit
from repro.verify.oracles import (
    compare_with_typed,
    cost_check,
    eq1_cost,
    instrumented_equality_check,
    repacking_budget_check,
    sweep_equality_check,
)


def test_eq1_cost_hand_computed():
    """Two bins; bin 0's member intervals overlap, bin 1's leave a gap.

    Bin 0 holds [0,4) and [1,3): union length 4.  Bin 1 holds [2,6)
    alone: length 4.  A *naive* sum of durations would give 4+2+4 = 10;
    Eq. 1 says 8.
    """
    inst = Instance.from_tuples([
        (0.0, 4.0, [0.5]),
        (1.0, 3.0, [0.4]),
        (2.0, 6.0, [0.7]),
    ])
    assert eq1_cost(inst, {0: 0, 1: 0, 2: 1}) == pytest.approx(8.0)
    # every item in its own bin: cost is the plain sum of durations
    assert eq1_cost(inst, {0: 0, 1: 1, 2: 2}) == pytest.approx(10.0)


@pytest.mark.parametrize("policy", PAPER_ALGORITHMS)
def test_cost_check_on_corpus(policy):
    for entry in corpus_list(8, seed=41):
        kwargs = {"seed": 0} if policy == "random_fit" else {}
        packing = run(make_algorithm(policy, **kwargs), entry.instance)
        assert cost_check(packing) == []
        assert eq1_cost(entry.instance, packing.assignment) == pytest.approx(
            packing.cost
        )


@pytest.mark.parametrize("policy", PAPER_ALGORITHMS)
def test_instrumented_engine_is_equal(policy):
    entry = corpus_list(5, seed=42)[3]
    assert instrumented_equality_check(entry.instance, policy, seed=0) == []


def test_typed_run_equals_classic_on_a_unit_fleet():
    """On a one-type unit-rate fleet, typed ``recent`` is Move To Front
    and ``first`` is First Fit, assignment and cost bit for bit."""
    for entry in corpus_list(len(CORPUS_RECIPES), seed=45):
        for selection, policy in (("recent", "move_to_front"), ("first", "first_fit")):
            packing = run(make_algorithm(policy), entry.instance)
            assert compare_with_typed(packing, selection) == []


def test_typed_oracle_names_the_instance_of_a_frozen_recency_run():
    from repro.heterogeneous import typed_run
    from repro.verify.mutation import FrozenRecencyTypedAnyFit
    from repro.verify.oracles import _unit_fleet
    from repro.workloads.uniform import UniformWorkload

    inst = UniformWorkload(d=2, n=120, mu=20, T=60, B=20, name="frozen").sample_seeded(5)
    frozen = typed_run(
        FrozenRecencyTypedAnyFit(_unit_fleet(inst), opening_rule="cheapest"), inst
    )
    violations = compare_with_typed(
        run(make_algorithm("move_to_front"), inst), "recent", typed_packing=frozen
    )
    assert violations
    assert all(v.check == "typed" and v.message.startswith("frozen: ")
               for v in violations)


def test_typed_oracle_flags_the_wrong_twin():
    """Typed ``recent`` is Move To Front, not First Fit: where the two
    split (item 2 fits both bins; bin 1 is the more recent), the oracle
    names the item that moved and leaves the equal bills alone."""
    inst = Instance.from_tuples(
        [(0.0, 10.0, 0.5), (1.0, 10.0, 0.7), (2.0, 10.0, 0.05)], name="split"
    )
    assert compare_with_typed(run(make_algorithm("move_to_front"), inst), "recent") == []
    violations = compare_with_typed(run(make_algorithm("first_fit"), inst), "recent")
    assert [v.check for v in violations] == ["typed"]
    assert violations[0].message.startswith(
        "split: typed recent vs first_fit: assignments differ on items [2] "
        "(classic [0], typed [1])"
    )


def test_typed_oracle_flags_a_cost_mismatch():
    """The classic assignment billed at another rate on one bin breaks
    the bit-identity of the bill alone."""
    import dataclasses

    from repro.heterogeneous import TypedAnyFit, typed_run
    from repro.verify.oracles import _unit_fleet

    inst = corpus_list(1, seed=45)[0].instance
    packing = run(make_algorithm("first_fit"), inst)
    typed = typed_run(
        TypedAnyFit(_unit_fleet(inst), opening_rule="cheapest", selection="first"), inst
    )
    first = typed.bins[0]
    assert first.usage_time > 0
    overbilled = dataclasses.replace(
        typed, bins=(dataclasses.replace(first, cost_rate=2.0),) + typed.bins[1:]
    )
    assert compare_with_typed(packing, "first", typed_packing=typed) == []
    violations = compare_with_typed(packing, "first", typed_packing=overbilled)
    assert len(violations) == 1
    assert "typed cost" in violations[0].message
    assert "bit-identity contract" in violations[0].message


def test_unit_fleet_is_one_type_of_the_instance_capacity():
    from repro.core.items import Item
    from repro.verify.oracles import _unit_fleet

    inst = Instance([Item(0.0, 1.0, np.array([1.0, 2.0]), 0)], capacity=[2.0, 3.0])
    (only,) = _unit_fleet(inst)
    assert only.capacity == (2.0, 3.0)
    assert only.cost_rate == 1.0


def test_sweep_serial_equals_worker_path():
    instances = [e.instance for e in corpus_list(4, seed=43)]
    violations = sweep_equality_check(instances, ["move_to_front", "first_fit", "next_fit"])
    assert violations == []


def test_eq1_cost_is_permutation_invariant():
    """Relabeling bins never changes the Eq. 1 cost."""
    inst = corpus_list(2, seed=44)[1].instance
    packing = run(make_algorithm("first_fit"), inst)
    relabeled = {uid: -b - 1 for uid, b in packing.assignment.items()}
    assert eq1_cost(inst, relabeled) == pytest.approx(packing.cost)


def _corpus_entry(seed, index):
    """Corpus entry ``index`` of ``seed``, regenerated on its own (entry
    ``i`` depends only on the recipe ``i % len(CORPUS_RECIPES)`` and the
    ``i``-th spawned child seed)."""
    child = np.random.SeedSequence(seed).spawn(index + 1)[index]
    _, build = CORPUS_RECIPES[index % len(CORPUS_RECIPES)]
    return build(np.random.default_rng(child))


@pytest.mark.parametrize("seed, index", [(1, 110), (401, 154)])
def test_repack_audit_accepts_greedy_runs_costlier_than_no_recourse(seed, index):
    """Regression: the audit required greedy_consolidate to cost no more
    than the no-recourse run.  Strictly-negative evacuations can still
    raise the total, because they change which bins later arrivals see;
    these two ``repro verify --profile quick`` corpus entries do."""
    inst = _corpus_entry(seed, index)
    base = run(make_algorithm("first_fit"), inst)
    greedy = repacking_run(
        make_algorithm("first_fit"), inst, repacker="greedy_consolidate", budget=2.0
    )
    assert greedy.cost > base.cost
    assert _repack_audit(inst, index) == []


def test_repack_audit_catches_non_negative_evacuations(monkeypatch):
    """A greedy_consolidate whose negative-delta test is switched off."""
    import repro.repacking.policies as policies

    monkeypatch.setattr(policies, "_plan_delta", lambda *args: -1.0)
    inst = corpus_list(8, seed=20230613)[7].instance
    violations = repacking_budget_check(
        inst, policy="first_fit", repacker="greedy_consolidate", budget=2.0
    )
    assert violations
    assert all("commits only strictly negative evacuations" in v.message
               for v in violations)
