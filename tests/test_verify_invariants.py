"""The invariant auditor: positive sweeps and engineered violations.

Positive direction: every (corpus instance, registry policy) run passes
the full audit.  Negative direction: hand-built broken packings — an
overloaded bin, a bin reused after going empty — must be flagged.  The
negative cases are the important half: an auditor that never fires is
indistinguishable from one that checks nothing (the harness's mutation
smoke-test keeps this property end-to-end; these tests keep it per
check).
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.core.instance import Instance
from repro.core.packing import Packing
from repro.simulation.runner import run
from repro.verify.generators import corpus_list
from repro.verify.invariants import (
    FULL_LIST_POLICIES,
    THEOREM_BOUND_POLICIES,
    audit_instance,
    audit_run,
    check_capacity,
    check_half_open,
    check_opt_ordering,
    check_theorem_bound,
)


@pytest.mark.parametrize("policy", PAPER_ALGORITHMS)
def test_audit_passes_on_corpus(policy):
    for entry in corpus_list(11, seed=31):
        kwargs = {"seed": 0} if policy == "random_fit" else {}
        packing = run(make_algorithm(policy, **kwargs), entry.instance)
        violations = audit_run(packing, policy)
        assert violations == [], f"{entry.recipe}: {violations}"


def test_audit_instance_passes_on_corpus():
    for entry in corpus_list(11, seed=32):
        assert audit_instance(entry.instance) == []


def test_policy_partitions_are_consistent():
    assert FULL_LIST_POLICIES == set(PAPER_ALGORITHMS) - {"next_fit"}
    assert THEOREM_BOUND_POLICIES <= set(PAPER_ALGORITHMS)
    assert {"move_to_front", "first_fit", "next_fit"} == set(THEOREM_BOUND_POLICIES)


def test_capacity_flags_overloaded_bin():
    inst = Instance.from_tuples([(0.0, 2.0, [0.7]), (0.0, 2.0, [0.7])])
    broken = Packing.from_assignment(inst, {0: 0, 1: 0})
    violations = check_capacity(broken)
    assert violations and violations[0].check == "capacity"


def test_capacity_flags_single_dimension_overflow():
    """Overflow in the *second* dimension only (the broken-fit bug shape)."""
    inst = Instance.from_tuples([(0.0, 1.0, [0.2, 0.9]), (0.0, 1.0, [0.2, 0.9])])
    broken = Packing.from_assignment(inst, {0: 0, 1: 0})
    assert any(v.check == "capacity" for v in check_capacity(broken))


def test_half_open_flags_bin_reuse_after_close():
    inst = Instance.from_tuples([(0.0, 1.0, [0.5]), (2.0, 3.0, [0.5])])
    broken = Packing.from_assignment(inst, {0: 0, 1: 0})
    assert any(v.check == "no-reuse" for v in check_half_open(broken))


def test_half_open_allows_departure_arrival_tie():
    """An arrival at exactly a departure's time reuses the freed capacity.

    A long holder item keeps the bin open across the tie; items 1 and 2
    (size 0.7 each) can share the remaining 0.7 of capacity only if the
    half-open rule processes the departure first.
    """
    inst = Instance.from_tuples([
        (0.0, 2.0, [0.3]),  # holder
        (0.0, 1.0, [0.7]),
        (1.0, 2.0, [0.7]),  # arrives exactly as the previous departs
    ])
    packing = run(make_algorithm("first_fit"), inst)
    assert packing.num_bins == 1
    assert check_half_open(packing) == []
    assert check_capacity(packing) == []


@pytest.mark.parametrize("policy", sorted(THEOREM_BOUND_POLICIES))
def test_theorem_bound_holds_on_gadgets(policy):
    """Thm 2/3/4 upper bounds hold even on the lower-bound gadgets."""
    gadgets = [e for e in corpus_list(22, seed=31)
               if e.recipe.startswith(("theorem", "best_fit_trap"))]
    assert gadgets
    for entry in gadgets:
        packing = run(make_algorithm(policy), entry.instance)
        assert check_theorem_bound(packing, policy) == [], entry.recipe


def test_theorem_bound_flags_inflated_cost():
    """A one-item-per-bin assignment of many co-resident small items
    inflates cost far past the Theorem 2 bound — the auditor must fire."""
    n = 64
    inst = Instance.from_tuples([(0.0, 1.0, [1.0 / n]) for _ in range(n)])
    silly = Packing.from_assignment(inst, {i: i for i in range(n)})
    assert any(v.check == "theorem-bound"
               for v in check_theorem_bound(silly, "move_to_front"))


def test_precomputed_lower_bound_gives_the_same_audit():
    """Passing the instance's Lemma 1 bound changes nothing, and the
    audit really uses the value it is given."""
    from repro.optimum.lower_bounds import opt_lower_bound

    n = 64
    inst = Instance.from_tuples([(0.0, 1.0, [1.0 / n]) for _ in range(n)])
    silly = Packing.from_assignment(inst, {i: i for i in range(n)})
    lb = opt_lower_bound(inst)
    assert check_theorem_bound(silly, "move_to_front", lb) == check_theorem_bound(
        silly, "move_to_front"
    )
    assert audit_run(silly, "move_to_front", lb) == audit_run(silly, "move_to_front")
    assert [v.check for v in check_theorem_bound(silly, "worst_fit", 1e6)] == [
        "cost-dominance"
    ]
    good = run(make_algorithm("move_to_front"), inst)
    assert check_theorem_bound(good, "move_to_front") == []
    assert [v.check for v in check_theorem_bound(good, "move_to_front", 1e-6)] == [
        "theorem-bound"
    ]


def test_opt_ordering_on_corpus():
    for entry in corpus_list(8, seed=33):
        assert check_opt_ordering(entry.instance) == []
