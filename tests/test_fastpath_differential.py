"""Three-way differential: classic Engine vs ReferenceSimulator vs FastEngine.

The bit-identity acceptance gate for the fast path.  Every policy in the
registry's Section 7 set is replayed over the full 22-recipe verification
corpus (:mod:`repro.verify.generators`) through three independent
implementations:

* the classic object-per-bin :class:`~repro.simulation.engine.Engine`;
* the brute-force :class:`~repro.verify.reference.ReferenceSimulator`
  (no shared engine code);
* the flat-array :class:`~repro.simulation.fastpath.FastEngine`, on
  both kernel backends.

All three must agree on the *exact* item → bin assignment — not merely
the cost — and the Eq. 1 cost recomputed from first principles must
match the packings' reported cost.  The corpus recipes cover the shapes
where flat-array bugs hide: d ∈ {1..8}, μ from 2 to 20, simultaneous
arrivals, departure/arrival ties, near-capacity sizes, and churny
workloads that exercise departure re-sums and slot compaction.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.simulation.fastpath import FastEngine
from repro.simulation.runner import run
from repro.verify.generators import CORPUS_RECIPES, corpus_list
from repro.verify.oracles import eq1_cost
from repro.verify.reference import ReferenceSimulator

_SEED = 20230613
_TOL = 1e-9

# One instance per recipe: the full corpus breadth, deterministic.
CORPUS = corpus_list(len(CORPUS_RECIPES), seed=_SEED)
BACKENDS = ("numpy", "python")


def _ids(entries):
    return [e.recipe for e in entries]


@pytest.mark.parametrize("policy", PAPER_ALGORITHMS)
@pytest.mark.parametrize("entry", CORPUS, ids=_ids(CORPUS))
def test_three_way_assignment_identity(policy, entry):
    inst = entry.instance
    kwargs = {"seed": 0} if policy == "random_fit" else {}

    classic = run(make_algorithm(policy, **kwargs), inst)
    reference = ReferenceSimulator(policy, seed=0).run(inst)
    assert classic.assignment == reference.assignment, (
        f"classic vs reference diverged on {entry.recipe}/{policy}"
    )

    expected_cost = eq1_cost(inst, classic.assignment)
    assert classic.cost == pytest.approx(expected_cost, rel=_TOL, abs=_TOL)

    for backend in BACKENDS:
        fast = FastEngine(inst, policy, seed=0, backend=backend).run()
        assert fast.assignment == classic.assignment, (
            f"fastpath[{backend}] vs classic diverged on {entry.recipe}/{policy}"
        )
        assert fast.num_bins == classic.num_bins
        assert fast.cost == pytest.approx(expected_cost, rel=_TOL, abs=_TOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_fit_seed_stream_matches_classic(backend):
    """Non-zero seeds: the fast kernel must consume the identical RNG
    stream (same draw count, same modulus) as the classic engine."""
    for seed in (1, 7, 12345):
        for entry in CORPUS[:5]:
            classic = run(make_algorithm("random_fit", seed=seed), entry.instance)
            fast = FastEngine(
                entry.instance, "random_fit", seed=seed, backend=backend
            ).run()
            assert fast.assignment == classic.assignment, (entry.recipe, seed)


#: The L1/Lp measure-kernel legs of the matrix: every ranked-policy
#: measure the registry accepts, including a generic (non-shortcut)
#: Lp exponent where pow-identity is hardest to preserve.
_MEASURE_SPECS = (
    ("best_fit", {"measure": "l1"}, "best_fit:l1"),
    ("best_fit", {"measure": "lp", "p": 2.0}, "best_fit:lp:2.0"),
    ("best_fit", {"measure": "lp", "p": 3.0}, "best_fit:lp:3.0"),
    ("worst_fit", {"measure": "l1"}, "worst_fit:l1"),
    ("worst_fit", {"measure": "lp", "p": 2.5}, "worst_fit:lp:2.5"),
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "base,kwargs,spec", _MEASURE_SPECS, ids=[s[2] for s in _MEASURE_SPECS]
)
def test_measure_kernel_matrix(backend, base, kwargs, spec):
    """L1/Lp ranked policies: every backend replays the classic engine
    bit for bit across the corpus (strided: the full-corpus sweep runs
    in the default-measure test above)."""
    for entry in CORPUS[::3]:
        classic = run(make_algorithm(base, **kwargs), entry.instance)
        fast = FastEngine(entry.instance, spec, backend=backend).run()
        assert fast.assignment == classic.assignment, (entry.recipe, spec)
        assert fast.num_bins == classic.num_bins


@pytest.mark.parametrize("backend", BACKENDS)
def test_trials_lockstep_matrix(backend):
    """Batched ``run_trials`` on every backend (numpy: the lockstep
    kernel; python: sequential replays) must equal per-seed classic
    random_fit runs — same seeds, same assignments, in seed order."""
    seeds = [0, 1, 2, 3]
    for entry in CORPUS[:6]:
        engine = FastEngine(entry.instance, "random_fit", backend=backend)
        batched = engine.run_trials(seeds)
        for seed, assignment in zip(seeds, batched):
            classic = run(make_algorithm("random_fit", seed=seed), entry.instance)
            assert assignment == dict(classic.assignment), (
                entry.recipe, backend, seed,
            )
