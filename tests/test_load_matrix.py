"""The Any Fit load matrix stays in step with ``L`` under every engine.

:class:`~repro.algorithms.base.AnyFitAlgorithm` keeps a float64 matrix
whose row ``i`` is a copy of ``L[i].load`` instead of stacking the open
bins on every arrival.  A checking subclass compares the rows with a
fresh ``np.stack`` of the open list — bit for bit — after every
``dispatch``, ``notify_departure`` and ``notify_packed``, and each engine
that drives policy objects runs the stock Any Fit policies through it.
Each engine test runs on two instances, whose open lists cross
``SCALAR_SCAN_ROWS`` both ways, so the rows are checked under both the
scalar and the numpy candidate scan.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import repro.adversaries.driver as driver_module
import repro.streaming.service as service_module
from repro.adversaries.scenarios import MUST_EXCEED_SCENARIOS, run_scenario
from repro.algorithms.base import SCALAR_SCAN_ROWS
from repro.algorithms.best_fit import BestFit, WorstFit
from repro.algorithms.first_fit import FirstFit
from repro.algorithms.registry import PAPER_ALGORITHMS, make_algorithm
from repro.core.bins import Bin
from repro.core.instance import Instance
from repro.core.items import Item
from repro.core.vectors import EPS
from repro.repacking.engine import repacking_run
from repro.simulation.engine import simulate
from repro.simulation.fastpath import FastEngine, fast_policy_for
from repro.streaming import PlacementService
from repro.streaming.engine import streaming_run
from repro.verify.reference import REFERENCE_POLICIES, ReferenceSimulator
from repro.workloads.uniform import UniformWorkload

MEASURE_VARIANTS = {
    "best_fit_l1": lambda: BestFit(measure="l1"),
    "best_fit_lp3": lambda: BestFit(measure="lp", p=3.0),
    "worst_fit_l1": lambda: WorstFit(measure="l1"),
    "worst_fit_lp3": lambda: WorstFit(measure="lp", p=3.0),
}
POLICIES = list(PAPER_ALGORITHMS) + list(MEASURE_VARIANTS)


class MatrixChecked:
    """Mixin: assert the maintained rows equal a fresh stack of ``L``."""

    checks = 0

    def _assert_rows_match(self):
        lst = self.open_list
        rows = self._loads[:len(lst)]
        expected = np.stack([b.load for b in lst]) if lst else rows[:0]
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes(), (
            f"{self.name}: load matrix drifted from the open list"
        )
        self.checks += 1

    def dispatch(self, item, now, open_new_bin):
        chosen = super().dispatch(item, now, open_new_bin)
        self._assert_rows_match()
        return chosen

    def notify_departure(self, bin_, item, now, closed):
        super().notify_departure(bin_, item, now, closed)
        self._assert_rows_match()

    def notify_packed(self, bin_, item, now):
        super().notify_packed(bin_, item, now)
        self._assert_rows_match()


_CHECKED_CLASSES = {}


def checked(algorithm):
    """A matrix-checking twin of a configured policy object."""
    cls = type(algorithm)
    if cls not in _CHECKED_CLASSES:
        _CHECKED_CLASSES[cls] = type(f"Checked{cls.__name__}", (MatrixChecked, cls), {})
    twin = object.__new__(_CHECKED_CLASSES[cls])
    twin.__dict__.update(vars(algorithm))
    return twin


def fresh_policy(name, **kwargs):
    if name in MEASURE_VARIANTS:
        return MEASURE_VARIANTS[name]()
    return make_algorithm(name, **kwargs)


def checked_policy(name, **kwargs):
    return checked(fresh_policy(name, **kwargs))


@pytest.fixture(scope="module")
def instance():
    # about 20 bins open at the peak, so rows shift deep inside the
    # matrix, with plenty of departures in between
    return UniformWorkload(d=2, n=200, mu=10, T=60).sample_seeded(11)


@pytest.fixture(scope="module")
def crossing():
    # four d = 3 bursts of 60 arrivals, each gone before the next: the
    # open list climbs to about 2.5 x SCALAR_SCAN_ROWS and drains to
    # empty, so the scan switches regime in both directions
    rng = np.random.default_rng(3)
    rows = []
    for burst in range(4):
        for arrival in np.sort(10.0 * burst + 2.0 * rng.random(60)).tolist():
            departure = arrival + 1.0 + 3.0 * float(rng.random())
            rows.append((arrival, departure, rng.uniform(0.05, 0.6, 3)))
    return Instance.from_tuples(rows)


@pytest.fixture(scope="module")
def instances(instance, crossing):
    return (instance, crossing)


@pytest.mark.parametrize("policy", POLICIES)
def test_classic_engine(policy, instances):
    for instance in instances:
        algo = checked_policy(policy)
        packing = simulate(algo, instance)
        reference = simulate(fresh_policy(policy), instance)
        assert dict(packing.assignment) == dict(reference.assignment)
        assert algo.checks >= 2 * instance.n


@pytest.mark.parametrize("policy", POLICIES)
def test_streaming_engine(policy, instances):
    for instance in instances:
        algo = checked_policy(policy)
        packing = streaming_run(algo, instance)
        assert packing.num_bins >= 2
        assert algo.checks >= 2 * instance.n


@pytest.mark.parametrize("policy", PAPER_ALGORITHMS)
def test_placement_service_across_snapshot_restore(policy, instances, monkeypatch):
    monkeypatch.setattr(service_module, "make_algorithm", checked_policy)
    for instance in instances:
        svc = PlacementService(policy=policy, capacity=instance.capacity)
        assignment = {}
        half = instance.n // 2
        for item in instance.items[:half]:
            assignment[item.uid] = svc.place(
                item.size, departure=item.departure, at=item.arrival, item_id=item.uid,
            )
        # restore rebuilds every row from the re-packed bins
        svc = PlacementService.restore(json.loads(json.dumps(svc.snapshot())))
        assert isinstance(svc._algorithm, MatrixChecked)
        for item in instance.items[half:]:
            assignment[item.uid] = svc.place(
                item.size, departure=item.departure, at=item.arrival, item_id=item.uid,
            )
        svc.advance(max(it.departure for it in instance.items))
        assert svc.live_items == 0
        assert svc._algorithm.checks >= instance.n
        kwargs = {"seed": 0} if policy == "random_fit" else {}
        classic = simulate(make_algorithm(policy, **kwargs), instance)
        assert assignment == dict(classic.assignment)


@pytest.mark.parametrize("repacker", ["greedy_consolidate", "budgeted_rebalance"])
@pytest.mark.parametrize("policy", POLICIES)
def test_repacking_engine(policy, repacker, instances):
    for instance in instances:
        algo = checked_policy(policy)
        result = repacking_run(algo, instance, repacker=repacker, budget=2)
        # the moves are what exercise notify_packed on their destinations
        assert result.num_moves > 0
        assert algo.checks >= 2 * instance.n + result.num_moves


def test_crossing_instance_switches_scan_regime_both_ways(crossing):
    lengths = []

    class Recording(FirstFit):
        def _fitting_rows(self, item):
            lengths.append(len(self._list))
            return super()._fitting_rows(item)

    simulate(Recording(), crossing)
    above = [n > SCALAR_SCAN_ROWS for n in lengths]
    ups = sum(1 for was, now in zip(above, above[1:]) if now and not was)
    downs = sum(1 for was, now in zip(above, above[1:]) if was and not now)
    assert ups >= 3 and downs >= 3


@pytest.mark.parametrize("policy", POLICIES)
def test_engines_agree_across_the_scan_constant(policy, crossing):
    """Classic, python-kernel and (where modelled) reference replays."""
    classic = dict(simulate(fresh_policy(policy), crossing).assignment)
    fast_policy, seed = fast_policy_for(fresh_policy(policy))
    fast = FastEngine(crossing, fast_policy, seed=seed, backend="python").run()
    assert dict(fast.assignment) == classic
    if policy in REFERENCE_POLICIES:
        assert ReferenceSimulator(policy, seed=0).run(crossing).assignment == classic


@pytest.mark.parametrize(
    "rows", [SCALAR_SCAN_ROWS, SCALAR_SCAN_ROWS + 1], ids=["scalar", "numpy"]
)
@pytest.mark.parametrize("cap", [1.0, 100.0])
@pytest.mark.parametrize("d", [1, 3])
def test_fit_boundary_is_the_slack_in_both_scans(d, cap, rows):
    """``load + size == slack`` fits; one ulp above it does not."""
    capacity = np.full(d, cap)
    slack = cap + EPS * max(cap, 1.0)
    need = cap / 2
    exact, over = slack - need, math.nextafter(slack, math.inf) - need
    assert exact + need == slack and over + need == math.nextafter(slack, math.inf)

    def bin_at(index, last):
        b = Bin(capacity, index=index, opened_at=0.0)
        b.load = np.zeros(d)
        b.load[-1] = last
        return b

    # full bins first, then the exact fit, then the one just over
    bins = [bin_at(i, cap) for i in range(rows - 2)]
    bins += [bin_at(rows - 2, exact), bin_at(rows - 1, over)]
    algo = FirstFit()
    algo.start(SimpleNamespace(capacity=capacity))
    algo._reset(bins)
    item = Item(0.0, 1.0, np.full(d, need))
    assert algo._fitting_rows(item) == [rows - 2]
    assert algo.dispatch(item, 0.0, lambda: pytest.fail("opened a bin")) is bins[-2]


@pytest.mark.parametrize("scenario", MUST_EXCEED_SCENARIOS, ids=lambda s: s.label)
def test_adversary_driver(scenario, monkeypatch):
    made = []

    def make(name, **kwargs):
        made.append(checked_policy(name, **kwargs))
        return made[-1]

    monkeypatch.setattr(driver_module, "make_algorithm", make)
    outcome = run_scenario(scenario)
    assert outcome.passed and outcome.result.replay_identical
    # the live policy and the classic replay's policy both ran checked
    assert len(made) == 2 and all(a.checks > 0 for a in made)


def test_list_helpers_shift_rows_and_track_the_packing_row():
    """Random helper sequences: rows follow their bins, and the row of
    the bin being dispatched (``_packing``) follows that bin."""
    rng = np.random.default_rng(0)
    capacity = np.ones(2)
    algo = checked(FirstFit())
    algo.start(SimpleNamespace(capacity=capacity))
    opened = 0
    for _ in range(500):
        n = len(algo._list)
        tracked = algo._list[algo._packing] if algo._packing >= 0 else None
        op = int(rng.integers(5)) if n else 0
        if op == 0:
            fresh = Bin(capacity, index=opened, opened_at=0.0)
            fresh.load = rng.random(2)
            opened += 1
            algo._append(fresh)
            tracked = fresh  # a bin enters L only when dispatch opens it
        elif op == 1:
            algo._move_to_front(int(rng.integers(n)))
        elif op == 2:
            row = int(rng.integers(n))
            if algo._list[row] is tracked:
                tracked = None
            algo._remove(row)
        elif op == 3:
            algo._packing = int(rng.integers(-1, n))
            tracked = algo._list[algo._packing] if algo._packing >= 0 else None
        else:
            algo._reset(algo._list[::-1])
            tracked = None
        if tracked is None:
            assert algo._packing == -1
        else:
            assert algo._list[algo._packing] is tracked
        algo._assert_rows_match()
    assert opened > 50 and len(algo._loads) >= len(algo._list)
