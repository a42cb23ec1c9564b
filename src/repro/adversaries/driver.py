"""The adversary driver: live adaptive loop, classic replay, trajectories.

:class:`AdversaryDriver` runs an attack in two passes.

**Live pass** — the adversary's arrivals go through a
:class:`~repro.simulation.live.LivePacking` core one at a time: after
every arrival the driver hands the adversary an
:class:`~repro.adversaries.base.EngineView` (open bins, loads,
residuals, the policy's candidate-list order, committed cost) and asks
it for the next arrival.  Departures due at or before the next arrival
are processed first, in ``(time, uid)`` order — exactly the classic
engine's event ordering — so the policy sees the same history it would
in a batch replay.  The per-arrival *committed cost* is
``sum(bin.usage_time)`` in bin-index order: an open bin's usage period
already extends to the latest departure among items ever packed, so
the cost of every decision is charged the moment it is made.  The view
re-reads only the bins whose load, resident count or candidate-list
position changed since the previous one (the bin the last item went to
and the bins that had departures); every other open bin keeps its
previous :class:`~repro.adversaries.base.BinView`.

**Replay pass** — the induced arrivals form a plain
:class:`~repro.core.instance.Instance`, which is replayed through the
classic :func:`~repro.simulation.runner.run`; the driver asserts the
replayed assignment is bit-identical to the live one
(``replay_identical``), so everything downstream (invariant auditor,
four-engine differential oracles) applies to adversarial instances with
no special cases.

The certified ratio is ``cost / opt_upper`` where ``opt_upper`` is the
adversary's own offline-packing certificate (cross-checked against the
:func:`~repro.optimum.opt_cost.optimum_cost_bounds` lower bracket), or
the FFD bracket upper bound when the attack carries no certificate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..algorithms.base import AnyFitAlgorithm
from ..algorithms.registry import make_algorithm
from ..core.bins import Bin
from ..core.errors import AlgorithmError, ConfigurationError
from ..core.instance import Instance
from ..core.items import Item
from ..optimum.opt_cost import optimum_cost_bounds
from ..simulation.live import LivePacking
from ..simulation.runner import run
from .attacks import make_adversary
from .base import Adversary, AttackConfig, BinView, EngineView, PackRecord

__all__ = [
    "TrajectoryPoint",
    "AttackResult",
    "AdversaryDriver",
    "run_attack",
]

_TOL = 1e-9


@dataclass(frozen=True)
class TrajectoryPoint:
    """One step of the certified-ratio trajectory (after one arrival)."""

    step: int
    time: float
    bins_opened: int
    committed_cost: float
    opt_upper: float
    certified_ratio: float


@dataclass(frozen=True)
class AttackResult:
    """Everything one attack run produced."""

    attack: str
    policy: str
    mu: float
    d: int
    instance: Instance
    cost: float
    opt_upper: float
    certified_ratio: float
    theoretical_bound: float
    #: ``certified_ratio / theoretical_bound`` — ``inf`` for
    #: unboundedness attacks, whose bound is ``inf`` and whose success
    #: criterion is the ratio threshold instead.
    fraction_of_bound: float
    trajectory: Tuple[TrajectoryPoint, ...]
    replay_identical: bool

    @property
    def n(self) -> int:
        """Number of induced items."""
        return self.instance.n

    def summary(self) -> dict:
        """JSON-ready summary (without the instance or trajectory).

        The unboundedness attacks have an infinite bound; JSON has no
        ``inf``, so those fields come out as ``None``.
        """
        finite = math.isfinite(self.theoretical_bound)
        return {
            "attack": self.attack,
            "policy": self.policy,
            "mu": self.mu,
            "d": self.d,
            "items": self.n,
            "cost": self.cost,
            "opt_upper": self.opt_upper,
            "certified_ratio": self.certified_ratio,
            "theoretical_bound": self.theoretical_bound if finite else None,
            "fraction_of_bound": self.fraction_of_bound if finite else None,
            "replay_identical": self.replay_identical,
        }


class AdversaryDriver:
    """Runs one adaptive attack against one policy.

    Parameters
    ----------
    adversary:
        The attack (already configured).
    policy:
        Registry name of the policy to attack; defaults to the attack's
        :attr:`~repro.adversaries.base.Adversary.target_policy`.
    seed:
        SeedSequence seed for the adversary's RNG — the only source of
        randomness, so ``(attack, policy, seed)`` determines the induced
        instance exactly (the golden-pin tests rely on this).
    record_trajectory:
        Disable to skip per-arrival trajectory points (large attacks).
    """

    def __init__(
        self,
        adversary: Adversary,
        policy: Optional[str] = None,
        seed: int = 0,
        record_trajectory: bool = True,
    ) -> None:
        self.adversary = adversary
        self.policy = policy or adversary.target_policy
        self.seed = int(seed)
        self.record_trajectory = record_trajectory

    # ------------------------------------------------------------------
    def run(self) -> AttackResult:
        """Execute the live loop, replay, and certify the ratio."""
        adversary = self.adversary
        config = adversary.config
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        adversary.reset(rng)

        kwargs = {"seed": 0} if self.policy == "random_fit" else {}
        algorithm = make_algorithm(self.policy, **kwargs)
        capacity = np.ones(config.d, dtype=np.float64)
        core = LivePacking(algorithm, capacity)

        bins: List[Bin] = []
        heap: List[Tuple[float, int]] = []  # (departure, uid)
        emitted: List[Item] = []
        trajectory: List[TrajectoryPoint] = []
        views = _ViewCache(algorithm, capacity)
        changed: Set[int] = set()  # bins packed or departed since the last view
        committed = 0.0
        now = 0.0
        last: Optional[PackRecord] = None

        def depart_until(t: float) -> None:
            # (time, uid) order — the classic engine's event ordering
            while heap and heap[0][0] <= t:
                dep_time, uid = heapq.heappop(heap)
                changed.add(core.live[uid][1].index)
                core.depart(uid, dep_time)

        while True:
            view = views.build(
                core.open, changed, now, len(bins), committed, len(emitted), last
            )
            item = adversary.next_item(view)
            if item is None:
                break
            if len(emitted) >= config.max_items:
                raise AlgorithmError(
                    f"{adversary.name} exceeded max_items={config.max_items}; "
                    "the attack's termination logic is broken"
                )
            item = item.with_uid(len(emitted))
            if item.arrival < now:
                raise AlgorithmError(
                    f"{adversary.name} emitted a decreasing arrival "
                    f"({item.arrival} after {now})"
                )
            depart_until(item.arrival)  # departures at or before it first
            now = item.arrival

            target = core.place(item, now)
            changed.add(target.index)
            opened = target.index == len(bins)
            if opened:
                bins.append(target)
            heapq.heappush(heap, (item.departure, item.uid))
            emitted.append(item)
            last = PackRecord(item.uid, target.index, opened)
            # departures come only before the next placement, so this is
            # also the committed cost the next view reports
            committed = sum(b.usage_time for b in bins)

            if self.record_trajectory:
                opt_now = adversary.opt_upper()
                opt_now = float(opt_now) if opt_now else math.nan
                ratio = committed / opt_now if opt_now and opt_now > 0 else math.nan
                trajectory.append(TrajectoryPoint(
                    step=len(emitted) - 1,
                    time=now,
                    bins_opened=len(bins),
                    committed_cost=committed,
                    opt_upper=opt_now,
                    certified_ratio=ratio,
                ))

        if not emitted:
            raise AlgorithmError(f"{adversary.name} emitted no items")
        # drain the remaining departures so the live policy state winds
        # down cleanly (cost is already committed — this changes nothing)
        depart_until(math.inf)

        instance = Instance(
            emitted, capacity=capacity,
            name=f"{adversary.name}[{self.policy},seed={self.seed}]",
        )

        # replay through the classic engine: the induced instance must
        # reproduce the live decisions bit for bit
        replay_algorithm = make_algorithm(self.policy, **kwargs)
        packing = run(replay_algorithm, instance)
        replay_identical = dict(packing.assignment) == {
            it.uid: b.index for b in bins for it in b.history
        }

        certificate = adversary.opt_upper()
        if certificate is None:
            opt_upper = optimum_cost_bounds(instance)[1]
        else:
            opt_upper = float(certificate)
            lower = optimum_cost_bounds(instance)[0]
            if opt_upper + _TOL * max(1.0, opt_upper) < lower:
                raise AlgorithmError(
                    f"{adversary.name}: certificate {opt_upper:.6g} is below "
                    f"the certified OPT lower bound {lower:.6g} — the "
                    "attack's offline packing is infeasible"
                )
        cost = packing.cost
        ratio = cost / opt_upper if opt_upper > 0 else math.inf
        bound = adversary.theoretical_bound()
        fraction = ratio / bound if math.isfinite(bound) else math.inf
        return AttackResult(
            attack=adversary.name,
            policy=self.policy,
            mu=config.mu,
            d=config.d,
            instance=instance,
            cost=cost,
            opt_upper=opt_upper,
            certified_ratio=ratio,
            theoretical_bound=bound,
            fraction_of_bound=fraction,
            trajectory=tuple(trajectory),
            replay_identical=replay_identical,
        )


class _ViewCache:
    """Builds the :class:`EngineView` the adversary sees after each arrival.

    Keeps the previous view's :class:`BinView` per open bin and builds a
    new one only for a bin in ``changed`` (packed into or departed from
    since the previous view) or whose candidate-list position moved;
    ``changed`` is cleared once read.  The fields equal those of a view
    rebuilt from every open bin.
    """

    __slots__ = ("any_fit", "capacity", "policy", "capacity_t", "bin_views")

    def __init__(self, algorithm, capacity: np.ndarray) -> None:
        # only Any Fit policies expose a candidate list
        self.any_fit = algorithm if isinstance(algorithm, AnyFitAlgorithm) else None
        self.capacity = capacity
        self.policy = getattr(algorithm, "name", type(algorithm).__name__)
        self.capacity_t = tuple(capacity.tolist())
        self.bin_views: Dict[int, BinView] = {}

    def build(
        self,
        open_bins: Dict[int, Bin],
        changed: Set[int],
        now: float,
        bins_opened: int,
        committed: float,
        emitted: int,
        last: Optional[PackRecord],
    ) -> EngineView:
        """The view of ``open_bins`` (index → bin, in index order)."""
        positions: Dict[int, int] = {}
        candidate_order: Tuple[int, ...] = ()
        if self.any_fit is not None:
            candidate_order = tuple(b.index for b in self.any_fit.open_list)
            positions = {index: i for i, index in enumerate(candidate_order)}
        previous = self.bin_views
        current: Dict[int, BinView] = {}
        for index, b in open_bins.items():
            position = positions.get(index, -1)
            view = previous.get(index)
            if view is None or index in changed or view.position != position:
                view = BinView(
                    index=index,
                    load=tuple(b.load.tolist()),
                    residual=tuple((self.capacity - b.load).tolist()),
                    num_active=b.num_active,
                    position=position,
                )
            current[index] = view
        self.bin_views = current
        changed.clear()
        return EngineView(
            now=now,
            policy=self.policy,
            capacity=self.capacity_t,
            open_bins=tuple(current.values()),
            candidate_order=candidate_order,
            bins_opened=bins_opened,
            committed_cost=committed,
            emitted=emitted,
            last=last,
        )


def run_attack(
    attack: str,
    config: Optional[AttackConfig] = None,
    policy: Optional[str] = None,
    seed: int = 0,
) -> AttackResult:
    """Convenience wrapper: build and drive a registered attack once.

    Raises
    ------
    ConfigurationError
        For unknown attack or policy names.
    """
    adversary = make_adversary(attack, config)
    if not isinstance(adversary, Adversary):  # pragma: no cover - registry guard
        raise ConfigurationError(f"{attack!r} did not build an Adversary")
    return AdversaryDriver(adversary, policy=policy, seed=seed).run()
