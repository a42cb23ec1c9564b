"""Resource-augmentation analysis.

A classic lens on online lower bounds (used for dynamic bin packing by
Chan-Wong-Yung, cited as [6]): give the *online* algorithm bins of
capacity ``1 + beta`` while charging the offline optimum at capacity 1,
and ask how much augmentation buys back the competitive gap.

:func:`augmented_run` runs a policy with inflated capacity on the same
items; :func:`augmentation_curve` sweeps ``beta`` and reports the cost
ratio against the capacity-1 Lemma 1(i) lower bound.  The adversarial
constructions are capacity-critical (loads of exactly ``1 - ε'``), so
even tiny augmentation collapses them — a nice sanity check that the
lower bounds live on a knife's edge, which
``benchmarks/bench_augmentation.py`` asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..algorithms.registry import make_algorithm
from ..core.instance import Instance
from ..optimum.lower_bounds import height_lower_bound
from ..simulation.runner import run

__all__ = ["AugmentationPoint", "augmented_run", "augmentation_curve"]


@dataclass(frozen=True)
class AugmentationPoint:
    """Measured cost at one augmentation level."""

    beta: float
    cost: float
    baseline_lower_bound: float

    @property
    def ratio(self) -> float:
        """Cost (at capacity ``1+beta``) over the capacity-1 OPT bound."""
        return self.cost / self.baseline_lower_bound


def augmented_instance(instance: Instance, beta: float) -> Instance:
    """The same items in bins of capacity ``(1 + beta) * capacity``."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return Instance(
        list(instance.items),
        capacity=np.asarray(instance.capacity) * (1.0 + beta),
        name=f"{instance.name}+beta={beta:g}",
    )


def augmented_run(algorithm: str, instance: Instance, beta: float):
    """Run ``algorithm`` with capacity augmented by ``beta``.

    Returns the packing (costs are measured on the same items; only the
    capacity differs).
    """
    return run(make_algorithm(algorithm), augmented_instance(instance, beta))


def augmentation_curve(
    algorithm: str,
    instance: Instance,
    betas: Sequence[float] = (0.0, 0.05, 0.1, 0.25, 0.5, 1.0),
) -> List[AugmentationPoint]:
    """Cost of ``algorithm`` at each augmentation level vs capacity-1 OPT.

    The baseline lower bound is computed once at the original capacity —
    the offline adversary is *not* augmented, per the resource-
    augmentation convention.
    """
    baseline_lb = height_lower_bound(instance)
    points = []
    for beta in betas:
        packing = augmented_run(algorithm, instance, beta)
        points.append(
            AugmentationPoint(
                beta=float(beta),
                cost=packing.cost,
                baseline_lower_bound=baseline_lb,
            )
        )
    return points
