"""Poisson-arrival workloads with pluggable duration/size distributions.

A more realistic arrival process than Section 7's uniform scatter: items
arrive as a Poisson process of rate ``rate`` over ``[0, horizon]``.
Durations and sizes come from the samplers in
:mod:`repro.workloads.distributions`, enabling the distribution-
sensitivity ablation of DESIGN.md §6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.items import Item
from .base import WorkloadGenerator
from .distributions import (
    DirichletSize,
    ExponentialDuration,
    LognormalDuration,
    ParetoDuration,
    UniformDuration,
    UniformIntegerSize,
)

__all__ = ["PoissonWorkload"]

DurationSampler = Union[
    UniformDuration, ExponentialDuration, LognormalDuration, ParetoDuration
]
SizeSampler = Union[UniformIntegerSize, DirichletSize]


@dataclass
class PoissonWorkload(WorkloadGenerator):
    """Poisson arrivals over a horizon with configurable marginals.

    Parameters
    ----------
    d:
        Resource dimensions.
    rate:
        Arrival rate (items per unit time).
    horizon:
        Arrival window length; items arrive on ``[0, horizon]``.
    durations:
        Duration sampler (defaults to the paper-like uniform ``[1, 10]``).
    sizes:
        Size sampler.  ``UniformIntegerSize(B)`` implies capacity ``B``
        per dimension; ``DirichletSize`` implies unit capacity.
    min_items:
        A floor on the item count: if the Poisson draw comes up short the
        generator redraws the count as ``min_items`` (guaranteeing
        non-empty instances for small ``rate * horizon``).
    """

    d: int = 2
    rate: float = 1.0
    horizon: float = 1000.0
    durations: DurationSampler = field(default_factory=UniformDuration)
    sizes: SizeSampler = field(default_factory=UniformIntegerSize)
    min_items: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")
        if self.rate <= 0 or self.horizon <= 0:
            raise ConfigurationError(
                f"rate and horizon must be positive, got rate={self.rate}, "
                f"horizon={self.horizon}"
            )
        if self.min_items < 1:
            raise ConfigurationError(f"min_items must be >= 1, got {self.min_items}")

    @property
    def capacity(self) -> np.ndarray:
        """Implied bin capacity of the size sampler."""
        if isinstance(self.sizes, UniformIntegerSize):
            return np.full(self.d, float(self.sizes.B))
        return np.ones(self.d)

    def sample(self, rng: np.random.Generator) -> Instance:
        n = int(rng.poisson(self.rate * self.horizon))
        if n < self.min_items:
            n = self.min_items
        arrivals = np.sort(rng.uniform(0.0, self.horizon, size=n))
        durations = self.durations.draw(rng, n)
        sizes = self.sizes.draw(rng, n, self.d)
        label = self.name or f"poisson(d={self.d},rate={self.rate:g})"
        return Instance.from_columns(
            arrivals, arrivals + durations, sizes, capacity=self.capacity, name=label
        )

    def stream(
        self, rng: np.random.Generator, limit: Optional[int] = None
    ) -> Iterator[Item]:
        """Lazy Poisson stream via exponential inter-arrival gaps.

        A Poisson process of rate ``λ`` *is* a renewal process with
        ``Exp(λ)`` gaps, so accumulating exponential draws walks the
        exact same arrival law as :meth:`sample`'s count-then-sort
        construction — without ever knowing ``n`` up front.  Live state
        is one clock float plus a bounded draw-ahead chunk (gap,
        duration, and size draws are chunked for vectorised RNG
        throughput; the chunk is a constant, not a function of stream
        length).  The stream ends when the clock passes ``horizon`` (or
        after ``limit`` items).

        Draw order differs from :meth:`sample`, so the same seed gives
        the same *distribution* but not the same items; streaming
        replays are reproduced by re-streaming with the same seed.
        ``min_items`` is a materialised-instance guarantee and does not
        apply to streams (an empty stream is a valid stream).
        """
        chunk = 8192
        scale = 1.0 / self.rate
        t = 0.0
        uid = 0
        while True:
            gaps = rng.exponential(scale, size=chunk)
            durations = self.durations.draw(rng, chunk)
            sizes = self.sizes.draw(rng, chunk, self.d)
            for j in range(chunk):
                t += gaps[j]
                if t > self.horizon or (limit is not None and uid >= limit):
                    return
                yield Item(float(t), float(t + durations[j]), sizes[j], uid=uid)
                uid += 1
