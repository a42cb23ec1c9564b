"""The Section 7 uniform synthetic workload (Table 2).

Closely follows the experimental setup of the paper (itself following
Kamali-López-Ortiz for the 1-D case): bins of size ``B`` per dimension,
item sizes uniform on ``{1, ..., B}^d``, integral arrival times uniform
on ``[0, T - μ]``, integral durations uniform on ``[1, μ]``.

Defaults are the paper's Table 2 values: ``n = 1000``, ``T = 1000``,
``B = 100``; ``d ∈ {1, 2, 5}`` and ``μ ∈ {1, 2, 5, 10, 100, 200}``
form the sweep grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.items import Item
from .base import WorkloadGenerator

__all__ = ["UniformWorkload"]


@dataclass
class UniformWorkload(WorkloadGenerator):
    """Uniform random instances per the paper's Section 7 setup.

    Parameters
    ----------
    d:
        Number of resource dimensions.
    n:
        Number of items per instance.
    mu:
        Maximum (integral) item duration; durations are uniform on
        ``[1, mu]``.  With minimum duration 1 this is also the max/min
        duration ratio of Section 2 — except for ``mu = 1`` instances,
        where all durations equal 1.
    T:
        Sequence span parameter; arrivals are uniform integers on
        ``[0, T - mu]``.
    B:
        Integer bin size per dimension; item sizes are uniform integers
        on ``{1, ..., B}``.
    name:
        Optional label stamped on generated instances.
    """

    d: int = 1
    n: int = 1000
    mu: int = 10
    T: int = 1000
    B: int = 100
    name: str = ""

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")
        if self.mu < 1:
            raise ConfigurationError(f"mu must be >= 1, got {self.mu}")
        if self.B < 1:
            raise ConfigurationError(f"B must be >= 1, got {self.B}")
        if self.T <= self.mu:
            raise ConfigurationError(
                f"T must exceed mu so the arrival window [0, T - mu] is "
                f"non-trivial; got T={self.T}, mu={self.mu}"
            )

    def sample(self, rng: np.random.Generator) -> Instance:
        # vectorised draw of all item fields at once (hot path of the
        # m=1000-instance sweeps)
        arrivals = rng.integers(0, self.T - self.mu + 1, size=self.n).astype(np.float64)
        durations = rng.integers(1, self.mu + 1, size=self.n).astype(np.float64)
        sizes = rng.integers(1, self.B + 1, size=(self.n, self.d)).astype(np.float64)
        order = np.argsort(arrivals, kind="stable")
        arrivals = arrivals[order]
        capacity = np.full(self.d, float(self.B))
        label = self.name or f"uniform(d={self.d},mu={self.mu},n={self.n})"
        return Instance.from_columns(
            arrivals, arrivals + durations[order], sizes[order], capacity=capacity, name=label
        )

    def stream(
        self, rng: np.random.Generator, limit: Optional[int] = None
    ) -> Iterator[Item]:
        """Lazy uniform stream via sequential conditional order statistics.

        Emits the ``n`` arrivals already sorted without drawing them all
        first: given the previous arrival ``u``, the next sorted uniform
        on ``[0, hi]`` with ``m`` draws remaining is
        ``u + (hi - u) * (1 - (1 - v)^(1/m))`` for ``v ~ U(0, 1)`` (the
        minimum of ``m`` uniforms on ``[u, hi]``).  Live state is one
        float.

        Deliberate, documented deviation from :meth:`sample`: the
        streamed arrivals are **continuous** on ``[0, T - mu]``, not the
        integer grid of the Table 2 setup (an integer grid cannot be
        emitted sorted with O(1) state).  Durations and sizes keep the
        integral marginals.  Use :meth:`sample` when the paper's exact
        integral construction matters; use the stream for long
        bounded-memory replays.
        """
        n = self.n if limit is None else min(self.n, int(limit))
        hi = float(self.T - self.mu)
        u = 0.0
        for k in range(n):
            v = float(rng.random())
            u = u + (hi - u) * (1.0 - (1.0 - v) ** (1.0 / (n - k)))
            duration = float(rng.integers(1, self.mu + 1))
            size = rng.integers(1, self.B + 1, size=self.d).astype(np.float64)
            yield Item(u, u + duration, size, uid=k)
