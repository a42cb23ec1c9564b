"""Synthetic cloud VM trace generator (Azure-like).

The paper's introduction motivates DVBP with VM placement at cloud scale
(Protean/Azure) and cloud gaming.  The real traces are proprietary, so —
per the reproduction's substitution policy (DESIGN.md §2) — this module
synthesises a trace with the published *stylised facts* of such
workloads, exercising the same code path (online arrivals → Any Fit
dispatch → usage-time accounting):

* a small catalogue of **VM types** (fixed CPU/memory/... shapes, like
  instance families) with a skewed popularity distribution — most
  requests are small;
* **diurnal** arrival-rate modulation (sinusoidal day/night pattern)
  over a multi-day horizon;
* **lognormal lifetimes** with a heavy tail, clipped to keep ``μ``
  finite;
* optional burstiness: arrivals in small batches (deployment groups).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.items import Item
from .base import WorkloadGenerator

__all__ = ["VMType", "CloudTraceWorkload", "DEFAULT_VM_CATALOGUE"]


@dataclass(frozen=True)
class VMType:
    """A VM shape: name, demand vector (fraction of server), popularity."""

    name: str
    demand: Tuple[float, ...]
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(f"VM type {self.name}: weight must be positive")
        if not self.demand or any(x <= 0 or x > 1 for x in self.demand):
            raise ConfigurationError(
                f"VM type {self.name}: demands must lie in (0, 1], got {self.demand}"
            )


#: A 2-D (CPU, memory) catalogue loosely shaped like public-cloud general/
#: compute/memory-optimised families; weights skew toward small shapes.
DEFAULT_VM_CATALOGUE: Tuple[VMType, ...] = (
    VMType("tiny", (0.025, 0.03), 30.0),
    VMType("small", (0.05, 0.06), 25.0),
    VMType("medium", (0.10, 0.12), 20.0),
    VMType("large", (0.20, 0.25), 12.0),
    VMType("xlarge", (0.40, 0.50), 6.0),
    VMType("compute", (0.30, 0.12), 4.0),
    VMType("memory", (0.10, 0.45), 3.0),
)


@dataclass
class CloudTraceWorkload(WorkloadGenerator):
    """Azure-like synthetic VM request trace.

    Parameters
    ----------
    catalogue:
        VM type catalogue; all demands must share one dimensionality.
    days:
        Horizon in days (one day = ``day_length`` time units).
    day_length:
        Time units per day (default 24 = hourly resolution).
    base_rate:
        Mean arrivals per time unit at the diurnal midpoint.
    diurnal_amplitude:
        Relative day/night swing in ``[0, 1)``: the instantaneous rate is
        ``base_rate * (1 + amplitude * sin(2π t / day_length))``.
    lifetime_log_mean / lifetime_log_sigma:
        Lognormal lifetime parameters (time units).
    min_lifetime / max_lifetime:
        Clip bounds keeping ``μ`` finite.
    batch_mean:
        Mean geometric batch size (1 = no batching): each arrival event
        brings a geometric number of identical-type requests.
    """

    catalogue: Tuple[VMType, ...] = DEFAULT_VM_CATALOGUE
    days: int = 3
    day_length: float = 24.0
    base_rate: float = 6.0
    diurnal_amplitude: float = 0.6
    lifetime_log_mean: float = 1.2
    lifetime_log_sigma: float = 1.1
    min_lifetime: float = 0.25
    max_lifetime: float = 72.0
    batch_mean: float = 1.5
    name: str = ""

    def __post_init__(self) -> None:
        if not self.catalogue:
            raise ConfigurationError("catalogue must be non-empty")
        d = len(self.catalogue[0].demand)
        if any(len(t.demand) != d for t in self.catalogue):
            raise ConfigurationError("all VM types must share one dimensionality")
        if self.days < 1 or self.day_length <= 0 or self.base_rate <= 0:
            raise ConfigurationError("days, day_length, base_rate must be positive")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigurationError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if not 0 < self.min_lifetime <= self.max_lifetime:
            raise ConfigurationError("need 0 < min_lifetime <= max_lifetime")
        if self.batch_mean < 1:
            raise ConfigurationError(f"batch_mean must be >= 1, got {self.batch_mean}")

    @property
    def d(self) -> int:
        """Resource dimensionality of the catalogue."""
        return len(self.catalogue[0].demand)

    def _arrival_times(self, rng: np.random.Generator) -> np.ndarray:
        """Thinned non-homogeneous Poisson arrivals over the horizon."""
        horizon = self.days * self.day_length
        peak = self.base_rate * (1 + self.diurnal_amplitude)
        n_candidates = int(rng.poisson(peak * horizon)) or 1
        candidates = np.sort(rng.uniform(0, horizon, size=n_candidates))
        rate = self.base_rate * (
            1 + self.diurnal_amplitude * np.sin(2 * np.pi * candidates / self.day_length)
        )
        keep = rng.uniform(0, peak, size=n_candidates) < rate
        times = candidates[keep]
        return times if times.size else np.array([0.0])

    def sample(self, rng: np.random.Generator) -> Instance:
        times = self._arrival_times(rng)
        weights = np.array([t.weight for t in self.catalogue])
        weights = weights / weights.sum()
        items: List[Item] = []
        uid = 0
        p_batch = 1.0 / self.batch_mean
        for t in times:
            type_idx = int(rng.choice(len(self.catalogue), p=weights))
            batch = int(rng.geometric(p_batch)) if self.batch_mean > 1 else 1
            demand = np.asarray(self.catalogue[type_idx].demand, dtype=np.float64)
            for _ in range(batch):
                lifetime = float(
                    np.clip(
                        rng.lognormal(self.lifetime_log_mean, self.lifetime_log_sigma),
                        self.min_lifetime,
                        self.max_lifetime,
                    )
                )
                items.append(Item(float(t), float(t) + lifetime, demand.copy(), uid))
                uid += 1
        label = self.name or f"cloud_trace(days={self.days})"
        return Instance(items, capacity=np.ones(self.d), name=label)
