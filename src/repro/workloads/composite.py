"""Composite workloads: mixtures and overlays of other generators.

Real traffic is rarely one clean distribution — a cloud cluster sees a
base of long-lived services plus bursts of batch jobs.  This module
builds such scenarios compositionally:

* :class:`MixtureWorkload` — each instance is the *union* of one sample
  from every component generator (all active over the same horizon),
  e.g. a service baseline overlaid with batch spikes;
* :class:`SpikeWorkload` — a convenience wrapper adding flash-crowd
  spikes (many near-simultaneous arrivals) on top of a base generator,
  the stress pattern that punishes alignment-blind policies.

All components must agree on dimensionality and (after normalisation)
capacity; the composite normalises every component to unit capacity so
heterogeneous ``B`` values compose safely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.items import Item
from .base import WorkloadGenerator

__all__ = ["MixtureWorkload", "SpikeWorkload"]


@dataclass
class MixtureWorkload(WorkloadGenerator):
    """Union of one sample from each component generator.

    Parameters
    ----------
    components:
        The component generators.  Every sampled instance is normalised
        to unit capacity before merging, so components may use different
        ``B`` scales.
    name:
        Label stamped on generated instances.
    """

    components: Tuple[WorkloadGenerator, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError("MixtureWorkload needs at least one component")

    def sample(self, rng: np.random.Generator) -> Instance:
        parts: List[Instance] = []
        for gen in self.components:
            parts.append(gen.sample(rng).normalized())
        d = parts[0].d
        for p in parts:
            if p.d != d:
                raise ConfigurationError(
                    f"mixture components disagree on d: {p.d} vs {d}"
                )
        items: List[Item] = []
        for part in parts:
            items.extend(part.items)
        items.sort(key=lambda it: it.arrival)
        items = [it.with_uid(i) for i, it in enumerate(items)]
        label = self.name or f"mixture({len(parts)} components)"
        return Instance(items, capacity=np.ones(d), name=label)


@dataclass
class SpikeWorkload(WorkloadGenerator):
    """A base workload plus flash-crowd spikes.

    At each of ``num_spikes`` uniformly random instants, ``spike_size``
    items of identical shape ``spike_demand`` arrive simultaneously with
    duration ``spike_duration`` — the cloud-gaming "new release night"
    pattern.

    Parameters
    ----------
    base:
        The background generator (normalised to unit capacity).
    num_spikes / spike_size:
        How many spikes and how many items per spike.
    spike_demand:
        Per-item demand vector of the spike items (fractions of
        capacity); must match the base dimensionality.
    spike_duration:
        Duration of every spike item.
    horizon:
        Window the spike instants are drawn from; defaults to the base
        sample's horizon.
    """

    base: WorkloadGenerator = None  # type: ignore[assignment]
    num_spikes: int = 3
    spike_size: int = 20
    spike_demand: Tuple[float, ...] = (0.2, 0.2)
    spike_duration: float = 2.0
    horizon: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.base is None:
            raise ConfigurationError("SpikeWorkload needs a base generator")
        if self.num_spikes < 1 or self.spike_size < 1:
            raise ConfigurationError("num_spikes and spike_size must be >= 1")
        if self.spike_duration <= 0:
            raise ConfigurationError("spike_duration must be positive")
        if not all(0 < x <= 1 for x in self.spike_demand):
            raise ConfigurationError(
                f"spike demands must lie in (0, 1], got {self.spike_demand}"
            )

    def sample(self, rng: np.random.Generator) -> Instance:
        base_inst = self.base.sample(rng).normalized()
        if len(self.spike_demand) != base_inst.d:
            raise ConfigurationError(
                f"spike demand dimension {len(self.spike_demand)} does not "
                f"match base d={base_inst.d}"
            )
        horizon = self.horizon or base_inst.horizon.end
        demand = np.asarray(self.spike_demand, dtype=np.float64)
        items: List[Item] = list(base_inst.items)
        uid = len(items)
        for _ in range(self.num_spikes):
            t = float(rng.uniform(0, max(horizon - self.spike_duration, 0.0)))
            for _ in range(self.spike_size):
                items.append(Item(t, t + self.spike_duration, demand.copy(), uid))
                uid += 1
        items.sort(key=lambda it: it.arrival)
        items = [it.with_uid(i) for i, it in enumerate(items)]
        label = self.name or f"spiky({self.num_spikes}x{self.spike_size})"
        return Instance(items, capacity=np.ones(base_inst.d), name=label)
