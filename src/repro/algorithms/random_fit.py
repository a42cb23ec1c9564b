"""Random Fit: pack into a uniformly random fitting bin.

Included in the Section 7 experimental lineup.  Fully reproducible: the
random stream is re-derived from the seed at every :meth:`start`, so
running the same instance twice gives the same packing.
"""

from __future__ import annotations

import operator
from typing import List, Optional

import numpy as np

from ..core.bins import Bin
from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.items import Item
from .base import AnyFitAlgorithm

__all__ = ["RandomFit"]


class RandomFit(AnyFitAlgorithm):
    """Random Fit (RF) Any Fit packing algorithm.

    Parameters
    ----------
    seed:
        Seed for the per-run random stream.  Two runs with the same seed
        on the same instance produce identical packings.
    """

    name = "random_fit"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        try:
            # operator.index accepts ints (and numpy integers) but rejects
            # None/floats/strings outright instead of silently truncating
            # or raising a bare TypeError mid-construction.
            self.seed = operator.index(seed)
        except TypeError:
            raise ConfigurationError(
                f"random_fit seed must be an integer, got {seed!r}"
            ) from None
        self._rng: Optional[np.random.Generator] = None

    def start(self, instance: Instance) -> None:
        super().start(instance)
        self._rng = np.random.default_rng(self.seed)

    def choose(self, item: Item, candidates: List[Bin], now: float) -> Bin:
        assert self._rng is not None, "start() not called"
        return candidates[int(self._rng.integers(len(candidates)))]

    def export_state(self):
        # the bit-generator state dict is plain ints/strings, so the
        # snapshot stays JSON-serialisable; restoring it replays the
        # exact random stream from the snapshot point onward
        state = super().export_state()
        assert self._rng is not None, "start() not called"
        state["rng_state"] = self._rng.bit_generator.state
        return state

    def import_state(self, state, bins_by_index) -> None:
        super().import_state(state, bins_by_index)
        assert self._rng is not None, "start() not called"
        self._rng.bit_generator.state = state["rng_state"]
