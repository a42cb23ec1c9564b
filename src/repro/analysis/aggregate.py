"""Aggregation of per-instance measurements into summary statistics.

Figure 4 plots the mean performance ratio with standard-deviation error
bars over ``m = 1000`` random instances; this module provides that
aggregation (plus confidence intervals and quantiles for richer
reporting) in one well-tested place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.errors import ConfigurationError

__all__ = ["SampleStats", "summarize"]

#: Two-sided z critical values for common confidence levels.
_Z = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}


@dataclass(frozen=True)
class SampleStats:
    """Summary statistics of one measurement sample.

    Attributes mirror what Figure 4 needs (mean, std) plus the extras
    (CI half-width, quantiles) used by the extension reports.
    """

    count: int
    mean: float
    std: float
    ci_halfwidth: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float

    @property
    def ci_low(self) -> float:
        """Lower end of the confidence interval on the mean."""
        return self.mean - self.ci_halfwidth

    @property
    def ci_high(self) -> float:
        """Upper end of the confidence interval on the mean."""
        return self.mean + self.ci_halfwidth

    def as_dict(self) -> dict:
        """Plain-dict form for tabular reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "ci_halfwidth": self.ci_halfwidth,
            "min": self.minimum,
            "q25": self.q25,
            "median": self.median,
            "q75": self.q75,
            "max": self.maximum,
        }


def summarize(values: Sequence[float], confidence: float = 0.95) -> SampleStats:
    """Compute :class:`SampleStats` for a non-empty sample.

    ``std`` is the population standard deviation (``ddof=0``), matching
    the error bars of Figure 4 ("error bars measure std. deviation");
    the CI uses the normal approximation ``z * std / sqrt(n)`` with the
    sample (``ddof=1``) deviation.
    """
    if len(values) == 0:
        raise ConfigurationError("cannot summarise an empty sample")
    if confidence not in _Z:
        raise ConfigurationError(
            f"confidence must be one of {sorted(_Z)}, got {confidence}"
        )
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    # a ratio sample may hold UnitResult.ratio's ``inf`` sentinel (a
    # zero lower bound); its spread and interpolated quantiles are nan
    with np.errstate(invalid="ignore"):
        std_pop = float(np.std(arr))
        std_sample = float(np.std(arr, ddof=1)) if n > 1 else 0.0
        q = np.percentile(arr, [0, 25, 50, 75, 100])
    return SampleStats(
        count=int(n),
        mean=float(np.mean(arr)),
        std=std_pop,
        ci_halfwidth=_Z[confidence] * std_sample / math.sqrt(n) if n > 1 else 0.0,
        minimum=float(q[0]),
        q25=float(q[1]),
        median=float(q[2]),
        q75=float(q[3]),
        maximum=float(q[4]),
    )
