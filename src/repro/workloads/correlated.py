"""Correlated-dimension workloads (Gaussian copula).

Real cloud demands are correlated across resources (a big-CPU VM usually
also wants more memory).  This generator draws per-item demand vectors
through a Gaussian copula with a configurable common correlation ``rho``,
then maps marginals to ``[min_size, max_size]`` uniformly.  ``rho = 0``
recovers independent dimensions; ``rho → 1`` makes all dimensions move
together, which effectively collapses the problem toward 1-D — the
ablation of DESIGN.md §6 measures how the algorithm ranking responds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..core.errors import ConfigurationError
from ..core.instance import Instance
from .base import WorkloadGenerator

__all__ = ["CorrelatedWorkload"]


@dataclass
class CorrelatedWorkload(WorkloadGenerator):
    """Uniform-marginal sizes with copula correlation ``rho`` across dims.

    Parameters
    ----------
    d:
        Resource dimensions (``d >= 1``; ``rho`` is ignored for ``d=1``).
    n:
        Items per instance.
    rho:
        Common pairwise correlation of the Gaussian copula, in
        ``[0, 1)``.
    mu:
        Max duration; durations are integral uniform on ``[1, mu]``.
    T:
        Arrival window parameter (integral arrivals on ``[0, T - mu]``).
    min_size / max_size:
        Uniform marginal size range as a fraction of (unit) capacity.
    """

    d: int = 2
    n: int = 1000
    rho: float = 0.8
    mu: int = 10
    T: int = 1000
    min_size: float = 0.01
    max_size: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ConfigurationError(f"d must be >= 1, got {self.d}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigurationError(f"rho must be in [0, 1), got {self.rho}")
        if not 0 < self.min_size <= self.max_size <= 1.0:
            raise ConfigurationError(
                f"need 0 < min_size <= max_size <= 1, got "
                f"[{self.min_size}, {self.max_size}]"
            )
        if self.mu < 1 or self.T <= self.mu:
            raise ConfigurationError(f"need 1 <= mu < T, got mu={self.mu}, T={self.T}")

    def sample(self, rng: np.random.Generator) -> Instance:
        # imported here: loading scipy costs ~0.3 s of start-up that only
        # this generator needs
        from scipy.special import ndtr

        cov = np.full((self.d, self.d), self.rho)
        np.fill_diagonal(cov, 1.0)
        z = rng.multivariate_normal(np.zeros(self.d), cov, size=self.n, method="cholesky")
        u = ndtr(z)  # the normal CDF: uniform marginals with the copula's dependence
        sizes = self.min_size + (self.max_size - self.min_size) * u

        arrivals = rng.integers(0, self.T - self.mu + 1, size=self.n).astype(np.float64)
        durations = rng.integers(1, self.mu + 1, size=self.n).astype(np.float64)
        order = np.argsort(arrivals, kind="stable")
        arrivals = arrivals[order]
        label = self.name or f"correlated(d={self.d},rho={self.rho:g})"
        return Instance.from_columns(
            arrivals, arrivals + durations[order], sizes[order],
            capacity=np.ones(self.d), name=label,
        )

    def empirical_correlation(self, rng: np.random.Generator, n: int = 5000) -> float:
        """Mean pairwise Pearson correlation of a size sample (diagnostic)."""
        if self.d < 2:
            return 1.0
        sizes = dataclasses.replace(self, n=n).sample(rng).size_matrix
        corr = np.corrcoef(sizes, rowvar=False)
        off = corr[~np.eye(self.d, dtype=bool)]
        return float(np.mean(off))
