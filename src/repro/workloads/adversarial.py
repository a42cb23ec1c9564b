"""Adversarial instance families realising the paper's lower bounds.

Each constructor returns an :class:`AdversarialInstance`: the instance
itself plus the construction's *certified* quantities — an upper bound on
``OPT`` (from the explicit packing in the proof) and a lower bound on the
cost any targeted algorithm incurs — so experiments can report measured
ratios against the theoretical targets without solving for OPT.

Families:

* :func:`theorem5_instance` — forces **any** Any Fit algorithm to a cost
  ratio approaching ``(μ+1)d`` as ``k → ∞`` (Theorem 5, Figure 3);
* :func:`theorem6_instance` — forces **Next Fit** to ``2μd`` (Theorem 6);
* :func:`theorem8_instance` — forces **Move To Front** to ``2μ`` in one
  dimension (Theorem 8; the same family also lower-bounds Next Fit);
* :func:`best_fit_trap` — a family on which Best Fit's (and, in fact,
  every Any Fit algorithm's) measured ratio grows linearly in the family
  parameter ``k``.  Theorem 7 (citing Li-Tang-Cai) states Best Fit's CR
  is unbounded; the original construction is not reproduced in this
  paper, so this library ships a self-contained "lure" family whose
  ratio grows as ``Θ(k)`` (with ``μ = Θ(k³)``) — enough to demonstrate
  the qualitative failure mode experimentally, though weaker than the
  cited theorem (see the docstring of :func:`best_fit_trap`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.errors import ConfigurationError
from ..core.instance import Instance
from ..core.items import Item

__all__ = [
    "AdversarialInstance",
    "theorem5_instance",
    "theorem6_instance",
    "theorem8_instance",
    "best_fit_trap",
]


@dataclass(frozen=True)
class AdversarialInstance:
    """An adversarial instance with its proof-certified cost bounds.

    Attributes
    ----------
    instance:
        The item sequence.
    opt_upper:
        Upper bound on ``OPT`` from the explicit offline packing in the
        proof (so ``measured_cost / opt_upper`` lower-bounds the true
        competitive ratio on this instance).
    algorithm_cost_lower:
        The cost the targeted algorithm is proven to incur (at least).
    target_ratio:
        The asymptotic (``k → ∞``) competitive-ratio lower bound the
        family establishes.
    targets:
        Registry names of algorithms the construction targets ("*" means
        every Any Fit algorithm).
    description:
        Human-readable provenance.
    """

    instance: Instance
    opt_upper: float
    algorithm_cost_lower: float
    target_ratio: float
    targets: tuple
    description: str

    @property
    def certified_ratio(self) -> float:
        """``algorithm_cost_lower / opt_upper`` — the ratio this finite
        instance certifies (approaches :attr:`target_ratio` as the family
        parameter grows)."""
        return self.algorithm_cost_lower / self.opt_upper


def _interleave_groups(d: int, k: int, odd_size_fn, even_size: np.ndarray) -> List[np.ndarray]:
    """Sizes of items ``1..2dk`` in arrival order per the Theorem 5/6 labelling.

    Odd item ``2m-1`` belongs to group ``i = ceil(m/k)`` and gets
    ``odd_size_fn(i)``; even items get ``even_size``.
    """
    sizes: List[np.ndarray] = []
    for m in range(1, d * k + 1):
        group = (m - 1) // k + 1  # == ceil(m/k)
        sizes.append(odd_size_fn(group))
        sizes.append(even_size.copy())
    return sizes


def theorem5_instance(d: int, k: int, mu: float, delta: float = 1e-3) -> AdversarialInstance:
    """The Theorem 5 construction: CR of any Any Fit algorithm ≥ (μ+1)d.

    Sequence ``R0`` of ``2dk`` items arrives at time 0 with interval
    ``[0, 1)``; sequence ``R1`` of ``dk`` items of size ``ε'·1`` arrives
    just before ``R0`` departs (at ``1 - delta``) and stays for ``μ``.
    Any Any Fit algorithm opens ``dk`` bins on ``R0`` and is then forced
    to scatter ``R1`` one item per bin, keeping all ``dk`` bins active
    for the long horizon; OPT packs all small items into one long bin
    plus ``k`` short bins.

    Parameters satisfy the proof's constraints: ``ε = 1/(d²k + d + 2)``
    gives ``d²εk < 1`` and ``ε(1+d) < 1``; ``ε' = ε/3`` gives
    ``ε > ε'`` and ``dε > 2ε'``.
    """
    if d < 1 or k < 1:
        raise ConfigurationError(f"need d >= 1 and k >= 1, got d={d}, k={k}")
    if mu < 1:
        raise ConfigurationError(f"need mu >= 1, got {mu}")
    if not 0 < delta < 0.5:
        raise ConfigurationError(f"delta must be in (0, 0.5), got {delta}")

    eps = 1.0 / (d * d * k + d + 2)
    eps_p = eps / 3.0

    def odd_size(group: int) -> np.ndarray:
        v = np.full(d, eps)
        v[group - 1] = 1.0 - d * eps
        return v

    even = np.full(d, d * eps - eps_p)
    sizes_r0 = _interleave_groups(d, k, odd_size, even)

    items: List[Item] = []
    uid = 0
    for s in sizes_r0:
        items.append(Item(0.0, 1.0, s, uid))
        uid += 1
    r1_arrival = 1.0 - delta
    for _ in range(d * k):
        items.append(Item(r1_arrival, r1_arrival + mu, np.full(d, eps_p), uid))
        uid += 1

    inst = Instance(items, name=f"thm5(d={d},k={k},mu={mu:g})")
    opt_upper = k + (mu + 1.0 - delta)
    cost_lower = d * k * (mu + 1.0 - delta)
    return AdversarialInstance(
        instance=inst,
        opt_upper=opt_upper,
        algorithm_cost_lower=cost_lower,
        target_ratio=(mu + 1.0) * d,
        targets=("*",),
        description=(
            f"Theorem 5 family (d={d}, k={k}, mu={mu:g}): any Any Fit "
            f"algorithm pays >= dk(mu+1) while OPT <= k + mu + 1"
        ),
    )


def theorem6_instance(d: int, k: int, mu: float) -> AdversarialInstance:
    """The Theorem 6 construction: CR of Next Fit ≥ 2μd.

    ``2dk`` items arrive at time 0: even-indexed items (size ``ε'·1``)
    live for ``μ``; odd-indexed items (size ``1/2 - dε`` in their group's
    dimension, ``ε`` elsewhere) live for 1.  Next Fit pairs each odd item
    with an even item and releases a bin per odd item (beyond the first
    of each phase), ending with ``1 + (k-1)d`` bins that each hold a
    long-lived small item; OPT uses one long bin plus ``k/2`` short ones.

    ``k`` must be even and ≥ 2.  Parameters: ``ε' = 1/(dk+1)`` gives
    ``ε'dk < 1``; ``ε = ε'/(4d)`` gives ``ε' > 2dε``.
    """
    if k < 2 or k % 2 != 0:
        raise ConfigurationError(f"k must be an even integer >= 2, got {k}")
    if d < 1:
        raise ConfigurationError(f"need d >= 1, got {d}")
    if mu < 1:
        raise ConfigurationError(f"need mu >= 1, got {mu}")

    eps_p = 1.0 / (d * k + 1)
    eps = eps_p / (4.0 * d)

    def odd_size(group: int) -> np.ndarray:
        v = np.full(d, eps)
        v[group - 1] = 0.5 - d * eps
        return v

    even = np.full(d, eps_p)
    sizes = _interleave_groups(d, k, odd_size, even)

    items: List[Item] = []
    for uid, s in enumerate(sizes):
        is_even_label = uid % 2 == 1  # items are labelled 1..2dk; label uid+1
        departure = mu if is_even_label else 1.0
        items.append(Item(0.0, departure, s, uid))

    inst = Instance(items, name=f"thm6(d={d},k={k},mu={mu:g})")
    opt_upper = mu + k / 2.0
    cost_lower = (1 + (k - 1) * d) * mu
    return AdversarialInstance(
        instance=inst,
        opt_upper=opt_upper,
        algorithm_cost_lower=cost_lower,
        target_ratio=2.0 * mu * d,
        targets=("next_fit",),
        description=(
            f"Theorem 6 family (d={d}, k={k}, mu={mu:g}): Next Fit pays "
            f">= (1+(k-1)d)mu while OPT <= mu + k/2"
        ),
    )


def theorem8_instance(n: int, mu: float) -> AdversarialInstance:
    """The Theorem 8 construction: CR of Move To Front ≥ 2μ (d = 1).

    ``4n`` items arrive at time 0: odd-indexed items of size 1/2 live
    for 1; even-indexed items of size ``1/(2n)`` live for ``μ``.  Move
    To Front pairs each odd item with the following even item in a fresh
    bin (the fresh bin is always the leader), opening ``2n`` bins that
    each stay active for ``μ``; OPT packs the ``2n`` small items into one
    bin and pairs the size-1/2 items into ``n`` bins.

    The same sequence also forces Next Fit to the same cost, giving the
    ``2μ`` 1-D lower bound for NF cited from prior work.
    """
    if n < 1:
        raise ConfigurationError(f"need n >= 1, got {n}")
    if mu < 1:
        raise ConfigurationError(f"need mu >= 1, got {mu}")

    items: List[Item] = []
    for j in range(1, 4 * n + 1):
        if j % 2 == 1:
            items.append(Item(0.0, 1.0, np.array([0.5]), j - 1))
        else:
            items.append(Item(0.0, mu, np.array([1.0 / (2 * n)]), j - 1))

    inst = Instance(items, name=f"thm8(n={n},mu={mu:g})")
    opt_upper = mu + n
    cost_lower = 2 * n * mu
    return AdversarialInstance(
        instance=inst,
        opt_upper=opt_upper,
        algorithm_cost_lower=cost_lower,
        target_ratio=2.0 * mu,
        targets=("move_to_front", "next_fit"),
        description=(
            f"Theorem 8 family (n={n}, mu={mu:g}): Move To Front pays "
            f"2n*mu while OPT <= mu + n"
        ),
    )


def best_fit_trap(k: int, long_duration: float = 0.0) -> AdversarialInstance:
    """A lure family with measured ratio ``Θ(k)`` for every Any Fit policy.

    Phase ``i`` (at time ``3i``): a half-size *filler* ``F_i`` (duration
    1) forces a fresh bin; a tiny long *anchor* ``a_i`` (size ``1/(4k)``)
    joins the filler's bin because every older bin is blocked; after the
    filler departs, a large *guard* ``g_i`` (size ``1 - 1.5/(4k)``)
    enters the anchor's bin and blocks it until all phases end.  The
    algorithm ends with ``k`` bins, each pinned open by a lone anchor
    until the long horizon ``T_end``; OPT packs all anchors together.

    With ``long_duration = M`` (default ``k³``), any Any Fit algorithm
    pays ``≈ kM`` while ``OPT ≤ M + O(k²)``, a measured ratio ``Θ(k)``.
    Note ``μ = Θ(k³)`` grows with the family — this is a qualitative
    demonstration of Best Fit's failure mode (long-lived dust scattered
    across bins), not a reproduction of the stronger Li-Tang-Cai
    unboundedness construction, which this paper cites but does not
    include.
    """
    if k < 1:
        raise ConfigurationError(f"need k >= 1, got {k}")
    M = float(long_duration) if long_duration > 0 else float(k**3)
    s = 1.0 / (4.0 * k)
    g = 1.0 - 1.5 * s
    t_end_phases = 3.0 * k
    T_end = t_end_phases + M

    items: List[Item] = []
    uid = 0
    for i in range(k):
        t = 3.0 * i
        items.append(Item(t, t + 1.0, np.array([0.5]), uid))  # filler F_i
        uid += 1
        items.append(Item(t, T_end, np.array([s]), uid))  # anchor a_i
        uid += 1
    for i in range(k):
        t = 3.0 * i + 2.0
        items.append(Item(t, t_end_phases, np.array([g]), uid))  # guard g_i
        uid += 1

    inst = Instance(
        sorted(items, key=lambda it: it.arrival),
        name=f"bf_trap(k={k})",
    )
    # OPT: anchors together (one bin, length T_end); fillers reused
    # (k unit periods); each guard alone (they cannot pair).
    guards_cost = sum(t_end_phases - (3.0 * i + 2.0) for i in range(k))
    opt_upper = T_end + k + guards_cost
    cost_lower = sum(T_end - 3.0 * i for i in range(k))
    return AdversarialInstance(
        instance=inst,
        opt_upper=opt_upper,
        algorithm_cost_lower=cost_lower,
        target_ratio=float(k),
        targets=("best_fit", "*"),
        description=(
            f"Best Fit lure family (k={k}, M={M:g}): every Any Fit policy "
            f"pays ~kM while OPT <= M + O(k^2)"
        ),
    )
