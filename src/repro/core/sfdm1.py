"""SFDM1 (Algorithm 2) — (1-ε)/4-approximate streaming FDM for m = 2 groups.

Stream phase: per guess μ, one group-blind candidate with cap k and one
candidate per group with cap k_i (Algorithm 1's update rule).

Post phase (lines 9-17): over ``U' = {μ : |S_μ|=k and |S_{μ,i}|=k_i ∀i}``,
balance each group-blind candidate by greedily inserting far elements from
the under-filled group's candidate and deleting the elements of the
over-filled group closest to the under-filled side; return the balanced
candidate with maximum diversity. The stream phase, ``U'`` and the pick of
the best guess are :class:`~repro.core.stream_dm.StreamingDM`'s.
"""
from __future__ import annotations

import numpy as np

from ..metrics import Metric
from .stream_dm import StreamingDM, quotas


def swap_balance(
    feats: np.ndarray,
    groups: np.ndarray,
    sol: list[int],
    pool_u: list[int],
    group_u: int,
    k_u: int,
    k: int,
    metric: Metric,
) -> list[int] | None:
    """Greedy insert-from-pool / delete-from-other balancing (Alg. 2 lines 12-17).

    ``sol``/``pool_u`` are indices into ``feats``. Returns the balanced
    solution (|sol|=k, k_u elements of group_u), or None if the pool cannot
    supply enough new elements (cannot happen for valid SFDM1 states; guarded
    for robustness). Shared verbatim by the offline FairSwap baseline.
    """
    sol = list(sol)
    in_sol = set(sol)
    pool = [x for x in pool_u if x not in in_sol]
    while sum(1 for x in sol if groups[x] == group_u) < k_u:
        own = [x for x in sol if groups[x] == group_u]
        if not pool:
            return None
        if own:
            d = metric.pairwise(feats[pool], feats[own]).min(axis=1)
            pick = pool[int(np.argmax(d))]
        else:
            pick = pool[0]
        sol.append(pick)
        in_sol.add(pick)
        pool.remove(pick)
    while len(sol) > k:
        own = [x for x in sol if groups[x] == group_u]
        other = [x for x in sol if groups[x] != group_u]
        d = metric.pairwise(feats[other], feats[own]).min(axis=1)
        sol.remove(other[int(np.argmin(d))])
    return sol


class SFDM1(StreamingDM):
    """Feed the stream via :meth:`update`, then :meth:`solve` post-processes."""

    def __init__(
        self,
        metric: str | Metric,
        *,
        ks: dict[int, int],
        eps: float,
        d_min: float,
        d_max: float,
        dim: int,
    ):
        if len(ks) != 2:
            raise ValueError(f"SFDM1 requires exactly 2 groups, got {sorted(ks)}")
        ks = quotas("SFDM1", ks)
        self._setup(metric, sum(ks.values()), ks, ks, eps, d_min, d_max, dim)

    def _post(self, g: int) -> list[int] | None:
        """Guess index g's blind candidate, balanced by :func:`swap_balance`
        if a group is under-filled (lines 11-17)."""
        st = self.state
        sol = st.blind.indices(g).tolist()
        counts = {grp: int((st.groups[sol] == grp).sum()) for grp in self.ks}
        under = [grp for grp, kg in self.ks.items() if counts[grp] < kg]
        if not under:
            return sol
        (gu,) = under
        pool = st.group_banks[gu].indices(g).tolist()
        return swap_balance(
            st.feats, st.groups, sol, pool, gu, self.ks[gu], self.k, self.metric
        )
