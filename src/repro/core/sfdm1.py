"""SFDM1 (Algorithm 2) — (1-ε)/4-approximate streaming FDM for m = 2 groups.

Stream phase: per guess μ, one group-blind candidate with cap k and one
candidate per group with cap k_i (Algorithm 1's update rule).

Post phase (lines 9-17): over ``U' = {μ : |S_μ|=k and |S_{μ,i}|=k_i ∀i}``,
balance each group-blind candidate by greedily inserting far elements from
the under-filled group's candidate and deleting the elements of the
over-filled group closest to the under-filled side; return the balanced
candidate with maximum diversity.
"""
from __future__ import annotations

import numpy as np

from ..diversity import div
from ..guesses import guess_grid
from ..metrics import Metric, get_metric
from .bank import StreamState
from .stream_dm import DMResult, raise_if_group_short


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


class SFDM1:
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
        self.metric = get_metric(metric) if isinstance(metric, str) else metric
        self.ks = {int(g): int(k) for g, k in ks.items()}
        self.k = sum(self.ks.values())
        self.mus = guess_grid(d_min, d_max, eps)
        self.state = StreamState(self.metric, self.mus, dim, self.k, group_caps=self.ks)

    def update(self, feats, groups, ids=None) -> None:
        self.state.update(feats, groups, ids)

    def solve(self) -> DMResult:
        st, metric, k = self.state, self.metric, self.k
        best = None
        for g in range(len(self.mus)):
            if st.blind.sizes[g] != k:
                continue
            if any(
                st.group_banks[grp].sizes[g] != kg for grp, kg in self.ks.items()
            ):
                continue
            sol = st.blind.indices(g, st.n_stored).tolist()
            counts = {grp: int((st.groups[sol] == grp).sum()) for grp in self.ks}
            under = [grp for grp, kg in self.ks.items() if counts[grp] < kg]
            if under:
                (gu,) = under
                pool = st.group_banks[gu].indices(g, st.n_stored).tolist()
                sol = swap_balance(
                    st.feats, st.groups, sol, pool, gu, self.ks[gu], k, metric
                )
                if sol is None:
                    continue
            d = div(st.feats[sol], metric)
            if best is None or d > best[0]:
                best = (d, sol, float(self.mus[g]))
        if best is None:
            raise_if_group_short("SFDM1", st, self.ks)
            raise RuntimeError(
                "SFDM1: no guess produced full candidates (U' empty); "
                "extent estimate or quotas inconsistent with the data"
            )
        d, sol, mu = best
        idx = np.array(sol)
        return DMResult(
            indices=idx,
            ids=st.ids[idx],
            feats=st.feats[idx],
            groups=st.groups[idx],
            diversity=d,
            mu=mu,
            n_stored=st.n_stored,
        )
