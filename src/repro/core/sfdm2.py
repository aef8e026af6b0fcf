"""SFDM2 (Algorithm 3) — (1-ε)/(3m+2)-approximate streaming FDM, any m.

Stream phase: like SFDM1 but every group candidate has cap **k** (not k_i).

Post phase (lines 9-18), per guess μ with ``|S_μ| = k`` and
``|S_{μ,i}| >= k_i``:

1. initial partial solution ``S'_μ`` ⊂ S_μ keeping at most k_i per group
   (we keep a greedy max-min subset where the paper allows an arbitrary one);
2. cluster all stored candidate elements at threshold ``μ/(m+1)``
   (single-linkage transitive closure);
3. matroid intersection between the fairness matroid (caps k_i) and the
   cluster matroid (≤1 element per cluster), solved by Algorithm 4 (greedy
   far-point insertion + Cunningham augmentation), which augments ``S'_μ``
   to a fair size-k solution whenever one exists.

Every guess slices the store's distance matrix, which the stream phase fills
as it stores rows (:meth:`StreamState.distances`): ``solve`` computes no
distance between stored rows, only ``div`` on each guess's k-row solution.
"""
from __future__ import annotations

import numpy as np

from ..diversity import div
from ..guesses import guess_grid
from ..matroid.intersection import max_common_independent_set
from ..matroid.partition import PartitionMatroid
from ..metrics import Metric, get_metric
from .bank import StreamState
from .clustering import threshold_clusters
from .stream_dm import DMResult, raise_if_group_short


def _greedy_maxmin_subset(D: np.ndarray, members: list[int], size: int) -> list[int]:
    """GMM-style max-min subset of ``members`` (indices into D) of given size."""
    if size <= 0:
        return []
    if len(members) <= size:
        return list(members)
    first = int(np.argmax(D[np.ix_(members, members)].sum(axis=1)))
    chosen = [members[first]]
    rest = [x for x in members if x != chosen[0]]
    while len(chosen) < size:
        d = D[np.ix_(rest, chosen)].min(axis=1)
        pick = int(np.argmax(d))
        chosen.append(rest.pop(pick))
    return chosen


class SFDM2:
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
        self.metric = get_metric(metric) if isinstance(metric, str) else metric
        self.ks = {int(g): int(k) for g, k in ks.items()}
        self.k = sum(self.ks.values())
        self.m = len(self.ks)
        self.mus = guess_grid(d_min, d_max, eps)
        group_caps = {g: self.k for g in self.ks}  # cap k, not k_i (Alg. 3 line 7)
        self.state = StreamState(self.metric, self.mus, dim, self.k, group_caps=group_caps)

    def update(self, feats, groups, ids=None) -> None:
        self.state.update(feats, groups, ids)

    def _post_one(self, g: int, D_store: np.ndarray) -> tuple[float, list[int]] | None:
        """Post-process guess index g on the store-wide distance matrix;
        returns (div, store indices) or None."""
        st, m, k = self.state, self.m, self.k
        mu = float(self.mus[g])
        # S_all: union of the blind and all group candidates (store indices are
        # already deduplicated: each element is stored once).
        sel = st.blind.member[g, : st.n_stored].copy()
        for b in st.group_banks.values():
            sel |= b.member[g, : st.n_stored]
        s_all = np.flatnonzero(sel)
        groups = st.groups[s_all]
        D = D_store[np.ix_(s_all, s_all)]
        # local positions of the blind candidate within s_all (both ascending)
        blind_local = np.flatnonzero(st.blind.member[g, s_all]).tolist()
        # (1) initial partial solution: at most k_i per group from S_mu
        init: set[int] = set()
        for grp, kg in self.ks.items():
            members = [x for x in blind_local if groups[x] == grp]
            init.update(_greedy_maxmin_subset(D, members, kg))
        # (2) clusters at threshold mu/(m+1)
        labels = threshold_clusters(D, mu / (m + 1))
        # Guard: Lemma 3(ii) promises S_mu hits each cluster at most once; an
        # estimated extent grid can break the premise, so enforce I2 on init.
        seen: set[int] = set()
        init_ok: set[int] = set()
        for x in sorted(init):
            c = int(labels[x])
            if c not in seen:
                seen.add(c)
                init_ok.add(x)
        m1 = PartitionMatroid(groups, self.ks)
        m2 = PartitionMatroid(labels, 1)
        sol = max_common_independent_set(
            m1, m2, init=init_ok, dist_matrix=D, target=k
        )
        if len(sol) != k:
            return None
        sol_idx = [int(s_all[x]) for x in sorted(sol)]
        # The reported diversity is div's (Gram-form pairwise on the solution
        # rows), as for every other algorithm; a slice of D_store, which is in
        # rows_to_rows arithmetic, can differ from it in the last bit.
        return div(st.feats[sol_idx], self.metric), sol_idx

    def solve(self) -> DMResult:
        """Best post-processed guess in U'. Each guess slices the store's
        distance matrix, kept by the state across calls and updates; a copied
        or unpickled solver rebuilds it on its first call."""
        st = self.state
        D_store = st.distances()
        best = None
        for g in range(len(self.mus)):
            if st.blind.sizes[g] != self.k:
                continue
            if any(
                st.group_banks[grp].sizes[g] < kg for grp, kg in self.ks.items()
            ):
                continue
            out = self._post_one(g, D_store)
            if out is None:
                continue
            d, sol = out
            if best is None or d > best[0]:
                best = (d, sol, float(self.mus[g]))
        if best is None:
            raise_if_group_short("SFDM2", st, self.ks)
            raise RuntimeError(
                "SFDM2: no guess yielded a fair size-k solution; "
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
