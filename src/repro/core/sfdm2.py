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

Every guess slices the store's distance matrix (:meth:`StreamState.distances`),
which the first post-processed guess of a solve extends by the rows stored
since the previous solve, so post-processing computes each stored pair's
distance once; beyond that, ``solve`` computes only ``div`` on each guess's
k-row solution.
The stream phase, ``U'``, the pick of the best guess and ``solve`` are
:class:`~repro.core.stream_dm.StreamingDM`'s, so a solve post-processes only
the guesses whose blind or group candidates grew since the solver's previous
solve; a copied or unpickled solver post-processes every guess on its first.
"""
from __future__ import annotations

import numpy as np

from ..matroid.intersection import max_common_independent_set
from ..matroid.partition import PartitionMatroid
from ..metrics import Metric
from .clustering import threshold_clusters
from .stream_dm import StreamingDM, quotas


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


class SFDM2(StreamingDM):
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
        ks = quotas("SFDM2", ks)
        k = sum(ks.values())
        self.m = len(ks)
        # cap k, not k_i (Alg. 3 line 7)
        self._setup(metric, k, ks, dict.fromkeys(ks, k), eps, d_min, d_max, dim)

    def _post(self, g: int) -> list[int] | None:
        """Post-process guess index g on a slice of the store's distance
        matrix; returns store indices or None. It reads only g's
        candidates' members and rows that never change, which is what lets
        ``solve`` reuse its result."""
        st, m, k = self.state, self.m, self.k
        mu = float(self.mus[g])
        # S_all: union of the blind and all group candidates (each element is
        # stored once, so equal store indices are the same element).
        blind = st.blind.indices(g)
        s_all = np.unique(np.concatenate([blind, *(b.indices(g) for b in st.group_banks.values())]))
        groups = st.groups[s_all]
        D = st.distances()[np.ix_(s_all, s_all)]
        # local positions of the blind candidate within s_all (both ascending)
        blind_local = np.searchsorted(s_all, blind)
        # (1) initial partial solution: at most k_i per group from S_mu
        init = np.sort(np.concatenate([
            _greedy_maxmin_subset(D, blind_local[groups[blind_local] == grp].tolist(), kg)
            for grp, kg in self.ks.items()
        ]).astype(np.int64))
        # (2) clusters at threshold mu/(m+1)
        labels = threshold_clusters(D, mu / (m + 1))
        # Guard: Lemma 3(ii) promises S_mu hits each cluster at most once; an
        # estimated extent grid can break the premise, so enforce I2 on init
        # by keeping the first (lowest) element of each cluster.
        _, first = np.unique(labels[init], return_index=True)
        m1 = PartitionMatroid(groups, self.ks)
        m2 = PartitionMatroid(labels, 1)
        sol = max_common_independent_set(
            m1, m2, init=set(init[first].tolist()), dist_matrix=D, target=k
        )
        if len(sol) != k:
            return None
        return [int(s_all[x]) for x in sorted(sol)]
