"""FairFlow (Moumoulidou et al., ICDT 2021) — offline 1/(3m-1)-approx FDM.

Re-implemented from the descriptions in the ICDT paper and the reproduced
paper's "Comparison with Prior Art": same cluster-then-matroid framing as
SFDM2, but (a) offline — it reduces X to per-group GMM coresets with k points
per group, costing O(nkm) distance computations over the whole dataset, and
(b) the fair assignment takes arbitrary (non-greedy) element choices, which
is why its practical solution quality degrades as m grows.

For a guess μ (searched downward on a geometric grid from the GMM upper
bound) it clusters the coreset at threshold μ/(m+1) and looks for a fair
assignment with at most one element per cluster; one of size k is a fair
solution with diversity >= μ/(m+1).

The ICDT paper finds the assignment as an integral max flow in the network
``source -> group_i (cap k_i) -> element (cap 1) -> cluster (cap 1) -> sink``.
Every element has one in-edge (from its group) and one out-edge (to its
cluster), both of capacity 1, so an integral flow is a set of elements with at
most k_i from group i and at most one per cluster, and every such set is a
flow. The max flow is therefore a maximum common independent set of the
fairness matroid (caps k_i) and the cluster matroid (caps 1), which is what
Algorithm 4 computes. Called without a distance matrix, its greedy phase
takes the lowest-index addable element: an arbitrary choice, like the max
flow's.
"""
from __future__ import annotations

import numpy as np

from ..core.clustering import threshold_clusters
from ..diversity import div
from ..matroid.intersection import max_common_independent_set
from ..matroid.partition import PartitionMatroid
from ..metrics import Metric, get_metric
from .gmm import gmm, group_gmm_prefixes

SHRINK = 0.95  # ratio between consecutive guesses μ
MAX_STEPS = 400


def fair_flow(
    feats: np.ndarray,
    groups: np.ndarray,
    ks: dict[int, int],
    metric: str | Metric,
) -> tuple[np.ndarray, float]:
    """Returns (solution indices into ``feats``, diversity)."""
    metric = get_metric(metric)
    feats = np.asarray(feats, dtype=np.float64)
    groups = np.asarray(groups)
    k = sum(ks.values())
    m = len(ks)

    # offline coreset: GMM with k points per group (full-dataset passes)
    prefixes = group_gmm_prefixes(feats, groups, ks, metric)
    core_idx = np.unique(np.concatenate(list(prefixes.values())))
    cf = feats[core_idx]
    Dc = metric.pairwise(cf, cf)  # the coreset is fixed across the mu search
    fair = PartitionMatroid(groups[core_idx], ks)
    # upper bound on OPT_f: 2 * div(GMM(X, k))
    mu = 2.0 * div(feats[gmm(feats, k, metric)], metric)
    for _ in range(MAX_STEPS):
        labels = threshold_clusters(Dc, mu / (m + 1))
        sol = max_common_independent_set(fair, PartitionMatroid(labels, 1), target=k)
        if len(sol) == k:
            idx = core_idx[sorted(sol)]
            return idx, div(feats[idx], metric)
        mu *= SHRINK
    raise RuntimeError("FairFlow: no feasible assignment found down to mu≈0")
