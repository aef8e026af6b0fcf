"""FairFlow (Moumoulidou et al., ICDT 2021) — offline 1/(3m-1)-approx FDM.

Re-implemented from the descriptions in the ICDT paper and the reproduced
paper's "Comparison with Prior Art": same cluster-then-matroid framing as
SFDM2, but (a) offline — it reduces X to per-group GMM coresets with k points
per group, costing O(nkm) distance computations over the whole dataset, and
(b) the matroid intersection is solved as a **max-flow** problem with
arbitrary (non-greedy) element choices, which is why its practical solution
quality degrades as m grows.

For a guess μ (searched downward on a geometric grid from the GMM upper
bound) it clusters the coreset at threshold μ/(m+1) and builds the flow net
``source -> group_i (cap k_i) -> element (cap 1) -> cluster (cap 1) -> sink``;
a max-flow of value k yields a fair solution with one element per cluster,
hence diversity >= μ/(m+1).
"""
from __future__ import annotations

import numpy as np

from ..core.clustering import threshold_clusters
from ..diversity import div
from ..flow.dinic import Dinic
from ..metrics import Metric, get_metric


def fair_flow(
    feats: np.ndarray,
    groups: np.ndarray,
    ks: dict[int, int],
    metric: str | Metric,
    *,
    shrink: float = 0.95,
    max_steps: int = 400,
) -> tuple[np.ndarray, float]:
    """Returns (solution indices into ``feats``, diversity)."""
    metric = get_metric(metric) if isinstance(metric, str) else metric
    feats = np.asarray(feats, dtype=np.float64)
    groups = np.asarray(groups)
    k = sum(ks.values())
    m = len(ks)
    from .gmm import gmm

    # offline coreset: GMM with k points per group (full-dataset passes)
    core: list[int] = []
    for g, kg in ks.items():
        members = np.flatnonzero(groups == g)
        if len(members) < kg:
            raise ValueError(f"group {g} smaller than its quota {kg}")
        local = gmm(feats[members], min(k, len(members)), metric)
        core.extend(members[local].tolist())
    core_idx = np.array(sorted(set(core)))
    cf, cg = feats[core_idx], groups[core_idx]
    Dc = metric.pairwise(cf, cf)  # the coreset is fixed across the mu search
    # upper bound on OPT_f: 2 * div(GMM(X, k))
    mu = 2.0 * div(feats[gmm(feats, k, metric)], metric)
    group_list = sorted(ks)
    for _ in range(max_steps):
        labels = threshold_clusters(Dc, mu / (m + 1))
        sol = _solve_flow(cg, labels, ks, group_list, k)
        if sol is not None:
            idx = core_idx[sol]
            return idx, div(feats[idx], metric)
        mu *= shrink
    raise RuntimeError("FairFlow: no feasible assignment found down to mu≈0")


def _solve_flow(
    groups: np.ndarray,
    labels: np.ndarray,
    ks: dict[int, int],
    group_list: list[int],
    k: int,
) -> list[int] | None:
    """Max-flow fair assignment; element indices local to the coreset."""
    n = len(groups)
    n_clusters = int(labels.max()) + 1 if n else 0
    # node ids: 0 = source, 1..m groups, then elements, then clusters, sink last
    s = 0
    goff = 1
    eoff = goff + len(group_list)
    coff = eoff + n
    t = coff + n_clusters
    net = Dinic(t + 1)
    gpos = {g: i for i, g in enumerate(group_list)}
    for g in group_list:
        net.add_edge(s, goff + gpos[g], ks[g])
    elem_edges: list[tuple[int, int, int]] = []  # (elem, from_node, edge_idx)
    for i in range(n):
        u = goff + gpos[int(groups[i])]
        eidx = net.add_edge(u, eoff + i, 1)
        elem_edges.append((i, u, eidx))
        net.add_edge(eoff + i, coff + int(labels[i]), 1)
    for c in range(n_clusters):
        net.add_edge(coff + c, t, 1)
    if net.max_flow(s, t) < k:
        return None
    return [i for i, u, eidx in elem_edges if net.edge_flow(u, eidx) == 1]
