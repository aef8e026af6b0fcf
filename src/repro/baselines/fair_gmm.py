"""FairGMM (Moumoulidou et al., ICDT 2021) — offline 1/5-approx FDM for small
k and m.

Reduces each group to its length-k GMM prefix, then exhaustively enumerates
every fair combination (k_i elements from group i's prefix) and returns the
most diverse one — ``prod_i C(k, k_i) = O(C(km, k))`` candidates, which is why
the paper drops it beyond k > 10 or m > 5 (Table II note).
"""
from __future__ import annotations

from itertools import combinations, product
from math import comb

import numpy as np

from ..diversity import div
from ..metrics import Metric, get_metric
from .gmm import group_gmm_prefixes

MAX_COMBOS = 2_000_000


def fair_gmm(
    feats: np.ndarray,
    groups: np.ndarray,
    ks: dict[int, int],
    metric: str | Metric,
) -> tuple[np.ndarray, float]:
    """Returns (solution indices into ``feats``, diversity)."""
    metric = get_metric(metric)
    feats = np.asarray(feats, dtype=np.float64)
    groups = np.asarray(groups)
    prefixes = group_gmm_prefixes(feats, groups, ks, metric)
    n_combos = 1
    for g, kg in ks.items():
        n_combos *= comb(len(prefixes[g]), kg)
    if n_combos > MAX_COMBOS:
        raise ValueError(
            f"FairGMM would enumerate {n_combos} combinations (> {MAX_COMBOS}); "
            "it does not scale to this k/m (as reported in the paper)"
        )
    pool = np.concatenate([prefixes[g] for g in sorted(ks)])
    D = metric.pairwise(feats[pool], feats[pool])
    pos = {int(x): i for i, x in enumerate(pool)}
    per_group = [
        list(combinations([pos[int(x)] for x in prefixes[g]], ks[g]))
        for g in sorted(ks)
    ]
    best_d, best_sol = -1.0, None
    for picks in product(*per_group):
        local = [i for c in picks for i in c]
        sub = D[np.ix_(local, local)]
        d = float(sub[np.triu_indices(len(local), k=1)].min()) if len(local) > 1 else np.inf
        if d > best_d:
            best_d, best_sol = d, local
    idx = pool[np.array(best_sol)]
    return idx, float(best_d)
