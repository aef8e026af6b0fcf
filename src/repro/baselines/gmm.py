"""GMM (Gonzalez' greedy) — 1/2-approximate offline max-min DM.

Also the paper's OPT_f upper-bound oracle: since GMM is 1/2-approximate and
``OPT >= OPT_f``, ``2 * div(GMM(X, k))`` upper-bounds ``OPT_f`` (Table II).
Fully vectorized: maintains the running min-distance-to-solution array,
updated by one plane-kernel scan per chosen point over a feature-major copy
of the points made once per call (``Metric.feature_major``); the distances
are ``point_to_rows``' bit for bit.
"""
from __future__ import annotations

import numpy as np

from ..metrics import Metric


def gmm(
    feats: np.ndarray, k: int, metric: Metric, *, first: int = 0
) -> np.ndarray:
    """Indices of the greedy max-min solution (first point = ``first``)."""
    n = len(feats)
    if k > n:
        raise ValueError(f"k={k} > n={n}")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = first
    fm = metric.feature_major(feats)  # one copy for all k scans
    mind = metric.rows_to_feature_major(feats[first][None], fm)[0]
    for i in range(1, k):
        nxt = int(np.argmax(mind))
        chosen[i] = nxt
        np.minimum(mind, metric.rows_to_feature_major(feats[nxt][None], fm)[0], out=mind)
    return chosen


def group_gmm_prefixes(
    feats: np.ndarray, groups: np.ndarray, ks: dict[int, int], metric: Metric
) -> dict[int, np.ndarray]:
    """Per group g of ``ks``, in sorted order: indices into ``feats`` of the
    GMM solution over g's rows, of size min(k, |g|) with k the sum of the
    quotas. This is the per-group coreset of FairFlow and FairGMM."""
    k = sum(ks.values())
    prefixes: dict[int, np.ndarray] = {}
    for g, kg in sorted(ks.items()):
        members = np.flatnonzero(groups == g)
        if len(members) < kg:
            raise ValueError(f"group {g} smaller than its quota {kg}")
        prefixes[g] = members[gmm(feats[members], min(k, len(members)), metric)]
    return prefixes

