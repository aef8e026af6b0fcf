"""FairSwap (Moumoulidou et al., ICDT 2021) — offline 1/4-approx FDM, m = 2.

Run GMM on the full dataset for an unconstrained size-k solution; if one group
is under-filled, run GMM on that group alone for a k_i-element pool, then
balance with the same greedy insert/delete swaps SFDM1 uses (the paper's
SFDM1 is the streaming analogue of this algorithm). Offline: random access
over all n elements, O(nk) time, O(n) space.
"""
from __future__ import annotations

import numpy as np

from ..core.sfdm1 import swap_balance
from ..diversity import div
from ..metrics import Metric, get_metric


def fair_swap(
    feats: np.ndarray,
    groups: np.ndarray,
    ks: dict[int, int],
    metric: str | Metric,
) -> tuple[np.ndarray, float]:
    """Returns (solution indices into ``feats``, diversity)."""
    if len(ks) != 2:
        raise ValueError("FairSwap requires exactly 2 groups")
    metric = get_metric(metric)
    feats = np.asarray(feats, dtype=np.float64)
    groups = np.asarray(groups)
    k = sum(ks.values())
    from .gmm import gmm

    sol = gmm(feats, k, metric).tolist()
    counts = {g: int((groups[sol] == g).sum()) for g in ks}
    under = [g for g, kg in ks.items() if counts[g] < kg]
    if under:
        (gu,) = under
        members = np.flatnonzero(groups == gu)
        if len(members) < ks[gu]:
            raise ValueError(f"group {gu} smaller than its quota {ks[gu]}")
        local = gmm(feats[members], ks[gu], metric)
        pool = members[local].tolist()
        sol = swap_balance(feats, groups, sol, pool, gu, ks[gu], k, metric)
        if sol is None:  # pragma: no cover - pool always suffices offline
            raise RuntimeError("FairSwap balancing failed")
    idx = np.array(sol)
    return idx, div(feats[idx], metric)
