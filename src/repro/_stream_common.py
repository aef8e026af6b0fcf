"""Shared factory for the two streaming FDM algorithms."""
from __future__ import annotations


def make_algo(algo: str, metric: str, **kw):
    """Instantiate SFDM1/SFDM2 by name (kw: ks, eps, d_min, d_max, dim)."""
    from .core.sfdm1 import SFDM1
    from .core.sfdm2 import SFDM2

    algos = {"sfdm1": SFDM1, "sfdm2": SFDM2}
    if algo not in algos:
        raise ValueError(f"unknown algo {algo!r}")
    return algos[algo](metric, **kw)
