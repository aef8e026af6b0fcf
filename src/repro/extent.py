"""(d_min, d_max) extent estimation for the guess grid.

The paper assumes ``d_min``/``d_max`` (hence Delta = d_max/d_min) are known.
In a deployment they are estimated from a sample before the stream starts;
``estimate_extent`` does that (sampled, with safety factors), while
``exact_extent`` computes honest extremes for small instances so tests can
verify the theoretical approximation bounds. The Spark pre-pass,
:func:`repro.spark.extent.spark_extent`, shares ``pair_extent`` and the
safety factors ``LO_FACTOR``/``HI_FACTOR``.
"""
from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .metrics import Metric

_BLOCK = 2048
LO_FACTOR, HI_FACTOR = 0.5, 2.0  # d_min is scaled down, d_max up


def pair_extent(blocks: Iterable[np.ndarray]) -> tuple[float, float]:
    """(min nonzero, max) over blocks of pair distances; NaN entries are not pairs.

    Raises ``ValueError`` when no pair distance is nonzero: all points are
    identical, so ``d_min`` is undefined.
    """
    d_min, d_max = np.inf, 0.0
    for D in blocks:
        nz = D[(D > 0) & ~np.isnan(D)]
        if nz.size:
            d_min = min(d_min, float(nz.min()))
        d_max = max(d_max, float(np.nanmax(D)))
    if not np.isfinite(d_min):
        raise ValueError("all points identical; d_min undefined")
    return d_min, d_max


def exact_extent(X: np.ndarray, metric: Metric) -> tuple[float, float]:
    """Exact (min nonzero, max) pairwise distance. O(n^2) — small n only."""
    n = len(X)
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")

    def blocks():
        for i in range(0, n, _BLOCK):
            D = metric.pairwise(X[i : i + _BLOCK], X)
            r = np.arange(len(D))
            D[r, i + r] = np.nan  # the diagonal block's self-distances
            yield D

    return pair_extent(blocks())


def estimate_extent(
    X: np.ndarray,
    metric: Metric,
    *,
    sample: int = 1000,
    seed: int = 0,
    lo_factor: float = LO_FACTOR,
    hi_factor: float = HI_FACTOR,
) -> tuple[float, float]:
    """Sampled extent with safety factors.

    ``d_min`` is the minimum nonzero sampled distance scaled *down* by
    ``lo_factor`` and ``d_max`` the sampled max scaled *up* by ``hi_factor``,
    so the guess grid almost surely brackets the true OPT. A sample of ~1000
    points (~5e5 pairs) is ample for the extremes that matter: OPT_f is
    governed by typical far-pair distances, not the single global min.
    """
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    if n <= sample:
        d_min, d_max = exact_extent(X, metric)
    else:
        idx = np.random.default_rng(seed).choice(n, size=sample, replace=False)
        d_min, d_max = exact_extent(X[idx], metric)
    return d_min * lo_factor, d_max * hi_factor
