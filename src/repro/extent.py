"""(d_min, d_max) extent estimation for the guess grid.

The paper assumes ``d_min``/``d_max`` (hence Delta = d_max/d_min) are known.
In a deployment they are estimated from a sample before the stream starts;
``estimate_extent`` does that (sampled, with safety factors), while
``exact_extent`` computes honest extremes for small instances so tests can
verify the theoretical approximation bounds. Both scan every unordered pair
once with :func:`pair_blocks`, and so does the Spark pre-pass,
:func:`repro.spark.extent.spark_extent`, which also shares ``pair_extent``
and the safety factors ``LO_FACTOR``/``HI_FACTOR``: the same rows give the
same extent on either path.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .metrics import Metric

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


def pair_blocks(X: np.ndarray, metric: Metric) -> Iterator[np.ndarray]:
    """The distances of every unordered pair of rows of ``X``, a block of rows at a time.

    Row ``a + r`` of a block meets the rows before it, columns ``c < a + r``
    of :meth:`Metric.lower_blocks`' ``rows_to_rows(X[a:b], X[:b])``.
    """
    for a, _, D in metric.lower_blocks(X, 1):
        r, c = np.indices(D.shape)
        yield D[c < a + r]


def exact_extent(X: np.ndarray, metric: Metric) -> tuple[float, float]:
    """Exact (min nonzero, max) pairwise distance. O(n^2) — small n only."""
    n = len(X)
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    return pair_extent(pair_blocks(X, metric))


def estimate_extent(
    X: np.ndarray,
    metric: Metric,
    *,
    sample: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Sampled extent with safety factors.

    ``d_min`` is the minimum nonzero sampled distance scaled *down* by
    ``LO_FACTOR`` and ``d_max`` the sampled max scaled *up* by ``HI_FACTOR``,
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
    return d_min * LO_FACTOR, d_max * HI_FACTOR
