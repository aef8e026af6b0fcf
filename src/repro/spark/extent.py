"""(d_min, d_max) estimation for a Spark DataFrame: the streaming pre-pass.

Counts the rows, samples up to ``sample`` of them with ``df.sample``, and
collects the sample once as an Arrow table, the path the streaming job
collects each micro-batch by. The driver then scans every unordered pair of
sampled rows with :meth:`Metric.rows_to_rows`, row-blocked, and applies the
min-nonzero rule and safety factors it shares with
:func:`repro.extent.estimate_extent`. This is the pre-pass a streaming
deployment runs before the guess grid is fixed.

``rows_to_rows``, not the Gram-form ``pairwise``: it sums along the feature
axis, which numpy does as a left fold for fewer than 8 features, so there
each distance is the double a Spark SQL ``aggregate(zip_with(...), 0D, ...)``
fold gives, and the Adult grid does not depend on where the pairs are
scanned (DESIGN.md §3).
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from ..core.bank import check_finite
from ..extent import HI_FACTOR, LO_FACTOR, pair_extent
from ..metrics import Metric, get_metric
from .streaming import _sorted_features

_BLOCK_BYTES = 1 << 20  # target size of one block of pair distances


def spark_extent(
    df: DataFrame,
    metric: str,
    *,
    sample: int = 1000,
    seed: int = 0,
    lo_factor: float = LO_FACTOR,
    hi_factor: float = HI_FACTOR,
) -> tuple[float, float]:
    """(d_min, d_max) estimate from a sample of df: (id, features).

    Raises ``ValueError`` when df or its sample has fewer than 2 rows, naming
    the count; when a sampled row's features are ragged or non-finite,
    naming its id; and when all sampled points are identical.
    """
    m = get_metric(metric)
    n = df.count()
    if n < 2:
        raise ValueError(f"need at least 2 rows to estimate the extent, got {n}")
    frac = min(1.0, (sample * 1.2) / n)
    table = df.sample(fraction=frac, seed=seed).limit(sample).select("id", "features").toArrow()
    if table.num_rows < 2:
        raise ValueError(f"the sample has {table.num_rows} of {n} rows, need at least 2")
    order, X = _sorted_features(table)
    check_finite(X, table.column("id").to_numpy()[order])
    d_min, d_max = pair_extent(_pair_blocks(X, m))
    return d_min * lo_factor, d_max * hi_factor


def _pair_blocks(X: np.ndarray, metric: Metric):
    """The distances of every unordered pair of rows of ``X``, a block of rows at a time.

    Row ``lo + r`` of a block meets the rows after it, columns ``c >= r`` of
    ``rows_to_rows(X[lo:hi], X[lo + 1:])``; each block stays near
    ``_BLOCK_BYTES``.
    """
    n = len(X)
    step = max(1, _BLOCK_BYTES // (8 * max(1, n)))
    for lo in range(0, n - 1, step):
        D = metric.rows_to_rows(X[lo : lo + step], X[lo + 1 :])
        r, c = np.indices(D.shape)
        yield D[c >= r]
