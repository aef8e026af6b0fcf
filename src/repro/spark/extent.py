"""(d_min, d_max) estimation for a Spark DataFrame: the streaming pre-pass.

Counts the rows, samples up to ``sample`` of them with ``df.sample``, and
collects the sample once as an Arrow table, the path the streaming job
collects each micro-batch by. The driver then scans every unordered pair of
sampled rows with :func:`repro.extent.pair_blocks` and applies the
min-nonzero rule and safety factors, all shared with
:func:`repro.extent.estimate_extent`, so the same rows give the same extent
on both paths. This is the pre-pass a streaming deployment runs before the
guess grid is fixed.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from ..core.bank import check_finite
from ..extent import HI_FACTOR, LO_FACTOR, pair_blocks, pair_extent
from ..metrics import get_metric
from .streaming import _sorted_features


def spark_extent(
    df: DataFrame,
    metric: str,
    *,
    sample: int = 1000,
    seed: int = 0,
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
    d_min, d_max = pair_extent(pair_blocks(X, m))
    return d_min * LO_FACTOR, d_max * HI_FACTOR

