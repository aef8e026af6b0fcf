"""The Spark extent pre-pass: vs the numpy path, a left-fold reference, bad input."""
import itertools
import math

import numpy as np
import pytest

from repro.datasets import adult_like, blobs, census_like, lyrics_like
from repro.extent import estimate_extent, exact_extent
from repro.spark.extent import spark_extent


def test_small_dataset_matches_exact(spark):
    # the sample is every row, and both paths scan its pairs with pair_blocks
    ds = blobs(120, 2, seed=3)
    lo, hi = spark_extent(ds.to_spark(spark), ds.metric_name, sample=200)
    d_min, d_max = exact_extent(ds.feats, ds.metric)
    assert (lo, hi) == (d_min * 0.5, d_max * 2.0)


@pytest.mark.parametrize("ds", [census_like(150, "sex"), lyrics_like(150)],
                         ids=["census_like", "lyrics_like"])
def test_every_row_sampled_equals_estimate_extent(spark, ds):
    # 25 Manhattan and 50 angular features: the same doubles on both paths
    got = spark_extent(ds.to_spark(spark), ds.metric_name, sample=200)
    assert got == estimate_extent(ds.feats, ds.metric, sample=200)


def test_sampled_brackets_truth(spark):
    ds = blobs(3000, 2, seed=4)
    lo, hi = spark_extent(ds.to_spark(spark), ds.metric_name, sample=300, seed=1)
    d_min, d_max = exact_extent(ds.feats, ds.metric)
    assert 0 < lo  # sampled min-nonzero scaled down
    assert hi >= d_max * 0.9  # x2 factor absorbs sampling shortfall


def test_angular_metric_path(spark):
    ds = lyrics_like(150)
    lo, hi = spark_extent(ds.to_spark(spark), "angular", sample=150)
    assert 0 < lo < hi <= np.pi


def test_identical_points_raise(spark):
    import pandas as pd

    pdf = pd.DataFrame({"id": [0, 1, 2], "group": [0, 0, 0],
                        "features": [[1.0, 1.0]] * 3})
    sdf = spark.createDataFrame(pdf)
    with pytest.raises(ValueError, match="identical"):
        spark_extent(sdf, "euclidean", sample=10)


# -- bad input fails at the boundary ------------------------------------------

@pytest.mark.parametrize("n", [0, 1])
def test_fewer_than_two_rows_raise_naming_the_count(spark, n):
    sdf = spark.createDataFrame([(i, [1.0, 2.0]) for i in range(n)],
                                "id long, features array<double>")
    with pytest.raises(ValueError, match=f"at least 2 rows.*got {n}"):
        spark_extent(sdf, "euclidean", sample=10)


def _frame(spark, feats):
    import pandas as pd

    return spark.createDataFrame(pd.DataFrame({"id": range(len(feats)), "features": feats}))


def test_ragged_row_raises_naming_its_id(spark):
    feats = [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0, 5.0], [2.0, 2.0]]
    with pytest.raises(ValueError, match="id 2 has 3 features, expected 2"):
        spark_extent(_frame(spark, feats), "euclidean", sample=10)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_row_raises_naming_its_id(spark, bad):
    feats = [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0], [2.0, bad]]
    with pytest.raises(ValueError, match="id 3 has a non-finite feature"):
        spark_extent(_frame(spark, feats), "euclidean", sample=10)


# -- differential: the extent of the collected sample, as a left fold ----------

def _fold_extent(df, metric, sample, seed):
    """The extent of the same sample, each pair's distance the left fold a
    Spark SQL ``aggregate(zip_with(...), 0D, ...)`` computes, in plain Python."""
    frac = min(1.0, sample * 1.2 / df.count())
    rows = df.sample(fraction=frac, seed=seed).limit(sample).select("features").collect()
    feats = [list(r["features"]) for r in rows]
    lo, hi = math.inf, 0.0
    for a, b in itertools.combinations(feats, 2):
        acc = 0.0
        for x, y in zip(a, b):
            acc += (x - y) * (x - y) if metric == "euclidean" else abs(x - y)
        d = math.sqrt(acc) if metric == "euclidean" else acc
        if d > 0:
            lo = min(lo, d)
        hi = max(hi, d)
    return lo * 0.5, hi * 2.0


@pytest.mark.parametrize("ds", [blobs(600, 2, seed=5), adult_like(1200, "sex")],
                         ids=["blobs", "adult_like"])
def test_equals_left_fold_of_the_sample_bit_for_bit(spark, ds):
    # fewer than 8 features: rows_to_rows sums them as a left fold
    assert ds.dim < 8
    df = ds.to_spark(spark)
    got = spark_extent(df, ds.metric_name, sample=300, seed=2)
    assert got == _fold_extent(df, ds.metric_name, 300, 2)


def test_census_matches_left_fold_of_the_sample(spark):
    # 25 features: numpy's pairwise summation reorders the fold's terms
    ds = census_like(1200, "sex")
    df = ds.to_spark(spark)
    got = spark_extent(df, ds.metric_name, sample=300, seed=2)
    assert got == pytest.approx(_fold_extent(df, ds.metric_name, 300, 2), rel=1e-12)
