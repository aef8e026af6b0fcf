"""Dataset stand-ins (Table I substrate) + quota helpers + DuckDB oracle."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.datasets import (
    adult_like,
    blobs,
    celeba_like,
    census_like,
    clamp_quotas,
    equal_quotas,
    lyrics_like,
    proportional_quotas,
)
from tests.oracle import assert_equivalent


def group_counts(ds) -> dict[int, int]:
    """Rows per group label of a dataset."""
    g, c = np.unique(ds.groups, return_counts=True)
    return {int(a): int(b) for a, b in zip(g, c)}


# -- generators --------------------------------------------------------------

@pytest.mark.parametrize(
    "build,dim,metric,m",
    [
        (lambda: adult_like(2000, "sex"), 6, "euclidean", 2),
        (lambda: adult_like(2000, "race"), 6, "euclidean", 5),
        (lambda: adult_like(4000, "sex+race"), 6, "euclidean", 10),
        (lambda: celeba_like(2000, "sex"), 41, "manhattan", 2),
        (lambda: celeba_like(2000, "age"), 41, "manhattan", 2),
        (lambda: celeba_like(2000, "sex+age"), 41, "manhattan", 4),
        (lambda: census_like(2000, "sex"), 25, "manhattan", 2),
        (lambda: census_like(2000, "age"), 25, "manhattan", 7),
        (lambda: census_like(4000, "sex+age"), 25, "manhattan", 14),
        (lambda: lyrics_like(2000), 50, "angular", 15),
        (lambda: blobs(2000, 4), 2, "euclidean", 4),
    ],
)
def test_shapes_metric_groups(build, dim, metric, m):
    ds = build()
    assert ds.dim == dim
    assert ds.metric_name == metric
    assert ds.m == m
    assert ds.feats.dtype == np.float64
    assert len(ds.groups) == ds.n


def test_adult_sex_skew():
    ds = adult_like(20000, "sex")
    frac = group_counts(ds)[0] / ds.n
    assert 0.62 < frac < 0.72  # paper: 67% male


def test_adult_race_skew():
    ds = adult_like(20000, "race")
    frac = group_counts(ds)[0] / ds.n
    assert 0.84 < frac < 0.90  # paper: 87% White


def test_adult_normalized():
    ds = adult_like(5000, "sex")
    assert np.allclose(ds.feats.mean(axis=0), 0.0, atol=0.05)
    assert np.allclose(ds.feats.std(axis=0), 1.0, atol=0.05)


def test_celeba_binary_features():
    ds = celeba_like(1000, "sex")
    assert set(np.unique(ds.feats).tolist()) <= {0.0, 1.0}


def test_lyrics_on_simplex():
    ds = lyrics_like(500)
    assert (ds.feats >= 0).all()
    assert np.allclose(ds.feats.sum(axis=1), 1.0, atol=1e-9)


def test_lyrics_angular_at_most_half_pi():
    ds = lyrics_like(300)
    sub = ds.feats[:50]
    assert ds.metric.pairwise(sub, sub).max() <= np.pi / 2 + 1e-9


def test_blobs_recipe():
    ds = blobs(5000, 3, seed=1)
    assert ds.feats.shape == (5000, 2)
    assert abs(ds.feats.mean()) < 11  # centers within [-10,10]
    # groups uniform-ish
    counts = np.array(list(group_counts(ds).values()))
    assert counts.min() > 5000 / 3 * 0.8


@pytest.mark.parametrize(
    "build",
    [
        lambda s: adult_like(1000, "sex", seed=s),
        lambda s: celeba_like(1000, "sex", seed=s),
        lambda s: census_like(1000, "age", seed=s),
        lambda s: lyrics_like(1000, seed=s),
        lambda s: blobs(1000, 2, seed=s),
    ],
)
def test_deterministic_in_seed(build):
    a, b = build(5), build(5)
    assert np.array_equal(a.feats, b.feats)
    assert np.array_equal(a.groups, b.groups)
    c = build(6)
    assert not np.array_equal(a.feats, c.feats)


def test_unknown_grouping_rejected():
    for f in (adult_like, celeba_like, census_like):
        with pytest.raises(ValueError):
            f(100, "nope")


def test_to_pandas_roundtrip():
    ds = blobs(50, 2)
    pdf = ds.to_pandas()
    assert list(pdf.columns) == ["id", "group", "features"]
    assert np.array_equal(np.stack(pdf["features"].to_numpy()), ds.feats)


# -- quota helpers ------------------------------------------------------------

def test_equal_quotas_divisible():
    grp = np.repeat(np.arange(4), 10)
    assert equal_quotas(20, grp) == {0: 5, 1: 5, 2: 5, 3: 5}


def test_equal_quotas_remainder():
    grp = np.repeat(np.arange(3), 10)
    ks = equal_quotas(20, grp)
    assert sum(ks.values()) == 20
    assert sorted(ks.values()) == [6, 7, 7]


def test_proportional_quotas_sum_and_floor():
    g = np.random.default_rng(0)
    grp = g.choice(3, 1000, p=[0.7, 0.25, 0.05])
    ks = proportional_quotas(20, grp)
    assert sum(ks.values()) == 20
    assert all(v >= 1 for v in ks.values())
    assert ks[0] > ks[1] > ks[2]


def test_proportional_quotas_k_below_m_rejected():
    grp = np.repeat(np.arange(5), 10)
    with pytest.raises(ValueError):
        proportional_quotas(3, grp)


def test_clamp_quotas_noop_when_feasible():
    grp = np.repeat(np.arange(2), 50)
    ks = {0: 5, 1: 5}
    assert clamp_quotas(ks, grp) == ks


def test_clamp_quotas_redistributes():
    grp = np.array([0] * 50 + [1] * 2)
    ks = clamp_quotas({0: 5, 1: 5}, grp)
    assert ks == {0: 8, 1: 2}


def test_clamp_quotas_impossible_raises():
    grp = np.array([0, 1])
    with pytest.raises(ValueError, match="too small"):
        clamp_quotas({0: 5, 1: 5}, grp)
    # a quota group with no rows at all
    with pytest.raises(ValueError, match="too small"):
        clamp_quotas({0: 2, 1: 2}, np.array([0, 0, 0]))


# -- Spark + DuckDB oracle ----------------------------------------------------

def test_group_counts_oracle(spark):
    ds = adult_like(3000, "race")
    sdf = ds.to_spark(spark)
    got = sdf.groupBy("group").agg(F.count("*").alias("cnt"))
    pdf = ds.to_pandas()[["id", "group"]]
    assert_equivalent(
        got,
        'select "group", count(*) as cnt from t group by "group"',
        t=pdf,
    )


def test_spark_row_count_matches(spark):
    ds = celeba_like(500, "sex")
    assert ds.to_spark(spark).count() == 500


def test_feature_means_oracle(spark):
    # aggregate a feature component on both engines
    ds = blobs(400, 2)
    sdf = ds.to_spark(spark)
    got = sdf.select(
        F.avg(F.col("features")[0]).alias("mx"),
        F.avg(F.col("features")[1]).alias("my"),
    )
    pdf = ds.to_pandas()
    pdf2 = pdf.assign(x=[f[0] for f in pdf["features"]], y=[f[1] for f in pdf["features"]])
    assert_equivalent(
        got,
        "select avg(x) as mx, avg(y) as my from t",
        t=pdf2[["x", "y"]],
    )
