"""Composable-coreset batch runner (mapInPandas) — fairness and quality."""
import numpy as np
import pytest

from repro.core.sfdm2 import SFDM2
from repro.datasets import blobs
from repro.extent import exact_extent
from repro.spark.coreset import run_fair_coreset


def setup_ds(seed=0, n=1500, m=3):
    ds = blobs(n, m, seed=seed)
    d_min, d_max = exact_extent(ds.feats, ds.metric)
    return ds, d_min, d_max


@pytest.mark.parametrize("algo", ["sfdm1", "sfdm2"])
def test_fairness_of_distributed_solution(spark, algo):
    m = 2 if algo == "sfdm1" else 3
    ds, lo, hi = setup_ds(seed=1, m=m)
    ks = {i: 2 for i in range(m)}
    df = ds.to_spark(spark).repartition(8)
    res, core_size = run_fair_coreset(
        df, metric=ds.metric_name, ks=ks, eps=0.1,
        d_min=lo, d_max=hi, dim=ds.dim, algo=algo,
    )
    for i in range(m):
        assert int((res.groups == i).sum()) == 2
    assert core_size < ds.n / 3  # coreset shrinks the data


def test_quality_close_to_sequential(spark):
    ds, lo, hi = setup_ds(seed=2, m=2)
    ks = {0: 3, 1: 3}
    df = ds.to_spark(spark).repartition(6)
    res, _ = run_fair_coreset(
        df, metric=ds.metric_name, ks=ks, eps=0.1,
        d_min=lo, d_max=hi, dim=ds.dim, algo="sfdm2",
    )
    seq = SFDM2(ds.metric_name, ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=ds.dim)
    seq.update(ds.feats, ds.groups)
    seq_div = seq.solve().diversity
    assert res.diversity >= 0.4 * seq_div


def test_solution_ids_exist_in_input(spark):
    ds, lo, hi = setup_ds(seed=3, m=2)
    ks = {0: 2, 1: 2}
    res, _ = run_fair_coreset(
        ds.to_spark(spark).repartition(4),
        metric=ds.metric_name, ks=ks, eps=0.1,
        d_min=lo, d_max=hi, dim=ds.dim, algo="sfdm1",
    )
    assert set(res.ids.tolist()) <= set(range(ds.n))
    # features must match the original rows for those ids
    for eid, f in zip(res.ids.tolist(), res.feats):
        assert np.allclose(ds.feats[eid], f)


def test_unknown_algo_rejected(spark):
    ds, lo, hi = setup_ds(seed=4, m=2)
    with pytest.raises(ValueError, match="algo"):
        run_fair_coreset(
            ds.to_spark(spark), metric=ds.metric_name, ks={0: 1, 1: 1},
            eps=0.1, d_min=lo, d_max=hi, dim=ds.dim, algo="nope",
        )


def test_unknown_algo_rejected_before_spark_work():
    # caps come from make_algo, which rejects the name before df is touched
    with pytest.raises(ValueError, match="algo"):
        run_fair_coreset(
            None, metric="euclidean", ks={0: 1, 1: 1},
            eps=0.1, d_min=1.0, d_max=2.0, dim=2, algo="nope",
        )
