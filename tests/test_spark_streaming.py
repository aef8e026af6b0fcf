"""Structured Streaming FDM job: end-to-end correctness of the foreachBatch
runner, which collects each micro-batch to the driver and applies it there,
its rejection of bad rows at the batch boundary, and the checkpoint manager
it holds in the session while a query on a local checkpoint runs."""
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro._stream_common import make_algo
from repro.datasets import blobs
from repro.extent import exact_extent
from repro.spark import streaming
from repro.spark.streaming import (
    CHECKPOINT_MANAGER_KEY,
    LOCAL_CHECKPOINT_MANAGER,
    is_local_path,
    run_streaming_fdm,
    write_stream_input,
)
from tests.post_oracle import brute_fair_opt

FILE_CONTEXT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing.FileContextBasedCheckpointFileManager"
)


def run_blobs(spark, tmp_path, ds, lo, hi, *, algo="sfdm2", ks=None, eps=0.2, n_files=8):
    inp = str(tmp_path / "input")
    write_stream_input(ds, inp, n_files=n_files)
    return run_streaming_fdm(
        spark, inp, algo=algo, metric=ds.metric_name, ks=ks or {0: 2, 1: 2},
        eps=eps, d_min=lo, d_max=hi, dim=ds.dim,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )


def test_write_stream_input_files(tmp_path):
    ds = blobs(100, 2, seed=0)
    path = str(tmp_path / "in")
    write_stream_input(ds, path, n_files=5)
    files = sorted(os.listdir(path))
    assert len(files) == 5
    assert all(f.endswith(".parquet") for f in files)


def test_write_stream_input_mtimes_follow_stream_order(tmp_path):
    # the file source orders by mtime in ms; ties are read in arbitrary order
    path = str(tmp_path / "in")
    write_stream_input(blobs(64, 2, seed=0), path, n_files=32)
    files = sorted(os.listdir(path))
    ms = [os.stat(os.path.join(path, f)).st_mtime_ns // 1_000_000 for f in files]
    assert all(a < b for a, b in zip(ms, ms[1:]))


@pytest.mark.parametrize("algo", ["sfdm1", "sfdm2"])
def test_streaming_job_fair_solution(spark, tmp_path, algo):
    ds = blobs(600, 2, seed=5)
    lo, hi = exact_extent(ds.feats, ds.metric)
    ks = {0: 3, 1: 3}
    inp = str(tmp_path / "input")
    write_stream_input(ds, inp, n_files=4)
    res, stats = run_streaming_fdm(
        spark, inp, algo=algo, metric=ds.metric_name, ks=ks, eps=0.1,
        d_min=lo, d_max=hi, dim=ds.dim, checkpoint_dir=str(tmp_path / "ckpt"),
    )
    assert int((res.groups == 0).sum()) == 3
    assert int((res.groups == 1).sum()) == 3
    assert stats.n_batches == 4
    assert stats.n_rows == 600
    assert stats.n_survivors <= stats.n_rows
    assert res.n_stored <= stats.n_survivors


def test_streaming_prefilter_drops_rows(spark, tmp_path):
    # with many batches, later batches should be heavily prefiltered
    ds = blobs(800, 2, seed=6)
    lo, hi = exact_extent(ds.feats, ds.metric)
    _, stats = run_blobs(spark, tmp_path, ds, lo, hi)
    assert stats.n_survivors < stats.n_rows  # prefilter did real work


def test_streaming_matches_theory_bound(spark, tmp_path):
    # tiny instance where brute-force OPT_f is computable
    g = np.random.default_rng(7)
    feats = g.normal(size=(12, 2))
    groups = np.array([0, 1] * 6)
    from repro.datasets import Dataset
    from repro.metrics import get_metric

    ds = Dataset("tiny", feats, groups, "euclidean")
    lo, hi = exact_extent(feats, get_metric("euclidean"))
    ks = {0: 2, 1: 2}
    optf = brute_fair_opt(feats, groups, ks, get_metric("euclidean"))
    inp = str(tmp_path / "input")
    write_stream_input(ds, inp, n_files=3)
    eps = 0.1
    res, _ = run_streaming_fdm(
        spark, inp, algo="sfdm1", metric="euclidean", ks=ks, eps=eps,
        d_min=lo, d_max=hi, dim=2, checkpoint_dir=str(tmp_path / "ckpt"),
    )
    # the run equals a sequential pass over some permutation -> bound holds
    assert res.diversity >= (1 - eps) / 4 * optf - 1e-9


@pytest.mark.parametrize("algo", ["sfdm1", "sfdm2"])
def test_streaming_equals_sequential_run(spark, tmp_path, algo):
    # the job applies every row on the driver in stream order, so it must
    # reproduce a sequential run over the same rows exactly
    ds = blobs(1200, 2, seed=8)
    lo, hi = exact_extent(ds.feats, ds.metric)
    ks = {0: 3, 1: 3}
    res, stats = run_blobs(spark, tmp_path, ds, lo, hi, algo=algo, ks=ks, eps=0.1, n_files=6)
    seq = make_algo(algo, ds.metric_name, ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=ds.dim)
    seq.update(ds.feats, ds.groups, np.arange(ds.n))
    ref = seq.solve()
    assert np.array_equal(res.ids, ref.ids)
    assert res.mu == ref.mu and res.diversity == ref.diversity
    assert res.n_stored == ref.n_stored
    assert stats.n_batches == 6 and stats.n_rows == ds.n
    assert res.n_stored <= stats.n_survivors <= stats.n_rows


@pytest.mark.parametrize("bad", ["nan", "group9"])
def test_streaming_rejects_bad_row_with_its_id(spark, tmp_path, bad):
    # a row the rejection kernel would drop must still fail at its batch
    ds = blobs(800, 2, seed=6)
    lo, hi = exact_extent(ds.feats, ds.metric)
    if bad == "nan":
        ds.feats[700, 0] = np.nan
    else:
        ds.groups[700] = 9
    with pytest.raises(ValueError, match="stream id 700 "):
        run_blobs(spark, tmp_path, ds, lo, hi)


def test_streaming_rejects_ragged_row_with_its_id(spark, tmp_path):
    ds = blobs(800, 2, seed=6)
    lo, hi = exact_extent(ds.feats, ds.metric)
    inp = str(tmp_path / "input")
    write_stream_input(ds, inp, n_files=8)
    last = os.path.join(inp, "batch-00007.parquet")  # ids 700..799
    st = os.stat(last)
    rows = pq.read_table(last).to_pydict()
    rows["features"][0] = rows["features"][0] + [0.5]
    pq.write_table(pa.Table.from_pydict(rows), last)
    os.utime(last, ns=(st.st_atime_ns, st.st_mtime_ns))
    with pytest.raises(ValueError, match="stream id 700 has 3 features, expected 2"):
        run_streaming_fdm(
            spark, inp, algo="sfdm2", metric=ds.metric_name, ks={0: 2, 1: 2},
            eps=0.2, d_min=lo, d_max=hi, dim=ds.dim,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )


@pytest.mark.parametrize(
    "path, default_fs, local",
    [
        ("/tmp/ckpt", "file:///", True),
        ("/tmp/ckpt", None, True),
        ("relative/ckpt", "file:///", True),
        ("file:///tmp/ckpt", "file:///", True),
        ("file:/tmp/ckpt", "hdfs://nn:8020", True),
        ("hdfs://nn/ckpt", "file:///", False),
        ("s3a://bucket/ckpt", "file:///", False),
        ("/tmp/ckpt", "hdfs://nn:8020", False),
    ],
)
def test_checkpoint_locality_from_path_and_default_fs(path, default_fs, local):
    assert is_local_path(path, default_fs) is local


def test_checkpoint_manager_follows_the_session_default_fs(spark):
    # only the session's Hadoop conf is read; no filesystem is opened
    assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None
    spark.conf.set("fs.defaultFS", "hdfs://nn:8020")
    try:
        with streaming._checkpoint_manager(spark, "/tmp/ckpt"):
            assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None
        with streaming._checkpoint_manager(spark, "file:///tmp/ckpt"):
            assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) == LOCAL_CHECKPOINT_MANAGER
    finally:
        spark.conf.unset("fs.defaultFS")
    assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None


def manager_per_batch(spark, monkeypatch) -> list:
    """Make every solver the job builds record the session's checkpoint
    manager setting at each micro-batch; returns the list it appends to."""
    seen = []
    real = streaming.make_algo

    def make(*args, **kw):
        solver = real(*args, **kw)
        update = solver.update

        def recording(*a, **k):
            seen.append(spark.conf.get(CHECKPOINT_MANAGER_KEY, None))
            return update(*a, **k)

        solver.update = recording
        return solver

    monkeypatch.setattr(streaming, "make_algo", make)
    return seen


def test_local_checkpoint_manager_held_for_every_batch_then_unset(spark, tmp_path, monkeypatch):
    # Spark opens the file source's log on the stream thread after start()
    # returned, so the setting must last until the query terminates
    assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None
    seen = manager_per_batch(spark, monkeypatch)
    ds = blobs(800, 2, seed=6)
    lo, hi = exact_extent(ds.feats, ds.metric)
    _, stats = run_blobs(spark, tmp_path, ds, lo, hi)
    assert stats.n_batches == 8
    assert seen == [LOCAL_CHECKPOINT_MANAGER] * 8
    assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None


def test_caller_checkpoint_manager_kept(spark, tmp_path, monkeypatch):
    seen = manager_per_batch(spark, monkeypatch)
    ds = blobs(800, 2, seed=6)
    lo, hi = exact_extent(ds.feats, ds.metric)
    spark.conf.set(CHECKPOINT_MANAGER_KEY, FILE_CONTEXT_MANAGER)
    try:
        _, stats = run_blobs(spark, tmp_path, ds, lo, hi)
        assert seen == [FILE_CONTEXT_MANAGER] * stats.n_batches
        assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) == FILE_CONTEXT_MANAGER
    finally:
        spark.conf.unset(CHECKPOINT_MANAGER_KEY)


def test_checkpoint_manager_unset_after_a_failed_batch(spark, tmp_path, monkeypatch):
    seen = manager_per_batch(spark, monkeypatch)
    ds = blobs(800, 2, seed=6)
    lo, hi = exact_extent(ds.feats, ds.metric)
    ds.feats[700, 0] = np.nan
    with pytest.raises(ValueError, match="stream id 700 "):
        run_blobs(spark, tmp_path, ds, lo, hi)
    assert seen == [LOCAL_CHECKPOINT_MANAGER] * 8  # the 8th batch raised
    assert spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None
