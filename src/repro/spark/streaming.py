"""Structured Streaming FDM job (the repro target's prescribed shape).

``run_streaming_fdm`` reads a parquet file-stream of (id, group, features)
micro-batches (``maxFilesPerTrigger=1`` + ``Trigger.AvailableNow``) and, in
``foreachBatch``, collects each micro-batch to the driver as one Arrow table
and applies its rows, in stream-id order, to the driver-held
:class:`~repro.core.bank.StreamState`. ``StreamState.update`` rejects each
chunk with the exactly-safe :meth:`~repro.core.bank.StreamState.keep_mask`
kernel before its per-element test, so the driver's kernel is the prefilter
(DESIGN.md §3).

The final state equals a sequential run over the rows in the order the
micro-batches were processed. After the stream drains, the paper's
post-processing runs on the driver over the bounded store only.

A checkpoint on the local filesystem is written through Spark's
FileSystem-based checkpoint manager for the query's whole lifetime
(DESIGN.md §3).
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from urllib.parse import urlsplit

import numpy as np
from pyspark.errors import StreamingQueryException
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from .._stream_common import make_algo
from ..core.stream_dm import DMResult
from ..datasets import Dataset

STREAM_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("group", T.LongType(), False),
        T.StructField("features", T.ArrayType(T.DoubleType()), False),
    ]
)


# Spark's own setting for the class that writes a query's checkpoint logs, and
# the class this job names there for a local checkpoint: its temp file plus
# rename is atomic on a local disk, and Hadoop starts a fifth as many shell
# commands (`readlink`, `chmod`) under it as under Spark's default (DESIGN.md §3).
CHECKPOINT_MANAGER_KEY = "spark.sql.streaming.checkpointFileManagerClass"
LOCAL_CHECKPOINT_MANAGER = (
    "org.apache.spark.sql.execution.streaming.checkpointing.FileSystemBasedCheckpointFileManager"
)


def is_local_path(path: str, default_fs: str | None) -> bool:
    """Whether Hadoop resolves ``path`` to the local filesystem.

    A path with a scheme is local when the scheme is ``file``; a path without
    one resolves against ``default_fs``, Hadoop's ``fs.defaultFS`` (``None``:
    Hadoop's default, ``file:///``). Decided from the strings alone; no
    filesystem is opened.
    """
    scheme = urlsplit(path).scheme or urlsplit(default_fs or "file:///").scheme
    return scheme == "file"


@contextmanager
def _checkpoint_manager(spark: SparkSession, checkpoint_dir: str):
    """Name :data:`LOCAL_CHECKPOINT_MANAGER` in the session while the block runs,
    when ``checkpoint_dir`` is local and the session names no manager itself.

    Spark reads the setting each time it opens a checkpoint log, and it opens
    the file source's log on the stream thread, after ``start()`` returned,
    so the block must span the query until it terminates. On exit the
    setting is unset again, also when the block raises.
    """
    default_fs = spark._jsparkSession.sessionState().newHadoopConf().get("fs.defaultFS")
    held = spark.conf.get(CHECKPOINT_MANAGER_KEY, None) is None and is_local_path(
        checkpoint_dir, default_fs
    )
    if held:
        spark.conf.set(CHECKPOINT_MANAGER_KEY, LOCAL_CHECKPOINT_MANAGER)
    try:
        yield
    finally:
        if held:
            spark.conf.unset(CHECKPOINT_MANAGER_KEY)


def write_stream_input(dataset: Dataset, path: str, *, n_files: int = 8) -> None:
    """Materialize a dataset as ordered parquet part-files (the stream source).

    The file source reads files in order of modification time, in ms, and
    files written within one ms in arbitrary order; so file ``i`` is
    stamped ``n_files - i`` ms before the write began.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    groups = dataset.groups.astype(np.int64)
    feats = np.ascontiguousarray(dataset.feats, dtype=np.float64)
    bounds = np.linspace(0, dataset.n, n_files + 1, dtype=int)
    t0 = time.time_ns()
    for i in range(n_files):
        a, b = bounds[i], bounds[i + 1]
        offsets = np.arange(b - a + 1, dtype=np.int32) * dataset.dim
        table = pa.table(
            {
                "id": np.arange(a, b, dtype=np.int64),
                "group": groups[a:b],
                "features": pa.ListArray.from_arrays(offsets, feats[a:b].ravel()),
            }
        )
        out = os.path.join(path, f"batch-{i:05d}.parquet")
        pq.write_table(table, out)
        stamp = t0 - (n_files - i) * 1_000_000
        os.utime(out, ns=(stamp, stamp))


def _sorted_features(table, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(order, feats)`` of a collected table with ``id`` and ``features`` columns.

    ``order`` sorts the rows by id (stably) and ``feats`` is the ``(rows, dim)``
    feature matrix in that order; ``dim=None`` takes the most common length.
    Raises ``ValueError`` naming the id of the first row whose features are
    not ``dim`` long, before the flattened list column is reshaped: a ragged
    row would misalign every row after it.
    """
    ids = table.column("id").to_numpy()
    order = np.argsort(ids, kind="stable")
    col = table.column("features").combine_chunks()
    lengths = col.value_lengths().fill_null(-1).to_numpy()
    if dim is None:
        vals, counts = np.unique(lengths, return_counts=True)
        dim = int(vals[counts.argmax()])
    bad = np.flatnonzero(lengths[order] != dim)
    if bad.size:
        r = order[bad[0]]
        raise ValueError(
            f"stream id {int(ids[r])} has {int(lengths[r])} features, expected {dim}"
        )
    return order, col.flatten().to_numpy(zero_copy_only=False).reshape(len(ids), dim)[order]


def _batch_arrays(table, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(feats, groups, ids)`` of a collected micro-batch, in stream-id order."""
    order, feats = _sorted_features(table, dim)
    return feats, table.column("group").to_numpy()[order], table.column("id").to_numpy()[order]


@dataclass
class StreamRunStats:
    """Operational counters from a streaming run.

    ``n_rows`` counts the rows of every micro-batch; ``n_survivors`` the rows
    the rejection kernel of ``StreamState.update`` kept for the exact test.
    """

    n_batches: int = 0
    n_rows: int = 0
    n_survivors: int = 0


def run_streaming_fdm(
    spark: SparkSession,
    input_path: str,
    *,
    algo: str,
    metric: str,
    ks: dict[int, int],
    eps: float,
    d_min: float,
    d_max: float,
    dim: int,
    checkpoint_dir: str,
) -> tuple[DMResult, StreamRunStats]:
    """Run SFDM1/SFDM2 as a Structured Streaming job; returns (result, stats).

    A micro-batch that fails (a bad row, say) stops the query, and the
    Python exception it raised is re-raised here in place of Spark's
    ``StreamingQueryException`` wrapper. A checkpoint on the local
    filesystem is written through :data:`LOCAL_CHECKPOINT_MANAGER` unless the
    session already sets :data:`CHECKPOINT_MANAGER_KEY`; the session's
    setting is as it was when this returns or raises.
    """
    solver = make_algo(algo, metric, ks=ks, eps=eps, d_min=d_min, d_max=d_max, dim=dim)
    stats = StreamRunStats()
    failed: list[Exception] = []

    def process_batch(batch_df, batch_id: int) -> None:
        try:
            feats, groups, ids = _batch_arrays(batch_df.toArrow(), dim)
            solver.update(feats, groups, ids)
        except Exception as e:
            failed.append(e)
            raise
        stats.n_batches += 1
        stats.n_rows += len(ids)
        stats.n_survivors = solver.state.n_kept

    stream = (
        spark.readStream.schema(STREAM_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .parquet(input_path)
    )
    with _checkpoint_manager(spark, checkpoint_dir):
        query = (
            stream.writeStream.foreachBatch(process_batch)
            .option("checkpointLocation", checkpoint_dir)
            .trigger(availableNow=True)
            .start()
        )
        try:
            query.awaitTermination()
        except StreamingQueryException:
            if failed:
                raise failed[0]
            raise
    return solver.solve(), stats
