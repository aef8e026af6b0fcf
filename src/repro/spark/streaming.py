"""Structured Streaming FDM job (the repro target's prescribed shape).

``run_streaming_fdm`` reads a parquet file-stream of (id, group, features)
micro-batches (``maxFilesPerTrigger=1`` + ``Trigger.AvailableNow``) and, in
``foreachBatch``:

1. broadcasts the current candidate state (stored features + per-guess
   membership masks + sizes) to the executors;
2. runs a ``mapInPandas`` **prefilter** that drops every element that cannot
   be accepted by any candidate of any guess — exactly safe, because
   candidates only grow and ``d(x, S)`` only shrinks, so rejection against
   the start-of-batch state implies rejection forever (DESIGN.md §3);
3. collects the (few) survivors and applies them to the driver-held
   :class:`~repro.core.bank.StreamState` in exact sequential order.

The final state equals a sequential run over some permutation of the stream;
the paper's guarantees are permutation-independent. After the stream drains,
the paper's post-processing runs on the driver over the bounded store only.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from .._stream_common import make_algo
from ..core.bank import survives_snapshot
from ..core.stream_dm import DMResult
from ..datasets import Dataset

STREAM_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("group", T.LongType(), False),
        T.StructField("features", T.ArrayType(T.DoubleType()), False),
    ]
)


def write_stream_input(dataset: Dataset, path: str, *, n_files: int = 8) -> None:
    """Materialize a dataset as ordered parquet part-files (the stream source).

    The file source reads files in order of modification time, in ms, and
    files written within one ms in arbitrary order; so file ``i`` is
    stamped ``n_files - i`` ms before the write began.
    """
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    pdf = dataset.to_pandas()
    bounds = np.linspace(0, len(pdf), n_files + 1, dtype=int)
    t0 = time.time_ns()
    for i in range(n_files):
        chunk = pdf.iloc[bounds[i] : bounds[i + 1]]
        table = pa.Table.from_pydict(
            {
                "id": chunk["id"].to_numpy(),
                "group": chunk["group"].to_numpy(),
                "features": list(chunk["features"]),
            }
        )
        out = os.path.join(path, f"batch-{i:05d}.parquet")
        pq.write_table(table, out)
        stamp = t0 - (n_files - i) * 1_000_000
        os.utime(out, ns=(stamp, stamp))


@dataclass
class StreamRunStats:
    """Operational counters from a streaming run."""

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
    """Run SFDM1/SFDM2 as a Structured Streaming job; returns (result, stats)."""
    solver = make_algo(algo, metric, ks=ks, eps=eps, d_min=d_min, d_max=d_max, dim=dim)
    stats = StreamRunStats()
    sc = spark.sparkContext
    # Rows are counted where the prefilter reads them: a count() of each
    # micro-batch would run it again as a second job.
    rows = sc.accumulator(0)

    def process_batch(batch_df, batch_id: int) -> None:
        snap = solver.state.snapshot()
        b = sc.broadcast(snap)

        def prefilter(batches):
            for pdf in batches:
                rows.add(len(pdf))
                if len(pdf) == 0:
                    continue
                keep = survives_snapshot(
                    b.value,
                    np.stack(pdf["features"].to_numpy()),
                    pdf["group"].to_numpy(),
                )
                out = pdf[keep]
                if len(out):
                    yield out

        survivors = (
            batch_df.mapInPandas(prefilter, schema=STREAM_SCHEMA)
            .toPandas()
            .sort_values("id")
        )
        stats.n_batches += 1
        stats.n_rows = rows.value
        stats.n_survivors += len(survivors)
        if len(survivors):
            solver.update(
                np.stack(survivors["features"].to_numpy()),
                survivors["group"].to_numpy(),
                survivors["id"].to_numpy(),
            )
        b.unpersist()

    stream = (
        spark.readStream.schema(STREAM_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .parquet(input_path)
    )
    query = (
        stream.writeStream.foreachBatch(process_batch)
        .option("checkpointLocation", checkpoint_dir)
        .trigger(availableNow=True)
        .start()
    )
    query.awaitTermination()
    return solver.solve(), stats
