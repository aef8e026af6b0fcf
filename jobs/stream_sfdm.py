"""spark-submit entrypoint: the Structured Streaming FDM job end-to-end.

Generates a dataset stand-in, materializes it as a parquet file-stream,
estimates the extent from one sample of that parquet input collected to the
driver, then runs SFDM1/SFDM2 as a ``foreachBatch`` streaming job that
collects each micro-batch to the driver and applies it there (DESIGN.md §3),
and prints the fair solution.

Usage: spark-submit jobs/stream_sfdm.py [--dataset adult] [--grouping sex]
           [--algo sfdm2] [--k 20] [--eps 0.1] [--n 20000] [--batches 8]
"""
import argparse
import tempfile

from pyspark.sql import SparkSession

from repro.datasets import adult_like, blobs, celeba_like, census_like, equal_quotas, lyrics_like
from repro.spark.extent import spark_extent
from repro.spark.streaming import STREAM_SCHEMA, run_streaming_fdm, write_stream_input

BUILDERS = {
    "adult": lambda n, grouping: adult_like(n, grouping),
    "celeba": lambda n, grouping: celeba_like(n, grouping),
    "census": lambda n, grouping: census_like(n, grouping),
    "lyrics": lambda n, grouping: lyrics_like(n),
    "blobs": lambda n, grouping: blobs(n, m=int(grouping)),
}


def main(spark: SparkSession, args) -> None:
    ds = BUILDERS[args.dataset](args.n, args.grouping)
    ks = equal_quotas(args.k, ds.groups)
    with tempfile.TemporaryDirectory() as tmp:
        inp, ckpt = f"{tmp}/input", f"{tmp}/ckpt"
        write_stream_input(ds, inp, n_files=args.batches)
        source = spark.read.schema(STREAM_SCHEMA).parquet(inp)
        d_min, d_max = spark_extent(source, ds.metric_name)
        result, stats = run_streaming_fdm(
            spark, inp,
            algo=args.algo, metric=ds.metric_name, ks=ks, eps=args.eps,
            d_min=d_min, d_max=d_max, dim=ds.dim, checkpoint_dir=ckpt,
        )
    print(
        f"dataset={ds.name} n={ds.n} algo={args.algo} k={args.k}\n"
        f"diversity={result.diversity:.4f} stored={result.n_stored} "
        f"batches={stats.n_batches} rows={stats.n_rows} "
        f"survivors={stats.n_survivors} "
        f"(rejection kernel kept {stats.n_survivors / max(stats.n_rows, 1):.1%})\n"
        f"solution ids={sorted(result.ids.tolist())}"
    )


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", choices=sorted(BUILDERS), default="adult")
    ap.add_argument("--grouping", default="sex")
    ap.add_argument("--algo", choices=["sfdm1", "sfdm2"], default="sfdm2")
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--n", type=int, default=20000)
    ap.add_argument("--batches", type=int, default=8)
    args = ap.parse_args()
    spark = SparkSession.builder.config("spark.sql.execution.arrow.pyspark.enabled", "true").appName("stream_sfdm").getOrCreate()
    main(spark, args)
    spark.stop()
