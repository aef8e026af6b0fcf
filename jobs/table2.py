"""spark-submit entrypoint reproducing Table II (algorithm overview, k = 20).

Runs every applicable algorithm per (dataset, grouping) row, prints the
paper-style table and writes the raw measures to ``table2_measured.csv``.

Usage: spark-submit jobs/table2.py [--k 20] [--runs 1] [--scale 1.0]
                                   [--quota equal|proportional] [--out CSV]
"""
import argparse
import sys

from pyspark.sql import SparkSession

from repro.harness.table2 import format_table2, run_table2


def main(spark: SparkSession, args) -> None:
    # The core run is driver-side (the paper's algorithms are sequential by
    # definition); jobs/stream_sfdm.py is the Structured Streaming path.
    df = run_table2(
        k=args.k,
        runs=args.runs,
        scale=args.scale,
        quota=args.quota,
        progress=lambda s: print(s, file=sys.stderr, flush=True),
    )
    print(format_table2(df))
    df.to_csv(args.out, index=False)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--k", type=int, default=20)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--quota", choices=["equal", "proportional"], default="equal")
    ap.add_argument("--out", default="table2_measured.csv")
    args = ap.parse_args()
    spark = SparkSession.builder.config("spark.sql.execution.arrow.pyspark.enabled", "true").appName("table2").getOrCreate()
    main(spark, args)
    spark.stop()
