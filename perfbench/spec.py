"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; the self-test
keeps the two in step.
"""
from __future__ import annotations

WORKLOADS = ("table2-adult-sex", "census-m14-anytime", "stream-adult-sex")

# name -> (unit, better). Every workload reports every one of these.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "update_us": ("us", "lower"),
    "batch_ms_p50": ("ms", "lower"),
    "diversity": ("distance", "higher"),
    "n_stored": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Layers, named after the modules under src/repro they time. "bench" is the
# part of a traced pass that no layer wrapper covers: the harness's permutation
# copies and the benchmark's own loop.
LAYERS = (
    "bench",
    "extent",
    "spark.extent",
    "metrics",
    "core.bank",
    "core.sfdm2",
    "core.sfdm1",
    "core.clustering",
    "matroid",
    "diversity",
    "baselines",
    "spark.streaming",
)

_LAYER_METRICS = {
    "extent.s": "s",
    "spark.extent.s": "s",
    "metrics.point_to_rows.calls": "count",
    "metrics.point_to_rows.s": "s",
    "metrics.pairwise.calls": "count",
    "metrics.pairwise.cells": "count",
    "metrics.pairwise.s": "s",
    "core.bank.update.calls": "count",
    "core.bank.update.s": "s",
    "core.bank.update.rows_seen": "count",
    "core.bank.update.rows_stored": "count",
    "core.bank.update.accept_ratio": "ratio",
    "core.bank.accept_mask.calls": "count",
    "core.bank.accept_mask.s": "s",
    "core.bank.snapshot.s": "s",
    "core.bank.snapshot.bytes": "bytes",
    "core.sfdm2.solve.calls": "count",
    "core.sfdm2.solve.s": "s",
    "core.sfdm2.solve.guesses": "count",
    "core.sfdm2.solve.guesses_solved": "count",
    "core.sfdm2.solve.winner_index": "index",
    "core.sfdm2.solve.final_s": "s",
    "core.sfdm2.solve.p50_ms": "ms",
    "core.sfdm1.update.s": "s",
    "core.sfdm1.solve.s": "s",
    "core.sfdm1.swap_balance.calls": "count",
    "core.clustering.threshold_clusters.calls": "count",
    "core.clustering.threshold_clusters.s": "s",
    "matroid.intersection.calls": "count",
    "matroid.intersection.s": "s",
    "matroid.can_add.calls": "count",
    "diversity.div.calls": "count",
    "diversity.div.s": "s",
    "baselines.gmm.s": "s",
    "baselines.fair_swap.s": "s",
    "baselines.fair_flow.s": "s",
    "spark.streaming.batches": "count",
    "spark.streaming.rows": "count",
    "spark.streaming.survivors": "count",
    "spark.streaming.pass_ratio": "ratio",
    "spark.streaming.source_rows": "count",
    "spark.streaming.tasks_per_batch": "count",
    "spark.streaming.add_batch_ms": "ms",
    "spark.streaming.trigger_ms": "ms",
    "spark.streaming.broadcast.s": "s",
    "spark.streaming.driver_apply.s": "s",
    "spark.streaming.prefilter_collect.s": "s",
}

# name -> unit. Reported by traced runs (--trace 1) only.
PER_LAYER = {
    **_LAYER_METRICS,
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "bytes", "index")
)
