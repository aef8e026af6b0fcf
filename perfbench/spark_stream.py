"""stream-adult-sex: the Structured Streaming job draining an Adult backlog.

The Adult stream, in the permutation of the Table II row, is
written as one parquet file per micro-batch. A timed pass is the Catalyst
extent pre-pass followed by ``run_streaming_fdm`` with SFDM2 in a ``local[n]``
session (n = min(4, cores)), which drains the backlog one file per trigger
(``AvailableNow``). Set-up includes one untimed warm-up drain: the first drain
on a fresh session is about twice as slow as later ones.
"""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import numpy as np

from . import checks
from .pace import Meter
from .tracing import Patches
from .workloads import (
    EPS, K, Capture, Ledger, Outcome, Pass, Sizes, Steps, finish, measure, resolve,
    stream_seeds,
)

STREAM_SWEEPS = 1  # timed drains per run at least, after the warm-up drain


def spark_master() -> str:
    return f"local[{min(4, len(os.sched_getaffinity(0)))}]"


def start_spark(src: str, work: str):
    """A local session whose JVM, Python workers and scratch files stay in ``work``."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The JVM and the Python workers it starts read these at launch. The
    # session is configured here, not by the caller's spark-submit arguments.
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(work, "spark-local")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        x for x in (src, os.environ.get("PYTHONPATH")) if x)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None  # re-read TMPDIR
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(spark_master())
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .config("spark.sql.warehouse.dir", os.path.join(work, "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _listener_class():
    from pyspark.sql.streaming import StreamingQueryListener

    class Progress(StreamingQueryListener):
        """Progress events of every query, by run id. Events arrive on
        another thread, after the query's batches have run."""

        def __init__(self):
            self.started: list[str] = []
            self.progress: dict[str, list] = {}
            self.done = threading.Condition()
            self.terminated: set[str] = set()

        def onQueryStarted(self, event):
            with self.done:
                self.started.append(str(event.runId))

        def onQueryProgress(self, event):
            p = event.progress
            with self.done:
                self.progress.setdefault(str(p.runId), []).append(
                    (p.numInputRows, dict(p.durationMs)))

        def onQueryIdle(self, event):
            pass

        def onQueryTerminated(self, event):
            with self.done:
                self.terminated.add(str(event.runId))
                self.done.notify_all()

        def last_run(self, timeout: float = 60.0):
            """(run id, progress list) of the latest query, once it ended."""
            with self.done:
                run = self.started[-1]
                if not self.done.wait_for(lambda: run in self.terminated, timeout):
                    raise TimeoutError(f"no termination event for query run {run}")
                return run, list(self.progress.get(run, []))

    return Progress


def _tasks(spark, run_id: str) -> int:
    """Tasks of every job the query ran (Spark tags them with its run id)."""
    tracker = spark.sparkContext.statusTracker()
    total = 0
    for job in tracker.getJobIdsForGroup(run_id):
        info = tracker.getJobInfo(job)
        for stage in (tracker.getStageInfo(s) for s in info.stageIds) if info else ():
            total += stage.numTasks if stage else 0
    return total


def stream_adult_sex(sizes: Sizes, seed: int, seconds: float, trace: bool,
                     trace_path: str | None = None, *, src: str, work: str) -> Outcome:
    """The workload, with the host's pace sampled from start to end."""
    with Meter() as meter:
        return _stream_adult_sex(sizes, seed, seconds, trace, trace_path, src, work, meter)


def _stream_adult_sex(sizes, seed, seconds, trace, trace_path, src, work, meter) -> Outcome:
    ledger = Ledger()
    t_setup = perf_counter()
    spark = start_spark(src, work)
    try:
        from repro import _stream_common, datasets
        from repro.spark import extent as spark_extent
        from repro.spark import streaming

        ds = datasets.adult_like(sizes.adult_n, "sex")
        ks = datasets.equal_quotas(K, ds.groups)
        (s,) = stream_seeds(seed, 1)
        perm = np.random.default_rng(s).permutation(ds.n)
        # Stream ids are positions in this permuted order.
        pds = datasets.Dataset(ds.name, ds.feats[perm], ds.groups[perm], ds.metric_name)
        source = os.path.join(work, "input")
        streaming.write_stream_input(pds, source, n_files=sizes.files)
        df = pds.to_spark(spark)
        listener = _listener_class()()
        spark.streams.addListener(listener)
        rows = dict(stream_feats=pds.feats, stream_groups=pds.groups,
                    ks=ks, metric=ds.metric_name)
        drains = []  # (extent, result) of every drain, for the differential check

        def one_pass(steps, tr):
            """One drain. Its steps: the extent pass, the triggerExecution of
            each micro-batch that read rows, the final solve, and the rest of
            the drain (starting and stopping the query, empty triggers)."""
            checkpoint = os.path.join(work, f"checkpoint-{len(drains)}")
            with Patches() as p:
                cap = Capture(p, streaming, solver_factory="make_algo")
                t0 = perf_counter()
                ext = spark_extent.spark_extent(df, ds.metric_name, seed=s)
                t1 = perf_counter()
                out = ledger.run("drain", streaming.run_streaming_fdm,
                                 spark, source, algo="sfdm2", metric=ds.metric_name,
                                 ks=ks, eps=EPS, d_min=ext[0], d_max=ext[1], dim=ds.dim,
                                 checkpoint_dir=checkpoint)
                t2 = perf_counter()
            if out is None:
                raise RuntimeError("the drain failed; no metrics to report")
            res, stats = out
            drains.append((ext, res))
            run_id, progress = listener.last_run()
            # The listener gives the drain's parts as durations, not when
            # they ran, so they are scaled by the pace over the whole drain.
            scale = meter.scale(t1, t2)
            steps.record(("extent",), (t1 - t0) * meter.scale(t0, t1))
            batches = [(n, ms) for n, ms in progress if n > 0]
            for j, (_, ms) in enumerate(batches):
                steps.record(("batch", j), ms["triggerExecution"] / 1e3 * scale)
            steps.record(("solve",), cap.solve_s[0] * scale)
            steps.record(("rest",), (t2 - t1 - cap.solve_s[0]
                                     - sum(ms["triggerExecution"] for _, ms in batches) / 1e3)
                         * scale)
            ledger.check(checks.result_problems("streaming SFDM2", res, **rows))
            resolve(cap.solvers[0], res, ledger, "SFDM2")
            return Pass(
                total_s=t2 - t0,
                diversity=res.diversity,
                n_stored=res.n_stored,
                spark=None if tr is None else {
                    "batches": stats.n_batches,
                    "rows": stats.n_rows,
                    "survivors": stats.n_survivors,
                    "source_rows": sum(n for n, _ in progress),
                    "tasks_per_batch": _tasks(spark, run_id) / max(stats.n_batches, 1),
                    "add_batch_ms": statistics.median(ms["addBatch"] for _, ms in batches),
                    "trigger_ms": statistics.median(
                        ms["triggerExecution"] for _, ms in batches),
                    "add_batch_total_s": sum(ms["addBatch"] for _, ms in progress) / 1e3,
                },
            )

        one_pass(Steps(replays=False), None)  # warm-up drain, part of set-up
        t_ready = perf_counter()
        setup_s = (t_ready - t_setup) * meter.scale(t_setup, t_ready)
        steps, passes, layers = measure(
            one_pass, STREAM_SWEEPS, seconds, trace, f"stream-adult-sex/{seed}", trace_path,
            again=lambda steps, passes: passes.append(one_pass(steps, None)))
        drain_s = steps.sum() - steps.sum("extent") - steps.sum("solve")
        times = {
            "total_s": steps.sum(),
            "update_us": drain_s / ds.n * 1e6,
            "batch_ms_p50": statistics.median(
                steps.value(k) for k in steps.samples if k[0] == "batch") * 1e3,
        }
        # Differential check, outside the timed part: a sequential SFDM2 run
        # over the same rows, in the same order, with the same extent.
        for ext, res in drains:
            if ext != drains[0][0]:
                ledger.check([f"spark_extent differs between drains: {ext} != {drains[0][0]}"])
        d_min, d_max = drains[0][0]
        solver = _stream_common.make_algo(
            "sfdm2", ds.metric_name, ks=ks, eps=EPS, d_min=d_min, d_max=d_max, dim=ds.dim)
        solver.update(pds.feats, pds.groups)
        ref = solver.solve()
        for i, (_, res) in enumerate(drains):
            ledger.check(checks.differential_problems(f"drain {i}", res, ref))
    finally:
        stop_spark(spark)
    return finish(times, passes, layers, setup_s, ledger)
