"""Tracing from outside the program, for the traced run (``--trace 1``).

The wrappers here are installed around the public functions the program
calls through: class attributes (``Metric.pairwise``, ``StreamState.update``,
``SparkContext.broadcast``) and module-level names as the calling module
looks them up (``threshold_clusters`` in ``repro.core.sfdm2``). No program
file changes, and everything is restored when the traced pass ends.

Every wrapped call is timed, and its duration is charged to the caller's
frame, so each layer's self time is its time minus that of the calls it made
into other wrapped functions. Spans (id, name, start, end, parent, run id)
are kept in memory and written out once, at the end. The per-element calls
(``point_to_rows``, ``accept_mask``) are timed without a span, and
``PartitionMatroid.can_add`` is only counted: the census workload makes
millions of them.

The frame stack is shared by all threads. That is sound here because the one
other thread that runs program code, the py4j callback thread that runs
``foreachBatch``, only does so while the main thread waits inside
``run_streaming_fdm``.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from .spec import LAYERS, PER_LAYER


class Patches:
    """Attribute replacements that are undone together, in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(owner.attr)``."""
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class _Span:
    __slots__ = ("tracer", "name", "layer", "sid", "parent", "child", "t0", "t1")

    def __init__(self, tracer: "Tracer", name: str, layer: str):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self) -> "_Span":
        tr = self.tracer
        self.parent = tr._stack[-1].sid if tr._stack else None
        self.sid = tr._next_sid
        tr._next_sid += 1
        self.child = 0.0
        tr._stack.append(self)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = t1 = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        d = t1 - self.t0
        tr.calls[self.name] += 1
        tr.seconds[self.name] += d
        tr.self_s[self.layer] += d - self.child
        if tr._stack:
            tr._stack[-1].child += d
        tr.spans.append((self.sid, self.name, self.t0, t1, self.parent, tr.run_id))


class Tracer:
    """Span store plus per-name call counts, seconds and counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.last: dict[str, float] = {}
        self.sfdm2_solves: list[float] = []  # duration of each SFDM2.solve call
        self._stack: list[_Span] = []
        self._next_sid = 0

    def span(self, name: str, layer: str) -> _Span:
        return _Span(self, name, layer)

    def timed(self, name: str, layer: str):
        """Wrapper factory for :meth:`Patches.wrap`: one span per call."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                with self.span(name, layer):
                    return fn(*a, **kw)

            return wrapper

        return make

    def leaf(self, name: str, layer: str):
        """Like :meth:`timed` without a span, for calls that make no wrapped
        calls themselves and happen once per stream element."""
        calls, seconds, self_s, stack = self.calls, self.seconds, self.self_s, self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                t0 = perf_counter()
                try:
                    return fn(*a, **kw)
                finally:
                    d = perf_counter() - t0
                    calls[name] += 1
                    seconds[name] += d
                    self_s[layer] += d
                    if stack:
                        stack[-1].child += d

            return wrapper

        return make

    def counted(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*a, **kw):
                self.counts[name] += 1
                return fn(*a, **kw)

            return wrapper

        return make

    def write(self, path: str) -> None:
        """Write every kept span as one JSON line."""
        with open(path, "w") as f:
            for sid, name, t0, t1, parent, run in self.spans:
                f.write(json.dumps(
                    {"id": sid, "name": name, "start": t0, "end": t1,
                     "parent": parent, "run": run}) + "\n")


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(v) for v in obj)
    return 0


def _fair_guesses(solver) -> int:
    """|U'|: guesses whose blind candidate is full and every group candidate
    holds at least its quota (the guesses SFDM2 post-processes)."""
    st = solver.state
    ok = st.blind.sizes == solver.k
    for grp, kg in solver.ks.items():
        ok &= st.group_banks[grp].sizes >= kg
    return int(ok.sum())


def install(tr: Tracer, p: Patches) -> None:
    """Wrap every layer boundary of the program; ``p.restore()`` undoes it."""
    from repro import diversity, extent, metrics
    from repro.core import bank, sfdm1, sfdm2
    from repro.harness import measures
    from repro.matroid import partition

    p.wrap(metrics.Metric, "point_to_rows", tr.leaf("metrics.point_to_rows", "metrics"))

    def pairwise(fn):
        @functools.wraps(fn)
        def wrapper(self, A, B):
            with tr.span("metrics.pairwise", "metrics"):
                out = fn(self, A, B)
            tr.counts["metrics.pairwise.cells"] += out.size
            return out

        return wrapper

    p.wrap(metrics.Metric, "pairwise", pairwise)
    p.wrap(bank.CandidateBank, "accept_mask", tr.leaf("core.bank.accept_mask", "core.bank"))

    def update(fn):
        @functools.wraps(fn)
        def wrapper(self, feats, groups=None, ids=None):
            before = self.n_stored
            with tr.span("core.bank.update", "core.bank"):
                fn(self, feats, groups, ids)
            tr.counts["core.bank.update.rows_seen"] += len(np.atleast_2d(feats))
            tr.counts["core.bank.update.rows_stored"] += self.n_stored - before

        return wrapper

    p.wrap(bank.StreamState, "update", update)

    def snapshot(fn):
        @functools.wraps(fn)
        def wrapper(self):
            with tr.span("core.bank.snapshot", "core.bank"):
                out = fn(self)
            tr.counts["core.bank.snapshot.bytes"] += _nbytes(out)
            return out

        return wrapper

    p.wrap(bank.StreamState, "snapshot", snapshot)

    def solve2(fn):
        @functools.wraps(fn)
        def wrapper(self):
            solved = _fair_guesses(self)
            with tr.span("core.sfdm2.solve", "core.sfdm2") as sp:
                res = fn(self)
            tr.sfdm2_solves.append(sp.t1 - sp.t0)
            tr.last["core.sfdm2.solve.guesses"] = len(self.mus)
            tr.last["core.sfdm2.solve.guesses_solved"] = solved
            tr.last["core.sfdm2.solve.winner_index"] = int(
                np.flatnonzero(self.mus == res.mu)[0])
            return res

        return wrapper

    p.wrap(sfdm2.SFDM2, "solve", solve2)
    p.wrap(sfdm1.SFDM1, "update", tr.timed("core.sfdm1.update", "core.sfdm1"))
    p.wrap(sfdm1.SFDM1, "solve", tr.timed("core.sfdm1.solve", "core.sfdm1"))
    p.wrap(sfdm1, "swap_balance", tr.counted("core.sfdm1.swap_balance.calls"))
    p.wrap(sfdm2, "threshold_clusters",
           tr.timed("core.clustering.threshold_clusters", "core.clustering"))
    p.wrap(sfdm2, "max_common_independent_set",
           tr.timed("matroid.intersection", "matroid"))
    p.wrap(partition.PartitionMatroid, "can_add", tr.counted("matroid.can_add.calls"))
    for name in ("gmm", "fair_swap", "fair_flow"):
        p.wrap(measures, name, tr.timed(f"baselines.{name}", "baselines"))
    for mod in (extent, measures):
        p.wrap(mod, "estimate_extent", tr.timed("extent.estimate_extent", "extent"))
    # div is imported by name into many modules; wrap it wherever it is bound.
    original_div = diversity.div
    for mod in [m for n, m in list(sys.modules.items()) if n.startswith("repro")]:
        if getattr(mod, "div", None) is original_div:
            p.wrap(mod, "div", tr.timed("diversity.div", "diversity"))
    if "repro.spark.streaming" in sys.modules:
        _install_spark(tr, p)


def _install_spark(tr: Tracer, p: Patches) -> None:
    from pyspark import SparkContext

    from repro.spark import extent as spark_extent
    from repro.spark import streaming

    p.wrap(spark_extent, "spark_extent",
           tr.timed("spark.extent.spark_extent", "spark.extent"))
    p.wrap(streaming, "run_streaming_fdm",
           tr.timed("spark.streaming.run", "spark.streaming"))
    p.wrap(SparkContext, "broadcast",
           tr.timed("spark.streaming.broadcast", "spark.streaming"))


def layer_metrics(tr: Tracer, spark: dict | None, final_solves: int) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead.

    ``spark`` holds what the streaming workload read from its listener and
    from Spark's status tracker; layers a workload bypasses report 0. The
    last ``final_solves`` SFDM2 solves of the pass are on its final state.
    """
    c, s, n = tr.calls, tr.seconds, tr.counts
    seen = n["core.bank.update.rows_seen"]
    solves = tr.sfdm2_solves
    out = {
        "extent.s": s["extent.estimate_extent"],
        "spark.extent.s": s["spark.extent.spark_extent"],
        "metrics.point_to_rows.calls": c["metrics.point_to_rows"],
        "metrics.point_to_rows.s": s["metrics.point_to_rows"],
        "metrics.pairwise.calls": c["metrics.pairwise"],
        "metrics.pairwise.cells": n["metrics.pairwise.cells"],
        "metrics.pairwise.s": s["metrics.pairwise"],
        "core.bank.update.calls": c["core.bank.update"],
        "core.bank.update.s": s["core.bank.update"],
        "core.bank.update.rows_seen": seen,
        "core.bank.update.rows_stored": n["core.bank.update.rows_stored"],
        "core.bank.update.accept_ratio":
            n["core.bank.update.rows_stored"] / seen if seen else 0.0,
        "core.bank.accept_mask.calls": c["core.bank.accept_mask"],
        "core.bank.accept_mask.s": s["core.bank.accept_mask"],
        "core.bank.snapshot.s": s["core.bank.snapshot"],
        "core.bank.snapshot.bytes": n["core.bank.snapshot.bytes"],
        "core.sfdm2.solve.calls": c["core.sfdm2.solve"],
        "core.sfdm2.solve.s": s["core.sfdm2.solve"],
        "core.sfdm2.solve.guesses": tr.last.get("core.sfdm2.solve.guesses", 0),
        "core.sfdm2.solve.guesses_solved":
            tr.last.get("core.sfdm2.solve.guesses_solved", 0),
        "core.sfdm2.solve.winner_index": tr.last.get("core.sfdm2.solve.winner_index", 0),
        "core.sfdm2.solve.final_s": min(solves[-final_solves:], default=0.0),
        "core.sfdm2.solve.p50_ms": statistics.median(solves) * 1e3 if solves else 0.0,
        "core.sfdm1.update.s": s["core.sfdm1.update"],
        "core.sfdm1.solve.s": s["core.sfdm1.solve"],
        "core.sfdm1.swap_balance.calls": n["core.sfdm1.swap_balance.calls"],
        "core.clustering.threshold_clusters.calls": c["core.clustering.threshold_clusters"],
        "core.clustering.threshold_clusters.s": s["core.clustering.threshold_clusters"],
        "matroid.intersection.calls": c["matroid.intersection"],
        "matroid.intersection.s": s["matroid.intersection"],
        "matroid.can_add.calls": n["matroid.can_add.calls"],
        "diversity.div.calls": c["diversity.div"],
        "diversity.div.s": s["diversity.div"],
        "baselines.gmm.s": s["baselines.gmm"],
        "baselines.fair_swap.s": s["baselines.fair_swap"],
        "baselines.fair_flow.s": s["baselines.fair_flow"],
        **{f"{layer}.self_s": tr.self_s[layer] for layer in LAYERS},
    }
    sp = spark or {}
    rows = sp.get("rows", 0)
    broadcast_s = s["spark.streaming.broadcast"]
    # During a drain, StreamState.update runs only on the driver, for the
    # survivors of each micro-batch.
    apply_s = s["core.bank.update"] if sp else 0.0
    out.update({
        "spark.streaming.batches": sp.get("batches", 0),
        "spark.streaming.rows": rows,
        "spark.streaming.survivors": sp.get("survivors", 0),
        "spark.streaming.pass_ratio": sp.get("survivors", 0) / rows if rows else 0.0,
        "spark.streaming.source_rows": sp.get("source_rows", 0),
        "spark.streaming.tasks_per_batch": sp.get("tasks_per_batch", 0.0),
        "spark.streaming.add_batch_ms": sp.get("add_batch_ms", 0.0),
        "spark.streaming.trigger_ms": sp.get("trigger_ms", 0.0),
        "spark.streaming.broadcast.s": broadcast_s,
        "spark.streaming.driver_apply.s": apply_s,
        # Derived: what is left of addBatch once the driver-side parts are
        # taken out is the executor prefilter, the collect and the extra
        # count() job, which driver-side wrappers cannot see.
        "spark.streaming.prefilter_collect.s": (
            sp["add_batch_total_s"] - s["core.bank.snapshot"] - broadcast_s - apply_s
            if sp else 0.0
        ),
    })
    missing = set(PER_LAYER) - set(out) - {"trace.overhead_s", "trace.overhead_share"}
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
