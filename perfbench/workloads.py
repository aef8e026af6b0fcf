"""The sequential workloads and the measurement loop all workloads share.

Every workload uses k = 20 with equal quotas and eps = 0.1. The workload seed
picks the stream permutation and the extent sample; the datasets themselves
are the repository's fixed synthetic stand-ins. All load comes from this one
process, as a closed loop: each call starts when the previous one returned.

A run is made of timed steps: one baseline call, one extent pass, one piece
of a stream's update, one solve, one micro-batch. The pass times every step
where it runs it; a step that can be redone (a baseline call, a solve on an
unchanged state, an update piece replayed on a copy of the state it started
from) is timed again in later sweeps, spread over the run. Every time is
scaled to the reference pace (``pace.py``), and each step keeps the median
of its repetitions. The end-to-end times are sums and medians of the steps'
times. Diversity and store size depend only on the seed, so they repeat
exactly.
"""
from __future__ import annotations

import copy
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import checks
from .pace import scaled
from .tracing import Patches, Tracer, install, layer_metrics

K = 20
EPS = 0.1
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
RESOLVES = 2       # extra solve() calls on each final state


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test shrinks them."""

    adult_n: int = 48_842
    census_n: int = 50_000
    chunk: int = 2_500      # census-m14-anytime: rows between two solves
    piece: int = 500        # rows per timed update step
    files: int = 16         # stream-adult-sex: parquet files, one per micro-batch
    warmup_n: int = 2_000   # sequential set-up: rows in the warm-up runs


def stream_seeds(seed: int, count: int) -> list[int]:
    """Seeds of a run's streams: each picks one permutation and extent sample."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(count)]


class Steps:
    """The timed steps of a run, each the median of its repetitions.

    Keys are tuples, so that a metric can sum every step under a prefix. A
    step given a ``replay`` (a function that redoes the same work and returns
    its scaled duration in seconds) is timed again by every :meth:`sweep`. With
    ``replays=False`` (the traced run) nothing is kept for replaying and
    updates are not split.
    """

    def __init__(self, replays: bool = True):
        self.replays = replays
        self.samples: dict[tuple, list[float]] = {}
        self._again: list[tuple[tuple, object]] = []

    def record(self, key: tuple, seconds: float) -> None:
        """One repetition of step ``key``, in seconds at the reference pace."""
        self.samples.setdefault(key, []).append(seconds)

    def time(self, key: tuple, fn, *a, replay=None, samples: int = 3, **kw):
        out, seconds = scaled(lambda: fn(*a, **kw), samples)
        self.record(key, seconds)
        if replay is not None and self.replays:
            self._again.append((key, replay))
        return out

    def sweep(self) -> None:
        """Time every replayable step once more."""
        for key, replay in self._again:
            self.record(key, replay())

    def value(self, key: tuple) -> float:
        return statistics.median(self.samples[key])

    def sum(self, *prefix) -> float:
        return sum(self.value(k) for k in self.samples if k[:len(prefix)] == prefix)


def _timed(thunk, samples: int = 3) -> float:
    return scaled(thunk, samples)[1]


def timed_update(steps: Steps, key: tuple, solver, feats, groups, piece: int) -> None:
    """``solver.update(feats, groups)`` as steps ``key + (j,)`` of ``piece``
    rows each. A piece is replayed on a copy of the state it started from;
    the program's update is row by row, so the pieces leave the same state as
    one call does. The class method is called, so that instance-level
    wrappers are not."""
    update = type(solver).update
    if not steps.replays:
        steps.time(key + (0,), update, solver, feats, groups)
        return
    for j, lo in enumerate(range(0, len(feats), piece)):
        x, g = feats[lo:lo + piece], groups[lo:lo + piece]
        start = copy.deepcopy(solver)

        def replay(start=start, x=x, g=g):
            trial = copy.deepcopy(start)
            return _timed(lambda: update(trial, x, g))

        steps.time(key + (j,), update, solver, x, g, replay=replay)


def timed_solve(steps: Steps, key: tuple, solver, replay: bool = True):
    """``solver.solve()`` as one step; with ``replay`` it is solved again in
    later sweeps, on a copy of the state it solved."""
    solve = type(solver).solve
    again = None
    if replay and steps.replays:
        state = copy.deepcopy(solver)
        again = lambda: _timed(lambda: solve(state))  # noqa: E731
    return steps.time(key, solve, solver, replay=again)


@dataclass
class Pass:
    """What one pass over a stream returned, besides its steps' times."""

    total_s: float          # wall time of the pass; the traced run compares them
    diversity: float
    n_stored: int
    spark: dict | None = None  # stream-adult-sex: listener and status-tracker readings


@dataclass
class Outcome:
    """A workload's result, before it is printed."""

    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Ledger:
    """Operations attempted and failed, and every problem the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, fn, *a, **kw):
        """Call ``fn``; an exception counts as one failed operation."""
        self.attempted += 1
        try:
            return fn(*a, **kw)
        except Exception:  # any failure of the program is a measured outcome
            self.failed += 1
            print(f"perfbench: {label} failed", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def median_setup(set_up):
    """Set up ``SETUP_REPEATS`` times; return the last state and the median
    time, scaled to the reference pace."""
    times = []
    for _ in range(SETUP_REPEATS):
        state, seconds = scaled(set_up, samples=10)
        times.append(seconds)
    return state, statistics.median(times)


def measure(one_pass, sweeps: int, seconds: float, trace: bool, run_id: str,
            trace_path: str | None, again=None):
    """Untraced: one pass, then sweeps while ``seconds`` last, ``sweeps`` in
    all at least. A sweep is ``again(steps, passes)`` if given (the streaming
    workload makes another pass), else the replay of every replayable step.
    Traced: one untraced and one traced pass, without replays.

    Returns (steps, passes, per-layer metrics or None)."""
    if trace:
        plain = one_pass(Steps(replays=False), None)
        tr = Tracer(run_id)
        steps = Steps(replays=False)
        with Patches() as p:
            install(tr, p)
            with tr.span("bench.pass", "bench"):
                traced = one_pass(steps, tr)
        if trace_path:
            tr.write(trace_path)
        layers = layer_metrics(tr, traced.spark, RESOLVES + 1)
        layers["trace.overhead_s"] = traced.total_s - plain.total_s
        layers["trace.overhead_share"] = layers["trace.overhead_s"] / plain.total_s
        return steps, [plain, traced], layers
    steps = Steps()
    t0 = perf_counter()
    passes = [one_pass(steps, None)]
    done = 1
    while True:
        elapsed = perf_counter() - t0
        if done >= sweeps and elapsed + elapsed / done > seconds:
            return steps, passes, None
        if again is None:
            steps.sweep()
        else:
            again(steps, passes)
        done += 1


def finish(times: dict[str, float], passes: list[Pass], layers, setup_s: float,
           ledger: Ledger) -> Outcome:
    """The workload's metrics: ``times`` (total_s, update_us, batch_ms_p50,
    from the steps' times) and what the passes returned."""
    for name in ("diversity", "n_stored"):
        values = {getattr(p, name) for p in passes}
        if len(values) != 1:
            ledger.check([f"{name} differs between passes: {sorted(values)}"])
    metrics = {
        **times,
        "diversity": passes[0].diversity,
        "n_stored": passes[0].n_stored,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return Outcome(layers or metrics, ledger.attempted, ledger.failed, ledger.problems)


def resolve(solver, first, ledger: Ledger, label: str) -> None:
    """``RESOLVES`` more solve() calls on an unchanged final state; each must
    return the same solution as the first. A traced pass times them all, for
    ``core.sfdm2.solve.final_s``."""
    for _ in range(RESOLVES):
        again = ledger.run(label, solver.solve)
        if again is not None and not (
            np.array_equal(again.ids, first.ids) and again.diversity == first.diversity
        ):
            ledger.check([f"{label}: solve() on an unchanged state changed its answer"])


class Capture:
    """Keeps what the harness computes but does not return: the baselines'
    solutions, and the SFDM solver objects with the result of each one's
    first solve().

    Given ``steps``, a solver's update and first solve are timed as steps
    keyed by the solver's class name (``timed_update``, ``timed_solve``);
    otherwise the first solve's wall time is kept in ``solve_s``."""

    def __init__(self, p: Patches, module, names=(), solver_factory: str | None = None,
                 steps: Steps | None = None, piece: int = 0):
        self.solutions: dict[str, np.ndarray] = {}
        self.solvers: list = []
        self.results: dict[int, object] = {}
        self.solve_s: dict[int, float] = {}
        self.steps, self.piece = steps, piece
        for name in names:
            p.wrap(module, name, self._keep(name))
        if solver_factory:
            p.wrap(module, solver_factory, self._keep_solver)

    def _keep(self, name):
        def make(fn):
            def wrapper(*a, **kw):
                out = fn(*a, **kw)
                self.solutions[name] = out[0] if isinstance(out, tuple) else out
                return out

            return wrapper

        return make

    def _keep_solver(self, fn):
        def wrapper(*a, **kw):
            solver = fn(*a, **kw)
            i = len(self.solvers)
            self.solvers.append(solver)
            name = type(solver).__name__
            steps, bound = self.steps, solver.solve
            if steps is not None:
                def update(feats, groups, ids=None):
                    timed_update(steps, (name, "update"), solver, feats, groups, self.piece)

                solver.update = update

            def solve():
                if i in self.results:
                    return bound()
                if steps is not None:
                    res = timed_solve(steps, (name, "solve"), solver)
                else:
                    t0 = perf_counter()
                    res = bound()
                    self.solve_s[i] = perf_counter() - t0
                self.results[i] = res
                return res

            solver.solve = solve
            return solver

        return wrapper


# -- table2-adult-sex ---------------------------------------------------------

TABLE2_ALGOS = ("GMM", "FairSwap", "FairFlow", "SFDM1", "SFDM2")
TABLE2_SWEEPS = 2  # timings of each step in a run at least: the pass and one replay


def _warm_up(measures, datasets, ds, ks, algos, n: int, seed: int) -> None:
    """Run each algorithm once on an n-row prefix, so lazy set-up is done."""
    warm = datasets.Dataset(ds.name, ds.feats[:n], ds.groups[:n], ds.metric_name)
    wks = datasets.clamp_quotas(ks, warm.groups)
    for algo in algos:
        measures.run_algo(algo, warm, wks, eps=EPS, seed=seed)


def _timed_extent(p: Patches, steps: Steps, module, key: tuple) -> None:
    """Time ``module.estimate_extent`` as a replayable step."""
    def make(fn):
        def wrapper(*a, **kw):
            return steps.time(key, fn, *a, **kw, replay=lambda: _timed(lambda: fn(*a, **kw)))

        return wrapper

    p.wrap(module, "estimate_extent", make)


def table2_adult_sex(sizes: Sizes, seed: int, seconds: float, trace: bool,
                     trace_path: str | None = None) -> Outcome:
    """One Table II row, Adult/sex, run through ``run_algo`` as the harness
    runs it, over one seeded permutation."""
    from repro import datasets
    from repro.harness import measures

    ledger = Ledger()
    (s,) = stream_seeds(seed, 1)

    def set_up():
        ds = datasets.adult_like(sizes.adult_n, "sex")
        ks = datasets.equal_quotas(K, ds.groups)
        _warm_up(measures, datasets, ds, ks, TABLE2_ALGOS, sizes.warmup_n, s)
        return ds, ks

    (ds, ks), setup_s = median_setup(set_up)
    perm = np.random.default_rng(s).permutation(ds.n)  # as run_algo draws it
    rows = dict(stream_feats=ds.feats[perm], stream_groups=ds.groups[perm],
                ks=ks, metric=ds.metric_name)

    def one_pass(steps, tr):
        t0 = perf_counter()
        with Patches() as p:
            cap = Capture(p, measures, ("gmm", "fair_swap", "fair_flow"), "make_algo",
                          steps=steps, piece=sizes.piece)
            ms = {}
            for algo in TABLE2_ALGOS:
                if algo in ("SFDM1", "SFDM2"):
                    with Patches() as pe:
                        _timed_extent(pe, steps, measures, (algo, "extent"))
                        ms[algo] = ledger.run(algo, measures.run_algo, algo, ds, ks,
                                              eps=EPS, seed=s)
                else:
                    def replay(algo=algo):
                        return _timed(lambda: measures.run_algo(algo, ds, ks, eps=EPS, seed=s))

                    ms[algo] = ledger.run(algo, steps.time, (algo,), measures.run_algo,
                                          algo, ds, ks, eps=EPS, seed=s, replay=replay)
        total = perf_counter() - t0
        for algo, name in (("GMM", "gmm"), ("FairSwap", "fair_swap"), ("FairFlow", "fair_flow")):
            if ms[algo] is not None:
                ledger.check(checks.solution_problems(
                    algo, cap.solutions[name], ms[algo].diversity,
                    fair=algo != "GMM", **rows))
        for i, algo in enumerate(("SFDM1", "SFDM2")):
            if ms[algo] is not None:
                ledger.check(checks.result_problems(algo, cap.results[i], **rows))
        sfdm2 = ms["SFDM2"]
        if sfdm2 is None:
            raise RuntimeError("SFDM2 failed; no metrics to report")
        resolve(cap.solvers[1], cap.results[1], ledger, "SFDM2")
        return Pass(total_s=total, diversity=sfdm2.diversity, n_stored=int(sfdm2.n_elem))

    steps, passes, layers = measure(one_pass, TABLE2_SWEEPS, seconds, trace,
                                    f"table2-adult-sex/{seed}", trace_path)
    stream_s = steps.sum("SFDM2", "update")
    times = {
        "total_s": steps.sum(),
        "update_us": stream_s / ds.n * 1e6,
        "batch_ms_p50": stream_s * 1e3,  # run_algo feeds the stream as one batch
    }
    return finish(times, passes, layers, setup_s, ledger)


# -- census-m14-anytime -------------------------------------------------------

CENSUS_SWEEPS = 1  # the pass alone takes about run_seconds


def census_m14_anytime(sizes: Sizes, seed: int, seconds: float, trace: bool,
                       trace_path: str | None = None) -> Outcome:
    """Census sex+age (m = 14): GMM and FairFlow as in Table II, then SFDM2
    fed in chunks with a solve() after every chunk, over one seeded permutation.

    The solves after each chunk are not replayed: that would double the
    length of a sweep. Every other step is, if ``seconds`` leave time."""
    from repro import _stream_common, datasets, extent
    from repro.harness import measures

    ledger = Ledger()
    (s,) = stream_seeds(seed, 1)

    def set_up():
        ds = datasets.census_like(sizes.census_n, "sex+age")
        ks = datasets.equal_quotas(K, ds.groups)
        _warm_up(measures, datasets, ds, ks, ("GMM", "FairFlow", "SFDM2"), sizes.warmup_n, s)
        return ds, ks

    (ds, ks), setup_s = median_setup(set_up)
    perm = np.random.default_rng(s).permutation(ds.n)
    feats, groups = ds.feats[perm], ds.groups[perm]
    rows = dict(stream_feats=feats, stream_groups=groups, ks=ks, metric=ds.metric_name)
    chunks = range(0, ds.n, sizes.chunk)

    def one_pass(steps, tr):
        t0 = perf_counter()
        with Patches() as p:
            cap = Capture(p, measures, ("gmm", "fair_flow"))
            ms = {}
            for algo in ("GMM", "FairFlow"):
                def replay(algo=algo):
                    return _timed(lambda: measures.run_algo(algo, ds, ks, eps=EPS, seed=s))

                ms[algo] = ledger.run(algo, steps.time, (algo,), measures.run_algo,
                                      algo, ds, ks, eps=EPS, seed=s, replay=replay)
        d_min, d_max = steps.time(
            ("extent",), extent.estimate_extent, feats, ds.metric, seed=s,
            replay=lambda: _timed(lambda: extent.estimate_extent(feats, ds.metric, seed=s)))
        solver = _stream_common.make_algo(
            "sfdm2", ds.metric_name, ks=ks, eps=EPS, d_min=d_min, d_max=d_max, dim=ds.dim)
        res = None
        for c, lo in enumerate(chunks):
            hi = min(lo + sizes.chunk, ds.n)
            timed_update(steps, ("update", c), solver, feats[lo:hi], groups[lo:hi],
                         sizes.piece)
            res = ledger.run(f"solve after {hi} rows", timed_solve, steps, ("solve", c),
                             solver, replay=False)
            if res is not None:
                ledger.check(checks.result_problems(
                    f"SFDM2 after {hi} rows", res, n_seen=hi, **rows))
        total = perf_counter() - t0
        for algo, name in (("GMM", "gmm"), ("FairFlow", "fair_flow")):
            if ms[algo] is not None:
                ledger.check(checks.solution_problems(
                    algo, cap.solutions[name], ms[algo].diversity,
                    fair=algo != "GMM", **rows))
        if res is None:
            raise RuntimeError("the solve on the final state failed; no metrics to report")
        resolve(solver, res, ledger, "SFDM2 final")
        return Pass(total_s=total, diversity=res.diversity, n_stored=res.n_stored)

    steps, passes, layers = measure(one_pass, CENSUS_SWEEPS, seconds, trace,
                                    f"census-m14-anytime/{seed}", trace_path)
    times = {
        "total_s": steps.sum(),
        "update_us": steps.sum("update") / ds.n * 1e6,
        "batch_ms_p50": statistics.median(steps.sum("update", c) for c in range(len(chunks)))
        * 1e3,
    }
    return finish(times, passes, layers, setup_s, ledger)
