"""Per-algorithm measurement runner used by the Table II harness.

Timing accounting follows the paper (see DESIGN.md §4): for the streaming
algorithms the Table II ``time`` column is the post-processing (solution
computation) cost and the one-pass stream cost is reported separately as an
average per-element update time; for the offline algorithms it is the full
run, since producing a current solution in a streaming setting requires
re-scanning all n elements.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .._stream_common import make_algo
from ..baselines.fair_flow import fair_flow
from ..baselines.fair_gmm import fair_gmm
from ..baselines.fair_swap import fair_swap
from ..baselines.gmm import gmm
from ..datasets import Dataset
from ..diversity import div
from ..extent import estimate_extent


@dataclass
class Measure:
    """One algorithm's metrics on one (dataset, grouping, k) configuration."""

    algo: str
    diversity: float
    time_s: float            # the paper's Table II "time(s)" analogue
    stream_s: float = float("nan")   # streaming algos: one-pass total
    update_us: float = float("nan")  # streaming algos: avg per-element update
    n_elem: float = float("nan")     # streaming algos: stored elements


def run_algo(
    algo: str,
    ds: Dataset,
    ks: dict[int, int],
    *,
    eps: float = 0.1,
    seed: int = 0,
    extent: tuple[float, float] | None = None,
) -> Measure:
    """Run one algorithm on a random permutation of ``ds`` (seeded)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ds.n)
    feats, groups = ds.feats[perm], ds.groups[perm]
    metric = ds.metric
    k = sum(ks.values())
    if algo == "GMM":
        t0 = time.perf_counter()
        idx = gmm(feats, k, metric)
        d = div(feats[idx], metric)
        return Measure(algo, d, time.perf_counter() - t0)
    # built per call, so a module attribute replaced after import is the one called
    fair = {"FairSwap": fair_swap, "FairFlow": fair_flow, "FairGMM": fair_gmm}.get(algo)
    if fair is not None:
        t0 = time.perf_counter()
        _, d = fair(feats, groups, ks, metric)
        return Measure(algo, d, time.perf_counter() - t0)
    if algo in ("SFDM1", "SFDM2"):
        if extent is None:
            extent = estimate_extent(feats, metric, seed=seed)
        d_min, d_max = extent
        solver = make_algo(
            algo.lower(), ds.metric_name, ks=ks, eps=eps,
            d_min=d_min, d_max=d_max, dim=ds.dim,
        )
        t0 = time.perf_counter()
        solver.update(feats, groups)
        t1 = time.perf_counter()
        res = solver.solve()
        t2 = time.perf_counter()
        return Measure(
            algo,
            res.diversity,
            time_s=t2 - t1,
            stream_s=t1 - t0,
            update_us=(t1 - t0) / ds.n * 1e6,
            n_elem=res.n_stored,
        )
    raise ValueError(f"unknown algorithm {algo!r}")


def average(measures: list[Measure]) -> Measure:
    """Mean of repeated runs of the same algorithm/configuration."""
    a = measures[0].algo

    def m(f):
        v = [getattr(x, f) for x in measures]
        return float(np.mean(v))

    return Measure(
        a, m("diversity"), m("time_s"), m("stream_s"), m("update_us"), m("n_elem")
    )
