"""Benchmark for Table II — every algorithm on representative configurations.

One pedantic round per algorithm (the full-scale Table II numbers are
produced by ``jobs/table2.py``; these benchmarks track the same code paths
at n = 10,000 so regressions are visible in seconds, not minutes).

Streaming algorithms are additionally split into their two phases —
``stream`` (one-pass update; the paper's per-element update time; five
rounds, each on a fresh solver) and ``post`` (solution computation; the
paper's Table II time column). ``stream_phase_cold`` feeds a fresh solver
the first 2,000 Adult rows, the set-up that warms up the repository
benchmark's Table II row, where most rows reach the per-element test.
``post`` times a cold solve: the first solve of a copied solver, whose
distance matrix is completed before the clock starts, because a solver reuses
each guess's result while its candidates are unchanged. ``post_rebuild``
times the first solve of a copy as it is, which rebuilds the store's distance
matrix that copies leave out. ``anytime_solves`` feeds Census m = 14 in ten
chunks with a solve after each, where that reuse applies. ``keep_mask_m14``
times the rejection kernel alone on a warm Census m = 14 state.
"""
import copy

import numpy as np
import pytest

from repro._stream_common import make_algo
from repro.datasets import Dataset, adult_like, census_like, clamp_quotas, equal_quotas, lyrics_like
from repro.extent import estimate_extent
from repro.harness.measures import run_algo

N = 10_000
K = 20


def _config(m):
    if m == 2:
        ds = adult_like(N, "sex")
    elif m == 14:
        ds = census_like(N, "sex+age")
    else:
        ds = lyrics_like(N)  # m = 15
    ks = equal_quotas(K, ds.groups)
    return ds, ks


@pytest.mark.parametrize("algo", ["GMM", "FairSwap", "FairFlow", "SFDM1", "SFDM2"])
def test_full_run_m2(benchmark, algo):
    ds, ks = _config(2)
    m = benchmark.pedantic(
        lambda: run_algo(algo, ds, ks, eps=0.1, seed=0), rounds=1, iterations=1
    )
    assert m.diversity > 0


@pytest.mark.parametrize("algo", ["GMM", "FairFlow", "SFDM2"])
def test_full_run_m14(benchmark, algo):
    ds, ks = _config(14)
    m = benchmark.pedantic(
        lambda: run_algo(algo, ds, ks, eps=0.1, seed=0), rounds=1, iterations=1
    )
    assert m.diversity > 0


def _stream(algo, m, n=N):
    """A function that feeds the first n rows of config m's stream to a
    fresh solver, with the extent estimated from those rows."""
    ds, ks = _config(m)
    if n < N:
        ds = Dataset(ds.name, ds.feats[:n], ds.groups[:n], ds.metric_name)
        ks = clamp_quotas(ks, ds.groups)
    extent = estimate_extent(ds.feats, ds.metric)

    def stream():
        s = make_algo(
            algo, ds.metric_name, ks=ks, eps=0.1,
            d_min=extent[0], d_max=extent[1], dim=ds.dim,
        )
        s.update(ds.feats, ds.groups)
        return s

    return stream


# m = 14 (Census, 25-d Manhattan, 14 groups) also tracks the rejection
# kernel on its small per-group blocks; m = 15 (Lyrics, 50-d angular, 15
# groups) the per-element test, a larger share of its stream phase.
@pytest.mark.parametrize("algo,m", [("sfdm1", 2), ("sfdm2", 2), ("sfdm2", 14), ("sfdm2", 15)])
def test_stream_phase(benchmark, algo, m):
    s = benchmark.pedantic(_stream(algo, m), rounds=5, iterations=1)
    assert s.state.n_stored > 0


@pytest.mark.parametrize("algo", ["sfdm1", "sfdm2"])
def test_stream_phase_cold(benchmark, algo):
    s = benchmark.pedantic(_stream(algo, 2, n=2_000), rounds=5, iterations=1)
    assert s.state.n_stored > 0


def _live_copy(s):
    c = copy.deepcopy(s)
    c.state.distances()
    return (c,), {}


@pytest.mark.parametrize("algo,m", [("sfdm1", 2), ("sfdm2", 2), ("sfdm2", 14)])
def test_post_phase(benchmark, algo, m):
    s = _stream(algo, m)()
    res = benchmark.pedantic(
        lambda c: c.solve(), setup=lambda: _live_copy(s), rounds=3, iterations=1
    )
    assert np.unique(res.groups, return_counts=True)[1].sum() == K


@pytest.mark.parametrize("algo,m", [("sfdm1", 2), ("sfdm2", 2), ("sfdm2", 14)])
def test_post_phase_rebuild(benchmark, algo, m):
    # What a copied or restored solver pays: each round solves a fresh deep
    # copy (made in the untimed setup), so SFDM2 rebuilds its distance matrix.
    s = _stream(algo, m)()
    res = benchmark.pedantic(
        lambda c: c.solve(), setup=lambda: ((copy.deepcopy(s),), {}), rounds=3, iterations=1
    )
    assert np.unique(res.groups, return_counts=True)[1].sum() == K


@pytest.mark.parametrize("algo,m", [("sfdm2", 14)])
def test_anytime_solves(benchmark, algo, m):
    ds, ks = _config(m)
    extent = estimate_extent(ds.feats, ds.metric)

    def anytime():
        s = make_algo(
            algo, ds.metric_name, ks=ks, eps=0.1,
            d_min=extent[0], d_max=extent[1], dim=ds.dim,
        )
        for piece in np.array_split(np.arange(N), 10):
            s.update(ds.feats[piece], ds.groups[piece])
            res = s.solve()
        return res

    res = benchmark.pedantic(anytime, rounds=1, iterations=1)
    assert np.unique(res.groups, return_counts=True)[1].sum() == K


def test_keep_mask_m14(benchmark):
    # The rejection kernel over 500-row chunks of Census m = 14, on a deep
    # copy (made in the untimed setup) of an SFDM2 state fed 25,000 rows:
    # its 15 banks' per-call cost, which the update's timing mixes with the
    # per-element test.
    ds = census_like(30_000, "sex+age")
    ks = equal_quotas(K, ds.groups)
    d_min, d_max = estimate_extent(ds.feats, ds.metric)
    s = make_algo("sfdm2", ds.metric_name, ks=ks, eps=0.1, d_min=d_min, d_max=d_max, dim=ds.dim)
    s.update(ds.feats[:25_000], ds.groups[:25_000])
    chunks = [(ds.feats[lo : lo + 500], ds.groups[lo : lo + 500]) for lo in range(25_000, 30_000, 500)]

    def kernel(st):
        return sum(int(st.keep_mask(x, g).sum()) for x, g in chunks)

    kept = benchmark.pedantic(
        kernel, setup=lambda: ((copy.deepcopy(s.state),), {}), rounds=10, iterations=1
    )
    assert 0 < kept < 5_000
