"""Offline baselines: FairSwap, FairFlow, FairGMM — fairness + quality."""
import numpy as np
import pytest

from repro.baselines.fair_flow import fair_flow
from repro.baselines.fair_gmm import fair_gmm
from repro.baselines.fair_swap import fair_swap
from repro.diversity import div
from repro.extent import exact_extent
from repro.metrics import get_metric
from tests.post_oracle import brute_fair_opt

MET = get_metric("euclidean")


def two_group_instance(seed, n=100):
    g = np.random.default_rng(seed)
    return g.normal(size=(n, 2)), g.integers(0, 2, n)


# -- FairSwap ---------------------------------------------------------------

def test_fair_swap_group_counts():
    X, grp = two_group_instance(0)
    idx, d = fair_swap(X, grp, {0: 3, 1: 7}, "euclidean")
    assert int((grp[idx] == 0).sum()) == 3
    assert int((grp[idx] == 1).sum()) == 7
    assert d == pytest.approx(div(X[idx], MET))


@pytest.mark.parametrize("seed", range(8))
def test_fair_swap_quarter_bound(seed):
    g = np.random.default_rng(seed)
    X = g.normal(size=(12, 2))
    grp = np.array([0, 1] * 6)
    ks = {0: 2, 1: 2}
    optf = brute_fair_opt(X, grp, ks, MET)
    _, d = fair_swap(X, grp, ks, "euclidean")
    assert d >= optf / 4 - 1e-9


def test_fair_swap_requires_two_groups():
    X, grp = two_group_instance(1)
    with pytest.raises(ValueError):
        fair_swap(X, grp, {0: 1, 1: 1, 2: 1}, "euclidean")


def test_fair_swap_infeasible_quota():
    X = np.random.default_rng(2).normal(size=(20, 2))
    grp = np.zeros(20, dtype=int)
    grp[0] = 1
    with pytest.raises(ValueError, match="quota"):
        fair_swap(X, grp, {0: 2, 1: 3}, "euclidean")


def test_fair_swap_already_balanced_no_change_needed():
    # alternating far-apart line: GMM's unconstrained pick is already fair
    X = np.arange(20.0)[:, None] * 10
    grp = np.array([0, 1] * 10)
    idx, d = fair_swap(X, grp, {0: 2, 1: 2}, "euclidean")
    assert int((grp[idx] == 0).sum()) == 2


# -- FairFlow ---------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 5])
def test_fair_flow_group_counts(m):
    g = np.random.default_rng(3)
    X = g.normal(size=(300, 2)) * 3
    grp = g.integers(0, m, 300)
    ks = {i: 2 for i in range(m)}
    idx, d = fair_flow(X, grp, ks, "euclidean")
    for i in range(m):
        assert int((grp[idx] == i).sum()) == 2
    assert d == pytest.approx(div(X[idx], MET))


@pytest.mark.parametrize("seed", range(6))
def test_fair_flow_positive_fraction_of_opt(seed):
    g = np.random.default_rng(seed + 10)
    X = g.normal(size=(12, 2))
    grp = np.array([0, 1, 2] * 4)
    ks = {0: 1, 1: 2, 2: 1}
    optf = brute_fair_opt(X, grp, ks, MET)
    _, d = fair_flow(X, grp, ks, "euclidean")
    assert 0 < d <= optf + 1e-9
    # the ICDT guarantee is 1/(3m-1); allow the geometric-search slack
    assert d >= optf / (3 * 3 - 1) * 0.9 - 1e-9


def test_fair_flow_infeasible_quota():
    X = np.random.default_rng(4).normal(size=(20, 2))
    grp = np.zeros(20, dtype=int)
    with pytest.raises(ValueError, match="quota"):
        fair_flow(X, grp, {0: 2, 1: 2}, "euclidean")


@pytest.mark.parametrize("m,metric", [(2, "euclidean"), (3, "manhattan"), (5, "angular")])
def test_fair_flow_matches_per_step_clustering(m, metric):
    # Reference: the mu search re-clustering the coreset from its features at
    # every step; fair_flow builds the coreset's matrix once. Group 0 sits in
    # a tight ball, so the search shrinks mu 50-70 times before it succeeds.
    from repro.baselines.gmm import gmm
    from repro.matroid.intersection import max_common_independent_set
    from repro.matroid.partition import PartitionMatroid
    from tests.post_oracle import oracle_threshold_clusters

    g = np.random.default_rng(m)
    X = g.uniform(1, 4, size=(400, 4))
    grp = g.integers(0, m, 400)
    X[grp == 0] = 2 + 0.05 * g.random(size=((grp == 0).sum(), 4))
    ks = {i: 2 + i % 2 for i in range(m)}
    met, k = get_metric(metric), sum(ks.values())
    core = []
    for i, kg in ks.items():
        members = np.flatnonzero(grp == i)
        core.extend(members[gmm(X[members], min(k, len(members)), met)].tolist())
    core_idx = np.array(sorted(set(core)))
    mu = 2.0 * div(X[gmm(X, k, met)], met)
    while True:
        labels = oracle_threshold_clusters(X[core_idx], met, mu / (m + 1))
        sol = max_common_independent_set(
            PartitionMatroid(grp[core_idx], ks), PartitionMatroid(labels, 1), target=k
        )
        if len(sol) == k:
            break
        mu *= 0.95
    want = core_idx[sorted(sol)]
    idx, d = fair_flow(X, grp, ks, metric)
    assert np.array_equal(idx, want) and d == div(X[want], met)


def test_fair_flow_quality_degrades_vs_sfdm2_for_large_m():
    # the reproduced paper's headline comparison (Table II, m large)
    from repro.core.sfdm2 import SFDM2

    g = np.random.default_rng(5)
    X = g.normal(size=(800, 2)) * 5
    grp = g.integers(0, 8, 800)
    ks = {i: 2 for i in range(8)}
    _, d_flow = fair_flow(X, grp, ks, "euclidean")
    lo, hi = exact_extent(X, MET)
    s = SFDM2("euclidean", ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=2)
    s.update(X, grp)
    d_s2 = s.solve().diversity
    assert d_s2 >= d_flow


# -- FairGMM ----------------------------------------------------------------

def test_fair_gmm_group_counts():
    X, grp = two_group_instance(6, n=60)
    idx, d = fair_gmm(X, grp, {0: 2, 1: 3}, "euclidean")
    assert int((grp[idx] == 0).sum()) == 2
    assert int((grp[idx] == 1).sum()) == 3


@pytest.mark.parametrize("seed", range(6))
def test_fair_gmm_fifth_bound(seed):
    g = np.random.default_rng(seed + 20)
    X = g.normal(size=(12, 2))
    grp = np.array([0, 1] * 6)
    ks = {0: 2, 1: 2}
    optf = brute_fair_opt(X, grp, ks, MET)
    _, d = fair_gmm(X, grp, ks, "euclidean")
    assert d >= optf / 5 - 1e-9


def test_fair_gmm_beats_or_matches_fair_swap_small_k():
    # paper Fig. 6: FairGMM slightly better for small k, m=2
    X, grp = two_group_instance(7, n=80)
    ks = {0: 2, 1: 2}
    _, d_g = fair_gmm(X, grp, ks, "euclidean")
    _, d_s = fair_swap(X, grp, ks, "euclidean")
    assert d_g >= d_s * 0.9


@pytest.mark.parametrize("m", [2, 3, 5])
def test_group_gmm_prefixes_are_per_group_gmm(m):
    # FairFlow's and FairGMM's coreset: per group, GMM over its rows with
    # min(k, group size) points. The last group keeps 3 rows, fewer than k.
    from repro.baselines.gmm import gmm, group_gmm_prefixes

    g = np.random.default_rng(3)
    X = g.normal(size=(300, 2)) * 3
    grp = g.integers(0, m, 300)
    grp[np.flatnonzero(grp == m - 1)[3:]] = 0
    ks = {i: 2 + i % 2 for i in range(m)}
    k = sum(ks.values())
    prefixes = group_gmm_prefixes(X, grp, ks, MET)
    assert list(prefixes) == sorted(ks)
    for i in ks:
        members = np.flatnonzero(grp == i)
        want = members[gmm(X[members], min(k, len(members)), MET)]
        assert np.array_equal(prefixes[i], want)


def test_fair_gmm_combinatorial_guard():
    g = np.random.default_rng(8)
    X = g.normal(size=(4000, 2))
    grp = g.integers(0, 10, 4000)
    ks = {i: 4 for i in range(10)}  # C(40,4)^10-scale blowup
    with pytest.raises(ValueError, match="does not scale"):
        fair_gmm(X, grp, ks, "euclidean")


def test_fair_gmm_infeasible_quota():
    X = np.random.default_rng(9).normal(size=(20, 2))
    grp = np.zeros(20, dtype=int)
    with pytest.raises(ValueError, match="quota"):
        fair_gmm(X, grp, {0: 2, 1: 2}, "euclidean")
