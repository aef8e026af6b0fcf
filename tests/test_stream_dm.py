"""Algorithm 1 (streaming unconstrained DM): feasibility + (1-eps)/2 bound."""
import numpy as np
import pytest

from repro.core.stream_dm import StreamingDM
from repro.diversity import div
from repro.extent import exact_extent
from repro.metrics import get_metric
from tests.post_oracle import brute_opt

MET = get_metric("euclidean")


def run(X, k, eps=0.1, metric="euclidean"):
    d_min, d_max = exact_extent(X, get_metric(metric))
    a = StreamingDM(metric, k=k, eps=eps, d_min=d_min, d_max=d_max, dim=X.shape[1])
    a.update(X)
    return a.solve()


def test_returns_k_elements():
    X = np.random.default_rng(0).normal(size=(100, 2))
    r = run(X, 7)
    assert len(r.indices) == 7
    assert r.feats.shape == (7, 2)


def test_diversity_matches_reported():
    X = np.random.default_rng(1).normal(size=(80, 3))
    r = run(X, 5)
    assert r.diversity == pytest.approx(div(r.feats, MET))


def test_winning_candidate_meets_its_guess():
    X = np.random.default_rng(2).normal(size=(60, 2))
    r = run(X, 6)
    assert r.diversity >= r.mu * (1 - 1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_half_approximation_bound(seed):
    g = np.random.default_rng(seed)
    X = g.normal(size=(14, 2))
    eps = 0.1
    opt = brute_opt(X, 4, MET)
    r = run(X, 4, eps=eps)
    assert r.diversity >= (1 - eps) / 2 * opt - 1e-9


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "angular"])
def test_all_metrics_supported(metric):
    g = np.random.default_rng(5)
    X = g.random((50, 4)) + 0.01
    r = run(X, 4, metric=metric)
    assert len(r.indices) == 4 and r.diversity > 0


def test_permutation_keeps_bound():
    g = np.random.default_rng(6)
    X = g.normal(size=(13, 2))
    opt = brute_opt(X, 4, MET)
    for s in range(5):
        perm = np.random.default_rng(s).permutation(len(X))
        r = run(X[perm], 4, eps=0.2)
        assert r.diversity >= (1 - 0.2) / 2 * opt - 1e-9


def test_space_bounded_by_k_times_guesses():
    g = np.random.default_rng(7)
    X = g.normal(size=(3000, 2))
    d_min, d_max = exact_extent(X, MET)
    a = StreamingDM("euclidean", k=5, eps=0.1, d_min=d_min, d_max=d_max, dim=2)
    a.update(X)
    r = a.solve()
    assert r.n_stored <= 5 * len(a.mus)
    assert r.n_stored < len(X) / 10  # sublinear in practice
    assert a.state._dist.size == 0  # only SFDM2's post-processing builds the store matrix


def test_k_larger_than_n_fails_cleanly():
    X = np.random.default_rng(8).normal(size=(5, 2))
    with pytest.raises(RuntimeError, match="no guess"):
        run(X, 10)


@pytest.mark.parametrize("k", [0, -2])
def test_k_below_one_rejected_at_construction(k):
    with pytest.raises(ValueError, match=f"StreamingDM: k is {k}, must be at least 1"):
        StreamingDM("euclidean", k=k, eps=0.1, d_min=1, d_max=2, dim=2)


def test_ids_surface_original_stream_positions():
    X = np.random.default_rng(9).normal(size=(40, 2))
    d_min, d_max = exact_extent(X, MET)
    a = StreamingDM("euclidean", k=3, eps=0.1, d_min=d_min, d_max=d_max, dim=2)
    a.update(X, ids=np.arange(1000, 1040))
    r = a.solve()
    assert set(r.ids) <= set(range(1000, 1040))


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "angular"])
def test_anytime_solves_equal_cold_solves_on_copies(metric):
    from tests.post_oracle import anytime_vs_cold

    g = np.random.default_rng(10)
    X = np.abs(g.normal(size=(3000, 3))) + 0.01
    d_min, d_max = exact_extent(X[:300], get_metric(metric))
    a = StreamingDM(metric, k=6, eps=0.1, d_min=d_min, d_max=d_max, dim=3)
    assert anytime_vs_cold(a, X)["solved"] == 7
