"""GMM (Gonzalez greedy): 1/2-approximation, determinism, vectorization."""
import numpy as np
import pytest

from repro.baselines.gmm import gmm
from repro.diversity import div
from repro.metrics import get_metric
from tests.post_oracle import brute_opt

MET = get_metric("euclidean")


def test_solution_size_and_uniqueness():
    X = np.random.default_rng(0).normal(size=(50, 3))
    idx = gmm(X, 10, MET)
    assert len(idx) == 10 == len(set(idx.tolist()))


def test_first_point_respected():
    X = np.random.default_rng(1).normal(size=(30, 2))
    assert gmm(X, 5, MET, first=7)[0] == 7


def test_deterministic():
    X = np.random.default_rng(2).normal(size=(60, 2))
    assert np.array_equal(gmm(X, 8, MET), gmm(X, 8, MET))


@pytest.mark.parametrize("seed", range(8))
def test_half_approximation(seed):
    g = np.random.default_rng(seed)
    X = g.normal(size=(13, 2))
    opt = brute_opt(X, 4, MET)
    assert div(X[gmm(X, 4, MET)], MET) >= opt / 2 - 1e-9


def test_matches_naive_implementation():
    g = np.random.default_rng(3)
    X = g.normal(size=(40, 2))
    k = 6
    # naive O(nk^2) greedy
    chosen = [0]
    while len(chosen) < k:
        best, bd = None, -1.0
        for i in range(len(X)):
            if i in chosen:
                continue
            d = min(float(np.linalg.norm(X[i] - X[j])) for j in chosen)
            if d > bd:
                bd, best = d, i
        chosen.append(best)
    assert np.array_equal(gmm(X, k, MET), np.array(chosen))


def test_k_equals_n():
    X = np.random.default_rng(4).normal(size=(6, 2))
    assert sorted(gmm(X, 6, MET).tolist()) == list(range(6))


def test_k_too_large_raises():
    with pytest.raises(ValueError):
        gmm(np.zeros((3, 2)), 4, MET)


def test_gmm_line_picks_extremes():
    X = np.arange(11.0)[:, None]
    idx = gmm(X, 2, MET, first=0)
    assert set(idx.tolist()) == {0, 10}


@pytest.mark.parametrize("metric", ["manhattan", "angular"])
def test_other_metrics(metric):
    g = np.random.default_rng(5)
    X = g.random((40, 5)) + 0.01
    m = get_metric(metric)
    idx = gmm(X, 5, m)
    assert div(X[idx], m) > 0


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "angular"])
def test_scans_match_point_to_rows(metric):
    # gmm scans a feature-major copy of the points through the plane kernel;
    # the reference is the running minimum over point_to_rows on pieces of
    # 1,000 rows (below the planes' threshold), with integer features so
    # that many distances tie and argmax must meet the same bits
    g = np.random.default_rng(6)
    X = g.integers(-3, 4, size=(5000, 9)).astype(float)
    m = get_metric(metric)

    def scan(x):
        return np.concatenate([m.point_to_rows(x, X[i : i + 1000]) for i in range(0, len(X), 1000)])

    chosen = [0]
    mind = scan(X[0])
    for _ in range(11):
        chosen.append(int(np.argmax(mind)))
        mind = np.minimum(mind, scan(X[chosen[-1]]))
    assert gmm(X, 12, m).tolist() == chosen
