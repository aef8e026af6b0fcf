"""Threshold single-linkage clustering (Algorithm 3 lines 13-16)."""
import numpy as np
import pytest

from repro.core.clustering import UnionFind, threshold_clusters
from repro.metrics import get_metric

MET = get_metric("euclidean")


def pw(X):
    return MET.pairwise(X, X)


def test_union_find_basic():
    uf = UnionFind(4)
    uf.union(0, 1)
    uf.union(2, 3)
    assert uf.find(0) == uf.find(1)
    assert uf.find(2) == uf.find(3)
    assert uf.find(0) != uf.find(2)
    uf.union(1, 3)
    assert uf.find(0) == uf.find(2)


def test_two_far_points_two_clusters():
    labels = threshold_clusters(pw(np.array([[0.0], [10.0]])), 1.0)
    assert labels[0] != labels[1]


def test_two_close_points_merge():
    labels = threshold_clusters(pw(np.array([[0.0], [0.5]])), 1.0)
    assert labels[0] == labels[1]


def test_chain_merges_transitively():
    # 0 - 0.9 - 1.8: consecutive pairs < 1.0 but ends are 1.8 apart
    labels = threshold_clusters(pw(np.array([[0.0], [0.9], [1.8]])), 1.0)
    assert len(set(labels.tolist())) == 1


def test_cross_cluster_separation_property():
    g = np.random.default_rng(0)
    X = g.normal(size=(40, 2)) * 3
    thresh = 1.2
    D = MET.pairwise(X, X)
    labels = threshold_clusters(D, thresh)
    for a in range(40):
        for b in range(40):
            if labels[a] != labels[b]:
                assert D[a, b] >= thresh


def test_empty_input():
    assert threshold_clusters(pw(np.zeros((0, 2))), 1.0).shape == (0,)


def test_singleton():
    assert threshold_clusters(pw(np.zeros((1, 2))), 1.0).tolist() == [0]


def test_labels_are_dense_0_to_l():
    g = np.random.default_rng(1)
    X = g.normal(size=(25, 2)) * 5
    labels = threshold_clusters(pw(X), 0.8)
    uniq = np.unique(labels)
    assert uniq.tolist() == list(range(len(uniq)))


@pytest.mark.parametrize("thresh", [1e-9, 1e9])
def test_threshold_extremes(thresh):
    g = np.random.default_rng(2)
    X = g.normal(size=(10, 2))
    labels = threshold_clusters(pw(X), thresh)
    if thresh < 1:
        assert len(set(labels.tolist())) == 10
    else:
        assert len(set(labels.tolist())) == 1


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "angular"])
@pytest.mark.parametrize("seed", range(3))
def test_labels_equal_all_pairs_oracle(metric, seed):
    # Upper-triangle pairs in row-major order make the oracle's union sequence,
    # so the labels are identical, on symmetric and Gram-form matrices alike.
    from tests.post_oracle import oracle_clusters

    g = np.random.default_rng(seed)
    X = np.abs(g.normal(size=(120, 5))) + 0.01
    X[60:70] = X[0]  # ties at distance 0
    met = get_metric(metric)
    for D in (met.pairwise(X, X), met.rows_to_rows(X, X), g.random((50, 50))):
        for q in (0.01, 0.1, 0.3, 0.7):
            t = float(np.quantile(D, q))
            assert np.array_equal(threshold_clusters(D, t), oracle_clusters(D, t))
