"""Partition matroids and Algorithm 4 (matroid intersection)."""
from itertools import combinations

import numpy as np
import pytest

from repro.matroid.intersection import max_common_independent_set
from repro.matroid.partition import PartitionMatroid
from repro.metrics import get_metric

MET = get_metric("euclidean")


def brute_max_intersection(m1: PartitionMatroid, m2: PartitionMatroid) -> int:
    """Exhaustive maximum common independent set size (tiny ground sets)."""
    n = len(m1.labels)
    best = 0
    for size in range(n, 0, -1):
        for comb in combinations(range(n), size):
            arr = np.array(comb)
            if m1.is_independent(arr) and m2.is_independent(arr):
                return size
    return best


def ford_fulkerson(n, edges, s, t):
    """Reference max-flow (BFS augmenting paths on a capacity matrix)."""
    cap = np.zeros((n, n), dtype=np.int64)
    for u, v, c in edges:
        cap[u, v] += c
    flow = 0
    while True:
        parent = [-1] * n
        parent[s] = s
        q = [s]
        while q:
            u = q.pop(0)
            for v in range(n):
                if cap[u, v] > 0 and parent[v] < 0:
                    parent[v] = u
                    q.append(v)
        if parent[t] < 0:
            return flow
        # find bottleneck
        b, v = 1 << 60, t
        while v != s:
            b = min(b, cap[parent[v], v])
            v = parent[v]
        v = t
        while v != s:
            cap[parent[v], v] -= b
            cap[v, parent[v]] += b
            v = parent[v]
        flow += b


# -- partition matroid axioms ------------------------------------------------

def random_matroid(seed, n=8, n_labels=3, max_cap=2):
    g = np.random.default_rng(seed)
    labels = g.integers(0, n_labels, n)
    caps = {int(l): int(g.integers(1, max_cap + 1)) for l in range(n_labels)}
    return PartitionMatroid(labels, caps)


@pytest.mark.parametrize("seed", range(6))
def test_hereditary_property(seed):
    m = random_matroid(seed)
    g = np.random.default_rng(seed + 100)
    n = len(m.labels)
    for _ in range(20):
        B = np.flatnonzero(g.random(n) < 0.5)
        if m.is_independent(B) and len(B) > 0:
            A = B[g.random(len(B)) < 0.5]
            assert m.is_independent(A)


@pytest.mark.parametrize("seed", range(6))
def test_augmentation_property(seed):
    m = random_matroid(seed)
    g = np.random.default_rng(seed + 200)
    n = len(m.labels)
    for _ in range(30):
        A = np.flatnonzero(g.random(n) < 0.5)
        B = np.flatnonzero(g.random(n) < 0.3)
        if not (m.is_independent(A) and m.is_independent(B)):
            continue
        if len(A) <= len(B):
            continue
        # exchange: some x in A\B with B+x independent
        assert any(
            m.is_independent(np.append(B, x)) for x in set(A) - set(B)
        )


def test_caps_by_label_index():
    # lab indexes the sorted distinct labels; a label caps does not name gets 0
    m = PartitionMatroid(np.array([5, 0, 0, 9, 1, 2, 1]), {2: 1, 0: 2, 1: 5, 7: 3})
    assert m.lab.tolist() == [3, 0, 0, 4, 1, 2, 1]
    assert m.cap.dtype == np.int64 and m.cap.tolist() == [2, 5, 1, 0, 0]
    assert PartitionMatroid(np.array([0, 1]), {}).cap.tolist() == [0, 0]
    assert not m.can_add({}, 0) and m.can_add({}, 1) and not m.can_add({}, 3)
    assert not m.is_independent(np.array([0])) and m.is_independent(np.array([1, 2]))


def test_uniform_cap_applies_to_every_label():
    m = PartitionMatroid(np.array([0, 1, 1, 2, -4]), 1)
    assert m.cap.tolist() == [1, 1, 1, 1]
    assert m.is_independent(np.array([0, 1, 3, 4])) and not m.is_independent(np.array([1, 2]))


def test_numpy_int_cap_keys():
    caps = {np.int64(0): np.int32(2), np.int8(3): 1}
    m = PartitionMatroid(np.array([3, 0, 0, 0]), caps)
    assert m.cap.tolist() == [2, 1]
    assert m.can_add({0: 1}, 1) and not m.can_add({0: 2}, 1) and not m.can_add({3: 1}, 0)


@pytest.mark.parametrize("seed", range(10))
def test_is_independent_is_a_per_label_count(seed):
    g = np.random.default_rng(seed)
    n = int(g.integers(1, 40))
    labels = g.integers(-3, int(g.integers(1, 12)), n)
    caps = {int(l): int(g.integers(0, 4)) for l in range(-3, 12) if g.random() < 0.8}
    for m, cap_of in ((PartitionMatroid(labels, caps), lambda l: caps.get(l, 0)),
                      (PartitionMatroid(labels, 2), lambda l: 2)):
        for _ in range(30):
            members = np.flatnonzero(g.random(n) < g.random())
            chosen = labels[members].tolist()
            want = all(chosen.count(l) <= cap_of(l) for l in set(chosen))
            assert m.is_independent(members) == want


def test_can_add_respects_caps():
    m = PartitionMatroid(np.array([0, 0, 1]), {0: 1, 1: 1})
    assert m.can_add({}, 0)
    assert not m.can_add({0: 1}, 1)  # element 1 has label 0, label full


# -- Algorithm 4 -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_intersection_is_maximum(seed):
    g = np.random.default_rng(seed)
    n = 9
    l1 = g.integers(0, 3, n)
    l2 = g.integers(0, 4, n)
    m1 = PartitionMatroid(l1, {i: int(g.integers(1, 3)) for i in range(3)})
    m2 = PartitionMatroid(l2, 1)
    S = max_common_independent_set(m1, m2)
    arr = np.array(sorted(S))
    assert m1.is_independent(arr) and m2.is_independent(arr)
    assert len(S) == brute_max_intersection(m1, m2)


@pytest.mark.parametrize("seed", range(8))
def test_intersection_with_nonempty_init(seed):
    g = np.random.default_rng(seed + 50)
    n = 9
    l1 = g.integers(0, 3, n)
    l2 = g.integers(0, 5, n)
    m1 = PartitionMatroid(l1, {i: 2 for i in range(3)})
    m2 = PartitionMatroid(l2, 1)
    # build a valid init greedily
    init, c1, c2 = set(), {}, {}
    for x in range(n):
        if m1.can_add(c1, x) and m2.can_add(c2, x) and len(init) < 2:
            init.add(x)
            c1[int(l1[x])] = c1.get(int(l1[x]), 0) + 1
            c2[int(l2[x])] = c2.get(int(l2[x]), 0) + 1
    S = max_common_independent_set(m1, m2, init=init)
    arr = np.array(sorted(S))
    assert m1.is_independent(arr) and m2.is_independent(arr)
    assert len(S) == brute_max_intersection(m1, m2)


def test_invalid_init_rejected():
    m1 = PartitionMatroid(np.array([0, 0]), {0: 1})
    m2 = PartitionMatroid(np.array([0, 1]), 1)
    with pytest.raises(ValueError, match="init"):
        max_common_independent_set(m1, m2, init={0, 1})


def test_target_stops_early():
    n = 6
    m1 = PartitionMatroid(np.zeros(n, dtype=int), {0: 6})
    m2 = PartitionMatroid(np.arange(n), 1)
    S = max_common_independent_set(m1, m2, target=3)
    assert len(S) == 3


def test_greedy_prefers_far_elements():
    feats = np.array([[0.0], [1.0], [10.0], [11.0]])
    D = MET.pairwise(feats, feats)
    m1 = PartitionMatroid(np.array([0, 0, 0, 0]), {0: 2})
    m2 = PartitionMatroid(np.array([0, 1, 2, 3]), 1)
    S = max_common_independent_set(m1, m2, dist_matrix=D, target=2)
    picked = sorted(S)
    # the two chosen points should span the far gap, not be neighbors
    assert abs(feats[picked[0], 0] - feats[picked[1], 0]) >= 9.0


def test_augmentation_needed_case():
    # greedy stalls: clusters {0,1} both free only via exchange.
    # l1 groups: a has cap 1 taken by an element blocking cluster of b, etc.
    l1 = np.array([0, 0, 1])
    l2 = np.array([0, 1, 0])
    m1 = PartitionMatroid(l1, {0: 1, 1: 1})
    m2 = PartitionMatroid(l2, 1)
    # init = {0}: element 0 (group 0, cluster 0). Element 2 (group 1, cluster 0)
    # blocked by cluster; element 1 (group 0, cluster 1) blocked by group.
    # Max = 2 via {1, 2}; requires an augmenting path.
    S = max_common_independent_set(m1, m2, init={0})
    assert len(S) == 2
    arr = np.array(sorted(S))
    assert m1.is_independent(arr) and m2.is_independent(arr)


# -- array-based Algorithm 4 vs the dict/can_add oracle ----------------------

@pytest.mark.parametrize("mode", ["dist_matrix", "arbitrary"])
@pytest.mark.parametrize("seed", range(30))
def test_intersection_matches_oracle(seed, mode):
    # M2 has cap 1, as both callers' cluster matroids do. Label counts range
    # from a few to about n/2 per matroid; with many labels a random maximal
    # init is often not maximum, which leaves work for the augmentation
    # phase. Integer points give exact distance ties (first-argmax rule).
    from tests.post_oracle import oracle_max_common_independent_set

    g = np.random.default_rng(seed)
    n = int(g.integers(5, 60))
    n1, n2 = g.integers(1, n // 2 + 2, size=2)
    caps1 = {i: int(g.integers(0, 4)) for i in range(n1) if g.random() < 0.9}
    m1 = PartitionMatroid(g.integers(0, n1, n), caps1)
    m2 = PartitionMatroid(g.integers(0, n2, n), 1)
    D = None
    if mode == "dist_matrix":
        X = g.integers(0, 4, size=(n, 2)).astype(float)
        D = get_metric("manhattan").pairwise(X, X)
    init, c1, c2 = set(), {}, {}
    for x in g.permutation(n)[: int(g.integers(0, n + 1))].tolist():
        if m1.can_add(c1, x) and m2.can_add(c2, x):
            init.add(x)
            c1[int(m1.labels[x])] = c1.get(int(m1.labels[x]), 0) + 1
            c2[int(m2.labels[x])] = c2.get(int(m2.labels[x]), 0) + 1
    target = None if g.random() < 0.5 else int(g.integers(1, n))
    kw = dict(init=init, dist_matrix=D, target=target)
    want = oracle_max_common_independent_set(m1, m2, **kw)
    assert max_common_independent_set(m1, m2, **kw) == want


# -- Algorithm 4 vs FairFlow's max-flow network -------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_intersection_size_is_fair_flow_max_flow(seed):
    # FairFlow's network: source -(k_i)-> group i -(1)-> element -(1)->
    # cluster -(1)-> sink. Its max flow is the size of a maximum common
    # independent set of the fairness matroid and the cluster matroid.
    g = np.random.default_rng(seed)
    n = int(g.integers(3, 61))
    n_groups = int(g.integers(1, 6))
    ks = {i: int(g.integers(0, 5)) for i in range(n_groups)}
    grp = g.integers(0, n_groups, n)
    labels = g.integers(0, int(g.integers(1, n + 1)), n)
    e0, c0 = 1 + n_groups, 1 + n_groups + n
    t = c0 + int(labels.max()) + 1
    edges = [(0, 1 + i, kg) for i, kg in ks.items()]
    for x in range(n):
        edges += [(1 + int(grp[x]), e0 + x, 1), (e0 + x, c0 + int(labels[x]), 1)]
    edges += [(c, t, 1) for c in range(c0, t)]
    flow = ford_fulkerson(t + 1, edges, 0, t)
    m1, m2 = PartitionMatroid(grp, ks), PartitionMatroid(labels, 1)
    S = max_common_independent_set(m1, m2)
    arr = np.array(sorted(S), dtype=np.int64)
    assert m1.is_independent(arr) and m2.is_independent(arr)
    assert len(S) == flow
    k = sum(ks.values())
    assert (len(max_common_independent_set(m1, m2, target=k)) == k) == (flow == k)
