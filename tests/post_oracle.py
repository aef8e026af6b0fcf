"""Reference post-processing: SFDM2's per-guess post phase, threshold
clustering and Algorithm 4 as they were before ``solve`` shared one
store-wide distance matrix, and SFDM1's solve loop as it was before SFDM1
and SFDM2 shared :meth:`StreamingDM.solve`.

Each guess builds its own distance matrix from the features with
``Metric.rows_to_rows``, the arithmetic of the store matrix that ``solve``
slices, and clusters on it; the matroid intersection keeps dict label counts
and asks ``PartitionMatroid.can_add`` per element. The tests require the
production path to match these bit for bit. ``oracle_threshold_clusters``
builds its matrix with ``Metric.pairwise``, as FairFlow does;
``oracle_clusters`` is ``threshold_clusters`` as it was before it took its
pairs from the upper triangle alone.

``brute_opt`` and ``brute_fair_opt`` are the exact OPT and OPT_f by
exhaustive enumeration, for the approximation-bound tests on tiny instances.
"""
import re
from collections import deque
from itertools import combinations, product

import numpy as np
import pytest

from repro.core.clustering import UnionFind
from repro.core.sfdm1 import swap_balance
from repro.core.sfdm2 import _greedy_maxmin_subset
from repro.diversity import div
from repro.matroid.partition import PartitionMatroid
from repro.metrics import Metric


def oracle_threshold_clusters(feats, metric, threshold):
    return oracle_clusters(metric.pairwise(feats, feats), threshold)


def oracle_clusters(D, threshold):
    """Union-find over every close pair of ``D``, dropping those with i >= j."""
    n = len(D)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    uf = UnionFind(n)
    close_i, close_j = np.nonzero(D < threshold)
    for i, j in zip(close_i.tolist(), close_j.tolist()):
        if i < j:
            uf.union(i, j)
    roots = np.array([uf.find(i) for i in range(n)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels.astype(np.int64)


def _label_counts(m, members):
    labels, counts = np.unique(m.labels[list(members)], return_counts=True)
    return {int(l): int(c) for l, c in zip(labels, counts)}


def _greedy_phase(S, m1, m2, D, target):
    n = len(m1.labels)
    c1 = _label_counts(m1, S) if S else {}
    c2 = _label_counts(m2, S) if S else {}
    while target is None or len(S) < target:
        cand = [
            x for x in range(n)
            if x not in S and m1.can_add(c1, x) and m2.can_add(c2, x)
        ]
        if not cand:
            return
        if D is not None and S:
            sl = list(S)
            sub = D[np.ix_(cand, sl)].min(axis=1)
            x = cand[int(np.argmax(sub))]
        elif D is not None:
            x = cand[int(np.argmax(D[cand].sum(axis=1)))]
        else:
            x = cand[0]
        S.add(x)
        l1, l2 = int(m1.labels[x]), int(m2.labels[x])
        c1[l1] = c1.get(l1, 0) + 1
        c2[l2] = c2.get(l2, 0) + 1


def _augment_once(S, m1, m2):
    n = len(m1.labels)
    c1 = _label_counts(m1, S) if S else {}
    c2 = _label_counts(m2, S) if S else {}
    outside = [x for x in range(n) if x not in S]
    V1 = {x for x in outside if m1.can_add(c1, x)}
    V2 = {x for x in outside if m2.can_add(c2, x)}
    prev = {}
    q = deque()
    for x in sorted(V1):
        prev[x] = None
        q.append(x)
    end = None
    while q:
        u = q.popleft()
        if u in V2 and u not in S:
            end = u
            break
        if u not in S:
            for y in S:
                if y not in prev and m2.labels[y] == m2.labels[u]:
                    prev[y] = u
                    q.append(y)
        else:
            for x in outside:
                if x not in prev and not m1.can_add(c1, x) and m1.labels[x] == m1.labels[u]:
                    prev[x] = u
                    q.append(x)
    if end is None:
        return False
    node = end
    while node is not None:
        if node in S:
            S.remove(node)
        else:
            S.add(node)
        node = prev[node]
    return True


def oracle_max_common_independent_set(m1, m2, *, init=None, dist_matrix=None, target=None):
    """Algorithm 4 with dicts and ``can_add``. Its BFS visits S in set
    order, so it is a reference only where M2 has cap 1 (every caller's
    cluster matroid): then at most one element of S shares a cluster."""
    S = set(init) if init else set()
    _greedy_phase(S, m1, m2, dist_matrix, target)
    while (target is None or len(S) < target) and _augment_once(S, m1, m2):
        pass
    return S


def _post_one(s, g):
    st, m, k = s.state, s.m, s.k
    mu = float(s.mus[g])
    s_all = sorted({int(x) for b in (st.blind, *st.group_banks.values()) for x in b.indices(g)})
    feats = st.feats[s_all]
    groups = st.groups[s_all]
    D = s.metric.rows_to_rows(feats, feats)
    pos = {int(x): i for i, x in enumerate(s_all)}
    blind_local = [pos[int(x)] for x in st.blind.indices(g)]
    init = set()
    for grp, kg in s.ks.items():
        members = [x for x in blind_local if groups[x] == grp]
        init.update(_greedy_maxmin_subset(D, members, kg))
    labels = oracle_clusters(D, mu / (m + 1))
    seen, init_ok = set(), set()
    for x in sorted(init):
        c = int(labels[x])
        if c not in seen:
            seen.add(c)
            init_ok.add(x)
    m1 = PartitionMatroid(groups, s.ks)
    m2 = PartitionMatroid(labels, 1)
    sol = oracle_max_common_independent_set(m1, m2, init=init_ok, dist_matrix=D, target=k)
    if len(sol) != k:
        return None
    sol_idx = sorted(sol)
    return div(feats[sol_idx], s.metric), [int(s_all[x]) for x in sol_idx]


def oracle_solve(s):
    """``SFDM2.solve`` with one distance matrix per guess: ``(ids, mu, diversity)``
    of the winning guess, or None when no guess yields a fair solution."""
    st, best = s.state, None
    for g in range(len(s.mus)):
        if st.blind.sizes[g] != s.k:
            continue
        if any(st.group_banks[grp].sizes[g] < kg for grp, kg in s.ks.items()):
            continue
        out = _post_one(s, g)
        if out is None:
            continue
        d, sol = out
        if best is None or d > best[0]:
            best = (d, sol, float(s.mus[g]))
    if best is None:
        return None
    d, sol, mu = best
    return st.ids[np.array(sol)], mu, d


def oracle_sfdm1_solve(s):
    """``SFDM1.solve`` with its own U' filter (group candidates of size
    exactly k_i) and best-by-``div`` loop: ``(ids, mu, diversity)`` of the
    winning guess, or None when U' is empty."""
    st, k, best = s.state, s.k, None
    for g in range(len(s.mus)):
        if st.blind.sizes[g] != k:
            continue
        if any(st.group_banks[grp].sizes[g] != kg for grp, kg in s.ks.items()):
            continue
        sol = st.blind.indices(g).tolist()
        counts = {grp: int((st.groups[sol] == grp).sum()) for grp in s.ks}
        under = [grp for grp, kg in s.ks.items() if counts[grp] < kg]
        if under:
            (gu,) = under
            pool = st.group_banks[gu].indices(g).tolist()
            sol = swap_balance(st.feats, st.groups, sol, pool, gu, s.ks[gu], k, s.metric)
            if sol is None:
                continue
        d = div(st.feats[sol], s.metric)
        if best is None or d > best[0]:
            best = (d, sol, float(s.mus[g]))
    if best is None:
        return None
    d, sol, mu = best
    return st.ids[np.array(sol)], mu, d


def anytime_vs_cold(s, X, grp=None, n_pieces=6):
    """Feed ``X`` to solver ``s`` in ``n_pieces`` pieces plus a repeat of the
    first piece after the third, and solve after each; each solve must equal a
    cold solve on a deep copy bit for bit (ids, indices, μ, ``repr`` of the
    diversity, ``n_stored``, or the same error), and every result ``s`` keeps
    must equal the copy's. The repeat stores nothing: every candidate that
    rejected a row before still rejects it, and every other one holds it or
    is full. Returns counts of what the solves met: ``solved``, U' guesses
    whose blind candidate was full and unchanged while a group candidate grew
    (``group_grew``), and kept ``None`` results (``none``)."""
    import copy
    import pickle

    grp = np.zeros(len(X), dtype=np.int64) if grp is None else grp
    pieces = np.array_split(np.arange(len(X)), n_pieces)
    pieces.insert(3, pieces[0])
    counts = {"solved": 0, "group_grew": 0, "none": 0}
    st, prev = s.state, None
    for i, piece in enumerate(pieces):
        n_stored = st.n_stored
        s.update(X[piece], grp[piece])
        if i == 3:
            assert st.n_stored == n_stored
        sizes = np.stack([st.blind.sizes, *(b.sizes for b in st.group_banks.values())], 1)
        cold = copy.deepcopy(s)
        assert cold._posted == {} and pickle.loads(pickle.dumps(s))._posted == {}
        try:
            want = cold.solve()
        except RuntimeError as e:
            with pytest.raises(RuntimeError, match=re.escape(str(e))):
                s.solve()
            want = None
        if want is not None:
            fresh = not s._posted
            got = s.solve()
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.indices, want.indices)
            assert got.mu == want.mu and repr(got.diversity) == repr(want.diversity)
            assert got.n_stored == want.n_stored
            # one arithmetic: div's doubles are the store matrix's
            D = st.distances()[np.ix_(got.indices, got.indices)]
            assert got.diversity == D[np.triu_indices(len(D), k=1)].min()
            x, y = got.extra, want.extra
            assert x["posted"] + x["reused"] == x["u_prime"] == y["u_prime"] == y["posted"]
            assert x["guesses"] == len(s.mus) and x["winner_index"] == y["winner_index"]
            if fresh:
                assert x["posted"] == x["u_prime"]
            if i == 3:
                assert x["posted"] == 0
            assert s.solve().extra["reused"] == x["u_prime"]
            counts["solved"] += 1
        assert s._posted.keys() == cold._posted.keys()
        for g, (_, sol, d) in s._posted.items():
            _, sol_c, d_c = cold._posted[g]
            assert (sol is None) == (sol_c is None)
            if sol is not None:
                assert np.array_equal(sol, sol_c) and repr(d) == repr(d_c)
            counts["none"] += sol is None
            if prev is not None and g in prev[1]:
                before = prev[0][g]
                if before[0] == sizes[g, 0] and (before[1:] != sizes[g, 1:]).any():
                    counts["group_grew"] += 1
        prev = (sizes, set(s._posted))
    return counts


def brute_opt(X: np.ndarray, k: int, metric: Metric) -> float:
    """Exact OPT for unconstrained DM by exhaustive enumeration."""
    n = len(X)
    if k > n:
        raise ValueError("k > n")
    D = metric.pairwise(X, X)
    best = 0.0
    for comb in combinations(range(n), k):
        idx = np.array(comb)
        d = D[np.ix_(idx, idx)][np.triu_indices(k, k=1)].min()
        if d > best:
            best = float(d)
    return best


def brute_fair_opt(
    X: np.ndarray, groups: np.ndarray, ks: dict[int, int], metric: Metric
) -> float:
    """Exact OPT_f for FDM: best div over all subsets with exactly k_i per group.

    Returns 0.0 if no feasible subset exists (some group smaller than its quota).
    """
    X = np.asarray(X, dtype=np.float64)
    groups = np.asarray(groups)
    D = metric.pairwise(X, X)
    per_group: list[list[tuple[int, ...]]] = []
    for g, kg in sorted(ks.items()):
        members = np.flatnonzero(groups == g)
        if len(members) < kg:
            return 0.0
        per_group.append([c for c in combinations(members.tolist(), kg)])
    best = 0.0
    for picks in product(*per_group):
        idx = np.array([i for c in picks for i in c])
        k = len(idx)
        d = D[np.ix_(idx, idx)][np.triu_indices(k, k=1)].min() if k >= 2 else np.inf
        if d > best:
            best = float(d)
    return best
