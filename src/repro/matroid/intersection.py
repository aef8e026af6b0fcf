"""Algorithm 4 — matroid intersection via Cunningham augmentation.

Finds a maximum-cardinality common independent set of two partition matroids,
initialized from a partial solution ``S0``. Two phases, exactly as in the
paper's Algorithm 4:

1. **Greedy phase** (lines 2-7): while some element is addable to both
   matroids, add the one farthest from the current solution (GMM-style, this
   is what buys SFDM2 its practical solution quality);
2. **Augmentation phase** (lines 8-14): build Cunningham's augmentation graph
   (Definition 2), find a shortest ``a -> b`` path by BFS, flip membership
   along it, repeat until no path exists (S is then maximum by the matroid
   intersection theorem).
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .partition import PartitionMatroid


class _Counts:
    """The matroid's ``lab`` and ``cap``, and each label's count ``cnt`` in
    the current S."""

    def __init__(self, m: PartitionMatroid, S: np.ndarray):
        self.lab, self.cap = m.lab, m.cap
        self.cnt = np.bincount(self.lab[S], minlength=len(self.cap))

    def room(self) -> np.ndarray:
        """Per element: whether its label can take one more element."""
        return self.cnt[self.lab] < self.cap[self.lab]

    def add(self, x: int, d: int = 1) -> None:
        """Change the count of element x's label by d."""
        self.cnt[self.lab[x]] += d


def _greedy_phase(
    S: np.ndarray,
    c1: _Counts,
    c2: _Counts,
    D: np.ndarray | None,
    target: int | None,
) -> None:
    """Add, while one is addable to both matroids, the candidate farthest from
    S: the first argmax of ``mind``, the running min over S of ``D[:, y]``,
    with candidates in index order. An empty S is seeded with the candidate of
    largest row sum; without ``D`` the first candidate is taken."""
    addable = ~S & c1.room() & c2.room()
    mind = D[:, S].min(axis=1) if D is not None and S.any() else None
    size = int(S.sum())
    while target is None or size < target:
        cand = np.flatnonzero(addable)
        if cand.size == 0:
            return
        if D is None:
            x = int(cand[0])
        elif mind is None:
            x = int(cand[np.argmax(D[cand].sum(axis=1))])
        else:
            x = int(cand[np.argmax(mind[cand])])
        S[x] = True
        size += 1
        addable[x] = False
        for c in (c1, c2):
            c.add(x)
            l = c.lab[x]
            if c.cnt[l] >= c.cap[l]:
                addable[c.lab == l] = False
        if D is not None:
            mind = D[:, x] if mind is None else np.minimum(mind, D[:, x])


def _augment_once(S: np.ndarray, c1: _Counts, c2: _Counts) -> bool:
    """One Cunningham augmentation step; returns False when S is maximum."""
    # BFS over the augmentation digraph from the sources, in index order:
    # a -> x for x outside S with room in M1;  x -> b for x outside with room in M2;
    # y(in S) -> x(out):  group(x) full and label1(y) == label1(x);
    # x(out) -> y(in S):  cluster(x) full and label2(y) == label2(x).
    # Each node's successors are enqueued in index order.
    n = len(S)
    src = np.flatnonzero(~S & c1.room())
    sink = ~S & c2.room()
    seen = np.zeros(n, dtype=bool)
    seen[src] = True
    prev = np.full(n, -1)
    q: deque[int] = deque(src.tolist())
    end = -1
    while q:
        u = q.popleft()
        if sink[u]:
            end = u
            break
        if S[u]:
            l = c1.lab[u]
            if c1.cnt[l] < c1.cap[l]:
                continue
            nxt = np.flatnonzero(~S & ~seen & (c1.lab == l))
        else:
            nxt = np.flatnonzero(S & ~seen & (c2.lab == c2.lab[u]))
        seen[nxt] = True
        prev[nxt] = u
        q.extend(nxt.tolist())
    if end < 0:
        return False
    # flip membership along the path
    node = end
    while node >= 0:
        d = -1 if S[node] else 1
        S[node] = not S[node]
        c1.add(node, d)
        c2.add(node, d)
        node = int(prev[node])
    return True


def max_common_independent_set(
    m1: PartitionMatroid,
    m2: PartitionMatroid,
    *,
    init: set[int] | None = None,
    dist_matrix: np.ndarray | None = None,
    target: int | None = None,
) -> set[int]:
    """Maximum-cardinality set independent in both matroids (Algorithm 4).

    ``init`` must itself be independent in both matroids. ``dist_matrix``
    (full pairwise distances over the ground set) drives the greedy max-min
    selection; pass None for arbitrary (FairFlow-style) choices. ``target``
    stops early once |S| reaches it (the rank bound k in SFDM2).

    S, the per-label counts and caps and the "addable to both" test are
    arrays, and the greedy phase keeps d(x, S) as a running minimum, so no
    step loops over elements in Python. Ties go to the lowest index.
    """
    S = np.zeros(len(m1.labels), dtype=bool)
    S[list(init or ())] = True
    members = np.flatnonzero(S)
    if not m1.is_independent(members):
        raise ValueError("init not independent in M1")
    if not m2.is_independent(members):
        raise ValueError("init not independent in M2")
    c1, c2 = _Counts(m1, S), _Counts(m2, S)
    _greedy_phase(S, c1, c2, dist_matrix, target)
    while (target is None or S.sum() < target) and _augment_once(S, c1, c2):
        pass
    return set(np.flatnonzero(S).tolist())
