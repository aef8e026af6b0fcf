"""Threshold single-linkage clustering (Algorithm 3, lines 13-16).

Repeatedly merging any two clusters that contain a cross-pair closer than the
threshold is exactly the transitive closure of the "closer than threshold"
relation, so one union-find pass over all close pairs suffices.
"""
from __future__ import annotations

import numpy as np


class UnionFind:
    """Array-based union-find with path compression (substrate for clustering)."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        p = self.parent
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:
            p[a], a = root, p[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def threshold_clusters(D: np.ndarray, threshold: float) -> np.ndarray:
    """Cluster labels (0..l-1) such that clusters are >= threshold apart.

    ``D`` is the (n x n) distance matrix of the points, e.g. a slice of the
    store's distance matrix that SFDM2's ``solve`` reads. Any two points closer
    than ``threshold`` end up in the same cluster (transitively); the
    minimum cross-cluster distance is >= threshold.
    """
    n = len(D)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    uf = UnionFind(n)
    # Close pairs above the diagonal only, in row-major order.
    close_i, close_j = np.nonzero(np.triu(D < threshold, 1))
    for i, j in zip(close_i.tolist(), close_j.tolist()):
        uf.union(i, j)
    roots = np.array([uf.find(i) for i in range(n)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels.astype(np.int64)
