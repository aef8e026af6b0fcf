"""Partition matroid over a labelled ground set.

Both matroids in SFDM2's post-processing (and FairFlow's assignment) are
partition matroids:

* the **fairness matroid** ``M1``: labels = group ids, caps = the quotas k_i;
* the **cluster matroid** ``M2``: labels = cluster ids, caps = 1 everywhere.
"""
from __future__ import annotations

import numpy as np


class PartitionMatroid:
    """``S`` is independent iff ``|S ∩ {x: label(x)=l}| <= cap(l)`` for all l."""

    def __init__(self, labels: np.ndarray, caps: dict[int, int] | int):
        self.labels = np.asarray(labels, dtype=np.int64)
        if isinstance(caps, int):
            self.caps = dict.fromkeys(np.unique(self.labels).tolist(), caps)
        else:
            self.caps = {int(l): int(c) for l, c in caps.items()}

    def cap(self, label: int) -> int:
        return self.caps.get(int(label), 0)

    def cap_array(self, labels: np.ndarray) -> np.ndarray:
        """``cap(l)`` for every l in the int array ``labels``, in one lookup."""
        known = np.fromiter(self.caps, np.int64, len(self.caps))
        caps = np.fromiter(self.caps.values(), np.int64, len(self.caps))
        order = np.argsort(known)
        # A trailing cap-0 sentinel catches labels past the largest known one.
        known, caps = np.append(known[order], 0), np.append(caps[order], 0)
        pos = np.searchsorted(known[:-1], labels)
        return np.where(known[pos] == labels, caps[pos], 0)

    def is_independent(self, members: np.ndarray) -> bool:
        labels, counts = np.unique(self.labels[members], return_counts=True)
        return all(c <= self.cap(l) for l, c in zip(labels, counts))

    def can_add(self, counts: dict[int, int], x: int) -> bool:
        """Whether adding element ``x`` keeps independence, given label counts."""
        l = int(self.labels[x])
        return counts.get(l, 0) < self.cap(l)
