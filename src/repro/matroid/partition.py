"""Partition matroid over a labelled ground set.

Both matroids in SFDM2's post-processing (and FairFlow's assignment) are
partition matroids:

* the **fairness matroid** ``M1``: labels = group ids, caps = the quotas k_i;
* the **cluster matroid** ``M2``: labels = cluster ids, caps = 1 everywhere.
"""
from __future__ import annotations

import numpy as np


class PartitionMatroid:
    """``S`` is independent iff ``|S ∩ {x: label(x)=l}| <= cap(l)`` for all l.

    The constructor builds the dense form every reader uses: ``lab``, each
    element's label as an index into the sorted distinct labels, and ``cap``,
    one cap per distinct label (``caps`` itself when it is an int, else
    ``caps.get(label, 0)``, so a label that ``caps`` does not name gets 0).
    """

    def __init__(self, labels: np.ndarray, caps: dict[int, int] | int):
        self.labels = np.asarray(labels, dtype=np.int64)
        keys, self.lab = np.unique(self.labels, return_inverse=True)
        if isinstance(caps, int):
            self.cap = np.full(len(keys), caps, dtype=np.int64)
        else:
            caps = {int(l): int(c) for l, c in caps.items()}
            self.cap = np.array([caps.get(l, 0) for l in keys.tolist()], dtype=np.int64)

    def is_independent(self, members: np.ndarray) -> bool:
        return bool((np.bincount(self.lab[members], minlength=len(self.cap)) <= self.cap).all())

    def can_add(self, counts: dict[int, int], x: int) -> bool:
        """Whether adding element ``x`` keeps independence, given label counts."""
        return bool(counts.get(int(self.labels[x]), 0) < self.cap[self.lab[x]])
