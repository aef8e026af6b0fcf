"""Diversity objective: ``div(S) = min_{x != y in S} d(x, y)`` (max-min dispersion)."""
from __future__ import annotations

import numpy as np

from .metrics import Metric


def div(points: np.ndarray, metric: Metric) -> float:
    """Max-min diversity of a point set (inf for |S| < 2)."""
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 2:
        return float("inf")
    D = metric.pairwise(pts, pts)
    iu = np.triu_indices(len(pts), k=1)
    return float(D[iu].min())
