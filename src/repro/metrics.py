"""Metric substrate: euclidean / manhattan / angular distances.

All algorithms in the paper are metric-agnostic; the three metrics here
are the ones used in its evaluation (Table I). Each metric exposes
vectorized forms:

* ``pairwise(A, B)`` -> (|A| x |B|) distance matrix,
* ``point_to_rows(x, A)`` -> (|A|,) distances from one point,
* ``rows_to_rows(X, A)`` -> the same arithmetic for many points at once,

over float64 numpy arrays with points as rows.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Metric", "get_metric", "METRICS"]

_BLOCK_BYTES = 1 << 20  # target size of one Manhattan ``pairwise`` temporary


class Metric:
    """A named distance metric with vectorized pairwise forms."""

    def __init__(self, name: str):
        if name not in ("euclidean", "manhattan", "angular"):
            raise ValueError(f"unknown metric {name!r}")
        self.name = name

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Full distance matrix between rows of A and rows of B."""
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if self.name == "euclidean":
            # (a-b)^2 = a^2 + b^2 - 2ab, clipped for fp negatives
            sq = (
                (A * A).sum(1)[:, None]
                + (B * B).sum(1)[None, :]
                - 2.0 * (A @ B.T)
            )
            return np.sqrt(np.clip(sq, 0.0, None))
        if self.name == "manhattan":
            # Row-blocked so the (rows, |B|, dim) temporary stays near
            # _BLOCK_BYTES; each entry is the unblocked expression's.
            out = np.empty((len(A), len(B)))
            step = max(1, _BLOCK_BYTES // (8 * max(1, B.size)))
            for lo in range(0, len(A), step):
                out[lo : lo + step] = np.abs(A[lo : lo + step, None, :] - B[None, :, :]).sum(-1)
            return out
        # angular: arccos of cosine similarity, in [0, pi]
        na = np.linalg.norm(A, axis=1)
        nb = np.linalg.norm(B, axis=1)
        denom = np.where(na[:, None] * nb[None, :] == 0, 1.0, na[:, None] * nb[None, :])
        cos = (A @ B.T) / denom
        return np.arccos(np.clip(cos, -1.0, 1.0))

    def point_to_rows(self, x: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Distances from a single point ``x`` to every row of ``A``."""
        return self.rows_to_rows(np.asarray(x, dtype=np.float64)[None, :], A)[0]

    def rows_to_rows(self, X: np.ndarray, A: np.ndarray) -> np.ndarray:
        """(|X| x |A|) distances; entry ``[i, j]`` depends on ``X[i]`` and ``A[j]`` only.

        Unlike :meth:`pairwise` (Gram form, BLAS), every sum here is a
        reduction along the feature axis of an elementwise temporary, so
        ``rows_to_rows(X, A)[i, j]`` is bit-identical to
        ``point_to_rows(X[i], A[cols])`` at ``A[j]``'s position, for any
        ``cols`` — the stream phase relies on this (see DESIGN.md §3).
        Temporaries are ``|X| x |A| x dim``, so callers block large ``X``.
        """
        X = np.asarray(X, dtype=np.float64)
        A = np.asarray(A, dtype=np.float64)
        if A.size == 0:
            return np.zeros((len(X), 0))
        if self.name in ("euclidean", "manhattan"):
            diff = A[None, :, :] - X[:, None, :]
            if self.name == "manhattan":
                return np.abs(diff, out=diff).sum(-1)
            return np.sqrt(np.square(diff, out=diff).sum(-1))
        nx = np.sqrt((X * X).sum(-1))
        na = np.sqrt((A * A).sum(-1))
        prod = na[None, :] * nx[:, None]
        denom = np.where(prod == 0, 1.0, prod)
        cos = (A[None, :, :] * X[:, None, :]).sum(-1) / denom
        return np.arccos(np.clip(cos, -1.0, 1.0))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Metric({self.name!r})"


METRICS = ("euclidean", "manhattan", "angular")


def get_metric(name: str) -> Metric:
    """Look up a metric by name (``euclidean``/``manhattan``/``angular``)."""
    return Metric(name)
