"""Metric substrate: euclidean / manhattan / angular distances.

All algorithms in the paper are metric-agnostic; the three metrics here
are the ones used in its evaluation (Table I). Each metric exposes
vectorized forms:

* ``rows_to_rows(X, A)`` -> (|X| x |A|) distances, the one arithmetic,
* ``pairwise(A, B)`` -> the same matrix, under the name its callers use,
* ``point_to_rows(x, A)`` -> (|A|,) distances from one point,
* ``lower_blocks(X, lo)`` -> ``rows_to_rows(X, X)``'s lower triangle from row
  ``lo`` on, in row blocks,

over float64 numpy arrays with points as rows. Every distance the package
computes is a ``rows_to_rows`` double, so a pair has the same distance
wherever it is measured.

Each metric's formula is written once: its per-feature term
(``Metric._terms``) and the step that turns a pair's sum of terms into its
distance (``Metric._finish``). ``rows_to_rows`` sums the terms in the order
numpy's ``.sum(-1)`` sums a contiguous row (:func:`_pairwise_sum`). Small
outputs and single rows use that reduction itself, over a
``(|X|, |A|, dim)`` temporary. From ``_PLANE_CELLS`` output cells of more
than one row on, the plane kernel takes over: it holds ``A`` feature-major
(:meth:`Metric.feature_major`), computes one ``(|X|, |A|)`` plane per
feature into preallocated buffers and adds the planes in that same order,
so every entry is the same double either way. It is faster there because
each numpy call runs over a whole plane instead of reducing a row only
``dim`` long per output cell.
"""
from __future__ import annotations

import threading
from collections.abc import Iterator

import numpy as np

__all__ = ["Metric", "get_metric", "METRICS"]

BLOCK_BYTES = 1 << 20  # target size of a block of distances, and of the planes' scratch
_PLANE_CELLS = 4096  # rows_to_rows outputs of 2+ rows from this many cells use the planes
_UNROLL = 8  # numpy's pairwise sum: 8 accumulators ...
_PW_BLOCK = 128  # ... over at most 128 terms, else split in two
_CELLS = BLOCK_BYTES // (8 * 2 * _UNROLL)  # output cells per block: two 8-plane buffers
_scratch = threading.local()  # per thread, the planes' buffers, reused across calls


class Metric:
    """A named distance metric with vectorized pairwise forms."""

    def __init__(self, name: str):
        if name not in ("euclidean", "manhattan", "angular"):
            raise ValueError(f"unknown metric {name!r}")
        self.name = name

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Full distance matrix between rows of A and rows of B: :meth:`rows_to_rows`."""
        return self.rows_to_rows(A, B)

    def point_to_rows(self, x: np.ndarray, A: np.ndarray) -> np.ndarray:
        """Distances from a single point ``x`` to every row of ``A``."""
        return self.rows_to_rows(np.asarray(x, dtype=np.float64)[None, :], A)[0]

    def rows_to_rows(self, X: np.ndarray, A: np.ndarray) -> np.ndarray:
        """(|X| x |A|) distances; entry ``[i, j]`` depends on ``X[i]`` and ``A[j]`` only.

        Every sum adds the pair's per-feature terms in numpy's ``.sum(-1)``
        order, so ``rows_to_rows(X, A)[i, j]`` is bit-identical to
        ``point_to_rows(X[i], A[cols])`` at ``A[j]``'s position, for any
        ``cols``, and ``rows_to_rows(A, X)`` is its transpose bit for bit —
        the stream phase, the store matrix and the extent scan rely on both
        (see DESIGN.md §3). Outputs of more than one row and at least
        ``_PLANE_CELLS`` cells go through the plane kernel, whose buffers
        stay near ``BLOCK_BYTES``. The others build a
        ``|X| x |A| x dim`` temporary: under ``_PLANE_CELLS * dim`` doubles
        for more than one row, ``|A| * dim`` for one.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        A = np.ascontiguousarray(A, dtype=np.float64)
        _check_features(X, A.shape[1])
        if len(X) > 1 and len(X) * len(A) >= _PLANE_CELLS:
            return self.rows_to_feature_major(X, self.feature_major(A))
        S = self._terms(A[None, :, :], X[:, None, :]).sum(-1)
        return self._finish(S, X, self._norms(A))

    def feature_major(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``A`` laid out for :meth:`rows_to_feature_major`: its ``(dim, |A|)``
        transpose, contiguous, and for angular its row norms (else None).

        Build it once to measure many points against the same rows.
        """
        A = np.ascontiguousarray(A, dtype=np.float64)
        return np.ascontiguousarray(A.T), self._norms(A)

    def rows_to_feature_major(
        self, X: np.ndarray, fm: tuple[np.ndarray, np.ndarray | None]
    ) -> np.ndarray:
        """``rows_to_rows(X, A)`` bit for bit, through the plane kernel, with
        ``fm = feature_major(A)``.

        Per block of output cells, the planes of ``dim`` features are summed
        by :func:`_pairwise_sum` in ``(8, rows, cols)`` scratch buffers of
        about ``BLOCK_BYTES`` in all; a block spans whole rows of the output
        or, when ``|A|`` alone fills a block, part of one row.
        """
        AT, na = fm
        X = np.ascontiguousarray(X, dtype=np.float64)
        XT = X.T
        dim, n_a = AT.shape
        _check_features(X, dim)
        out = np.empty((len(X), n_a))
        w = max(1, min(n_a, _CELLS))
        h = max(1, _CELLS // w)
        acc_buf, tmp_buf = _buffers()
        for r0 in range(0, len(X), h):
            for c0 in range(0, n_a, w):
                o = out[r0 : r0 + h, c0 : c0 + w]
                shape = (_UNROLL, *o.shape)
                size = o.size * _UNROLL
                acc = acc_buf[:size].reshape(shape)
                tmp = tmp_buf[:size].reshape(shape)
                a_blk, x_blk = AT[:, None, c0 : c0 + w], XT[:, r0 : r0 + h, None]

                def planes(lo: int, hi: int, dst: np.ndarray) -> None:
                    self._terms(a_blk[lo:hi], x_blk[lo:hi], dst[: hi - lo])

                _pairwise_sum(planes, 0, dim, o, acc, tmp)
        return self._finish(out, X, na)

    def lower_blocks(self, X: np.ndarray, lo: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """``(a, b, rows_to_rows(X[a:b], X[:b]))`` for row blocks ``a:b`` from
        row ``lo`` to the end of ``X``: the lower triangle of
        ``rows_to_rows(X, X)`` and its diagonal, a block of rows at a time,
        each block near ``BLOCK_BYTES``."""
        n = len(X)
        step = max(1, BLOCK_BYTES // (8 * max(1, n)))
        for a in range(lo, n, step):
            b = min(a + step, n)
            yield a, b, self.rows_to_rows(X[a:b], X[:b])

    # -- the one formula per metric: terms, summed by _pairwise_sum, finished --
    def _terms(self, a: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The per-feature terms of each pair, broadcast: ``(a-x)²``, ``|a-x|``
        or ``a·x``, into ``out`` if given."""
        if self.name == "angular":
            return np.multiply(a, x, out=out)
        d = np.subtract(a, x, out=out)
        return (np.square if self.name == "euclidean" else np.abs)(d, out=d)

    def _norms(self, A: np.ndarray) -> np.ndarray | None:
        """The row norms of ``A`` for angular's denominator; None for the others."""
        return np.sqrt((A * A).sum(-1)) if self.name == "angular" else None

    def _finish(self, S: np.ndarray, X: np.ndarray, na: np.ndarray | None) -> np.ndarray:
        """The distances from ``S``, the sums of the terms of ``X``'s rows
        against rows of norms ``na``, in place: the square root for
        Euclidean, nothing for Manhattan; for angular, the cosine over the
        norm product (1 where that is 0), clipped, then its arccos."""
        if self.name == "euclidean":
            return np.sqrt(S, out=S)
        if self.name == "manhattan":
            return S
        prod = na[None, :] * self._norms(X)[:, None]
        prod[prod == 0] = 1.0
        np.divide(S, prod, out=S)
        return np.arccos(np.clip(S, -1.0, 1.0, out=S), out=S)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Metric({self.name!r})"


def _check_features(X: np.ndarray, dim: int) -> None:
    """Raise unless the points ``X`` have the rows' ``dim`` features: the
    planes would use the common features and the row-major expression would
    broadcast a single feature, both silently."""
    if X.shape[1] != dim:
        raise ValueError(f"points have {X.shape[1]} features, the rows {dim}")


def _buffers() -> tuple[np.ndarray, np.ndarray]:
    """This thread's two scratch buffers of ``_UNROLL * _CELLS`` doubles.

    Kept across calls: fresh buffers of this size are returned to the
    system when freed, and faulting their pages in again costs more than
    the planes computed in them on a small output.
    """
    buf = getattr(_scratch, "buf", None)
    if buf is None:
        buf = _scratch.buf = np.empty((2, _UNROLL * _CELLS))
    return buf[0], buf[1]


def _pairwise_sum(planes, lo: int, n: int, out: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> None:
    """Write into ``out`` the sum of planes ``lo .. lo+n-1``, cell by cell in
    the order numpy's ``pairwise_sum`` adds ``n`` contiguous doubles, so each
    cell is the double ``.sum(-1)`` gives over its terms.

    ``planes(a, b, dst)`` writes planes ``a .. b-1`` into ``dst[:b - a]``;
    ``acc`` and ``tmp`` are ``(8, *out.shape)`` scratch. numpy's order:

    * fewer than 8 terms: a left fold;
    * 8 to 128 terms: 8 accumulators, each taking every 8th term of the
      longest multiple-of-8 prefix, combined as
      ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover terms in order;
    * more than 128: the sums of the first ``n2`` and the remaining terms,
      with ``n2`` = n/2 rounded down to a multiple of 8.

    numpy starts a fold from 0.0 and adds the total to 0.0, which turns a
    -0.0 sum into +0.0; only a sum of angular products can be -0.0, and the
    arccos after it gives the same distance for either zero.
    """
    if n < _UNROLL:
        if n == 0:
            out.fill(0.0)
            return
        planes(lo, lo + n, tmp)
        np.copyto(out, tmp[0])
        for j in range(1, n):
            out += tmp[j]
    elif n <= _PW_BLOCK:
        planes(lo, lo + _UNROLL, acc)
        i = _UNROLL
        while i < n - n % _UNROLL:
            planes(lo + i, lo + i + _UNROLL, tmp)
            acc += tmp
            i += _UNROLL
        acc[0::2] += acc[1::2]  # r0+r1, r2+r3, r4+r5, r6+r7
        acc[0::4] += acc[2::4]  # (r0+r1)+(r2+r3), (r4+r5)+(r6+r7)
        np.add(acc[0], acc[4], out=out)
        if i < n:
            planes(lo + i, lo + n, tmp)
            for j in range(n - i):
                out += tmp[j]
    else:
        n2 = n // 2 - (n // 2) % _UNROLL
        _pairwise_sum(planes, lo, n2, out, acc, tmp)
        rest = np.empty_like(out)
        _pairwise_sum(planes, lo + n2, n - n2, rest, acc, tmp)
        out += rest


METRICS = ("euclidean", "manhattan", "angular")


def get_metric(metric: str | Metric) -> Metric:
    """Look up a metric by name (``euclidean``/``manhattan``/``angular``);
    a :class:`Metric` is returned as it is."""
    return metric if isinstance(metric, Metric) else Metric(metric)
