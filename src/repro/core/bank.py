"""Vectorized per-guess candidate maintenance (the stream phase of Alg. 1-3).

One :class:`StreamState` holds

* a bounded **element store** — features/group/id of every element accepted by
  at least one candidate (the paper's ``O(km logΔ/ε)`` memory bound), and
* one or more :class:`CandidateBank` s — for each guess ``μ`` in the grid, a
  candidate subset of the store: a list of at most ``cap`` store indices,
  one row of a ``(G, cap)`` matrix padded with ``-1``. One gather of x's
  distances to the members of the non-full candidates (a :class:`KernelView`),
  then a ``+inf`` for the padding to read, and one min give ``d(x, S_μ)``.

The update rule per element x (Algorithm 1, line 5): for each guess μ with
``|S_μ| < cap`` and ``d(x, S_μ) >= μ``, add x to ``S_μ``. Acceptance is
evaluated against the *blind* bank and the bank of x's own group only, exactly
as in Algorithms 2/3, by :meth:`CandidateBank.accept_mask`.
:meth:`StreamState.update` computes, per chunk, each row's ``d(x, S_μ)`` at
the chunk's start, drops the rows that no candidate can accept (the kernel,
:meth:`StreamState.keep_mask`), then applies the rule to the rest in order,
keeping their ``d(x, S_μ)`` as a running minimum over the rows stored since.

The state also keeps the store's distance matrix for SFDM2's post-processing
(:meth:`StreamState.distances`). Only ``distances`` writes it, when a solve
reads it, so the stream phase keeps no more than the store and its
candidates, and the matrix's cost falls in post-processing, as in the paper.
"""
from __future__ import annotations

from numbers import Real
from typing import NamedTuple

import numpy as np

from ..metrics import BLOCK_BYTES, Metric

__all__ = ["CandidateBank", "KernelView", "StreamState", "check_finite"]

_CHUNK = 1024  # rows per rejection step of StreamState.update
_DIST_GROWTH = 1.25  # capacity step of the store's distance matrix


class KernelView(NamedTuple):
    """A bank's non-full candidates as the acceptance test reads them.

    ``nonfull`` are the guesses with ``|S_μ| < cap``; ``cols`` the sorted
    store indices of their members; ``idx[i]`` the member list of guess
    ``nonfull[i]``, cut to the longest one, as positions in ``cols``, with
    the ``-1`` padding mapped to ``len(cols)``, the ``+inf`` row.
    """

    nonfull: np.ndarray
    cols: np.ndarray
    idx: np.ndarray


class CandidateBank:
    """G candidates (one per guess) over a shared element store.

    ``members[g, :sizes[g]]`` are candidate g's store indices in the order
    they were stored, so ascending; the rest of the row is ``-1``. Only this
    module reads ``members``; the rest of the program calls :meth:`indices`.
    """

    def __init__(self, n_guesses: int, cap: int):
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.cap = cap
        self.members = np.full((n_guesses, cap), -1, dtype=np.int64)
        self.sizes = np.zeros(n_guesses, dtype=np.int64)
        self._view: tuple[bytes, KernelView] | None = None  # (sizes.tobytes(), view)

    def add(self, guesses: np.ndarray, j: int) -> None:
        """Append store index ``j`` to the candidates of the guess indices ``guesses``."""
        self.members[guesses, self.sizes[guesses]] = j
        self.sizes[guesses] += 1

    def indices(self, guess: int) -> np.ndarray:
        """Store indices of candidate ``S_μ`` for guess index ``guess``, ascending."""
        return self.members[guess, : self.sizes[guess]]

    def view(self) -> KernelView:
        """The :class:`KernelView` of the current candidates, rebuilt only
        when ``sizes`` changed since the last call.

        Keyed by the sizes, not by :meth:`add`, so that a write to
        ``members`` and ``sizes`` from outside is seen too. Exact because
        candidates only grow: equal sizes mean equal members. Copies and
        pickles keep the view; it is O(G·cap) integers.
        """
        key = self.sizes.tobytes()
        if self._view is None or self._view[0] != key:
            nonfull = np.flatnonzero(self.sizes < self.cap)
            lists = self.members[nonfull, : max(1, self.sizes[nonfull].max(initial=0))]
            cols = np.unique(lists[lists >= 0])
            idx = np.where(lists >= 0, np.searchsorted(cols, lists), len(cols))
            self._view = key, KernelView(nonfull, cols, idx)
        return self._view[1]

    def accept_mask(self, M: np.ndarray, mus: np.ndarray, nonfull: np.ndarray) -> np.ndarray:
        """``(len(nonfull), elements)`` mask of the guesses ``nonfull`` that
        accept each element, Algorithm 1 line 5: ``|S_μ| < cap`` and
        ``d(x, S_μ) >= μ``, where ``M[i, e]`` is element e's ``d(x, S_μ)``
        for guess ``nonfull[i]``, ``∞`` for an empty candidate, which
        accepts.
        """
        return (M >= mus[nonfull, None]) & (self.sizes[nonfull, None] < self.cap)


class StreamState:
    """Element store + blind/group candidate banks; strictly sequential update."""

    def __init__(
        self,
        metric: Metric,
        mus: np.ndarray,
        dim: int,
        k: int,
        group_caps: dict[int, int] | None = None,
    ):
        self.metric = metric
        self.mus = np.asarray(mus, dtype=np.float64)
        if len(self.mus) == 0:
            raise ValueError("empty guess grid")
        if dim < 1:
            raise ValueError(f"dim is {dim}, must be at least 1")
        self.dim = dim
        self.k = k
        g = len(self.mus)
        self.blind = CandidateBank(g, k)
        self.group_banks: dict[int, CandidateBank] = {}
        if group_caps is not None:
            for grp, cap in group_caps.items():
                self.group_banks[int(grp)] = CandidateBank(g, cap)
        cap0 = 64
        self._feats = np.zeros((cap0, dim), dtype=np.float64)
        self._groups = np.zeros(cap0, dtype=np.int64)
        self._ids = np.zeros(cap0, dtype=np.int64)
        self.n_stored = 0
        self.n_seen = 0
        self.n_kept = 0  # rows the kernel passed to the per-element test
        # Store distance matrix: its first _n_dist rows and columns hold
        # rows_to_rows(feats, feats); the rest of the buffer is unset.
        self._dist = np.empty((0, 0))
        self._n_dist = 0

    # -- store access -------------------------------------------------------
    @property
    def feats(self) -> np.ndarray:
        return self._feats[: self.n_stored]

    @property
    def groups(self) -> np.ndarray:
        return self._groups[: self.n_stored]

    @property
    def ids(self) -> np.ndarray:
        return self._ids[: self.n_stored]

    def _append(self, x: np.ndarray, group: int, eid: int) -> int:
        if self.n_stored == len(self._feats):
            new_cap = 2 * len(self._feats)
            self._feats = np.resize(self._feats, (new_cap, self.dim))
            self._groups = np.resize(self._groups, new_cap)
            self._ids = np.resize(self._ids, new_cap)
        j = self.n_stored
        self._feats[j] = x
        self._groups[j] = group
        self._ids[j] = eid
        self.n_stored += 1
        return j

    # -- stream update ------------------------------------------------------
    def update(
        self,
        feats: np.ndarray,
        groups: np.ndarray | None = None,
        ids: np.ndarray | None = None,
    ) -> None:
        """Process a piece of the stream in order (chunking never changes state).

        Two steps per internal chunk of ``_CHUNK`` rows (:meth:`_chunk`):

        1. The kernel (:meth:`keep_mask`) computes, in one vectorized pass,
           each row's ``d(x, S_μ)`` against the start-of-chunk candidates
           and rejects every row they reject. Exactly safe: candidates only
           grow and ``d(x, S_μ)`` only shrinks, so such a row is rejected
           forever.
        2. The survivors, counted in ``n_kept``, are tested one row at a
           time, in stream order, on those distances, each lowered by the
           rows stored into its candidates since. Both steps compare with
           :meth:`CandidateBank.accept_mask`, so the kernel never rejects a
           row at a tie the second step would accept.

        Raises ``ValueError``, before changing any state, when ``feats`` does
        not have ``dim`` columns or ``groups`` or ``ids`` is not one entry per
        row; naming the first row whose stream id is not an integer in
        int64's range; naming the stream id of the first row with a NaN or
        infinite feature, or with a group that is not an integer in int64's
        range; or, when there are group banks, when ``groups`` is missing or
        naming the first row whose group has no bank, i.e. no quota.
        """
        feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
        b = len(feats)
        if feats.shape[1:] != (self.dim,):
            raise ValueError(f"feats has shape {feats.shape}, expected {self.dim} features per row")
        if groups is None:
            if self.group_banks:
                raise ValueError("groups is missing; every row needs a group when groups have quotas")
            groups = np.zeros(b, dtype=np.int64)
        groups = np.asarray(groups)
        if ids is None:
            ids = np.arange(self.n_seen, self.n_seen + b, dtype=np.int64)
        ids = np.asarray(ids)
        for name, a in (("groups", groups), ("ids", ids)):
            if a.shape != (b,):
                raise ValueError(f"{name} has shape {a.shape}, expected one entry for each of {b} rows")
        bad = _first_non_int64(ids)
        if bad is not None:
            raise ValueError(f"row {bad[0]} has stream id {bad[1]!r}, not an integer in int64's range")
        ids = ids.astype(np.int64, copy=False)
        check_finite(feats, ids)
        bad = _first_non_int64(groups)
        if bad is not None:
            raise ValueError(
                f"stream id {int(ids[bad[0]])} has group {bad[1]!r}, not an integer in int64's range"
            )
        groups = groups.astype(np.int64, copy=False)
        if self.group_banks and not self.group_banks.keys() >= set(np.unique(groups).tolist()):
            r = np.flatnonzero(~np.isin(groups, list(self.group_banks)))[0]
            raise ValueError(
                f"stream id {int(ids[r])} has group {int(groups[r])}, which has no quota"
            )
        for lo in range(0, b, _CHUNK):
            hi = lo + _CHUNK
            self._chunk(feats[lo:hi], groups[lo:hi], ids[lo:hi])
        self.n_seen += b

    def keep_mask(self, feats: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """The rejection kernel: False where no candidate of this state can accept a row.

        The kernel half of the chunk step, :meth:`_kernel`'s keep mask.
        """
        return self._kernel(feats, groups)[0]

    def _kernel(self, X: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, list]:
        """The keep mask of the rows ``X`` of groups ``G``, and per bank
        that keeps a row, ``(bank, nonfull, rows, M)``: ``rows`` are the
        rows it keeps, in stream order, and ``M[i, e]`` is row ``rows[e]``'s
        ``d(x, S_μ)`` at guess ``nonfull[i]``, the view's non-full guesses.

        The blind bank sees every row, a group bank only the rows of its
        group, a slice of one stable sort of ``G``. ``d(x, S_μ)`` is the min
        over the member list of a gather of :meth:`Metric.rows_to_rows` to
        the view's stored rows, with ``+inf`` for the padding, in row blocks
        that keep the distance block and its gather near ``BLOCK_BYTES``. A
        bank keeps the rows that :meth:`CandidateBank.accept_mask` accepts at
        some guess.
        """
        keep = np.zeros(len(X), dtype=bool)
        order = np.argsort(G, kind="stable")
        by_group = G[order]
        grps = np.fromiter(self.group_banks, np.int64, len(self.group_banks))
        starts = np.searchsorted(by_group, grps).tolist()
        ends = np.searchsorted(by_group, grps, side="right").tolist()
        rows_of = [np.arange(len(X)), *(order[a:b] for a, b in zip(starts, ends))]
        kept = []
        for (_, bank), rows in zip(self._banks(), rows_of, strict=True):
            v = bank.view()
            if rows.size == 0 or v.nonfull.size == 0:
                continue
            A, x = self.feats[v.cols], X[rows]
            step = max(1, BLOCK_BYTES // (8 * max(len(v.cols) + 1, v.idx.size)))  # per row: D, its gather
            M = np.empty((len(v.nonfull), len(x)))
            for lo in range(0, len(x), step):
                D = np.empty((len(v.cols) + 1, len(x[lo : lo + step])))
                D[:-1] = self.metric.rows_to_rows(A, x[lo : lo + step])
                D[-1] = np.inf
                M[:, lo : lo + step] = D[v.idx].min(axis=1)
            hit = bank.accept_mask(M, self.mus, v.nonfull).any(axis=0)
            if hit.any():
                keep[rows[hit]] = True
                kept.append((bank, v.nonfull, rows[hit], M[:, hit]))
        return keep, kept

    def _chunk(self, X: np.ndarray, G: np.ndarray, ids: np.ndarray) -> None:
        """Algorithm 1, line 5 for each row of one chunk, in stream order.

        Each kept row is tested on its column of ``M`` in each bank that
        kept it; the size test drops the guesses that filled since the chunk
        began. When the row is stored into guesses A of a bank, one
        ``rows_to_rows`` from it to the bank's later kept rows takes their
        ``M[A]`` down to the new ``d(x, S_μ)``. Exact: ``min`` is, and a
        ``rows_to_rows`` entry depends on the pair only, in either order, so
        each test is the one a row-at-a-time update would make.
        """
        keep, kept = self._kernel(X, G)
        self.n_kept += np.count_nonzero(keep)
        col = np.full((len(kept), len(X)), -1)  # a row's column in each bank's M, or -1
        tests = []
        for t, (bank, nonfull, rows, M) in enumerate(kept):
            col[t, rows] = np.arange(len(rows))
            tests.append((bank, nonfull, X[rows], M))
        for r in np.flatnonzero(keep).tolist():
            takes = []
            for t in np.flatnonzero(col[:, r] >= 0).tolist():
                bank, nonfull, _, M = tests[t]
                c = col[t, r]
                acc = bank.accept_mask(M[:, c, None], self.mus, nonfull)[:, 0]
                if acc.any():
                    takes.append((t, c, acc))
            if takes:
                j = self._append(X[r], int(G[r]), int(ids[r]))
                for t, c, acc in takes:
                    bank, nonfull, Xk, M = tests[t]
                    bank.add(nonfull[acc], j)
                    later = Xk[c + 1 :]
                    if len(later):
                        d = self.metric.rows_to_rows(X[r, None], later)
                        M[acc, c + 1 :] = np.minimum(M[acc, c + 1 :], d)

    # -- store distance matrix ------------------------------------------------
    def distances(self) -> np.ndarray:
        """The store's distance matrix, ``rows_to_rows(feats, feats)`` bit for bit.

        The only writer of the matrix. Each call computes the rows stored
        since the previous call (all of them in a copy, which drops the
        matrix), in the row blocks of :meth:`Metric.lower_blocks`, and
        mirrors each block into its columns, because
        ``rows_to_rows`` is symmetric bit for bit. The buffer grows in
        ``_DIST_GROWTH`` steps rather than the store's doubling (a 2,048²
        buffer is 33 MB), since an anytime solver extends it at every solve.
        """
        n, lo = self.n_stored, self._n_dist
        if lo < n:
            if n > len(self._dist):
                D = np.empty((max(n, 64, int(len(self._dist) * _DIST_GROWTH)),) * 2)
                D[:lo, :lo] = self._dist[:lo, :lo]
                self._dist = D
            D = self._dist
            for a, b, R in self.metric.lower_blocks(self.feats, lo):
                D[a:b, :b] = R
                D[:a, a:b] = R[:, :a].T
            self._n_dist = n
        return self._dist[:n, :n]

    def __getstate__(self) -> dict:
        """Copies and pickles carry the store, not its distance matrix: it is
        O(n_stored²) and rebuilt by the first :meth:`distances` call."""
        state = self.__dict__.copy()
        state["_dist"], state["_n_dist"] = np.empty((0, 0)), 0
        return state

    def _banks(self) -> list[tuple[int | None, CandidateBank]]:
        """``(group, bank)`` per bank; group None is the blind bank."""
        return [(None, self.blind), *self.group_banks.items()]

    # -- state copy -----------------------------------------------------------
    def snapshot(self) -> dict:
        """An immutable copy of the state's arrays (metric name, guesses, store, banks)."""
        return {
            "metric": self.metric.name,
            "mus": self.mus.copy(),
            "feats": self.feats.copy(),
            "banks": [(g, b.members.copy(), b.sizes.copy(), b.cap) for g, b in self._banks()],
        }


def check_finite(feats: np.ndarray, ids: np.ndarray) -> None:
    """Raise ``ValueError`` naming the id of the first row with a NaN or infinite feature."""
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise ValueError(f"stream id {int(ids[bad[0]])} has a non-finite feature")


def _first_non_int64(a: np.ndarray) -> tuple[int, object] | None:
    """Index and value of the first entry that is not an integer in int64's
    range; None when there is none. Only integer, float and object arrays
    can hold integers: ``astype(np.int64)`` would parse strings, read bools
    as 0 and 1 and drop an imaginary part, truncate 0.5 to 0, and wrap
    2**63 + 5 (as uint64) or 1e19 to a negative number."""
    if a.dtype.kind == "i":
        return None
    if a.dtype.kind == "f":
        bad = (np.floor(a) != a) | ~((a >= -(2.0**63)) & (a < 2.0**63))
    elif a.dtype.kind == "u":
        bad = a > np.iinfo(np.int64).max
    elif a.dtype.kind == "O":  # e.g. a Python int beyond uint64's range, None or True
        bad = [
            isinstance(v, bool) or not (isinstance(v, Real) and -(2**63) <= v < 2**63 and v == int(v))
            for v in a.tolist()
        ]
    else:  # bool, complex, string, bytes, date
        bad = np.ones(len(a), dtype=bool)
    bad = np.flatnonzero(bad)
    return (int(bad[0]), a[bad[0] : bad[0] + 1].tolist()[0]) if bad.size else None
