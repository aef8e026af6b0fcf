"""Algorithm 1 — streaming (unconstrained) max-min diversity maximization,
and the guess-grid skeleton SFDM1 and SFDM2 extend.

Borassi et al.'s guess-grid algorithm, shown to be ``(1-ε)/2``-approximate for
max-min dispersion by Theorem 1 of the reproduced paper. SFDM1 and SFDM2 are
instances of it: they share its grid, its stream phase and its final pick
(the guess of U′ whose solution has the largest ``div``), and differ only in
their group candidates' caps and in how each guess of U′ is post-processed
(:meth:`StreamingDM._post`).

``solve`` can be called at any point of the stream, and it post-processes
only the guesses whose candidates changed since the solver's previous
``solve``: each guess's result is kept with the sizes of its candidates,
which only grow, and reused while they are unchanged. Copies and pickles
leave these results out.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..diversity import div
from ..guesses import guess_grid
from ..metrics import Metric, get_metric
from .bank import StreamState


@dataclass
class DMResult:
    """Solution of a (fair) diversity-maximization run."""

    indices: np.ndarray        # indices into the run's element store
    ids: np.ndarray            # original stream ids of the solution
    feats: np.ndarray
    groups: np.ndarray
    diversity: float
    mu: float                  # winning guess
    n_stored: int              # elements kept in memory (space usage)
    extra: dict = field(default_factory=dict)


def quotas(algo: str, ks: dict) -> dict[int, int]:
    """``ks`` with int groups and quotas; raises ``ValueError`` naming the
    first group whose quota is below 1."""
    ks = {int(g): int(kg) for g, kg in ks.items()}
    for grp, kg in sorted(ks.items()):
        if kg < 1:
            raise ValueError(f"{algo}: group {grp} has quota {kg}, must be at least 1")
    return ks


class StreamingDM:
    """One-pass streaming DM: feed chunks via :meth:`update`, then :meth:`solve`."""

    def __init__(
        self,
        metric: str | Metric,
        *,
        k: int,
        eps: float,
        d_min: float,
        d_max: float,
        dim: int,
    ):
        if k < 1:
            raise ValueError(f"StreamingDM: k is {k}, must be at least 1")
        self._setup(metric, k, {}, {}, eps, d_min, d_max, dim)

    def _setup(self, metric, k, ks, group_caps, eps, d_min, d_max, dim) -> None:
        """The guess grid and the state: a blind candidate of cap k and, per
        group of the quotas ``ks`` (none for Algorithm 1), one of its cap in
        ``group_caps``."""
        self.metric = get_metric(metric)
        self.k, self.ks = k, ks
        self.mus = guess_grid(d_min, d_max, eps)
        self.state = StreamState(self.metric, self.mus, dim, k, group_caps=group_caps)
        # Per guess index: (candidate sizes, _post's result, its div) as of
        # the last solve that post-processed it.
        self._posted: dict[int, tuple] = {}

    def update(self, feats, groups=None, ids=None) -> None:
        self.state.update(feats, groups, ids)

    def _post(self, g: int):
        """Guess index g's solution as store indices, or None if it has none
        (Algorithm 1: the blind candidate itself)."""
        return self.state.blind.indices(g)

    def solve(self) -> DMResult:
        """Post-process every guess of ``U'`` (a full blind candidate and
        every group candidate holding at least its quota) and return the
        first solution with the largest diversity (Alg. 1, line 7).

        A guess's result is reused while the sizes of its blind and group
        candidates equal those it was post-processed at. That is exact:
        candidates only grow, so equal sizes mean equal members, and ``_post``
        and ``div`` read nothing else that changes (stored rows and their
        distances never do). ``extra`` counts the guesses post-processed
        (``posted``) and reused (``reused``) by this call.
        """
        st = self.state
        sizes = np.stack([st.blind.sizes, *(b.sizes for b in st.group_banks.values())], 1)
        in_u = st.blind.sizes == self.k
        for grp, kg in self.ks.items():
            in_u &= st.group_banks[grp].sizes >= kg
        u_prime = np.flatnonzero(in_u).tolist()
        best, posted = None, 0
        for g in u_prime:
            key = sizes[g].tobytes()
            if g not in self._posted or self._posted[g][0] != key:
                sol = self._post(g)
                d = None if sol is None else div(st.feats[sol], self.metric)
                self._posted[g] = (key, sol, d)
                posted += 1
            _, sol, d = self._posted[g]
            if sol is not None and (best is None or d > best[0]):
                best = (d, sol, g)
        if best is None:
            name = type(self).__name__
            for grp, kg in sorted(self.ks.items()):
                n = int(np.count_nonzero(st.groups == grp))
                if n < kg:
                    raise RuntimeError(
                        f"{name}: group {grp} has {n} stored rows, fewer than "
                        f"its quota {kg} (U' empty)"
                    )
            raise RuntimeError(
                f"{name}: no guess yielded a solution of size k={self.k} "
                "(U' empty); extent estimate, k or quotas inconsistent with the data"
            )
        d, sol, g = best
        idx = np.array(sol)  # a copy: callers must not reach the kept result
        return DMResult(
            indices=idx,
            ids=st.ids[idx],
            feats=st.feats[idx],
            groups=st.groups[idx],
            diversity=d,
            mu=float(self.mus[g]),
            n_stored=st.n_stored,
            extra={
                "guesses": len(self.mus),
                "u_prime": len(u_prime),
                "posted": posted,
                "reused": len(u_prime) - posted,
                "winner_index": g,
            },
        )

    def __getstate__(self) -> dict:
        """Copies and pickles carry the state, not the post-processed
        results: a copy's first :meth:`solve` post-processes every guess."""
        state = self.__dict__.copy()
        state["_posted"] = {}
        return state
