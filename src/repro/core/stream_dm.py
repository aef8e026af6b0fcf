"""Algorithm 1 — streaming (unconstrained) max-min diversity maximization.

Borassi et al.'s guess-grid algorithm, shown to be ``(1-ε)/2``-approximate for
max-min dispersion by Theorem 1 of the reproduced paper. This is the building
block both SFDM algorithms instantiate per candidate.
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


def raise_if_group_short(algo: str, st: StreamState, ks: dict[int, int]) -> None:
    """For SFDM1/SFDM2 when no guess qualifies (U' empty): raise a
    ``RuntimeError`` naming the first group that stored fewer rows than its
    quota, since such a group cannot fill its candidate at any guess."""
    for grp, kg in sorted(ks.items()):
        n = int(np.count_nonzero(st.groups == grp))
        if n < kg:
            raise RuntimeError(
                f"{algo}: group {grp} has {n} stored rows, fewer than its "
                f"quota {kg} (U' empty)"
            )


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
        self.metric = get_metric(metric) if isinstance(metric, str) else metric
        self.mus = guess_grid(d_min, d_max, eps)
        self.state = StreamState(self.metric, self.mus, dim, k)
        self.k = k

    def update(self, feats, groups=None, ids=None) -> None:
        self.state.update(feats, groups, ids)

    def solve(self) -> DMResult:
        """Return the full candidate with the largest diversity (Alg. 1, line 7)."""
        st = self.state
        best = None
        for g in range(len(self.mus)):
            if st.blind.sizes[g] != self.k:
                continue
            idx = st.blind.indices(g, st.n_stored)
            d = div(st.feats[idx], self.metric)
            if best is None or d > best[0]:
                best = (d, idx, float(self.mus[g]))
        if best is None:
            raise RuntimeError(
                f"no guess filled k={self.k} candidates; "
                "d_min estimate too high or k > n"
            )
        d, idx, mu = best
        return DMResult(
            indices=idx,
            ids=st.ids[idx],
            feats=st.feats[idx],
            groups=st.groups[idx],
            diversity=d,
            mu=mu,
            n_stored=st.n_stored,
        )
