"""Geometric guess grid U for OPT, shared by Algorithm 1 / SFDM1 / SFDM2.

``U = { d_min / (1-eps)^j : j >= 0 } ∩ [d_min, d_max]`` — ascending, so the
number of guesses is ``O(log(d_max/d_min) / eps)``.
"""
from __future__ import annotations

import numpy as np

MAX_GUESSES = 512


def guess_grid(d_min: float, d_max: float, eps: float) -> np.ndarray:
    """Ascending geometric grid of OPT guesses over ``[d_min, d_max]``.

    Raises if the grid would exceed ``MAX_GUESSES`` entries (guard against a
    wildly under-estimated ``d_min``); callers should coarsen ``d_min`` or
    raise ``eps`` instead of silently truncating the grid.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if not (0.0 < d_min <= d_max < np.inf):
        raise ValueError(f"need 0 < d_min <= d_max < inf, got d_min={d_min}, d_max={d_max}")
    # log difference, not log of the ratio: d_max/d_min itself can overflow
    n = int(np.floor((np.log(d_max) - np.log(d_min)) / -np.log1p(-eps))) + 1
    if n > MAX_GUESSES:
        raise ValueError(
            f"guess grid has {n} > {MAX_GUESSES} entries "
            f"(d_min={d_min:g}, d_max={d_max:g}, eps={eps}); "
            "coarsen the extent estimate or increase eps"
        )
    mus = d_min / (1.0 - eps) ** np.arange(n)
    return mus[mus <= d_max * (1 + 1e-12)]
