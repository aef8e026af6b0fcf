"""Output checks: every solution is fair, made of distinct stream ids, and
reports the diversity of the rows it returns.

Distances are recomputed here with plain NumPy, independently of
``repro.metrics``, so a defect in the program's distance kernel cannot hide
itself.
"""
from __future__ import annotations

import numpy as np


def pairwise(A: np.ndarray, B: np.ndarray, metric: str) -> np.ndarray:
    """Reference distance matrix between the rows of A and B, for the metrics
    the workloads use."""
    diff = A[:, None, :] - B[None, :, :]
    if metric == "euclidean":
        return np.sqrt((diff * diff).sum(-1))
    if metric == "manhattan":
        return np.abs(diff).sum(-1)
    raise ValueError(f"no reference distance for metric {metric!r}")


def min_distance(rows: np.ndarray, metric: str) -> float:
    """div(S): the smallest distance between two distinct rows."""
    D = pairwise(rows, rows, metric)
    return float(D[np.triu_indices(len(rows), k=1)].min())


def solution_problems(
    label: str,
    ids,
    diversity: float,
    *,
    stream_feats: np.ndarray,
    stream_groups: np.ndarray,
    ks: dict[int, int],
    metric: str,
    n_seen: int | None = None,
    fair: bool = True,
    rows: np.ndarray | None = None,
) -> list[str]:
    """Everything wrong with one solution; an empty list means it is correct.

    ``ids`` index the stream (``stream_feats``/``stream_groups``); only the
    first ``n_seen`` stream elements may appear. ``fair=False`` skips the
    per-group quotas, for the unconstrained GMM reference. ``rows`` are the
    feature rows the solution itself returned, if it returns any.
    """
    ids = np.asarray(ids).ravel()
    k = sum(ks.values())
    limit = len(stream_feats) if n_seen is None else n_seen
    out = []
    if len(ids) != k:
        out.append(f"{label}: {len(ids)} elements, expected k={k}")
    if len(np.unique(ids)) != len(ids):
        out.append(f"{label}: repeated ids")
    if len(ids) == 0 or ids.min() < 0 or ids.max() >= limit:
        out.append(f"{label}: ids outside the {limit} stream elements seen")
        return out
    if fair:
        got = np.asarray(stream_groups)[ids]
        for grp, want in ks.items():
            have = int((got == grp).sum())
            if have != want:
                out.append(f"{label}: group {grp} has {have} elements, quota {want}")
        if not np.isin(got, list(ks)).all():
            out.append(f"{label}: elements from groups without a quota")
    stream_rows = np.asarray(stream_feats)[ids]
    if rows is not None and not np.array_equal(np.asarray(rows), stream_rows):
        out.append(f"{label}: returned rows differ from the stream rows of its ids")
    if len(ids) >= 2:
        ref = min_distance(stream_rows, metric)
        if not np.isclose(diversity, ref, rtol=1e-6, atol=1e-9):
            out.append(f"{label}: reported diversity {diversity!r}, recomputed {ref!r}")
    return out


def result_problems(label: str, res, **kw) -> list[str]:
    """:func:`solution_problems` for a ``DMResult`` (ids, rows and diversity)."""
    return solution_problems(label, res.ids, res.diversity, rows=res.feats, **kw)


def differential_problems(label: str, got, ref) -> list[str]:
    """Where a distributed result differs from the sequential reference.

    Both are ``DMResult`` s of runs over the same rows in the same order, so
    every field compared must be equal exactly.
    """
    out = []
    if not np.array_equal(got.ids, ref.ids):
        out.append(f"{label}: solution ids differ from the sequential run")
    for field in ("mu", "diversity", "n_stored"):
        a, b = getattr(got, field), getattr(ref, field)
        if a != b:
            out.append(f"{label}: {field} {a!r} != sequential {b!r}")
    return out
