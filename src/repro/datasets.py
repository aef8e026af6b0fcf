"""Synthetic stand-ins for the paper's evaluation datasets (Table I).

No network access: the four real datasets (Adult, CelebA, Census, Lyrics) are
replaced by deterministic generators that reproduce their *relevant geometry*
— dimensionality, metric, number of groups, and group-size skew — per the
substitution table in DESIGN.md §4. The paper's own synthetic generator
(`blobs`) is reproduced exactly as described in §V-A.

Every generator returns a :class:`Dataset` holding a float64 feature matrix,
integer group labels, and the metric name; ``to_pandas``/``to_spark`` expose
it as a (id, group, features array<double>) frame for the Spark layers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .metrics import get_metric

ADULT_N = 48_842
CELEBA_N = 100_000   # paper: 202,599 — scaled, see DESIGN.md §4
CENSUS_N = 200_000   # paper: 2,426,116 — scaled, see DESIGN.md §4
LYRICS_N = 50_000    # paper: 122,448 — scaled, see DESIGN.md §4


@dataclass
class Dataset:
    """A labelled point set in a named metric space."""

    name: str
    feats: np.ndarray
    groups: np.ndarray
    metric_name: str

    @property
    def n(self) -> int:
        return len(self.feats)

    @property
    def m(self) -> int:
        return len(np.unique(self.groups))

    @property
    def dim(self) -> int:
        return self.feats.shape[1]

    @property
    def metric(self):
        return get_metric(self.metric_name)

    def to_pandas(self) -> pd.DataFrame:
        # tolist() yields plain Python floats so the frame round-trips through
        # Spark's non-Arrow createDataFrame path too (job sessions may not
        # enable Arrow).
        return pd.DataFrame(
            {
                "id": np.arange(self.n, dtype=np.int64),
                "group": self.groups.astype(np.int64),
                "features": self.feats.tolist(),
            }
        )

    def to_spark(self, spark):
        from .spark.streaming import STREAM_SCHEMA  # pyspark only when asked for

        return spark.createDataFrame(self.to_pandas(), schema=STREAM_SCHEMA)


def _normalize(F: np.ndarray) -> np.ndarray:
    """Zero-mean unit-std per column (the paper normalizes Adult/Census)."""
    mu = F.mean(axis=0)
    sd = F.std(axis=0)
    sd[sd == 0] = 1.0
    return (F - mu) / sd


def _mixture(g: np.random.Generator, n: int, dim: int, n_comp: int, spread: float) -> np.ndarray:
    centers = g.uniform(-spread, spread, size=(n_comp, dim))
    comp = g.integers(0, n_comp, n)
    return centers[comp] + g.normal(0.0, 1.0, size=(n, dim))


def adult_like(n: int = ADULT_N, grouping: str = "sex", seed: int = 7) -> Dataset:
    """Adult stand-in: 6 numeric features, Euclidean; sex 67/33, race 87/8/3/1/1."""
    g = np.random.default_rng(seed)
    F = _mixture(g, n, 6, 8, 3.0)
    sex = (g.random(n) < 0.33).astype(np.int64)             # 67% group 0 (paper: male)
    race = g.choice(5, size=n, p=[0.87, 0.08, 0.03, 0.01, 0.01])
    # weak group/feature correlation, as in real demographic data;
    # normalization (zero mean, unit std) is applied to the final features
    F[:, 0] += 0.4 * sex
    F[:, 1] += 0.2 * race
    F = _normalize(F)
    if grouping == "sex":
        grp = sex
    elif grouping == "race":
        grp = race
    elif grouping == "sex+race":
        grp = sex * 5 + race
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    return Dataset(f"adult/{grouping}", F, grp, "euclidean")


def celeba_like(n: int = CELEBA_N, grouping: str = "sex", seed: int = 11) -> Dataset:
    """CelebA stand-in: 41 binary attribute features, Manhattan; sex & age groups."""
    g = np.random.default_rng(seed)
    sex = (g.random(n) < 0.42).astype(np.int64)             # paper split ~58/42
    age = (g.random(n) < 0.23).astype(np.int64)             # 'not young' ~23%
    latent = g.integers(0, 10, n)
    base = g.random((10, 41)) * 0.8 + 0.1                   # per-cluster attr probs
    p = base[latent]
    # a handful of attributes correlated with sex/age (mirrors CelebA labels)
    p[:, :5] = np.clip(p[:, :5] + 0.35 * sex[:, None] - 0.15, 0.02, 0.98)
    p[:, 5:9] = np.clip(p[:, 5:9] + 0.30 * age[:, None] - 0.1, 0.02, 0.98)
    F = (g.random((n, 41)) < p).astype(np.float64)
    if grouping == "sex":
        grp = sex
    elif grouping == "age":
        grp = age
    elif grouping == "sex+age":
        grp = sex * 2 + age
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    return Dataset(f"celeba/{grouping}", F, grp, "manhattan")


def census_like(n: int = CENSUS_N, grouping: str = "sex", seed: int = 13) -> Dataset:
    """Census stand-in: 25 normalized numeric features, Manhattan; 2/7/14 groups."""
    g = np.random.default_rng(seed)
    F = _mixture(g, n, 25, 12, 2.0)
    sex = (g.random(n) < 0.48).astype(np.int64)
    age_raw = np.clip(g.normal(45, 18, n), 0, 95)
    age = np.digitize(age_raw, [15, 25, 35, 45, 55, 65]).astype(np.int64)  # 7 bins
    F[:, 0] += 0.05 * age_raw / 10.0
    F[:, 1] += 0.3 * sex
    F = _normalize(F)
    if grouping == "sex":
        grp = sex
    elif grouping == "age":
        grp = age
    elif grouping == "sex+age":
        grp = sex * 7 + age
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    return Dataset(f"census/{grouping}", F, grp, "manhattan")


def lyrics_like(n: int = LYRICS_N, seed: int = 17) -> Dataset:
    """Lyrics stand-in: 50-dim LDA-style topic vectors, angular; 15 genre groups.

    Genres are skewed (Zipf-ish) and each genre concentrates probability mass
    on its own subset of topics, as a topic model over genre-tagged lyrics
    would; all vectors are nonnegative so angular distances are <= pi/2.
    """
    g = np.random.default_rng(seed)
    m = 15
    w = 1.0 / np.arange(1, m + 1) ** 0.8
    genre = g.choice(m, size=n, p=w / w.sum()).astype(np.int64)
    alpha = np.full((m, 50), 0.08)
    for i in range(m):
        topics = (np.arange(4) * m + i) % 50                # genre-specific topics
        alpha[i, topics] = 1.2
    F = np.vstack([g.dirichlet(alpha[gi]) for gi in genre])
    return Dataset("lyrics/genre", F, genre, "angular")


def blobs(n: int, m: int, seed: int = 0) -> Dataset:
    """The paper's synthetic generator (§V-A): ten 2-D Gaussian isotropic blobs,
    centers uniform in [-10,10]^2, identity covariance, uniform random groups."""
    g = np.random.default_rng(seed)
    centers = g.uniform(-10, 10, size=(10, 2))
    comp = g.integers(0, 10, n)
    F = centers[comp] + g.normal(0.0, 1.0, size=(n, 2))
    grp = g.integers(0, m, n).astype(np.int64)
    return Dataset(f"blobs(n={n},m={m})", F, grp, "euclidean")


# -- quota helpers (§V-A "equal representation" / "proportional") ------------

def equal_quotas(k: int, groups: np.ndarray) -> dict[int, int]:
    """k_i = k/m rounded so that sum = k (larger shares to lower group ids)."""
    uniq = sorted(int(x) for x in np.unique(groups))
    m = len(uniq)
    if k < m:
        raise ValueError(
            f"k={k} < m={m}: the paper requires at least one element per group"
        )
    base, rem = divmod(k, m)
    return {g: base + (1 if i < rem else 0) for i, g in enumerate(uniq)}


def clamp_quotas(ks: dict[int, int], groups: np.ndarray) -> dict[int, int]:
    """Cap each quota at its group size, moving excess to groups with slack.

    Full-scale datasets always satisfy equal/proportional quotas (the paper's
    setting); this only triggers in scaled-down debug/test runs where a tiny
    skewed group can fall below ``k/m``. Raises ``ValueError`` when the
    quota groups hold fewer than k rows in all.
    """
    uniq, counts = np.unique(groups, return_counts=True)
    size = {int(g): int(c) for g, c in zip(uniq, counts)}
    out = {g: min(kg, size.get(g, 0)) for g, kg in ks.items()}
    deficit = sum(ks.values()) - sum(out.values())
    for g in sorted(out, key=lambda g: -(size.get(g, 0) - out[g])):
        if deficit == 0:
            break
        take = min(deficit, size.get(g, 0) - out[g])
        out[g] += take
        deficit -= take
    if deficit:
        raise ValueError(f"dataset too small for k={sum(ks.values())}")
    return out


def proportional_quotas(k: int, groups: np.ndarray) -> dict[int, int]:
    """k_i proportional to group sizes, >= 1 each, sum = k (largest remainder)."""
    uniq, counts = np.unique(groups, return_counts=True)
    m = len(uniq)
    if k < m:
        raise ValueError("k < number of groups")
    raw = counts / counts.sum() * k
    ks = np.maximum(np.floor(raw).astype(int), 1)
    order = np.argsort(-(raw - np.floor(raw)))
    i = 0
    while ks.sum() < k:
        ks[order[i % m]] += 1
        i += 1
    while ks.sum() > k:  # floor>=1 can overshoot when some group is tiny
        j = int(np.argmax(ks))
        ks[j] -= 1
    return {int(g): int(c) for g, c in zip(uniq, ks)}
