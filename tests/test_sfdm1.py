"""SFDM1 (Algorithm 2): fairness, (1-eps)/4 bound, streaming semantics."""
import numpy as np
import pytest

from repro.core.sfdm1 import SFDM1
from repro.diversity import div
from repro.extent import exact_extent
from repro.metrics import METRICS, get_metric
from tests.post_oracle import brute_fair_opt

MET = get_metric("euclidean")


def run(X, grp, ks, eps=0.1, metric="euclidean"):
    met = get_metric(metric)
    d_min, d_max = exact_extent(X, met)
    s = SFDM1(metric, ks=ks, eps=eps, d_min=d_min, d_max=d_max, dim=X.shape[1])
    s.update(X, grp)
    return s.solve()


def balanced_instance(seed, n=120):
    g = np.random.default_rng(seed)
    return g.normal(size=(n, 2)), g.integers(0, 2, n)


def test_exact_group_counts():
    X, grp = balanced_instance(0)
    r = run(X, grp, {0: 4, 1: 6})
    assert int((r.groups == 0).sum()) == 4
    assert int((r.groups == 1).sum()) == 6


def test_solution_size():
    X, grp = balanced_instance(1)
    r = run(X, grp, {0: 5, 1: 5})
    assert len(r.indices) == 10 == len(set(r.indices.tolist()))


def test_diversity_consistent():
    X, grp = balanced_instance(2)
    r = run(X, grp, {0: 3, 1: 3})
    assert r.diversity == pytest.approx(div(r.feats, MET))


@pytest.mark.parametrize("seed", range(10))
def test_quarter_approximation_bound(seed):
    g = np.random.default_rng(seed)
    X = g.normal(size=(12, 2))
    grp = g.integers(0, 2, 12)
    ks = {0: 2, 1: 2}
    if min((grp == 0).sum(), (grp == 1).sum()) < 2:
        pytest.skip("degenerate draw")
    eps = 0.1
    optf = brute_fair_opt(X, grp, ks, MET)
    r = run(X, grp, ks, eps=eps)
    assert r.diversity >= (1 - eps) / 4 * optf - 1e-9


def test_skewed_groups():
    g = np.random.default_rng(11)
    X = g.normal(size=(300, 2))
    grp = (g.random(300) < 0.08).astype(int)  # tiny minority group
    r = run(X, grp, {0: 5, 1: 5})
    assert int((r.groups == 1).sum()) == 5


def test_requires_exactly_two_groups():
    with pytest.raises(ValueError, match="2 groups"):
        SFDM1("euclidean", ks={0: 1, 1: 1, 2: 1}, eps=0.1, d_min=1, d_max=2, dim=2)


@pytest.mark.parametrize("ks, grp, kg", [({0: 3, 1: 0}, 1, 0), ({0: -1, 1: 4}, 0, -1)])
def test_quota_below_one_rejected_at_construction(ks, grp, kg):
    with pytest.raises(ValueError, match=f"SFDM1: group {grp} has quota {kg}, must be at least 1"):
        SFDM1("euclidean", ks=ks, eps=0.1, d_min=1, d_max=2, dim=2)


def test_chunked_updates_match_oneshot():
    X, grp = balanced_instance(3, n=200)
    d_min, d_max = exact_extent(X, MET)
    a = SFDM1("euclidean", ks={0: 3, 1: 3}, eps=0.1, d_min=d_min, d_max=d_max, dim=2)
    b = SFDM1("euclidean", ks={0: 3, 1: 3}, eps=0.1, d_min=d_min, d_max=d_max, dim=2)
    a.update(X, grp)
    for i in range(0, 200, 23):
        b.update(X[i : i + 23], grp[i : i + 23])
    ra, rb = a.solve(), b.solve()
    assert ra.diversity == pytest.approx(rb.diversity)
    assert np.array_equal(ra.indices, rb.indices)


@pytest.mark.parametrize("seed", range(5))
def test_permutation_keeps_bound(seed):
    g = np.random.default_rng(40)
    X = g.normal(size=(12, 2))
    grp = np.array([0, 1] * 6)
    ks = {0: 2, 1: 2}
    optf = brute_fair_opt(X, grp, ks, MET)
    perm = np.random.default_rng(seed).permutation(12)
    r = run(X[perm], grp[perm], ks, eps=0.15)
    assert r.diversity >= (1 - 0.15) / 4 * optf - 1e-9


def test_space_bound():
    X, grp = balanced_instance(4, n=4000)
    d_min, d_max = exact_extent(X, MET)
    s = SFDM1("euclidean", ks={0: 4, 1: 4}, eps=0.1, d_min=d_min, d_max=d_max, dim=2)
    s.update(X, grp)
    r = s.solve()
    # blind cap k + two group caps k_i per guess
    assert r.n_stored <= (8 + 4 + 4) * len(s.mus)
    assert r.n_stored < len(X) / 5
    assert s.state._dist.size == 0  # only SFDM2's post-processing builds the store matrix


@pytest.mark.parametrize("metric", ["manhattan", "angular"])
def test_other_metrics(metric):
    g = np.random.default_rng(5)
    X = g.random((150, 5)) + 0.01
    grp = g.integers(0, 2, 150)
    r = run(X, grp, {0: 3, 1: 3}, metric=metric)
    assert int((r.groups == 0).sum()) == 3
    assert r.diversity > 0


def test_groups_must_cover_quotas():
    g = np.random.default_rng(6)
    X = g.normal(size=(30, 2))
    grp = np.zeros(30, dtype=int)  # group 1 empty
    with pytest.raises(RuntimeError):
        run(X, grp, {0: 3, 1: 3})


def test_short_group_named_when_no_guess_qualifies():
    X = np.random.default_rng(7).normal(size=(40, 2))
    grp = np.zeros(40, dtype=int)
    grp[[5, 20]] = 1
    msg = "SFDM1: group 1 has 2 stored rows, fewer than its quota 3"
    with pytest.raises(RuntimeError, match=msg):
        run(X, grp, {0: 3, 1: 3})


def test_group_without_quota_rejected_at_update():
    g = np.random.default_rng(7)
    X = g.normal(size=(30, 2))
    grp = np.array([0, 1] * 15)
    grp[17] = 2  # labels {0, 1, 2}, quotas for {0, 1}
    lo, hi = exact_extent(X, MET)
    s = SFDM1("euclidean", ks={0: 3, 1: 3}, eps=0.1, d_min=lo, d_max=hi, dim=2)
    with pytest.raises(ValueError, match="stream id 117 has group 2, which has no quota"):
        s.update(X, grp, ids=np.arange(100, 130))
    assert s.state.n_seen == 0 and s.state.n_stored == 0


# -- the shared solve vs the loop SFDM1 had of its own ------------------------

@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("metric", METRICS)
def test_solve_matches_oracle(metric, seed):
    from tests.post_oracle import oracle_sfdm1_solve

    g = np.random.default_rng(100 * seed + METRICS.index(metric))
    n, dim = 2000, {"euclidean": 3, "manhattan": 12, "angular": 6}[metric]
    centers = g.uniform(-4, 4, size=(8, dim))
    X = centers[g.integers(0, 8, n)] + g.normal(size=(n, dim))
    if metric == "angular":
        X = np.abs(X)
    grp = (g.random(n) < [0.5, 0.3, 0.1][seed]).astype(int)
    ks = [{0: 5, 1: 5}, {0: 3, 1: 7}, {0: 8, 1: 2}][seed]
    lo, hi = exact_extent(X[:300], get_metric(metric))
    s = SFDM1(metric, ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=dim)
    solved = 0
    for piece in np.array_split(np.arange(n), 4):
        s.update(X[piece], grp[piece])
        want = oracle_sfdm1_solve(s)
        if want is None:
            with pytest.raises(RuntimeError):
                s.solve()
            continue
        r = s.solve()
        assert np.array_equal(r.ids, want[0]) and r.mu == want[1]
        assert repr(r.diversity) == repr(want[2])
        solved += 1
    assert solved >= 2


@pytest.mark.parametrize("metric", METRICS)
def test_anytime_solves_equal_cold_solves_on_copies(metric):
    from tests.post_oracle import anytime_vs_cold

    g = np.random.default_rng(50 + METRICS.index(metric))
    X = np.abs(g.normal(size=(2000, 4))) + 0.01
    grp = (g.random(2000) < 0.2).astype(int)
    lo, hi = exact_extent(X[:300], get_metric(metric))
    s = SFDM1(metric, ks={0: 6, 1: 3}, eps=0.1, d_min=lo, d_max=hi, dim=4)
    assert anytime_vs_cold(s, X, grp)["solved"] >= 5
