"""SFDM2 (Algorithm 3): fairness for arbitrary m, (1-eps)/(3m+2) bound."""
import numpy as np
import pytest

from repro.core.sfdm2 import SFDM2
from repro.diversity import div
from repro.extent import exact_extent
from repro.metrics import METRICS, get_metric
from tests.post_oracle import brute_fair_opt

MET = get_metric("euclidean")


def run(X, grp, ks, eps=0.1, metric="euclidean"):
    met = get_metric(metric)
    d_min, d_max = exact_extent(X, met)
    s = SFDM2(metric, ks=ks, eps=eps, d_min=d_min, d_max=d_max, dim=X.shape[1])
    s.update(X, grp)
    return s.solve()


def instance(seed, n=150, m=3):
    g = np.random.default_rng(seed)
    return g.normal(size=(n, 2)) * 3, g.integers(0, m, n)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_exact_group_counts(m):
    X, grp = instance(0, n=400, m=m)
    ks = {i: 2 for i in range(m)}
    r = run(X, grp, ks)
    for i in range(m):
        assert int((r.groups == i).sum()) == 2


def test_uneven_quotas():
    X, grp = instance(1, m=3)
    r = run(X, grp, {0: 1, 1: 4, 2: 2})
    assert [int((r.groups == i).sum()) for i in range(3)] == [1, 4, 2]


def test_diversity_consistent():
    X, grp = instance(2)
    r = run(X, grp, {0: 2, 1: 2, 2: 2})
    assert r.diversity == pytest.approx(div(r.feats, MET))


@pytest.mark.parametrize("seed", range(10))
def test_bound_m2(seed):
    g = np.random.default_rng(seed)
    X = g.normal(size=(12, 2))
    grp = np.array([0, 1] * 6)
    ks = {0: 2, 1: 2}
    eps = 0.1
    optf = brute_fair_opt(X, grp, ks, MET)
    r = run(X, grp, ks, eps=eps)
    assert r.diversity >= (1 - eps) / (3 * 2 + 2) * optf - 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_bound_m3(seed):
    g = np.random.default_rng(seed + 30)
    X = g.normal(size=(12, 2))
    grp = np.array([0, 1, 2] * 4)
    ks = {0: 1, 1: 1, 2: 2}
    eps = 0.1
    optf = brute_fair_opt(X, grp, ks, MET)
    r = run(X, grp, ks, eps=eps)
    assert r.diversity >= (1 - eps) / (3 * 3 + 2) * optf - 1e-9


def test_chunked_updates_match_oneshot():
    X, grp = instance(3, n=250, m=4)
    ks = {i: 2 for i in range(4)}
    d_min, d_max = exact_extent(X, MET)
    a = SFDM2("euclidean", ks=ks, eps=0.1, d_min=d_min, d_max=d_max, dim=2)
    b = SFDM2("euclidean", ks=ks, eps=0.1, d_min=d_min, d_max=d_max, dim=2)
    a.update(X, grp)
    for i in range(0, 250, 31):
        b.update(X[i : i + 31], grp[i : i + 31])
    ra, rb = a.solve(), b.solve()
    assert ra.diversity == pytest.approx(rb.diversity)
    assert np.array_equal(ra.indices, rb.indices)


def test_space_bound_linear_in_m():
    d_min = None
    stored = {}
    for m in (2, 6):
        X, grp = instance(5, n=3000, m=m)
        ks = {i: 1 for i in range(m)}
        lo, hi = exact_extent(X, MET)
        s = SFDM2("euclidean", ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=2)
        s.update(X, grp)
        r = s.solve()
        k = m
        # m+1 candidates of cap k each per guess
        assert r.n_stored <= (m + 1) * k * len(s.mus)
        stored[m] = r.n_stored
    assert stored[6] > stored[2]  # grows with m (paper: near-linear)


def test_skewed_many_groups():
    g = np.random.default_rng(7)
    n = 600
    X = g.normal(size=(n, 3))
    probs = np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.05])
    grp = g.choice(6, size=n, p=probs)
    ks = {i: 2 for i in range(6)}
    r = run(X, grp, ks)
    for i in range(6):
        assert int((r.groups == i).sum()) == 2


@pytest.mark.parametrize("metric", ["manhattan", "angular"])
def test_other_metrics(metric):
    g = np.random.default_rng(8)
    X = g.random((200, 6)) + 0.01
    grp = g.integers(0, 3, 200)
    r = run(X, grp, {0: 2, 1: 2, 2: 2}, metric=metric)
    assert len(r.indices) == 6
    assert r.diversity > 0


def test_sfdm2_geq_quality_floor_vs_sfdm1():
    # paper: SFDM2's greedy augmentation makes it competitive with SFDM1
    from repro.core.sfdm1 import SFDM1

    g = np.random.default_rng(9)
    X = g.normal(size=(500, 2)) * 4
    grp = g.integers(0, 2, 500)
    ks = {0: 5, 1: 5}
    lo, hi = exact_extent(X, MET)
    s1 = SFDM1("euclidean", ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=2)
    s1.update(X, grp)
    r1 = s1.solve()
    r2 = run(X, grp, ks)
    assert r2.diversity >= 0.5 * r1.diversity


def test_infeasible_quota_raises():
    g = np.random.default_rng(10)
    X = g.normal(size=(40, 2))
    grp = np.zeros(40, dtype=int)
    with pytest.raises(RuntimeError):
        run(X, grp, {0: 2, 1: 2})


def test_short_group_named_when_no_guess_qualifies():
    X = np.random.default_rng(7).normal(size=(40, 2))
    grp = np.zeros(40, dtype=int)
    grp[[5, 20]] = 1
    msg = "SFDM2: group 1 has 2 stored rows, fewer than its quota 3"
    with pytest.raises(RuntimeError, match=msg):
        run(X, grp, {0: 3, 1: 3})


@pytest.mark.parametrize("ks, grp, kg", [({0: -1, 1: 4}, 0, -1), ({0: 3, 1: 0}, 1, 0)])
def test_quota_below_one_rejected_at_construction(ks, grp, kg):
    with pytest.raises(ValueError, match=f"SFDM2: group {grp} has quota {kg}, must be at least 1"):
        SFDM2("euclidean", ks=ks, eps=0.1, d_min=1, d_max=2, dim=2)


# -- one store-wide matrix per solve vs the per-guess oracle -----------------

@pytest.mark.parametrize("m", [2, 3, 14])
@pytest.mark.parametrize("metric", METRICS)
def test_solve_matches_per_guess_oracle(metric, m):
    from tests.post_oracle import oracle_solve

    g = np.random.default_rng(10 * m + METRICS.index(metric))
    n, dim = 3000, {"euclidean": 4, "manhattan": 25, "angular": 8}[metric]
    centers = g.uniform(-4, 4, size=(12, dim))
    X = centers[g.integers(0, 12, n)] + g.normal(size=(n, dim))
    if metric == "angular":
        X = np.abs(X)
    grp = g.choice(m, size=n, p=np.arange(m, 0, -1) / (m * (m + 1) / 2))
    ks = {2: {0: 3, 1: 4}, 3: {0: 2, 1: 3, 2: 1}, 14: dict.fromkeys(range(14), 1)}[m]
    lo, hi = exact_extent(X[:300], get_metric(metric))
    s = SFDM2(metric, ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=dim)
    solved = 0
    for piece in np.array_split(np.arange(n), 4):
        s.update(X[piece], grp[piece])
        want = oracle_solve(s)
        if want is None:
            with pytest.raises(RuntimeError):
                s.solve()
            continue
        r = s.solve()
        assert np.array_equal(r.ids, want[0]) and r.mu == want[1] and r.diversity == want[2]
        solved += 1
    assert solved >= 2


def test_group_without_quota_rejected_at_update():
    X, _ = instance(11, n=40)
    grp = np.array([0, 1] * 20)
    grp[[5, 9]] = 2  # labels {0, 1, 2}, quotas for {0, 1}
    lo, hi = exact_extent(X, MET)
    s = SFDM2("euclidean", ks={0: 3, 1: 3}, eps=0.1, d_min=lo, d_max=hi, dim=2)
    s.update(X[:5], grp[:5])
    n_stored = s.state.n_stored
    with pytest.raises(ValueError, match="stream id 5 has group 2, which has no quota"):
        s.update(X[5:], grp[5:])
    assert s.state.n_seen == 5 and s.state.n_stored == n_stored


# -- the store's distance matrix across copies ---------------------------------

def _same_result(a, b):
    return (
        np.array_equal(a.ids, b.ids) and a.mu == b.mu
        and repr(a.diversity) == repr(b.diversity) and a.n_stored == b.n_stored
    )


@pytest.mark.parametrize("metric", METRICS)
def test_copies_drop_the_distance_matrix_and_solve_the_same(metric):
    import copy
    import pickle

    g = np.random.default_rng(20 + METRICS.index(metric))
    X, grp = g.uniform(0.1, 1, size=(3000, 6)), g.integers(0, 3, 3000)
    ks = {0: 7, 1: 8, 2: 5}
    lo, hi = exact_extent(X[:300], get_metric(metric))
    s = SFDM2(metric, ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=6)
    s.update(X[:1500], grp[:1500])
    want = s.solve()
    n = s.state.n_stored
    blob = pickle.dumps(s)
    assert len(blob) < n * n * 8
    copies = [copy.deepcopy(s), pickle.loads(blob)]
    for c in copies:
        assert c.state._n_dist == 0 and c.state._dist.size == 0
        assert _same_result(c.solve(), want)
    # Further updates, then solves: the original and a solved copy extend
    # their matrices by the new rows, an unsolved copy builds its whole.
    copies.append(copy.deepcopy(s))
    for lo_ in (1500, 2200):
        for solver in (s, *copies):
            solver.update(X[lo_ : lo_ + 700], grp[lo_ : lo_ + 700])
        want = s.solve()
        assert s.state.n_stored > n
        for c in copies:
            assert _same_result(c.solve(), want)


def test_solve_makes_no_pairwise_call_on_the_store(monkeypatch):
    from repro.metrics import Metric

    X, grp = instance(12, n=2000, m=3)
    ks = {0: 2, 1: 3, 2: 2}
    lo, hi = exact_extent(X[:300], MET)
    s = SFDM2("euclidean", ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=2)
    s.update(X, grp)
    assert s.state.n_stored > 4 * s.k
    rows = []
    pairwise = Metric.pairwise

    def counted(self, A, B):
        rows.append(max(len(A), len(B)))
        return pairwise(self, A, B)

    monkeypatch.setattr(Metric, "pairwise", counted)
    s.solve()
    assert rows and max(rows) <= s.k


# -- anytime solves reuse per-guess results --------------------------------------

def _colocated(seed, n=3000):
    """Group 0 spread along an arc, groups 1 and 2 both in one short stretch
    of it: at guesses μ far above that stretch, one cluster holds every
    stored row of groups 1 and 2, so no fair solution exists (``_post``
    returns None), while small guesses have one."""
    g = np.random.default_rng(seed)
    grp = g.choice(3, n, p=[0.6, 0.2, 0.2])
    th = np.where(grp == 0, g.uniform(0.1, 1.4, n), g.uniform(0.7, 0.73, n))
    return np.c_[np.cos(th), np.sin(th)], grp, {0: 3, 1: 1, 2: 1}


def _blobs_m14(seed, n=3000, dim=6):
    g = np.random.default_rng(seed)
    centers = g.uniform(-4, 4, size=(12, dim))
    X = np.abs(centers[g.integers(0, 12, n)] + g.normal(size=(n, dim)))
    return X, g.integers(0, 14, n), dict.fromkeys(range(14), 1)


@pytest.mark.parametrize("case", ["colocated", "blobs_m14"])
@pytest.mark.parametrize("metric", METRICS)
def test_anytime_solves_equal_cold_solves_on_copies(metric, case):
    from tests.post_oracle import anytime_vs_cold

    X, grp, ks = {"colocated": _colocated, "blobs_m14": _blobs_m14}[case](METRICS.index(metric))
    lo, hi = exact_extent(X[:300], get_metric(metric))
    s = SFDM2(metric, ks=ks, eps=0.1, d_min=lo, d_max=hi, dim=X.shape[1])
    seen = anytime_vs_cold(s, X, grp)
    assert seen["solved"] >= 5 and seen["group_grew"] >= 1
    if case == "colocated":
        assert seen["none"] >= 1
