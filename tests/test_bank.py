"""StreamState / CandidateBank: acceptance semantics, chunk invariance,
prefilter safety of the rejection kernel over an earlier state, and the
kernel path against the per-element oracle."""
import copy
import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core.bank import _CHUNK, StreamState
from repro.extent import exact_extent
from repro.guesses import guess_grid
from repro.metrics import METRICS, Metric, get_metric

MET = get_metric("euclidean")


def oracle_accept(bank, dists, mus, n):
    """Algorithm 1, line 5 as a masked min over a boolean ``(G, n)``
    membership built from ``bank.indices``: another arithmetic than
    ``CandidateBank.accept_mask``'s gather, so the oracle checks it."""
    member = np.zeros((len(mus), n), dtype=bool)
    for g in range(len(mus)):
        member[g, bank.indices(g)] = True
    dmin = np.where(member, dists[None, :n], np.inf).min(axis=1, initial=np.inf)
    return (bank.sizes < bank.cap) & (dmin >= mus)


def oracle_update(st, feats, groups=None, ids=None):
    """Reference stream update: every row through point_to_rows + oracle_accept."""
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    b = len(feats)
    if groups is None:
        groups = np.zeros(b, dtype=np.int64)
    groups = np.asarray(groups, dtype=np.int64)
    if ids is None:
        ids = np.arange(st.n_seen, st.n_seen + b, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    mus = st.mus
    for r in range(b):
        x, grp, eid = feats[r], int(groups[r]), int(ids[r])
        n = st.n_stored
        dists = st.metric.point_to_rows(x, st._feats[:n])
        accepts = [(st.blind, oracle_accept(st.blind, dists, mus, n))]
        if grp in st.group_banks:
            gb = st.group_banks[grp]
            accepts.append((gb, oracle_accept(gb, dists, mus, n)))
        if any(acc.any() for _, acc in accepts):
            j = st._append(x, grp, eid)
            for bank, acc in accepts:
                for g in np.flatnonzero(acc):
                    bank.members[g, bank.sizes[g]] = j
                    bank.sizes[g] += 1
        st.n_seen += 1


def assert_member_lists(st):
    """Each candidate is its first ``sizes[g]`` entries: distinct store
    indices in ascending (stored) order, then ``-1`` padding."""
    for _, bank in st._banks():
        assert bank.members.shape == (len(st.mus), bank.cap)
        for g, size in enumerate(bank.sizes):
            row = bank.members[g]
            assert 0 <= size <= bank.cap
            assert (np.diff(row[:size]) > 0).all() and (row[size:] == -1).all()
            assert size == 0 or (row[0] >= 0 and row[size - 1] < st.n_stored)


def assert_same_state(a, b):
    assert a.n_seen == b.n_seen and a.n_stored == b.n_stored
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.groups, b.groups)
    assert np.array_equal(a.feats, b.feats)
    for (ga, ba), (gb, bb) in zip(a._banks(), b._banks(), strict=True):
        assert ga == gb and ba.cap == bb.cap
        assert np.array_equal(ba.members, bb.members) and np.array_equal(ba.sizes, bb.sizes)
    assert_member_lists(a)
    assert_member_lists(b)


def make_state(mus=(1.0, 2.0), k=3, caps=None, dim=2):
    return StreamState(MET, np.array(mus), dim, k, group_caps=caps)


def test_empty_candidate_accepts_anything():
    st = make_state()
    st.update(np.array([[0.0, 0.0]]))
    assert st.n_stored == 1
    assert list(st.blind.sizes) == [1, 1]


def test_threshold_acceptance():
    st = make_state(mus=(1.0, 2.0), k=5)
    st.update(np.array([[0.0, 0.0], [1.5, 0.0]]))
    # second point: d=1.5 -> accepted at mu=1.0, rejected at mu=2.0
    assert list(st.blind.sizes) == [2, 1]


def test_rejected_everywhere_not_stored():
    st = make_state(mus=(1.0,), k=5)
    st.update(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert st.n_stored == 1  # 0.5 < mu for the only guess


def test_full_candidate_stops_accepting():
    st = make_state(mus=(1.0,), k=2)
    st.update(np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]]))
    assert st.blind.sizes[0] == 2
    assert st.n_stored == 2


def test_group_bank_filters_by_group():
    st = make_state(mus=(1.0,), k=4, caps={0: 2, 1: 2})
    st.update(np.array([[0.0, 0.0], [5.0, 0.0]]), groups=np.array([0, 1]))
    assert st.group_banks[0].sizes[0] == 1
    assert st.group_banks[1].sizes[0] == 1


def test_element_shared_across_banks_stored_once():
    st = make_state(mus=(1.0,), k=4, caps={0: 2})
    st.update(np.array([[0.0, 0.0]]), groups=np.array([0]))
    assert st.n_stored == 1
    assert st.blind.sizes[0] == 1 and st.group_banks[0].sizes[0] == 1


def test_store_growth_preserves_membership():
    st = make_state(mus=(0.5,), k=500)
    g = np.random.default_rng(0)
    X = g.normal(size=(300, 2)) * 100
    st.update(X)
    assert st.n_stored > 64  # grew past initial capacity
    idx = st.blind.indices(0)
    assert len(idx) == st.blind.sizes[0]


def test_chunked_equals_oneshot():
    g = np.random.default_rng(1)
    X = g.normal(size=(200, 2))
    grp = g.integers(0, 2, 200)
    a = make_state(mus=(0.3, 0.6, 1.2), k=5, caps={0: 2, 1: 3})
    b = make_state(mus=(0.3, 0.6, 1.2), k=5, caps={0: 2, 1: 3})
    a.update(X, grp)
    for i in range(0, 200, 17):
        b.update(X[i : i + 17], grp[i : i + 17])
    assert a.n_stored == b.n_stored
    assert np.array_equal(a.feats, b.feats)
    assert np.array_equal(a.blind.sizes, b.blind.sizes)
    for grp_id in (0, 1):
        assert np.array_equal(a.group_banks[grp_id].members, b.group_banks[grp_id].members)


def test_ids_tracked():
    st = make_state(mus=(0.1,), k=10)
    st.update(np.array([[0.0, 0.0], [5.0, 5.0]]), ids=np.array([42, 99]))
    assert list(st.ids) == [42, 99]


def test_n_seen_counts_all():
    st = make_state(mus=(100.0,), k=2)
    st.update(np.random.default_rng(2).normal(size=(50, 2)))
    assert st.n_seen == 50
    assert st.n_stored <= 2


def test_cap_must_be_positive():
    from repro.core.bank import CandidateBank

    with pytest.raises(ValueError):
        CandidateBank(3, 0)


def test_empty_guess_grid_rejected():
    with pytest.raises(ValueError):
        StreamState(MET, np.array([]), 2, 3)


# -- prefilter: the kernel over an earlier state -------------------------------

def kept_by_copy(st, feats, groups):
    """``keep_mask`` over a deep copy of ``st``, as of this call."""
    c = copy.deepcopy(st)
    return c.keep_mask(feats, groups)


def _warm_state_and_batch(seed=3, n_pre=20, n_batch=80):
    """A state whose every bank still has a non-full guess, so ``keep_mask``
    computes distances rather than leaving at its "no non-full guess" exit,
    and a batch of which it keeps some rows and rejects others."""
    g = np.random.default_rng(seed)
    st = make_state(mus=(0.2, 0.4, 0.8, 1.6), k=12, caps={0: 6, 1: 6})
    Xp, gp = g.normal(size=(n_pre, 2)), g.integers(0, 2, n_pre)
    st.update(Xp, gp)
    Xb, gb = g.normal(size=(n_batch, 2)), g.integers(0, 2, n_batch)
    assert all((bank.sizes < bank.cap).any() for _, bank in st._banks())
    assert 0 < kept_by_copy(st, Xb, gb).sum() < n_batch
    return st, Xb, gb


def test_prefilter_empty_state_keeps_all():
    st = make_state(caps={0: 1, 1: 1})
    keep = kept_by_copy(st, np.ones((5, 2)), np.zeros(5, dtype=int))
    assert keep.all()


def test_prefilter_is_superset_of_accepted():
    # every element the exact sequential update would store must survive
    st, Xb, gb = _warm_state_and_batch()
    keep = kept_by_copy(st, Xb, gb)
    # continue the *same* state and record which batch rows get stored
    before = st.n_stored
    ids = np.arange(1000, 1000 + len(Xb))
    st.update(Xb, gb, ids=ids)
    accepted_ids = set(st.ids[before:].tolist())
    assert accepted_ids
    for r, eid in enumerate(ids.tolist()):
        if eid in accepted_ids:
            assert keep[r], f"row {r} accepted by exact update but prefiltered out"


def test_prefilter_drops_something_once_warm():
    st, Xb, gb = _warm_state_and_batch()
    keep = kept_by_copy(st, Xb, gb)
    assert keep.sum() < len(Xb)  # warm state rejects most of a random batch


def test_snapshot_is_decoupled_from_state():
    st, Xb, gb = _warm_state_and_batch()
    snap = st.snapshot()
    n0 = len(snap["feats"])
    st.update(Xb, gb)
    assert len(snap["feats"]) == n0


def test_prefilter_keeps_exact_ties():
    # mu is exactly point_to_rows(b, {a}); the per-element test accepts b
    # (d >= mu), so the prefilter must keep it in every trial.
    g = np.random.default_rng(0)
    for _ in range(50):
        a, b = g.normal(size=(2, 6))
        mu = MET.point_to_rows(b, a[None, :])[0]
        st = StreamState(MET, np.array([mu]), 6, 2)
        st.update(a[None, :])
        keep = kept_by_copy(st, b[None, :], np.zeros(1, dtype=int))
        st.update(b[None, :])
        assert st.n_stored == 2
        assert keep[0]


def test_kernel_over_a_deep_copy_is_the_kernel_over_the_live_state():
    st, Xb, gb = _warm_state_and_batch()
    want = st.keep_mask(Xb, gb)
    assert np.array_equal(kept_by_copy(st, Xb, gb), want)


def test_n_kept_counts_the_rows_offered():
    # n_kept is the number of rows the kernel passes to the per-element
    # test: keep_mask's count over each chunk of each piece, on a copy of
    # the state as of that chunk's start (a twin fed chunk by chunk)
    X, G, ids = _random_stream("euclidean", seed=5, n=3000)

    def fresh():
        return StreamState(MET, guess_grid(*exact_extent(X[:300], MET), 0.15), X.shape[1], 6,
                           group_caps={0: 2, 1: 2, 2: 2})

    st, twin, offered = fresh(), fresh(), 0
    for lo, hi in [(0, 1700), (1700, 3000)]:
        st.update(X[lo:hi], G[lo:hi], ids[lo:hi])
        for a in range(lo, hi, _CHUNK):
            b = min(a + _CHUNK, hi)
            offered += int(kept_by_copy(twin, X[a:b], G[a:b]).sum())
            twin.update(X[a:b], G[a:b], ids[a:b])
    assert_same_state(st, twin)
    assert st.n_kept == offered
    assert st.n_stored <= st.n_kept <= st.n_seen
    assert st.n_kept < st.n_seen  # the kernel rejected rows


# -- bad input ---------------------------------------------------------------

@pytest.mark.parametrize("pos,bad", [(0, np.nan), (37, np.inf), (59, -np.inf)])
def test_non_finite_row_rejected_with_its_id(pos, bad):
    g = np.random.default_rng(4)
    st = make_state(caps={0: 2, 1: 2})
    st.update(g.normal(size=(10, 2)), np.zeros(10, dtype=int))
    X = g.normal(size=(60, 2))
    X[pos, 1] = bad
    before = st.n_stored
    with pytest.raises(ValueError, match=f"stream id {1000 + pos} "):
        st.update(X, np.zeros(60, dtype=int), ids=np.arange(1000, 1060))
    assert st.n_seen == 10 and st.n_stored == before


def test_non_finite_row_default_id_counts_from_n_seen():
    st = make_state()
    st.update(np.zeros((3, 2)))
    X = np.ones((4, 2))
    X[2, 0] = np.nan
    with pytest.raises(ValueError, match="stream id 5 "):
        st.update(X)


def test_group_labels_free_without_group_banks():
    st = make_state()  # blind bank only, as in StreamingDM
    st.update(np.array([[0.0, 0.0], [5.0, 0.0]]), groups=np.array([7, -3]))
    assert list(st.groups) == [7, -3]


@pytest.mark.parametrize("feats,groups,ids,match", [
    ((8, 2), 7, 8, "groups has shape"),
    ((8, 2), 8, 3, "ids has shape"),
    ((8, 3), 8, 8, "expected 2 features"),
    ((8, 1), 8, 8, "expected 2 features"),
    ((5, 2), [0.5, 1.7, 0.2, 1.0, 0.9], 5, "stream id 100 has group 0.5, not an integer"),
    ((5, 2), [0.0, 1.0, np.nan, 1.0, 0.0], 5, "stream id 102 has group nan"),
    ((5, 2), [0.0, 1.0, 1.0, -np.inf, 0.0], 5, "stream id 103 has group -inf"),
    ((4, 2), [0, 1, 0, 1], [0.5, 1.5, 2.9, 3.2], "row 0 has stream id 0.5, not an integer"),
    ((4, 2), [0, 1, 0, 1], [100.0, 101.0, 102.5, np.nan], "row 2 has stream id 102.5"),
    ((4, 2), None, 4, "groups is missing"),
    ((4, 2), [0, 1, 0, 1], np.array([100, 2**63 + 5, 7, 8], dtype=np.uint64),
     "row 1 has stream id 9223372036854775813, not an integer in int64's range"),
    ((4, 2), [0, 1, 0, 1], [100.0, 101.0, 1e19, 3.0], r"row 2 has stream id 1e\+19, not an integer"),
    ((2, 2), [0, 1], [1, 2**64], "row 1 has stream id 18446744073709551616, not an integer in int64's range"),
    ((2, 2), [0, 2**64], 2, "stream id 101 has group 18446744073709551616, not an integer in int64's range"),
    ((2, 2), [0, 1], [1, -(2**63) - 1], "row 1 has stream id -9223372036854775809, not an integer"),
    ((2, 2), [0, 1], [1, None], "row 1 has stream id None, not an integer in int64's range"),
    ((2, 2), [None, 1], 2, "stream id 100 has group None, not an integer in int64's range"),
    ((2, 2), [0, 1], ["7", "8"], "row 0 has stream id '7', not an integer in int64's range"),
    ((2, 2), [0, 1], ["1", "a"], "row 0 has stream id '1', not an integer in int64's range"),
    ((2, 2), [0, 1], [True, False], "row 0 has stream id True, not an integer in int64's range"),
    ((3, 2), [0, 1, 0], [1, True, None], "row 1 has stream id True, not an integer in int64's range"),
    ((2, 2), [0, 1], [1 + 0j, 2 + 0j], r"row 0 has stream id \(1\+0j\), not an integer"),
    ((2, 2), ["0", "1"], 2, "stream id 100 has group '0', not an integer in int64's range"),
    ((2, 2), [False, True], 2, "stream id 100 has group False, not an integer in int64's range"),
])
def test_mismatched_update_rejected_before_any_change(feats, groups, ids, match):
    g = np.random.default_rng(5)
    st = make_state(caps={0: 2, 1: 2})
    st.update(g.normal(size=(10, 2)), g.integers(0, 2, 10))
    before = pickle.dumps(st)
    grp = np.zeros(groups, dtype=int) if isinstance(groups, int) else groups
    ids = np.arange(100, 100 + ids) if isinstance(ids, int) else np.array(ids)
    with pytest.raises(ValueError, match=match):
        st.update(g.normal(size=feats) * 9, grp, ids)
    assert pickle.dumps(st) == before


@pytest.mark.parametrize("dtype,edge,out", [
    (np.uint64, 2**63 - 1, 2**63),
    (np.float64, -(2.0**63), 2.0**63),
])
def test_ids_at_int64_edges(dtype, edge, out):
    # ids at int64's edge are stored exactly; one past it is named, not wrapped
    st = make_state(mus=(0.1,), k=10)
    st.update(np.array([[0.0, 0.0], [5.0, 5.0]]), ids=np.array([3, edge], dtype=dtype))
    assert st.ids.tolist() == [3, int(edge)]
    with pytest.raises(ValueError, match="row 1 has stream id .*, not an integer in int64's range"):
        st.update(np.array([[9.0, 0.0], [0.0, 9.0]]), ids=np.array([4, out], dtype=dtype))
    assert st.n_seen == 2 and st.ids.tolist() == [3, int(edge)]


@functools.cache
def _warm_solver_pickle(cls):
    g = np.random.default_rng(9)
    s = cls("euclidean", ks={0: 2, 1: 2}, eps=0.2, d_min=0.05, d_max=8.0, dim=3)
    s.update(g.normal(size=(200, 3)), g.integers(0, 2, 200))
    return pickle.dumps(s)


@pytest.mark.parametrize("algo", ["SFDM1", "SFDM2"])
@settings(max_examples=40, deadline=None)
@given(data=hst.data())
def test_a_rejected_update_changes_nothing(algo, data):
    # Each update has valid rows around one defect; the rows before the
    # defect are ones the solver would store, so a check made after them
    # would show in the pickle.
    from repro.core import sfdm1, sfdm2

    s = pickle.loads(_warm_solver_pickle({"SFDM1": sfdm1.SFDM1, "SFDM2": sfdm2.SFDM2}[algo]))
    before = pickle.dumps(s)
    b = data.draw(hst.integers(1, 30), label="rows")
    g = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
    X, grp, ids = g.normal(size=(b, 3)) * 9, g.integers(0, 2, b), np.arange(10_000, 10_000 + b)
    r = data.draw(hst.integers(0, b - 1), label="bad row")
    defect = data.draw(hst.sampled_from(
        ["features", "non-finite", "fractional id", "float id range", "uint id range",
         "int id range", "int group range", "no quota", "no groups"]), label="defect")
    beyond_int64 = hst.one_of(hst.integers(min_value=2**63), hst.integers(max_value=-(2**63) - 1))
    if defect == "features":
        X = g.normal(size=(b, data.draw(hst.sampled_from([0, 1, 2, 4, 7]))))
    elif defect == "non-finite":
        X[r, data.draw(hst.integers(0, 2))] = data.draw(hst.sampled_from([np.nan, np.inf, -np.inf]))
    elif defect == "fractional id":
        ids = ids.astype(np.float64)
        ids[r] = data.draw(hst.one_of(
            hst.floats(-1e15, 1e15).filter(lambda v: not v.is_integer()), hst.just(np.nan)))
    elif defect == "float id range":
        ids = ids.astype(np.float64)
        ids[r] = data.draw(hst.one_of(
            hst.floats(min_value=2.0**63), hst.floats(max_value=-(2.0**63), exclude_max=True)))
    elif defect == "uint id range":
        ids = ids.astype(np.uint64)
        ids[r] = data.draw(hst.integers(2**63, 2**64 - 1))
    elif defect == "int id range":
        ids = ids.tolist()
        ids[r] = data.draw(beyond_int64)
    elif defect == "int group range":
        grp = grp.tolist()
        grp[r] = data.draw(beyond_int64)
    elif defect == "no quota":
        grp[r] = data.draw(hst.integers(-(2**63), 2**63 - 1).filter(lambda v: v not in (0, 1)))
    else:
        grp = None
    with pytest.raises(ValueError):
        s.update(X, grp, ids)
    assert pickle.dumps(s) == before


def test_constructors_name_a_bad_dim_or_d_max():
    from repro.core.sfdm2 import SFDM2

    with pytest.raises(ValueError, match="dim is 0"):
        make_state(dim=0)
    with pytest.raises(ValueError, match="d_max=inf"):
        SFDM2("euclidean", ks={0: 1, 1: 1}, eps=0.1, d_min=0.1, d_max=np.inf, dim=2)


# -- kernel path vs the per-element oracle ----------------------------------

def _random_stream(metric, seed, n=6000, m=3):
    g = np.random.default_rng(seed)
    dim = {"euclidean": 5, "manhattan": 12, "angular": 8}[metric]
    centers = g.uniform(-4, 4, size=(8, dim))
    X = centers[g.integers(0, 8, n)] + g.normal(size=(n, dim))
    X[g.integers(0, n, n // 50)] = X[g.integers(0, n, n // 50)]  # exact duplicates
    if metric == "angular":
        X = np.abs(X)
    return X, g.integers(0, m, n), g.permutation(n) + 10_000


@pytest.mark.parametrize("caps", ["sfdm1", "sfdm2"])
@pytest.mark.parametrize("metric", METRICS)
def test_kernel_update_matches_oracle(metric, caps):
    X, G, ids = _random_stream(metric, seed=METRICS.index(metric))
    met = get_metric(metric)
    lo, hi = exact_extent(X[:400], met)
    mus = guess_grid(lo, hi, 0.15)
    ks = {0: 2, 1: 3, 2: 1}
    k = sum(ks.values())
    group_caps = ks if caps == "sfdm1" else {g: k for g in ks}

    def fresh():
        return StreamState(met, mus, X.shape[1], k, group_caps=group_caps)

    ref = fresh()
    oracle_update(ref, X, G, ids)
    assert 0 < ref.n_stored < len(X) // 10
    for piece in (1, 17, 500, 5000):
        st = fresh()
        for lo_ in range(0, len(X), piece):
            st.update(X[lo_ : lo_ + piece], G[lo_ : lo_ + piece], ids[lo_ : lo_ + piece])
        assert_same_state(st, ref)


@pytest.mark.parametrize("dataset,grouping,eps", [
    ("Adult", "sex", 0.1), ("Adult", "sex+race", 0.1), ("CelebA", "sex+age", 0.1),
    ("Census", "sex", 0.1), ("Census", "sex+age", 0.1), ("Lyrics", "genre", 0.05),
])
def test_table2_configs_match_oracle(dataset, grouping, eps):
    from repro._stream_common import make_algo
    from repro.datasets import equal_quotas
    from repro.extent import estimate_extent
    from repro.harness.table1 import dataset_suite
    from repro.harness.table2 import algos_for

    build = {name: b for name, b, _ in dataset_suite(0.02)}[dataset]
    ds = build(grouping)
    perm = np.random.default_rng(0).permutation(ds.n)
    feats, groups = ds.feats[perm], ds.groups[perm]
    ks = equal_quotas(20, ds.groups)
    d_min, d_max = estimate_extent(ds.feats, ds.metric)
    for algo in [a.lower() for a in algos_for(ds.m) if a.startswith("SFDM")]:
        kw = dict(ks=ks, eps=eps, d_min=d_min, d_max=d_max, dim=ds.dim)
        fast, ref = make_algo(algo, ds.metric_name, **kw), make_algo(algo, ds.metric_name, **kw)
        fast.update(feats, groups)
        oracle_update(ref.state, feats, groups)
        assert_same_state(fast.state, ref.state)
        a, b = fast.solve(), ref.solve()
        assert np.array_equal(a.ids, b.ids) and a.mu == b.mu and a.diversity == b.diversity



def _edge_stream(metric, seed):
    """``_random_stream`` relabelled with the groups 11, 3 and 7, neither
    contiguous nor sorted. Group 7 has rows only in [0, 1000) and
    [4000, 4300), so whole kernel chunks and update pieces lack it. At row
    3,000 it gets the rows ``far``, which fill every guess of its bank."""
    X, _, ids = _random_stream(metric, seed)
    g = np.random.default_rng(seed)
    G = np.array([11, 3])[g.integers(0, 2, len(X))]
    seven = np.r_[0:1000, 4000:4300]
    G[seven[g.random(seven.size) < 0.3]] = 7
    # Negative axes first: each is at least pi/2 from every angular row,
    # whose features are >= 0, and 1,000 from every other row.
    far = np.vstack([-np.eye(X.shape[1]), np.eye(X.shape[1])]) * 1000.0
    X[3000 : 3000 + len(far)], G[3000 : 3000 + len(far)] = far, 7
    return X, G, ids, far


@pytest.mark.parametrize("caps", ["sfdm1", "sfdm2"])
@pytest.mark.parametrize("metric", METRICS)
def test_kernel_group_sort_edge_cases_match_oracle(metric, caps):
    X, G, ids, far = _edge_stream(metric, seed=3 + METRICS.index(metric))
    met = get_metric(metric)
    lo, hi = exact_extent(X[:400], met)
    # The grid stops at the far rows' smallest gap, so they fill every guess.
    gap = met.rows_to_rows(far, far)[~np.eye(len(far), dtype=bool)].min()
    mus = guess_grid(lo, min(hi, gap), 0.15)
    ks = {11: 2, 3: 3, 7: 1}
    k = sum(ks.values())
    group_caps = ks if caps == "sfdm1" else {g: k for g in ks}

    def fresh():
        return StreamState(met, mus, X.shape[1], k, group_caps=group_caps)

    ref = fresh()
    oracle_update(ref, X, G, ids)
    assert 0 < ref.n_stored < len(X) // 10
    assert (ref.group_banks[7].sizes == ref.group_banks[7].cap).all()
    assert not (G[1000:3000] == 7).any() and not (G[4300:] == 7).any()
    for piece in (1, 17, 500, 5000):
        st = fresh()
        for lo_ in range(0, len(X), piece):
            st.update(X[lo_ : lo_ + piece], G[lo_ : lo_ + piece], ids[lo_ : lo_ + piece])
        assert_same_state(st, ref)


@pytest.mark.parametrize("caps", ["sfdm1", "sfdm2", "alg1"])
@pytest.mark.parametrize("metric", METRICS)
def test_cold_chunk_matches_oracle(metric, caps):
    # An empty state keeps every row of its first chunk, and stores many of
    # them, so each stored row lowers the later survivors' d(x, S_μ) in the
    # guesses that took it, and many guesses fill within the chunk.
    X, G, ids = _random_stream(metric, seed=7 + METRICS.index(metric), n=_CHUNK)
    met = get_metric(metric)
    mus = guess_grid(*exact_extent(X, met), 0.1)
    ks = {0: 10, 1: 15, 2: 5}
    k = sum(ks.values())
    group_caps = {"sfdm1": ks, "sfdm2": {g: k for g in ks}, "alg1": None}[caps]

    def fresh():
        return StreamState(met, mus, X.shape[1], k, group_caps=group_caps)

    ref = fresh()
    oracle_update(ref, X, G, ids)
    assert ref.n_stored > 75
    assert all((bank.sizes == bank.cap).any() for _, bank in ref._banks())
    for piece in (1, 17, _CHUNK, 5000):
        st = fresh()
        for lo_ in range(0, len(X), piece):
            st.update(X[lo_ : lo_ + piece], G[lo_ : lo_ + piece], ids[lo_ : lo_ + piece])
        assert_same_state(st, ref)
        if piece >= _CHUNK:
            assert st.n_kept == len(X)


def test_survivors_get_no_distance_call_of_their_own(monkeypatch):
    # Over one chunk of a warm state, rows_to_rows runs the kernel's blocks,
    # which keep_mask runs on a copy, and then at most one call per stored
    # row and bank that took it, each from that row: not one per survivor.
    st, Xb, gb = _partly_full_state_and_batch()
    Xb, gb = Xb[:_CHUNK], gb[:_CHUNK]
    calls = []
    rows_to_rows = Metric.rows_to_rows
    monkeypatch.setattr(
        Metric, "rows_to_rows", lambda self, X, A: (calls.append((X, A)), rows_to_rows(self, X, A))[1]
    )
    copy.deepcopy(st).keep_mask(Xb, gb)
    kernel, calls[:] = calls[:], []
    n, kept = st.n_stored, st.n_kept
    st.update(Xb, gb)
    survivors = st.n_kept - kept
    takes = sum(np.unique(bank.members[bank.members >= n]).size for _, bank in st._banks())
    assert len(calls) >= len(kernel)
    for (X, A), (X0, A0) in zip(calls, kernel):
        assert np.array_equal(X, X0) and np.array_equal(A, A0)
    per_row = calls[len(kernel):]
    assert 0 < len(per_row) <= takes < survivors
    stored = {row.tobytes() for row in st.feats[n:]}
    assert all(len(X) == 1 and X[0].tobytes() in stored for X, _ in per_row)


# -- the kernel view of a bank --------------------------------------------------

def rebuilt_view(bank):
    """The kernel view built from ``members`` with a dict lookup."""
    nonfull = np.flatnonzero(bank.sizes < bank.cap)
    lists = bank.members[nonfull, : max(1, bank.sizes[nonfull].max(initial=0))]
    cols = np.unique(lists[lists >= 0])
    pos = {j: i for i, j in enumerate(cols.tolist())}
    idx = [[pos.get(j, len(cols)) for j in row] for row in lists.tolist()]
    return nonfull, cols, np.array(idx, dtype=np.int64).reshape(lists.shape)


def assert_view_current(bank):
    v = bank.view()
    for got, want in zip(v, rebuilt_view(bank), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def oracle_keep(st, feats, groups):
    """Rows that ``oracle_accept`` accepts at some guess of the blind bank or
    of their own group's bank."""
    keep = []
    for x, grp in zip(feats, groups.tolist()):
        dists = st.metric.point_to_rows(x, st.feats)
        banks = [st.blind, *([st.group_banks[grp]] if grp in st.group_banks else [])]
        keep.append(any(oracle_accept(b, dists, st.mus, st.n_stored).any() for b in banks))
    return np.array(keep)


def _partly_full_state_and_batch():
    """A state fed 200 rows, whose banks still have non-full guesses, and
    800 more rows, of which the per-element test keeps some."""
    X, G, ids = _random_stream("manhattan", seed=6, n=1000)
    met = get_metric("manhattan")
    st = StreamState(met, guess_grid(*exact_extent(X[:300], met), 0.15), X.shape[1], 9,
                     group_caps={0: 9, 1: 9, 2: 9})
    st.update(X[:200], G[:200], ids[:200])
    return st, X[200:], G[200:]


def test_view_is_kept_while_sizes_are_unchanged():
    st, Xb, gb = _partly_full_state_and_batch()
    views = [bank.view() for _, bank in st._banks()]
    st.keep_mask(Xb, gb)
    for (_, bank), v in zip(st._banks(), views, strict=True):
        assert v.nonfull.size and bank.view() is v
        assert_view_current(bank)


def test_view_is_rebuilt_after_add_and_after_direct_writes():
    # update() grows the banks through add(); oracle_update writes members
    # and sizes directly.
    st = make_state(mus=(1.0, 2.0, 4.0), k=3, caps={0: 2, 1: 2})
    assert_view_current(st.blind)
    for x, grp, write in [([0.0, 0.0], 0, StreamState.update), ([3.0, 0.0], 1, StreamState.update),
                          ([0.0, 5.0], 0, oracle_update), ([9.0, 9.0], 1, oracle_update)]:
        before = {id(bank): (bank.view(), bank.sizes.copy()) for _, bank in st._banks()}
        write(st, np.array([x]), np.array([grp]))
        for _, bank in st._banks():
            view, sizes = before[id(bank)]
            assert (bank.view() is view) == np.array_equal(bank.sizes, sizes)
            assert_view_current(bank)
    assert st.blind.sizes.tolist() == [3, 3, 3]  # each write grew the blind bank


def test_kernel_with_a_kept_view_equals_a_cold_one_and_the_oracle():
    st, Xb, gb = _partly_full_state_and_batch()
    cold = copy.deepcopy(st)
    for _, bank in cold._banks():
        bank._view = None
    want = oracle_keep(st, Xb, gb)
    assert want.any() and not want.all()
    assert np.array_equal(st.keep_mask(Xb, gb), want)
    assert np.array_equal(cold.keep_mask(Xb, gb), want)


def test_copies_and_pickles_keep_the_view_and_the_kernel_result():
    st, Xb, gb = _partly_full_state_and_batch()
    want = st.keep_mask(Xb, gb)
    assert want.any()
    for other in (copy.deepcopy(st), pickle.loads(pickle.dumps(st))):
        for (_, a), (_, b) in zip(st._banks(), other._banks(), strict=True):
            assert b._view[0] == a._view[0]
            assert all(np.array_equal(x, y) for x, y in zip(a._view[1], b._view[1], strict=True))
        assert np.array_equal(other.keep_mask(Xb, gb), want)


def test_a_warm_update_measures_rows_against_views_only(monkeypatch):
    # The kernel and the per-element test measure rows against the stored
    # rows of a bank's view only, never against the whole store, which on
    # this state is wider than every view.
    st, Xb, gb = _partly_full_state_and_batch()
    calls, point_calls = [], []
    rows_to_rows, point_to_rows = Metric.rows_to_rows, Metric.point_to_rows

    def spy(self, X, A):
        widest = max(len(bank.view().cols) for _, bank in st._banks())
        whole = any(len(a) == st.n_stored and np.array_equal(a, st.feats) for a in (X, A))
        calls.append((st.n_stored, widest, whole))
        return rows_to_rows(self, X, A)

    monkeypatch.setattr(Metric, "rows_to_rows", spy)
    monkeypatch.setattr(
        Metric, "point_to_rows", lambda self, *a: (point_calls.append(1), point_to_rows(self, *a))[1]
    )
    before = st.n_stored
    st.update(Xb, gb)
    assert st.n_stored > before and calls
    assert all(n > widest for n, widest, _ in calls)
    assert not point_calls
    assert not any(whole for _, _, whole in calls)


# -- the store's distance matrix ----------------------------------------------

def _distances_across_rounds(metric, caps, min_blocks=1):
    """Rounds of update + distances(): each call extends the matrix by the
    rows stored since the previous one, in at least ``min_blocks`` row
    blocks; the round at 30 adds no rows. The store crosses several
    capacity steps of the matrix."""
    n_blocks = []
    real = Metric.lower_blocks

    def lower_blocks(self, X, lo):
        out = list(real(self, X, lo))
        n_blocks.append(len(out))
        return iter(out)

    g = np.random.default_rng(METRICS.index(metric))
    X, G = g.uniform(0.1, 1, size=(3000, 6)), g.integers(0, 3, 3000)
    met = get_metric(metric)
    ks = {0: 7, 1: 8, 2: 5}
    k = sum(ks.values())
    group_caps = ks if caps == "sfdm1" else {grp: k for grp in ks}
    st = StreamState(met, guess_grid(*exact_extent(X[:300], met), 0.1), 6, k, group_caps)
    buffers = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Metric, "lower_blocks", lower_blocks)
        for lo, hi in [(0, 30), (30, 30), (30, 400), (400, 1200), (1200, 3000)]:
            n_before = st.n_stored
            st.update(X[lo:hi], G[lo:hi])
            assert hi > lo or st.n_stored == n_before
            n_blocks.clear()
            D = st.distances()
            if st.n_stored > n_before:
                assert n_blocks[0] >= min_blocks
            assert np.array_equal(D, met.rows_to_rows(st.feats, st.feats))
            assert np.array_equal(st.distances(), D)
            buffers.add(len(st._dist))
    assert len(buffers) >= 3 and st.n_stored > 64


@pytest.mark.parametrize("caps", ["sfdm1", "sfdm2"])
@pytest.mark.parametrize("metric", METRICS)
def test_distances_equal_rows_to_rows_across_rounds(metric, caps):
    _distances_across_rounds(metric, caps)


@pytest.mark.parametrize("caps", ["sfdm1", "sfdm2"])
@pytest.mark.parametrize("metric", METRICS)
def test_distances_equal_rows_to_rows_across_row_blocks(metric, caps, monkeypatch):
    # A budget of 3 rows of 32 distances (one row once the store passes 32):
    # each call that adds rows writes 3 or more row blocks and mirrors every
    # block after the first into the columns above it.
    import repro.metrics

    monkeypatch.setattr(repro.metrics, "BLOCK_BYTES", 8 * 32 * 3)
    _distances_across_rounds(metric, caps, min_blocks=3)
