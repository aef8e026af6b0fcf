"""Metric substrate: axioms, known values, vectorized-form consistency."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import METRICS, get_metric

VEC = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=3
)
POSVEC = st.lists(
    st.floats(min_value=0.01, max_value=50, allow_nan=False), min_size=3, max_size=3
)


@pytest.mark.parametrize("name", METRICS)
def test_known_metric_lookup(name):
    m = get_metric(name)
    assert m.name == name
    assert get_metric(m) is m


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        get_metric("cosine")


def test_euclidean_known_value():
    m = get_metric("euclidean")
    D = m.pairwise(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert D[0, 0] == pytest.approx(5.0)


def test_manhattan_known_value():
    m = get_metric("manhattan")
    D = m.pairwise(np.array([[1.0, 2.0]]), np.array([[4.0, -2.0]]))
    assert D[0, 0] == pytest.approx(7.0)


def test_angular_known_values():
    m = get_metric("angular")
    a = np.array([[1.0, 0.0]])
    b = np.array([[0.0, 1.0]])
    assert m.pairwise(a, b)[0, 0] == pytest.approx(np.pi / 2)
    assert m.pairwise(a, 2 * a)[0, 0] == pytest.approx(0.0, abs=1e-7)
    assert m.pairwise(a, -a)[0, 0] == pytest.approx(np.pi)


@pytest.mark.parametrize("name", METRICS)
def test_self_distance_zero(name):
    m = get_metric(name)
    X = np.random.default_rng(0).random((5, 4)) + 0.1
    D = m.pairwise(X, X)
    assert np.allclose(np.diag(D), 0.0, atol=1e-6)


@pytest.mark.parametrize("name", METRICS)
def test_symmetry(name):
    m = get_metric(name)
    g = np.random.default_rng(1)
    A, B = g.random((6, 5)) + 0.1, g.random((7, 5)) + 0.1
    assert np.array_equal(m.pairwise(A, B), m.pairwise(B, A).T)


@pytest.mark.parametrize("name", METRICS)
def test_nonnegative(name):
    m = get_metric(name)
    g = np.random.default_rng(2)
    A = g.normal(size=(10, 4)) if name != "angular" else g.random((10, 4)) + 0.01
    assert (m.pairwise(A, A) >= 0).all()


@pytest.mark.parametrize("name", METRICS)
def test_point_to_rows_matches_pairwise(name):
    m = get_metric(name)
    g = np.random.default_rng(3)
    A = g.random((8, 6)) + 0.1
    x = g.random(6) + 0.1
    assert np.array_equal(m.point_to_rows(x, A), m.pairwise(x[None, :], A)[0])


@pytest.mark.parametrize("name", METRICS)
def test_pairwise_is_rows_to_rows(name):
    # one arithmetic: div, the baselines and the extent read the doubles the
    # stream phase and the store matrix do; (9, 11) is row-major, (80, 120)
    # goes through the planes
    m = get_metric(name)
    g = np.random.default_rng(6)
    for rows, cols, dim in ((9, 11, 5), (80, 120, 30)):
        A, B = g.random((rows, dim)) + 0.1, g.random((cols, dim)) + 0.1
        assert np.array_equal(m.pairwise(A, B), m.rows_to_rows(A, B))
        assert np.array_equal(m.pairwise(A, A), m.rows_to_rows(A, A))


@pytest.mark.parametrize("name", METRICS)
def test_rows_to_rows_entries_depend_on_their_pair_only(name):
    # the stream phase's rejection kernel needs point_to_rows' exact bits
    # for any subset of stored rows (DESIGN.md §3); with 5,000 rows of A,
    # D and point_to_rows(x, A) come from the planes, the subsets do not
    m = get_metric(name)
    g = np.random.default_rng(5)
    for n_a in (53, 5_000):
        X, A = g.normal(size=(7, 30)), g.normal(size=(n_a, 30))
        D = m.rows_to_rows(X, A)
        cols = np.array([3, 17, 18, 52])
        assert np.array_equal(m.rows_to_rows(X[2:5], A[cols]), D[2:5][:, cols])
        for i, x in enumerate(X):
            assert np.array_equal(m.point_to_rows(x, A), D[i])
            assert np.array_equal(m.point_to_rows(x, A[cols]), D[i, cols])


@pytest.mark.parametrize("dim", range(2, 8))
@pytest.mark.parametrize("name", ["euclidean", "manhattan"])
def test_rows_to_rows_is_a_left_fold_below_8_features(name, dim):
    # numpy sums fewer than 8 terms in order, so each entry is the fold
    # aggregate(zip_with(x, a, ...), 0D, (acc, v) -> acc + v); the Spark
    # extent pre-pass relies on it (DESIGN.md §3). 30 x 40 is below the
    # plane kernel's threshold, 64 x 70 above it.
    g = np.random.default_rng(dim)
    for n_x, n_a in ((30, 40), (64, 70)):
        X, A = g.normal(size=(n_x, dim)) * 3, g.normal(size=(n_a, dim)) * 3
        D = get_metric(name).rows_to_rows(X, A)
        for i, x in enumerate(X.tolist()):
            for j, a in enumerate(A.tolist()):
                acc = 0.0
                for xf, af in zip(x, a):
                    acc += (xf - af) * (xf - af) if name == "euclidean" else abs(xf - af)
                assert D[i, j] == (math.sqrt(acc) if name == "euclidean" else acc)


@pytest.mark.parametrize("name", METRICS)
def test_point_to_rows_empty(name):
    m = get_metric(name)
    assert m.point_to_rows(np.ones(3), np.zeros((0, 3))).shape == (0,)


@settings(max_examples=40, deadline=None)
@given(x=VEC, y=VEC, z=VEC)
def test_triangle_inequality_euclidean(x, y, z):
    m = get_metric("euclidean")
    X = np.array([x, y, z])
    D = m.pairwise(X, X)
    assert D[0, 2] <= D[0, 1] + D[1, 2] + 1e-7


@settings(max_examples=40, deadline=None)
@given(x=VEC, y=VEC, z=VEC)
def test_triangle_inequality_manhattan(x, y, z):
    m = get_metric("manhattan")
    X = np.array([x, y, z])
    D = m.pairwise(X, X)
    assert D[0, 2] <= D[0, 1] + D[1, 2] + 1e-7


@settings(max_examples=40, deadline=None)
@given(x=POSVEC, y=POSVEC, z=POSVEC)
def test_triangle_inequality_angular(x, y, z):
    # angular distance is the geodesic on the sphere: a true metric
    m = get_metric("angular")
    X = np.array([x, y, z])
    D = m.pairwise(X, X)
    assert D[0, 2] <= D[0, 1] + D[1, 2] + 1e-6


def test_angular_nonneg_orthant_bounded_by_half_pi():
    # the paper's Lyrics remark: nonnegative vectors are within pi/2
    g = np.random.default_rng(4)
    A = g.random((20, 10)) + 1e-3
    m = get_metric("angular")
    assert m.pairwise(A, A).max() <= np.pi / 2 + 1e-9


def test_angular_zero_vector_guard():
    m = get_metric("angular")
    D = m.pairwise(np.zeros((1, 3)), np.ones((1, 3)))
    assert np.isfinite(D).all()
    # 70 x 70 goes through the plane kernel, with zero rows in both X and A:
    # the guard is the one the row-major path runs
    g = np.random.default_rng(9)
    X, A = g.normal(size=(70, 12)), g.normal(size=(70, 12))
    X[[0, 33, 69]] = 0.0
    A[[5, 33]] = 0.0
    want = _row_major("angular", X, A)
    for got in (m.rows_to_rows(X, A), m.rows_to_feature_major(X, m.feature_major(A))):
        assert np.isfinite(got).all() and np.array_equal(got, want)


def test_euclidean_clip_no_nan_on_near_duplicates():
    m = get_metric("euclidean")
    X = np.full((2, 4), 0.123456789)
    assert not np.isnan(m.pairwise(X, X)).any()


@pytest.mark.parametrize("rows_per_block", [1, 7, 52])
def test_blocked_manhattan_pairwise_is_the_unblocked_expression(rows_per_block):
    # B sized so that a (rows_per_block, |B|, dim) temporary is BLOCK_BYTES,
    # the row-blocking pairwise once had; the outputs fall on both sides of
    # the plane kernel's threshold.
    from repro.metrics import BLOCK_BYTES

    g = np.random.default_rng(rows_per_block)
    dim = 25
    B = g.normal(size=(BLOCK_BYTES // (8 * dim * rows_per_block), dim)) * 3
    met = get_metric("manhattan")
    for n in (0, 1, rows_per_block - 1, rows_per_block, 2 * rows_per_block + 1):
        A = g.normal(size=(n, dim)) * 3
        want = np.abs(A[:, None, :] - B[None, :, :]).sum(-1)
        got = met.pairwise(A, B)
        assert got.shape == want.shape and np.array_equal(got, want)
    assert met.pairwise(A, B[:0]).shape == (len(A), 0)


def _row_major(name, X, A):
    """rows_to_rows as one (|X|, |A|, dim) temporary reduced by ``.sum(-1)``."""
    if name in ("euclidean", "manhattan"):
        diff = A[None, :, :] - X[:, None, :]
        if name == "manhattan":
            return np.abs(diff).sum(-1)
        return np.sqrt(np.square(diff).sum(-1))
    nx = np.sqrt((X * X).sum(-1))
    na = np.sqrt((A * A).sum(-1))
    prod = na[None, :] * nx[:, None]
    denom = np.where(prod == 0, 1.0, prod)
    cos = (A[None, :, :] * X[:, None, :]).sum(-1) / denom
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _spread(g, shape):
    # magnitudes over about 10 decades, so that a different order of the
    # per-feature additions changes the last bits of many sums
    return g.normal(size=shape) * np.exp(3 * g.normal(size=shape))


# Below the threshold; one row of 4,096 and one row across two column
# blocks (row-major in rows_to_rows, planes in rows_to_feature_major, as gmm
# calls it); exactly the threshold; across row blocks of the planes (81 rows
# of 100 columns fill one); across both row and column blocks.
PLANE_SHAPES = [(3, 40), (1, 4096), (1, 9000), (64, 64), (170, 100), (2, 8200)]


@pytest.mark.parametrize("dim", [*range(1, 10), 16, 17, 25, 50, 128, 129, 300])
@pytest.mark.parametrize("name", METRICS)
def test_planes_are_the_row_major_expression(name, dim):
    # the plane kernel adds the per-feature planes in numpy's pairwise order
    # (8 accumulators from 8 terms, split in two above 128), so every entry
    # is the row-major .sum(-1) double
    from repro.metrics import _CELLS, _PLANE_CELLS

    assert _PLANE_CELLS == 64 * 64 and 170 * 100 > 2 * _CELLS and 8200 > _CELLS
    m = get_metric(name)
    g = np.random.default_rng(dim)
    for n_x, n_a in PLANE_SHAPES:
        X, A = _spread(g, (n_x, dim)), _spread(g, (n_a, dim))
        want = _row_major(name, X, A)
        got = m.rows_to_rows(X, A)
        assert got.shape == want.shape and np.array_equal(got, want), (n_x, n_a)
        got = m.rows_to_feature_major(X, m.feature_major(A))
        assert np.array_equal(got, want), (n_x, n_a)


@pytest.mark.parametrize("name", METRICS)
def test_planes_handle_empty_inputs(name):
    m = get_metric(name)
    g = np.random.default_rng(8)
    for n_x, n_a, dim in ((0, 5000, 4), (5000, 0, 4), (70, 70, 0), (1, 5000, 0), (3, 4, 0)):
        X, A = g.normal(size=(n_x, dim)), g.normal(size=(n_a, dim))
        want = _row_major(name, X, A)
        for got in (m.rows_to_rows(X, A), m.rows_to_feature_major(X, m.feature_major(A))):
            assert got.shape == (n_x, n_a) and np.array_equal(got, want), (n_x, n_a, dim)


@pytest.mark.parametrize("name", METRICS)
def test_rows_to_rows_rejects_unequal_feature_counts(name):
    # on both paths, also where numpy would broadcast a single feature
    m = get_metric(name)
    for n_x, n_a in ((3, 4), (70, 70), (1, 5000)):
        for d_x, d_a in ((5, 4), (1, 5), (5, 1)):
            X, A = np.ones((n_x, d_x)), np.ones((n_a, d_a))
            with pytest.raises(ValueError):
                m.rows_to_rows(X, A)
            with pytest.raises(ValueError):
                m.rows_to_feature_major(X, m.feature_major(A))


@pytest.mark.parametrize("dim", [6, 25, 50])
@pytest.mark.parametrize("name", METRICS)
def test_planes_are_symmetric_bit_for_bit(name, dim):
    # StreamState.distances() writes a block's transpose as its columns
    m = get_metric(name)
    g = np.random.default_rng(dim)
    X, A = _spread(g, (80, dim)), _spread(g, (120, dim))
    assert np.array_equal(m.rows_to_rows(X, A), m.rows_to_rows(A, X).T)
