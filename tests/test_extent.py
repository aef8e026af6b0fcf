"""Extent estimation: exactness, bracketing, guards."""
import numpy as np
import pytest

from repro.extent import estimate_extent, exact_extent
from repro.metrics import get_metric

MET = get_metric("euclidean")


def test_exact_extent_known():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    d_min, d_max = exact_extent(X, MET)
    assert d_min == pytest.approx(1.0)
    assert d_max == pytest.approx(5.0)


def test_exact_extent_ignores_duplicates_for_dmin():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    d_min, _ = exact_extent(X, MET)
    assert d_min == pytest.approx(2.0)


def test_exact_extent_all_identical_raises():
    with pytest.raises(ValueError, match="identical"):
        exact_extent(np.zeros((4, 2)), MET)


def test_exact_extent_single_point_raises():
    with pytest.raises(ValueError):
        exact_extent(np.zeros((1, 2)), MET)


def test_exact_extent_blocked_matches_direct(monkeypatch):
    # a budget of 7 rows of 50 distances spreads the pair scan of rows 1-49
    # against the rows before them over 7 blocks
    import repro.extent as ext
    import repro.metrics

    g = np.random.default_rng(0)
    X = g.normal(size=(50, 3))
    D = MET.rows_to_rows(X, X)[np.tril_indices(len(X), k=-1)]
    monkeypatch.setattr(repro.metrics, "BLOCK_BYTES", 8 * len(X) * 7)
    blocks = list(ext.pair_blocks(X, MET))
    assert len(blocks) == 7
    assert np.array_equal(np.concatenate(blocks), D)
    assert exact_extent(X, MET) == (float(D[D > 0].min()), float(D.max()))


def test_estimate_small_n_uses_exact_with_factors():
    g = np.random.default_rng(1)
    X = g.normal(size=(40, 2))
    d_min, d_max = exact_extent(X, MET)
    lo, hi = estimate_extent(X, MET, sample=100)
    assert lo == pytest.approx(d_min * 0.5)
    assert hi == pytest.approx(d_max * 2.0)


def test_estimate_brackets_truth_on_large_n():
    g = np.random.default_rng(2)
    X = g.normal(size=(5000, 2))
    d_min, d_max = exact_extent(X, MET)
    lo, hi = estimate_extent(X, MET, sample=400, seed=3)
    assert lo >= d_min * 0.5 - 1e-12  # sampled min can only exceed the true min
    assert d_max <= hi <= d_max * 2 + 1e-9  # x2 factor absorbs sampling shortfall
    assert lo > 0


@pytest.mark.parametrize("metric", ["euclidean", "manhattan", "angular"])
def test_estimate_positive_all_metrics(metric):
    g = np.random.default_rng(4)
    X = g.random((200, 5)) + 0.01
    lo, hi = estimate_extent(X, get_metric(metric), sample=100)
    assert 0 < lo < hi


@pytest.mark.parametrize("extent", [exact_extent, estimate_extent])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_row_rejected(extent, bad):
    # a non-finite row is named, not left out of the pair scan
    X = np.random.default_rng(5).normal(size=(50, 3))
    X[17, 1] = bad
    with pytest.raises(ValueError, match="stream id 17 has a non-finite feature"):
        extent(X, MET)


@pytest.mark.parametrize("extent", [exact_extent, estimate_extent])
def test_all_but_two_rows_non_finite_rejected(extent):
    # the only finite pair would otherwise set both ends of the extent
    X = np.full((30, 3), np.nan)
    X[[4, 20]] = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    with pytest.raises(ValueError, match="stream id 0 has a non-finite feature"):
        extent(X, MET)


def test_sampled_extent_names_the_row_by_its_index_in_x():
    # rows 150 on are non-finite; a sample of 50 that names a row by its
    # place in the sample would name one below 50
    X = np.random.default_rng(6).normal(size=(300, 3))
    X[150:, 2] = np.nan
    with pytest.raises(ValueError, match="has a non-finite feature") as err:
        estimate_extent(X, MET, sample=50)
    assert int(str(err.value).split()[2]) >= 150
