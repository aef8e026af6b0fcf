"""div() and the brute-force OPT / OPT_f oracles."""
import numpy as np
import pytest

from repro.diversity import div
from repro.metrics import get_metric
from tests.post_oracle import brute_fair_opt, brute_opt

MET = get_metric("euclidean")


def test_div_known():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    assert div(X, MET) == pytest.approx(1.0)


def test_div_pair():
    assert div(np.array([[0.0, 0.0], [3.0, 4.0]]), MET) == pytest.approx(5.0)


def test_div_singleton_is_inf():
    assert div(np.array([[1.0, 2.0]]), MET) == np.inf


def test_brute_opt_line():
    # on a line 0,1,2,...,6 choosing k=3 the best min-gap is 3 (0,3,6)
    X = np.arange(7.0)[:, None]
    assert brute_opt(X, 3, MET) == pytest.approx(3.0)


def test_brute_opt_k_equals_n():
    X = np.array([[0.0], [1.0], [5.0]])
    assert brute_opt(X, 3, MET) == pytest.approx(1.0)


def test_brute_opt_k_too_large():
    with pytest.raises(ValueError):
        brute_opt(np.zeros((3, 1)), 4, MET)


def test_fair_opt_no_constraint_binding_equals_opt():
    g = np.random.default_rng(0)
    X = g.normal(size=(8, 2))
    groups = np.zeros(8, dtype=int)
    assert brute_fair_opt(X, groups, {0: 3}, MET) == pytest.approx(brute_opt(X, 3, MET))


def test_fair_opt_leq_opt():
    g = np.random.default_rng(1)
    X = g.normal(size=(10, 2))
    groups = g.integers(0, 2, 10)
    of = brute_fair_opt(X, groups, {0: 2, 1: 2}, MET)
    assert of <= brute_opt(X, 4, MET) + 1e-12


def test_fair_opt_infeasible_returns_zero():
    X = np.random.default_rng(2).normal(size=(5, 2))
    groups = np.zeros(5, dtype=int)
    assert brute_fair_opt(X, groups, {0: 2, 1: 1}, MET) == 0.0


def test_fair_opt_forced_selection():
    # group 1 has exactly its quota -> those points must be selected
    X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0], [9.0, 0.0]])
    groups = np.array([0, 1, 0, 0])
    val = brute_fair_opt(X, groups, {0: 2, 1: 1}, MET)
    # must contain point 1; best is {1, 2(or 3), ...}
    assert val == pytest.approx(4.0)  # {0.1, 5.0, 9.0}
