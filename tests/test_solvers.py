"""Deterministic solver components: exp-sum and log-barrier, plus the
golden-section search the oracles use."""

import math

import numpy as np
import pytest

import forwardperf.solvers as solvers
from forwardperf.errors import ConvergenceError
from forwardperf.solvers import barrier_minimize, minimize_exp_sum
from oracles import golden_section_min


def test_golden_section_quadratic():
    x, v = golden_section_min(lambda x: (x - 1.3) ** 2, 0.0, 3.0, tol=1e-13)
    assert x == pytest.approx(1.3, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-15)


def test_golden_section_endpoint_minimum():
    x, _ = golden_section_min(lambda x: x, 2.0, 5.0, tol=1e-13)
    assert x == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        golden_section_min(lambda x: x, 1.0, 0.0)


def test_minimize_exp_sum_binomial_pin():
    # 0.8 e^{-p} + 0.2 e^{p}: stationary at p = (1/2) log 4, value 0.8
    p, v = minimize_exp_sum([0.8, 0.2], [-1.0, 1.0])
    assert p == pytest.approx(0.5 * math.log(4.0), abs=1e-10)
    assert v == pytest.approx(0.8, abs=1e-12)


def test_minimize_exp_sum_trinomial_pin():
    # 0.5 e^{-p} + 0.3 + 0.2 e^{p}: value 0.3 + 2 sqrt(0.1)
    p, v = minimize_exp_sum([0.5, 0.3, 0.2], [-1.0, 0.0, 1.0])
    assert p == pytest.approx(0.5 * math.log(2.5), abs=1e-10)
    assert v == pytest.approx(0.3 + 2.0 * math.sqrt(0.1), abs=1e-12)


def test_minimize_exp_sum_all_zero_slopes():
    p, v = minimize_exp_sum([0.4, 0.6], [0.0, 0.0])
    assert p == 0.0
    assert v == 1.0


def test_minimize_exp_sum_one_sided_raises():
    with pytest.raises(ValueError, match="one-sided"):
        minimize_exp_sum([0.5, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError, match="one-sided"):
        minimize_exp_sum([0.5, 0.5], [0.0, -1.0])


def test_minimize_exp_sum_input_validation():
    with pytest.raises(ValueError):
        minimize_exp_sum([1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        minimize_exp_sum([1.0, -1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        minimize_exp_sum([], [])


def test_minimize_exp_sum_asymmetric():
    # derivative vanishes exactly at the reported point
    w = np.array([0.2, 1.1, 0.7])
    s = np.array([-2.0, 0.5, 1.5])
    p, v = minimize_exp_sum(w, s)
    deriv = float(np.sum(w * s * np.exp(s * p)))
    assert abs(deriv) <= 1e-9
    assert v == pytest.approx(float(np.sum(w * np.exp(s * p))), rel=1e-14)


# -- barrier solver ------------------------------------------------------


def entropy_phi(r):
    return r * np.log(r) - r, np.log(r), 1.0 / r


def test_barrier_entropy_over_simplex():
    # min sum h(r_i) over the simplex: uniform by symmetry
    A = np.ones((1, 3))
    b = np.array([1.0])
    r, lam, info = barrier_minimize(entropy_phi, A, b, np.array([0.5, 0.3, 0.2]))
    assert np.allclose(r, 1.0 / 3.0, atol=1e-6)
    assert info["eq_residual"] <= 1e-9
    assert info["gap_bound"] <= 1e-10
    # KKT: log r + lambda = 0 componentwise
    assert np.max(np.abs(np.log(r) + lam[0])) <= 1e-6


def test_barrier_weighted_target():
    # min sum c_i r_i + h(r_i) s.t. sum r = 1 has closed form softmax(-c)
    c = np.array([0.3, -0.1, 1.2])

    def phi(r):
        return c * r + r * np.log(r) - r, c + np.log(r), 1.0 / r

    A = np.ones((1, 3))
    r, _, _ = barrier_minimize(phi, A, np.array([1.0]), np.full(3, 1.0 / 3.0))
    want = np.exp(-c) / np.exp(-c).sum()
    assert np.allclose(r, want, atol=1e-7)


def test_barrier_two_constraints():
    # add a mean-zero constraint: min entropy over {sum r = 1, r1 - r3 = 0}
    A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]])
    b = np.array([1.0, 0.0])
    r, _, info = barrier_minimize(entropy_phi, A, b, np.array([0.3, 0.4, 0.3]))
    assert r[0] == pytest.approx(r[2], abs=1e-8)
    assert info["eq_residual"] <= 1e-9


def test_barrier_iteration_cap_raises(monkeypatch):
    # from this start the simplex entropy takes more than one Newton step
    monkeypatch.setattr(solvers, "_BARRIER_MAX_NEWTON", 1)
    with pytest.raises(ConvergenceError, match="1 Newton iterations exhausted"):
        barrier_minimize(entropy_phi, np.ones((1, 3)), np.array([1.0]), np.array([0.8, 0.1, 0.1]))


def test_barrier_rejects_bad_start():
    A = np.ones((1, 2))
    with pytest.raises(ValueError):
        barrier_minimize(entropy_phi, A, np.array([1.0]), np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        barrier_minimize(entropy_phi, np.ones((1, 3)), np.array([1.0]), np.array([0.5, 0.5]))


def test_barrier_drops_vacuous_rows():
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 0.0])
    r, _, _ = barrier_minimize(entropy_phi, A, b, np.array([0.6, 0.4]))
    assert np.allclose(r, 0.5, atol=1e-6)
    with pytest.raises(ValueError, match="infeasible zero row"):
        barrier_minimize(entropy_phi, A, np.array([1.0, 0.5]), np.array([0.6, 0.4]))
