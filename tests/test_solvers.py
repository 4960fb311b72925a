"""Deterministic solver components: exp-sum and log-barrier, plus the
golden-section search the oracles use."""

import math

import numpy as np
import pytest

import forwardperf.solvers as solvers
from forwardperf.errors import ConvergenceError
from forwardperf.solvers import barrier_minimize, minimize_exp_sum
from forwardperf.tree_verifier import WindowDuals, _one_step_objective
import oracles
from oracles import golden_section_min
from treegen import binomial_tree


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
    p, v = minimize_exp_sum([math.log(0.8), math.log(0.2)], [-1.0, 1.0])
    assert p == pytest.approx(0.5 * math.log(4.0), abs=1e-10)
    assert v == pytest.approx(math.log(0.8), abs=1e-12)


def test_minimize_exp_sum_trinomial_pin():
    # 0.5 e^{-p} + 0.3 + 0.2 e^{p}: value 0.3 + 2 sqrt(0.1)
    p, v = minimize_exp_sum([math.log(0.5), math.log(0.3), math.log(0.2)], [-1.0, 0.0, 1.0])
    assert p == pytest.approx(0.5 * math.log(2.5), abs=1e-10)
    assert v == pytest.approx(math.log(0.3 + 2.0 * math.sqrt(0.1)), abs=1e-12)


def test_minimize_exp_sum_all_zero_slopes():
    p, v = minimize_exp_sum([math.log(0.4), math.log(0.6)], [0.0, -0.0])
    assert repr(p) == "0.0"
    assert v == pytest.approx(0.0, abs=1e-15)


def test_minimize_exp_sum_one_sided_raises():
    with pytest.raises(ValueError, match="one-sided"):
        minimize_exp_sum([0.5, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError, match="one-sided"):
        minimize_exp_sum([0.5, 0.5], [0.0, -1.0])


def test_minimize_exp_sum_input_validation():
    for log_weights, slopes in [
        ([0.0], [1.0, -1.0]),
        ([[0.0, 0.0]], [[1.0, -1.0]]),
        ([], []),
        ([-math.inf, 0.0], [1.0, -1.0]),  # a weight of 0
        ([math.nan, 0.0], [1.0, -1.0]),
        ([0.0, 0.0], [math.inf, -1.0]),
        ([0.0, 0.0], [1.0, math.nan]),
    ]:
        with pytest.raises(ValueError, match="minimize_exp_sum: "):
            minimize_exp_sum(log_weights, slopes)


def test_minimize_exp_sum_asymmetric():
    # derivative vanishes exactly at the reported point
    w = np.array([0.2, 1.1, 0.7])
    s = np.array([-2.0, 0.5, 1.5])
    p, v = minimize_exp_sum(np.log(w), s)
    deriv = float(np.sum(w * s * np.exp(s * p)))
    assert abs(deriv) <= 1e-9
    assert v == pytest.approx(math.log(float(np.sum(w * np.exp(s * p)))), abs=1e-14)


def _outcome(fn, w, s):
    """The result of a solve, or the type and text of its error."""
    try:
        return fn(w, s)
    except (ValueError, ConvergenceError) as exc:
        return type(exc).__name__, str(exc)


def _random_programs():
    """1000 random programs on 1 to 20 branches, with zero and -0.0 slopes,
    one-sided slopes, weights down to 1e-200 and slopes from 1e-6 to 1e300,
    as (weights, slopes)."""
    rng = np.random.default_rng(3)
    for trial in range(1000):
        k = int(rng.integers(1, 21))
        w = 10.0 ** rng.uniform(-200 if trial % 10 == 0 else -4, 3, size=k)
        s = rng.uniform(-1.0, 1.0, size=k) * 10.0 ** rng.uniform(-6, 4 if trial % 5 else 300, size=k)
        s[rng.random(k) < 0.15] = rng.choice([0.0, -0.0])
        if trial % 9 == 0:
            s = np.abs(s)
        yield w, s


def _oracle_converges(monkeypatch, w, s, outcome):
    """Whether the numpy oracle's ``outcome`` is a converged solve: ten
    times its iteration cap returns the same bits, so the loop ended at its
    bracket test and not at the cap, where it returns its last iterate."""
    with monkeypatch.context() as m:
        m.setattr(solvers, "_EXP_SUM_MAX_ITER", 10 * solvers._EXP_SUM_MAX_ITER)
        longer = _outcome(oracles.numpy_minimize_exp_sum, w, s)
    return repr(longer) == repr(outcome) and 0.0 < outcome[1] < math.inf


def test_minimize_exp_sum_matches_the_numpy_oracle_where_it_converges(monkeypatch):
    # the oracle is the solver before it ran in log units: on weights and
    # slopes as given, from a bracket step of 1 in p, returning its last
    # iterate at the cap. Where it converges, the log of its value and the
    # log value agree within the rounding of their terms: each of the k
    # terms' exponent l_i + s_i p, with |l_i| = |log w_i|, rounds within
    # u (|l_i| + |s_i p|) in both, each exponential and product once, and
    # the sum of k terms k times: B = (2k + 8 + 2 max_i (|l_i| + |s_i p|)) u.
    # Near the minimum, a value error of B allows a minimiser error of
    # sqrt(2 B / var), var the variance of s under the tilt at p. Both
    # refuse the same inputs; every program the new solve refuses, the
    # oracle refuses too
    compared = 0
    for w, s in _random_programs():
        old = _outcome(oracles.numpy_minimize_exp_sum, w, s)
        with np.errstate(divide="ignore"):
            new = _outcome(minimize_exp_sum, np.log(w).tolist(), s.tolist())
        if isinstance(new[0], str) or isinstance(old[0], str):
            assert repr(new) == repr(old)
            continue
        if not _oracle_converges(monkeypatch, w, s, old):
            continue
        compared += 1
        p, v = old
        k = len(w)
        bound = (2 * k + 8 + 2 * max(abs(math.log(x)) + abs(y * p) for x, y in zip(w, s))) * 2.0**-53
        assert abs(new[1] - math.log(v)) <= bound, (w, s)
        # the variance in units of max|s|, where it does not overflow; where
        # it underflows to 0 the bound is infinite
        scale = float(np.abs(s).max()) or 1.0
        e = np.log(w) + s * p
        tilt = np.exp(e - e.max())
        tilt /= tilt.sum()
        var = float(tilt @ (s / scale) ** 2 - (tilt @ (s / scale)) ** 2)
        assert var == 0.0 or abs(new[0] - p) * scale <= math.sqrt(2.0 * bound / var), (w, s)
    assert compared > 400


@pytest.mark.parametrize(
    "w, s",
    [
        ([1.0], [1.0, -1.0]),  # shape before weights
        ([[1.0, 1.0]], [[1.0, -1.0]]),
        ([], []),
        ([-1.0, 1.0], [1.0, 2.0]),  # weights before one-sided slopes
        ([0.0, 1.0], [0.0, 0.0]),  # weights before the zero-slope answer
        ([0.4, 0.6], [0.0, -0.0]),
        ([0.5, 0.5], [0.0, -1.0]),
        ([1.0, 2.0], [1e-30, -1e-30]),  # the oracle's bracket outgrows 2**60
        ([1e-200, 1.0], [1e3, -1.0]),  # exp overflows at the oracle's bracket end
        ([float("nan"), 1.0], [1.0, -1.0]),
        ([1.0, 1.0], [float("nan"), -1.0]),
        ([1.0, 1.0], [1.0, float("nan")]),
        ([1.0] * 9, [-1.0] + [0.0] * 7 + [2.0]),
    ],
)
def test_minimize_exp_sum_errors_and_edges_match_numpy_oracle(monkeypatch, w, s):
    # on log weights: an input the oracle refuses, the solve refuses too,
    # and where the oracle converges both agree (see the random programs
    # above). The solve refuses the non-finite inputs the oracle read as
    # a stationary point at 0, and solves, at the problem's own scale, the
    # programs whose bracket the oracle could not build; the first-order
    # condition holds at its answer, relative to the terms' size
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.log(np.asarray(w, dtype=float)).tolist()
    new, old = _outcome(minimize_exp_sum, log_w, s), _outcome(oracles.numpy_minimize_exp_sum, w, s)
    if isinstance(old[0], str):
        assert isinstance(new[0], str) or "bracket expansion failed" in old[1]
    elif not (np.isfinite(log_w).all() and np.isfinite(s).all()):
        assert new == ("ValueError", "minimize_exp_sum: log weights and slopes must be finite")
    elif _oracle_converges(monkeypatch, w, s, old):
        assert new[1] == pytest.approx(math.log(old[1]), abs=1e-14)
        assert new[0] == pytest.approx(old[0], abs=1e-7)
    if not isinstance(new[0], str):
        e = np.array(log_w) + np.array(s) * new[0]
        tilt = np.exp(e - e.max())
        assert abs(float(tilt @ s)) <= 1e-9 * float(tilt @ np.abs(s))
        assert new[1] == pytest.approx(e.max() + math.log(float(tilt.sum())), abs=1e-14 * (1.0 + abs(new[1])))


def test_minimize_exp_sum_solves_at_the_problems_scale():
    # programs whose bracket outgrew 2**60 in p, or overflowed exp at its
    # ends, from a bracket step of 1 in p: each closed-form minimum
    for log_w, s, (p, v) in [
        ([0.0, math.log(2.0)], [1e-30, -1e-30], (0.5e30 * math.log(2.0), math.log(2.0 * math.sqrt(2.0)))),
        ([0.0, -1600.0], [1.0, -1.0], (-800.0, math.log(2.0) - 800.0)),
        ([0.0, -1600.0], [1e300, -1e300], (-8e-298, math.log(2.0) - 800.0)),
    ]:
        got = minimize_exp_sum(log_w, s)
        assert got[0] == pytest.approx(p, rel=1e-12)
        assert got[1] == pytest.approx(v, rel=1e-14)


@pytest.mark.parametrize("c", [-800.0, -50.0, 50.0, 800.0])
@pytest.mark.parametrize("lam", [1e-200, 1e-12, 1e6, 1e200])
def test_minimize_exp_sum_is_invariant_under_its_symmetries(c, lam):
    # a constant added to every log weight adds itself to the log value, and
    # slopes times lam divide the minimiser by lam: the solve runs on the
    # same scaled problem, so the answers agree within the rounding of the
    # shifted weights and of the scaled slopes, a few u of |c| + 1
    lw = [math.log(0.3), math.log(0.5), math.log(0.2)]
    s = [-1.3, 0.4, 1.1]
    p, v = minimize_exp_sum(lw, s)
    p2, v2 = minimize_exp_sum([x + c for x in lw], [x * lam for x in s])
    u = 2.0**-53
    assert abs(v2 - (v + c)) <= 16 * u * (abs(c) + 1.0)
    assert abs(p2 * lam - p) <= 1e-12 * (1.0 + abs(p))


def test_minimize_exp_sum_fails_at_its_iteration_cap(monkeypatch):
    # a solve that has not narrowed its bracket after the cap raises,
    # naming the cap and the bracket's width, where it returned its last
    # iterate
    monkeypatch.setattr(solvers, "_EXP_SUM_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match=r"minimize_exp_sum: 2 iterations exhausted at bracket width \d"):
        minimize_exp_sum([0.0, -1600.0], [1.0, -1.0])
    monkeypatch.setattr(solvers, "_EXP_SUM_MAX_ITER", 200)
    assert minimize_exp_sum([0.0, -1600.0], [1.0, -1.0])[0] == pytest.approx(-800.0)


@pytest.mark.parametrize(
    "log_w, s",
    [
        # the derivative's sign turns only past the float range: the edge
        # overflows to inf, where the derivative is NaN
        ([1e308, -1e308], [-1.0, 1.0]),
        ([-1e308, 1e308], [-1.0, 1.0]),
        # scaling rounds the small slope to 0, so the derivative at an
        # infinite edge is 0
        ([1e308, -1e308], [-1e300, 1e-300]),
    ],
)
def test_minimize_exp_sum_refuses_a_bracket_past_the_float_range(log_w, s):
    # the first returned (inf, nan) and the second ran out its Newton steps
    # on an infinite bracket
    with pytest.raises(ConvergenceError, match=r"^minimize_exp_sum: bracket expansion failed$"):
        minimize_exp_sum(log_w, s)


# -- barrier solver ------------------------------------------------------


def stacked(phi_one):
    """A stack objective for ``barrier_minimize`` from one program's
    ``phi(r)``: the same function on every row."""

    def phi(rows):
        return lambda r: tuple(np.stack(x) for x in zip(*(phi_one(ri) for ri in r)))

    return phi


def entropy_phi(r):
    return r * np.log(r) - r, np.log(r), 1.0 / r


def solve_one(phi_one, r0, price=None):
    """``barrier_minimize`` on a stack of one program, as one program's
    (r, multipliers, info)."""
    r, lam, info = barrier_minimize(stacked(phi_one), r0[None], None if price is None else price[None])
    return r[0], lam[0], {**info, "eq_residual": float(info["eq_residual"][0])}


def oracle_rows(m, price_row):
    """The scalar oracle's constraint rows and right-hand side: unit mass,
    and the price row when there is one, with target 0."""
    if price_row is None:
        return np.ones((1, m)), np.array([1.0])
    return np.array([np.ones(m), price_row]), np.array([1.0, 0.0])


def assert_within_the_oracle_bound(phi_one, r0, price_row, r, value, iterations):
    """One program's minimiser and objective against the scalar oracle,
    which solves the same barrier problem by LAPACK. Each solver stops at a
    Newton decrement lambda with lambda^2 < tol = 1e-13 (1 + |f|), f its
    barrier value, so each barrier value is within tol of the central
    point's and each iterate within about lambda of it in the norm of the
    barrier Hessian H: |dr_i| <= 4 sqrt(tol / H_ii) covers both with a
    factor two to spare. The Newton counts differ by at most the one step
    that a stop test at the rounding floor can go either way."""
    A, b = oracle_rows(len(r0), price_row)
    r1, _, info1 = oracles.scalar_barrier_minimize(phi_one, A, b, r0)
    mu = solvers._BARRIER_GAP_TOL / len(r0)
    v, _, hess = phi_one(r1)
    barrier = float(v.sum()) - mu * float(np.log(r1).sum())
    tol = 1e-13 * (1.0 + abs(barrier))
    assert abs(float(value) - float(v.sum())) <= 2.0 * tol
    assert (np.abs(r - r1) <= 4.0 * np.sqrt(tol / (hess + mu / (r1 * r1)))).all()
    assert abs(int(iterations) - info1["newton_iterations"]) <= 1


def assert_rows_solve_as_alone(phi, phi_rows, r0, price=None):
    """Every program of the stack has the minimiser, multipliers, Newton
    count, equality residual, objective's sum and failure of a stack of
    that program alone, bit for bit, and each that solves is within the
    scalar oracle's bound; returns the stack's (r, multipliers, info)."""
    r, lam, info = barrier_minimize(phi, r0, price)
    assert info["newton_iterations"] == int(info["iterations"].sum())
    assert isinstance(info["newton_iterations"], int)
    for j in range(len(r0)):
        price_row = None if price is None else price[j]
        r1, lam1, info1 = solve_one(phi_rows[j], r0[j], price_row)
        assert r[j].tobytes() == r1.tobytes(), j
        assert lam[j].tobytes() == lam1.tobytes(), j
        assert info["iterations"][j] == info1["iterations"][0], j
        assert float(info["eq_residual"][j]) == info1["eq_residual"], j
        assert info["value"][j].tobytes() == info1["value"][0].tobytes(), j
        assert info["failure"][j] == info1["failure"][0], j
        assert info["gap_bound"] == info1["gap_bound"]
        if info["failure"][j] is None:
            assert_within_the_oracle_bound(phi_rows[j], r0[j], price_row, r[j], info["value"][j], info["iterations"][j])
    return r, lam, info


def test_barrier_entropy_over_simplex():
    # min sum h(r_i) over the simplex: uniform by symmetry
    r, lam, info = solve_one(entropy_phi, np.array([0.5, 0.3, 0.2]))
    assert np.allclose(r, 1.0 / 3.0, atol=1e-6)
    assert info["eq_residual"] <= 1e-9
    assert info["gap_bound"] <= 1e-10
    # KKT: log r + lambda = 0 componentwise
    assert lam.shape == (1,)
    assert np.max(np.abs(np.log(r) + lam[0])) <= 1e-6


def test_barrier_weighted_target():
    # min sum c_i r_i + h(r_i) s.t. sum r = 1 has closed form softmax(-c)
    c = np.array([0.3, -0.1, 1.2])

    def phi(r):
        return c * r + r * np.log(r) - r, c + np.log(r), 1.0 / r

    r, _, _ = solve_one(phi, np.full(3, 1.0 / 3.0))
    want = np.exp(-c) / np.exp(-c).sum()
    assert np.allclose(r, want, atol=1e-7)


def test_barrier_two_constraints():
    # add a price row: min entropy over {sum r = 1, r1 - r3 = 0}
    r, lam, info = solve_one(entropy_phi, np.array([0.3, 0.4, 0.3]), np.array([1.0, 0.0, -1.0]))
    assert r[0] == pytest.approx(r[2], abs=1e-8)
    assert info["eq_residual"] <= 1e-9
    # KKT: log r + lambda_1 + lambda_2 d = 0 componentwise
    assert np.max(np.abs(np.log(r) + lam[0] + lam[1] * np.array([1.0, 0.0, -1.0]))) <= 1e-6


def test_barrier_iteration_cap_fails_the_programs_still_iterating(monkeypatch):
    # from this start the simplex entropy takes more than one Newton step;
    # the program at the optimum stops at its first, so only the second fails
    monkeypatch.setattr(solvers, "_BARRIER_MAX_NEWTON", 1)
    r0 = np.array([np.full(3, 1.0 / 3.0), [0.8, 0.1, 0.1]])
    _, _, info = barrier_minimize(stacked(entropy_phi), r0)
    assert info["failure"][0] is None
    assert info["failure"][1].startswith("barrier_minimize: 1 Newton iterations exhausted")
    assert info["iterations"].tolist() == [1, 1]


def test_barrier_rejects_bad_start():
    with pytest.raises(ValueError, match="strictly positive"):
        solve_one(entropy_phi, np.array([0.5, -0.5]))
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_one(entropy_phi, np.array([0.5, 0.5]), np.array([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError, match="shape mismatch"):
        barrier_minimize(stacked(entropy_phi), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="nonempty"):
        barrier_minimize(stacked(entropy_phi), np.ones((0, 2)))


def test_barrier_fails_a_program_whose_start_is_not_finite():
    # gamma 1e-306 on the one-step binomial tree: the dual objective
    # overflows at the start, so the program fails there, before any
    # Newton step, instead of returning the start point unsolved
    tree = binomial_tree()
    gamma = dict.fromkeys(["r", "u", "d"], 1e-306)
    start = WindowDuals(tree, gamma).centroid("r")
    price = np.array([[br.dprice for br in tree.branches_of("r")]])
    p = np.array([[br.prob for br in tree.branches_of("r")]])
    phi = _one_step_objective(p, np.full((1, 2), 1e-306), np.zeros((1, 2)))
    with np.errstate(all="ignore"):
        r, _, info = barrier_minimize(phi, start[None], price)
    assert info["failure"][0].startswith("barrier_minimize: the objective is not finite at the start")
    assert info["iterations"].tolist() == [0]
    assert r[0].tobytes() == start.tobytes()
    assert not np.isfinite(info["value"][0])


def test_barrier_near_the_boundary_is_within_the_oracle_bound():
    # the middle child barely moves the price and the objective shuns the
    # first, so the minimiser puts mass about 1e-6 on the third and about
    # 2e-12, near the barrier's floor, on the first: the first child's
    # h^-1 is some 1e12 times below the middle one's. The formula's
    # variance of d is a sum of squares, so the step loses nothing to
    # cancellation there
    c = np.array([60.0, 0.0, 0.0])
    one = weighted_entropy(c, np.ones(3))
    price = np.array([[1.0, 1e-6, -1.0]])
    # the start is the centroid of the two vertices, on children 1 and 3
    # and on children 2 and 3
    r0 = np.array([[0.25, 0.5 / (1.0 + 1e-6), 0.25 + 0.5e-6 / (1.0 + 1e-6)]])
    r, _, info = assert_rows_solve_as_alone(stack_of([one]), [one], r0, price)
    assert r[0, 0] < 1e-11 and 1e-7 < r[0, 2] < 1e-5
    hinv = 1.0 / (1.0 / r[0] + solvers._BARRIER_GAP_TOL / 3 / r[0] ** 2)
    assert hinv[0] < 1e-11 * hinv[1]
    assert info["eq_residual"][0] <= 1e-15


# -- stacks of programs, one at a time and against the scalar oracle --------


def weighted_entropy(c, w):
    """One program's objective sum w (r log r - r) + c r, and its
    stack form, one (c, w) per row."""

    def one(r):
        return w * (r * np.log(r) - r) + c * r, w * np.log(r) + c, w / r

    return one


def stack_of(objectives):
    """The stack objective whose row j is ``objectives[j]``."""

    def phi(rows):
        return lambda r: tuple(np.stack(x) for x in zip(*(objectives[j](ri) for j, ri in zip(rows, r))))

    return phi


def test_barrier_stack_rows_stop_at_their_own_iterations():
    # the same simplex program from starts near and far from its optimum,
    # and a weighted one: each row takes the iterations it takes alone
    c = np.array([0.3, -0.1, 1.2, 0.0])
    ones = [weighted_entropy(np.zeros(4), np.ones(4))] * 3 + [weighted_entropy(c, np.full(4, 0.5))]
    r0 = np.array([np.full(4, 0.25), [0.7, 0.1, 0.1, 0.1], [0.97, 0.01, 0.01, 0.01], np.full(4, 0.25)])
    price = np.array([[1.0, 0.0, -1.0, 0.0]] * 4)
    _, _, info = assert_rows_solve_as_alone(stack_of(ones), ones, r0, price)
    assert len(set(info["iterations"].tolist())) >= 3


def test_barrier_stack_row_at_the_line_search_floor():
    # a program whose derivatives are those of minus its values finds no
    # sufficient decrease: it stops at the 1e-14 floor of its line search
    # at its start, while its neighbours solve
    good = weighted_entropy(np.zeros(3), np.ones(3))

    def misleading(r):
        return 1e6 * (r - r * np.log(r)), np.log(r), 1.0 / r

    # the misleading start is far from the minimum of its model, the
    # uniform point, so its Newton decrement does not stop it
    objectives = [good, misleading, good]
    r0 = np.array([[0.3, 0.4, 0.3], [0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
    r, _, info = assert_rows_solve_as_alone(stack_of(objectives), objectives, r0)
    assert r[1].tobytes() == r0[1].tobytes()
    assert info["iterations"][1] == 1 and info["iterations"][0] > 1


def test_barrier_stack_row_with_a_singular_schur_system():
    # a price row that moves nothing, or moves every child alike by a
    # power of two, is an exact multiple of the unit-mass row: its
    # program's Schur system is singular, the weighted variance of d is
    # exactly 0 and the Newton step is not finite, so the program fails at
    # its first step. Its neighbours solve with the bits they have alone
    price = np.array([[1.0, 0.0, -1.0], [2.0, 2.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.5, -1.0]])
    r0 = np.array([[0.3, 0.4, 0.3], [0.5, 0.3, 0.2], [0.6, 0.3, 0.1], [0.4, 0.4, 0.2]])
    objectives = [entropy_phi] * 4
    with np.errstate(invalid="ignore"):
        r, _, info = assert_rows_solve_as_alone(stack_of(objectives), objectives, r0, price)
    for j in (1, 2):
        assert info["failure"][j].startswith("barrier_minimize: Newton step 1 is not finite")
        assert r[j].tobytes() == r0[j].tobytes()
    assert info["failure"][0] is info["failure"][3] is None
    assert np.allclose(r[0], 1.0 / 3.0, atol=1e-6)


def test_barrier_stack_reports_each_programs_outcome(monkeypatch):
    # programs that fail at their start, at their second Newton step and
    # at the iteration cap sit between programs that solve, one of them at
    # the cap's step: each keeps the bits, Newton count and failure it has
    # alone, each solving one is within the scalar oracle's bound, and each
    # failing one fails where the scalar oracle raises, at the iterate
    # where it failed
    monkeypatch.setattr(solvers, "_BARRIER_MAX_NEWTON", 5)
    good = weighted_entropy(np.zeros(3), np.ones(3))

    def infinite(r):
        v, g, h = good(r)
        return np.full_like(v, np.inf), g, h

    def nan_away_from_start(r):
        v, g, h = good(r)
        return v, (g if r[0] == 0.5 else g * np.nan), h

    # alone: good solves in 3, 4 and 5 Newton steps from these starts and
    # needs 6 from [0.98, 0.01, 0.01]
    objectives = [good, infinite, good, nan_away_from_start, good, good]
    r0 = np.array([[0.34, 0.33, 0.33], *[[0.5, 0.3, 0.2]] * 3, [0.98, 0.01, 0.01], [0.6, 0.3, 0.1]])
    with np.errstate(invalid="ignore"):
        r, _, info = assert_rows_solve_as_alone(stack_of(objectives), objectives, r0)
    failed = {1: 0, 3: 2, 4: 5}  # program: the Newton steps it took
    for j, objective in enumerate(objectives):
        assert info["value"][j].tobytes() == objective(r[j])[0].sum().tobytes(), j
        if j in failed:
            with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError) as want:
                oracles.scalar_barrier_minimize(objective, *oracle_rows(3, None), r0[j])
            # the message up to the barrier objective, which the oracle
            # evaluates in its own arithmetic after the first step
            assert info["failure"][j].split(" (")[0] == str(want.value).split(" (")[0], j
            assert info["iterations"][j] == failed[j], j
    assert info["iterations"].tolist() == [3, 0, 4, 2, 5, 5]
    assert info["failure"][1].startswith("barrier_minimize: the objective is not finite at the start")
    assert info["failure"][3].startswith("barrier_minimize: Newton step 2 is not finite")
    assert info["failure"][4].startswith("barrier_minimize: 5 Newton iterations exhausted")
    assert r[1].tobytes() == r0[1].tobytes()


def test_barrier_stack_rows_accept_steps_after_different_halvings():
    # a program whose curvature is a tenth of its objective's overshoots
    # with every full Newton step and backtracks, while its neighbours take
    # theirs at once: each keeps its own step lengths and next iterates
    def good(r):
        return r * np.log(r) - r, np.log(r), 1.0 / r

    def flat(r):
        return r * np.log(r) - r, np.log(r), 0.1 / r

    objectives = [good, flat, good]
    evaluations = []

    def phi(rows):
        objective = stack_of(objectives)(rows)

        def counted(r):
            evaluations.append(len(r))
            return objective(r)

        return counted

    # r1 - r3 = 0.1 on the unit mass, as a homogeneous price row
    price = np.array([[0.9, -0.1, -1.1]] * 3)
    r0 = np.array([[0.45, 0.2, 0.35], [0.5, 0.1, 0.4], [0.3, 0.5, 0.2]])
    evaluations.clear()
    _, _, info = barrier_minimize(phi, r0, price)
    # one evaluation at the start and one per Newton step would be 15
    assert len(evaluations) > 2 * 15
    assert info["iterations"].tolist() == [4, 14, 4]
    assert_rows_solve_as_alone(phi, objectives, r0, price)
