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


# -- barrier solver ------------------------------------------------------


def stacked(phi_one):
    """A stack objective for ``barrier_minimize`` from one program's
    ``phi(r)``: the same function on every row."""

    def phi(rows):
        return lambda r: tuple(np.stack(x) for x in zip(*(phi_one(ri) for ri in r)))

    return phi


def entropy_phi(r):
    return r * np.log(r) - r, np.log(r), 1.0 / r


def solve_one(phi_one, A, b, r0):
    """``barrier_minimize`` on a stack of one program, as one program's
    (r, multipliers, info)."""
    r, lam, info = barrier_minimize(stacked(phi_one), A[None], b[None], r0[None])
    return r[0], lam[0], {**info, "eq_residual": float(info["eq_residual"][0])}


def assert_rows_match_the_scalar_oracle(phi, phi_rows, A, b, r0):
    """Every program of the stack, solved as one, has the scalar solver's
    minimiser, multipliers, Newton count and equality residual, and its
    objective's sum there, bit for bit; returns the stack's info."""
    r, lam, info = barrier_minimize(phi, A, b, r0)
    assert info["newton_iterations"] == int(info["iterations"].sum())
    assert isinstance(info["newton_iterations"], int)
    for j in range(len(r0)):
        r1, lam1, info1 = oracles.scalar_barrier_minimize(phi_rows[j], A[j], b[j], r0[j])
        assert info["failure"][j] is None, j
        assert r[j].tobytes() == r1.tobytes(), j
        assert lam[j].tobytes() == lam1.tobytes(), j
        assert int(info["iterations"][j]) == info1["newton_iterations"], j
        assert float(info["eq_residual"][j]) == info1["eq_residual"], j
        assert info["value"][j] == phi_rows[j](r1)[0].sum(), j
        assert info["gap_bound"] == info1["gap_bound"]
    return info


def test_barrier_entropy_over_simplex():
    # min sum h(r_i) over the simplex: uniform by symmetry
    A = np.ones((1, 3))
    b = np.array([1.0])
    r, lam, info = solve_one(entropy_phi, A, b, np.array([0.5, 0.3, 0.2]))
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
    r, _, _ = solve_one(phi, A, np.array([1.0]), np.full(3, 1.0 / 3.0))
    want = np.exp(-c) / np.exp(-c).sum()
    assert np.allclose(r, want, atol=1e-7)


def test_barrier_two_constraints():
    # add a mean-zero constraint: min entropy over {sum r = 1, r1 - r3 = 0}
    A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]])
    b = np.array([1.0, 0.0])
    r, _, info = solve_one(entropy_phi, A, b, np.array([0.3, 0.4, 0.3]))
    assert r[0] == pytest.approx(r[2], abs=1e-8)
    assert info["eq_residual"] <= 1e-9


def test_barrier_iteration_cap_fails_the_programs_still_iterating(monkeypatch):
    # from this start the simplex entropy takes more than one Newton step;
    # the program at the optimum stops at its first, so only the second fails
    monkeypatch.setattr(solvers, "_BARRIER_MAX_NEWTON", 1)
    r0 = np.array([np.full(3, 1.0 / 3.0), [0.8, 0.1, 0.1]])
    _, _, info = barrier_minimize(stacked(entropy_phi), np.ones((2, 1, 3)), np.ones((2, 1)), r0)
    assert info["failure"][0] is None
    assert info["failure"][1].startswith("barrier_minimize: 1 Newton iterations exhausted")
    assert info["iterations"].tolist() == [1, 1]


def test_barrier_rejects_bad_start():
    A = np.ones((1, 2))
    with pytest.raises(ValueError):
        solve_one(entropy_phi, A, np.array([1.0]), np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        solve_one(entropy_phi, np.ones((1, 3)), np.array([1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="shape mismatch"):
        barrier_minimize(stacked(entropy_phi), A, np.array([1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="nonempty"):
        barrier_minimize(stacked(entropy_phi), np.ones((0, 1, 2)), np.ones((0, 1)), np.ones((0, 2)))


def test_barrier_drops_vacuous_rows():
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 0.0])
    r, _, _ = solve_one(entropy_phi, A, b, np.array([0.6, 0.4]))
    assert np.allclose(r, 0.5, atol=1e-6)
    with pytest.raises(ValueError, match="infeasible zero row"):
        solve_one(entropy_phi, A, np.array([1.0, 0.5]), np.array([0.6, 0.4]))
    # each program drops its own zero rows; the stack keeps as many per program
    two = np.array([A, A[::-1]])
    r0 = np.array([[0.6, 0.4], [0.3, 0.7]])
    info = assert_rows_match_the_scalar_oracle(
        stacked(entropy_phi), [entropy_phi] * 2, two, np.array([b, b[::-1]]), r0
    )
    assert info["eq_residual"].shape == (2,)
    uneven = np.array([A, np.ones((2, 2))])
    with pytest.raises(ValueError, match="different numbers of rows"):
        barrier_minimize(stacked(entropy_phi), uneven, np.array([b, [1.0, 1.0]]), r0)


def test_barrier_fails_a_program_whose_start_is_not_finite(monkeypatch):
    # gamma 1e-306 on the one-step binomial tree: the dual objective
    # overflows at the start, so the program fails there, at its start and
    # before any Schur solve, instead of returning the start point unsolved
    tree = binomial_tree()
    gamma = dict.fromkeys(["r", "u", "d"], 1e-306)
    start = WindowDuals(tree, gamma).centroid("r")
    A = np.array([[[1.0, 1.0], [br.dprice for br in tree.branches_of("r")]]])
    b = np.array([[1.0, 0.0]])
    p = np.array([[br.prob for br in tree.branches_of("r")]])
    phi = _one_step_objective(p, np.full((1, 2), 1e-306), np.zeros((1, 2)))

    def solve(*args):
        raise AssertionError("a Schur system was solved")

    monkeypatch.setattr(np.linalg, "solve", solve)
    with np.errstate(all="ignore"):
        r, _, info = barrier_minimize(phi, A, b, start[None])
    assert info["failure"][0].startswith("barrier_minimize: the objective is not finite at the start")
    assert info["iterations"].tolist() == [0]
    assert r[0].tobytes() == start.tobytes()
    assert not np.isfinite(info["value"][0])


# -- stacks of programs, against the scalar oracle --------------------------


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
    A = np.array([[[1.0, 1.0, 1.0, 1.0], [1.0, 0.0, -1.0, 0.0]]] * 4)
    b = np.array([[1.0, 0.0]] * 4)
    info = assert_rows_match_the_scalar_oracle(stack_of(ones), ones, A, b, r0)
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
    A, b = np.ones((3, 1, 3)), np.ones((3, 1))
    info = assert_rows_match_the_scalar_oracle(stack_of(objectives), objectives, A, b, r0)
    r, _, _ = barrier_minimize(stack_of(objectives), A, b, r0)
    assert r[1].tobytes() == r0[1].tobytes()
    assert info["iterations"][1] == 1 and info["iterations"][0] > 1


def test_barrier_stack_row_with_a_singular_schur_system():
    # twice the unit-mass row: the Schur matrix of the second program is
    # singular and its multipliers come from least squares; the first
    # program's system is solved alone, with the bits a batched solve gives
    A = np.array([[[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]], [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]])
    b = np.array([[1.0, 0.0], [1.0, 2.0]])
    r0 = np.array([[0.3, 0.4, 0.3], [0.5, 0.3, 0.2]])
    objectives = [entropy_phi, entropy_phi]
    calls = []
    original = np.linalg.lstsq

    def lstsq(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    assert_rows_match_the_scalar_oracle(stack_of(objectives), objectives, A, b, r0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "lstsq", lstsq)
        r, _, info = barrier_minimize(stack_of(objectives), A, b, r0)
    # one least-squares solve per Newton step of the singular program
    assert len(calls) == info["iterations"][1] > 1
    assert np.allclose(r[1], 1.0 / 3.0, atol=1e-6)


def test_barrier_stack_reports_each_programs_outcome(monkeypatch):
    # programs that fail at their start, at their second Newton step and
    # at the iteration cap sit between programs that solve, one of them at
    # the cap's step: each solving program keeps the scalar solver's bits
    # and Newton count, and each failing one reports the error the scalar
    # solver raises, at the iterate where it failed
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
    A, b = np.ones((6, 1, 3)), np.ones((6, 1))
    with np.errstate(invalid="ignore"):
        r, lam, info = barrier_minimize(stack_of(objectives), A, b, r0)
    failed = {1: 0, 3: 2, 4: 5}  # program: the Newton steps it took
    for j, objective in enumerate(objectives):
        assert info["value"][j].tobytes() == objective(r[j])[0].sum().tobytes(), j
        if j in failed:
            with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError) as want:
                oracles.scalar_barrier_minimize(objective, A[j], b[j], r0[j])
            assert (info["failure"][j], info["iterations"][j]) == (str(want.value), failed[j])
            continue
        r1, lam1, info1 = oracles.scalar_barrier_minimize(objective, A[j], b[j], r0[j])
        assert info["failure"][j] is None
        assert (r[j].tobytes(), lam[j].tobytes()) == (r1.tobytes(), lam1.tobytes()), j
        assert info["iterations"][j] == info1["newton_iterations"], j
        assert info["eq_residual"][j] == info1["eq_residual"], j
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

    A = np.array([[[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]]] * 3)
    b = np.array([[1.0, 0.1]] * 3)
    r0 = np.array([[0.45, 0.2, 0.35], [0.5, 0.1, 0.4], [0.3, 0.5, 0.2]])
    info = assert_rows_match_the_scalar_oracle(phi, objectives, A, b, r0)
    assert info["iterations"].tolist() == [4, 14, 4]
    # one evaluation at the start and one per Newton step would be 15
    assert len(evaluations) > 2 * 15
