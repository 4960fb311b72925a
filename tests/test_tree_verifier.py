"""Exact verification engine on trees: pins, cross-routes, and failure modes."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import forwardperf.solvers as solvers
import forwardperf.tree_verifier as tree_verifier
import oracles
from forwardperf.errors import (
    ArbitrageError,
    ConvergenceError,
    ForwardPerfError,
    ReplicationError,
    WealthRangeError,
)
from forwardperf.fields import ExponentialFieldParams, conjugate_exponential, entropy_kernel
from forwardperf.tree_market import (
    EventTree,
    TreeMeasure,
    _window_vertices,
    check_nflvr,
    density_process,
    enumerate_product_measures,
    measure_from_leaf_masses,
    reference_measure,
)
from forwardperf.tree_verifier import (
    WindowDuals,
    check_exponential_conditions,
    check_forward_supermartingale,
    check_self_generation_dual,
    check_self_generation_primal,
    check_value_conjugacy,
    dual_value,
    primal_value,
    replicate_inverse_gamma,
    solve_entropy_shift,
)
from treegen import (
    binomial_tree,
    constant_field,
    ito_tree,
    lopsided_scenario,
    mid_arbitrage_tree,
    random_tree,
    replicable_gamma,
    solved_field,
    starved_tree,
    suite_shaped_tree,
    trinomial_tree,
    two_period_tree,
    uniform_trinomial_tree,
    unshared_duals,
    with_offsets,
)


def const_map(tree, val):
    return {nid: val for nid in tree._dfs_order}


def minimiser(tree, res, start="r"):
    """The entropy minimiser of a dual result, as a measure on the tree
    rebuilt from its leaf masses given ``start``."""
    return measure_from_leaf_masses(tree, start, res.T, res.leaf_masses[start])


def within_the_joint_bound(tree, field, got):
    """``got``, a dual value at eta = 1 composed from one-step programs,
    against the window's joint program (``oracles.dual_by_eta``), within
    the composition's derived bound. Each entropy is within the two
    results' KKT bounds, e_got + e_joint: the composed bound is on the
    implied shift, so it is divided by the start's gamma (the entropy is
    h(1/gamma) - shift/gamma), and the joint program's is on its value.
    The objective's curvature 1/(gamma r) is at least 1/gamma_max where
    r <= 1, so an e-suboptimal point lies within sqrt(2 gamma_max e) of the
    minimiser: that bounds the distance of the leaf masses, and m moves by
    at most their L1 distance over gamma_min. Returns the joint program's
    result."""
    want = oracles.dual_by_eta(tree, field, 1.0, got.t, got.T)
    for n in tree.nodes_at(got.t):
        masses, joint = got.leaf_masses[n], want.leaf_masses[n]
        assert list(masses) == list(joint)
        e_got, e_joint, value = got.kkt_residual[n] / field.gamma[n], want.kkt_residual[n], want.values[n]
        assert abs(got.entropy[n] - value) <= e_got + e_joint + 1e-13 * max(1.0, abs(value)), n
        gam = [field.gamma[w] for w in masses]
        radius = math.sqrt(2.0 * max(gam) * e_got) + math.sqrt(2.0 * max(gam) * e_joint)
        assert math.dist(list(masses.values()), list(joint.values())) <= radius, n
        m_joint = sum(r / g for r, g in zip(joint.values(), gam))
        assert abs(got.inverse_gamma_mean[n] - m_joint) <= math.sqrt(len(gam)) * radius / min(gam), n
    return want


# -- replication of 1/gamma ----------------------------------------------


def test_replicate_constant_gamma():
    tree = two_period_tree()
    res = replicate_inverse_gamma(tree, const_map(tree, 1.7))
    assert res.feasible
    assert res.psi == {"r": 0.0, "a": 0.0, "b": 0.0}
    assert res.residual == 0.0


def test_replicate_binomial_pin():
    tree = binomial_tree()  # d = (+1, -1)
    gamma = {"r": 0.5, "u": 1.0 / 2.5, "d": 1.0 / 1.5}
    res = replicate_inverse_gamma(tree, gamma)
    assert res.feasible
    assert res.psi["r"] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**1000, 1.7e308, 3e-310])
def test_replicate_increments_whose_squares_leave_the_float_range(scale):
    # 1/gamma of 1 at the root and 1.5, 0.5 at its children over price
    # moves of +-scale: d @ d of the raw increments overflows or underflows,
    # and the replicable 1/gamma was refused. Scaled by a power of two
    # first, the solve is exact, and psi is 0.5 / scale, inf past the float
    # range
    tree = binomial_tree(p_up=0.5, d=(scale, -scale))
    res = replicate_inverse_gamma(tree, {"r": 1.0, "u": 1.0 / 1.5, "d": 1.0 / 0.5})
    assert (res.feasible, res.residual, res.psi) == (True, 0.0, {"r": 0.5 / scale})


def test_replicate_infeasible_trinomial():
    tree = trinomial_tree()  # d = (1, 0, -1)
    gamma = {"r": 0.5, "u": 1.0 / 2.5, "m": 1.0 / 2.2, "d": 1.0 / 1.5}
    res = replicate_inverse_gamma(tree, gamma)
    assert not res.feasible
    assert res.failed_node == "r"
    # 0.2 in units of the largest 1/gamma, 2.5
    assert res.residual == pytest.approx(0.2 / 2.5, abs=1e-12)
    assert res.tolerance == tree_verifier._replication_tol(3)
    assert res.psi is None


def test_replicate_rejects_bad_gamma():
    tree = binomial_tree()
    with pytest.raises(ValueError, match="positive"):
        replicate_inverse_gamma(tree, {"r": 0.0, "u": 1.0, "d": 1.0})


def test_random_replicable_gamma_is_replicable():
    for seed in range(5):
        tree = random_tree(seed)
        gamma, psi = replicable_gamma(tree, seed)
        res = replicate_inverse_gamma(tree, gamma)
        assert res.feasible
        assert res.residual <= 1e-10
        for nid, val in psi.items():
            assert res.psi[nid] == pytest.approx(val, abs=1e-12)


# -- primal values -------------------------------------------------------


def test_primal_symmetric_binomial():
    tree = binomial_tree(p_up=0.5)
    field = constant_field(tree)
    res = primal_value(tree, field, 0.7)
    assert res.values["r"] == pytest.approx(-math.exp(-0.7), rel=1e-12)
    assert res.policy["r"] == pytest.approx(0.0, abs=1e-9)


def test_primal_binomial_pin():
    tree = binomial_tree()
    field = constant_field(tree)
    res = primal_value(tree, field, 0.0)
    assert res.values["r"] == pytest.approx(-0.8, abs=1e-10)
    assert res.log_factor["r"] == pytest.approx(math.log(0.8), abs=1e-10)
    assert res.policy["r"] == pytest.approx(0.5 * math.log(4.0), abs=1e-8)


def test_primal_trinomial_pin():
    tree = trinomial_tree()
    field = constant_field(tree)
    res = primal_value(tree, field, 0.0)
    want = -(0.3 + 2.0 * math.sqrt(0.1))
    assert res.values["r"] == pytest.approx(want, abs=1e-9)
    assert res.policy["r"] == pytest.approx(0.5 * math.log(2.5), abs=1e-8)


def test_primal_factor_matches_scipy_oracle():
    tree = trinomial_tree()
    gamma = const_map(tree, 1.4)
    a = {"r": 0.0, "u": 0.2, "m": -0.1, "d": 0.3}
    field = ExponentialFieldParams(gamma=gamma, a_shift=a)
    res = primal_value(tree, field, 0.0)
    _, want = oracles.one_step_factor(
        (0.5, 0.3, 0.2), (1.0, 0.0, -1.0), (1.4, 1.4, 1.4), (0.2, -0.1, 0.3)
    )
    assert math.exp(res.log_factor["r"]) == pytest.approx(want, abs=1e-10)


def test_primal_refuses_wealth_outside_the_float_range():
    # exp(800) overflows: refused where the window is solved and where it is
    # read, as a package error that is a ValueError too; exp(-800) underflows
    # to a value of -0.0, which is no refusal
    tree = binomial_tree()
    field = constant_field(tree)
    base = primal_value(tree, field, 0.0)
    with pytest.raises(WealthRangeError, match="xi=-800 at node 'r'"):
        primal_value(tree, field, -800.0)
    with pytest.raises(WealthRangeError, match="xi=-800 at node 'r'"):
        base.at(-800.0)
    assert base.at(800.0).values["r"] == 0.0
    assert issubclass(WealthRangeError, ForwardPerfError)
    assert issubclass(WealthRangeError, ValueError)


@pytest.mark.parametrize("c", [800.0, -800.0])
def test_primal_reads_a_shift_outside_the_float_range_in_log_units(c):
    # every shift moved by c, so that the factor e^a is outside the float
    # range: the recursion runs in log units, so each window's log factor
    # moves by c, and at wealth c / gamma the utility is the unshifted one
    # at 0. Each level rounds its log weights and the exponent at its
    # minimum a few times, on terms of size |c| + 4 at most, so the log
    # factor is within 16 u (|c| + 4) per level of the shifted one; the
    # utility adds the rounding of gamma (c / gamma), 2 u |c|. At wealth 0
    # the utility itself leaves the float range: refused at c = 800,
    # naming the wealth; at c = -800 it underflows to -0.0
    u = 2.0**-53
    tree = random_tree(7, periods=3)
    field = solved_field(tree, 7)
    shifted = ExponentialFieldParams(field.gamma, {n: a + c for n, a in field.a_shift.items()})
    duals, moved = WindowDuals(tree, field.gamma), WindowDuals(tree, field.gamma)
    for t, T in _window_pairs(tree):
        starts = tree.nodes_at(t)
        base = primal_value(tree, field, 0.0, t, T, duals=duals)
        got = primal_value(tree, shifted, {n: c / field.gamma[n] for n in starts}, t, T, duals=moved)
        bound = 16 * u * (abs(c) + 4.0) * (T - t)
        for n in starts:
            assert abs(got.log_factor[n] - (base.log_factor[n] + c)) <= bound
            assert abs(got.values[n] / base.values[n] - 1.0) <= 2.0 * (bound + 2 * u * abs(c))
    if c > 0.0:
        with pytest.raises(WealthRangeError, match="xi=0 at node 'r': the utility is outside the float range"):
            primal_value(tree, shifted, 0.0)
    else:
        assert primal_value(tree, shifted, 0.0).values["r"] == 0.0


def test_primal_self_generates_with_gamma_scaled_by_a_million():
    # random_tree(3, periods=2) with a replicable gamma times 1e6 and its
    # solved shift: the factor solve's slopes are about 1e6, so a bracket
    # step of 1 in pi overshot the minimiser, about 8.1e-7 at the root, by
    # far; the solve stopped at its iteration cap without error, at 4.4e-4,
    # and the log factor missed the shift by 371. At its own scale it
    # converges, and the field self-generates on every window
    tree = random_tree(3, periods=2)
    gamma, _ = replicable_gamma(tree, 3)
    gamma = {n: g * 1e6 for n, g in gamma.items()}
    field = ExponentialFieldParams(gamma, solve_entropy_shift(tree, gamma, 0.0))
    rep = check_self_generation_primal(tree, field, _window_pairs(tree))
    assert rep.all_passed, rep.to_text()
    assert rep["primal-self-generation"].value <= 1e-14
    assert primal_value(tree, field, 0.0).policy["r"] == pytest.approx(8.1e-7, rel=0.01)


@pytest.mark.parametrize("value", [primal_value, dual_value], ids=["primal", "dual"])
def test_values_accept_only_exponential_fields(value):
    tree = binomial_tree()
    field = constant_field(tree)
    pairs = {nid: (field.gamma[nid], field.a_shift[nid]) for nid in tree._dfs_order}
    with pytest.raises(TypeError, match="must be ExponentialFieldParams, got dict"):
        value(tree, pairs, 1.0)


def test_primal_per_node_wealth():
    tree = two_period_tree()
    field = solved_field(tree, seed=4)
    res = primal_value(tree, field, {"a": 0.5, "b": -0.5}, t=1, T=2)
    for n, x in (("a", 0.5), ("b", -0.5)):
        want = -math.exp(-field.gamma[n] * x + field.a_shift[n])
        assert res.values[n] == pytest.approx(want, rel=1e-9)


def test_primal_window_validation():
    tree = two_period_tree()
    field = constant_field(tree)
    with pytest.raises(ValueError):
        primal_value(tree, field, 0.0, t=2, T=1)
    with pytest.raises(ValueError):
        primal_value(tree, field, 0.0, t=0, T=5)


# primal_value on random_tree(7, periods=2) with the first three leaves'
# field data dropped; prints the KeyError's message
MISSING_FIELD_CHILD = """
from forwardperf.fields import ExponentialFieldParams
from forwardperf.tree_verifier import primal_value
from treegen import random_tree, solved_field

tree = random_tree(7, periods=2)
field = solved_field(tree, 7)
dropped = set(tree.leaves()[:3])
kept = [n for n in field.gamma if n not in dropped]
field = ExponentialFieldParams(
    {n: field.gamma[n] for n in kept}, {n: field.a_shift[n] for n in kept}
)
try:
    primal_value(tree, field, 0.0)
except KeyError as exc:
    print(exc.args[0])
"""


def test_primal_names_the_first_node_without_field_data():
    # the node named must not depend on string hashing
    path = [str(Path(tree_verifier.__file__).parents[1]), str(Path(__file__).parent)]
    messages = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-c", MISSING_FIELD_CHILD],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        messages.add(proc.stdout)
    first = random_tree(7, periods=2).leaves()[0]
    assert messages == {f"field has no data at node {first!r}\n"}


def test_primal_exponential_separation():
    # u(xi; t, T) / U(t, xi) constant in xi on the fast path
    tree = two_period_tree()
    field = solved_field(tree, seed=5)
    xs = np.linspace(-3.0, 3.0, 9)
    ratios = []
    for x in xs:
        res = primal_value(tree, field, float(x))
        u_slice = -math.exp(-field.gamma["r"] * float(x) + field.a_shift["r"])
        ratios.append(res.values["r"] / u_slice)
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios - ratios[0])) <= 1e-9 * abs(ratios[0])


def nonreplicable_trinomial_field():
    # the 1/gamma increments (0.5, 0.2, -0.5) are not spanned by dS = (1, 0, -1)
    tree = trinomial_tree()
    gamma = {"r": 0.5, "u": 1.0 / 2.5, "m": 1.0 / 2.2, "d": 1.0 / 1.5}
    return tree, ExponentialFieldParams(gamma, {"r": 0.1, "u": 0.0, "m": -0.2, "d": 0.3})


def test_primal_at_reads_the_window_at_other_wealths():
    tree = two_period_tree()
    field = solved_field(tree, seed=6)
    base = primal_value(tree, field, 0.0, 1, 2)
    for x in (-2.0, 0.5, {"a": 1.5, "b": -0.25}):
        got, want = base.at(x), primal_value(tree, field, x, 1, 2)
        assert (got.values, got.xi, got.log_factor) == (want.values, want.xi, want.log_factor)
        assert (got.policy, got.replication) == (want.policy, want.replication)


def test_primal_refuses_nonreplicable_gamma_before_solving(monkeypatch):
    tree, field = nonreplicable_trinomial_field()

    def solved(*args):
        raise AssertionError("a program was solved for a non-replicable gamma")

    monkeypatch.setattr(tree_verifier, "minimize_exp_sum", solved)
    monkeypatch.setattr(tree_verifier, "barrier_minimize", solved)
    # the dual program splits into one-step programs only when 1/gamma is
    # replicable, so the dual value is refused at every eta
    for run in (
        lambda: primal_value(tree, field, 0.0),
        lambda: check_self_generation_primal(tree, field, [(0, 1)]),
        lambda: dual_value(tree, field, 1.0),
        lambda: dual_value(tree, field, 2.0),
    ):
        with pytest.raises(ReplicationError, match="replicates 1/gamma at node 'r'"):
            run()


def test_nonreplicable_gamma_is_a_failing_record_of_the_exponential_conditions(monkeypatch):
    # the conditions and the dual check report the failure instead of
    # raising: the dual window records and both roll-ups carry the
    # replication certificate, and no program is solved
    tree, field = nonreplicable_trinomial_field()

    def solved(*args):
        raise AssertionError("a dual program was solved for a non-replicable gamma")

    monkeypatch.setattr(tree_verifier, "barrier_minimize", solved)
    rep = check_exponential_conditions(tree, field, [(0, 1)])
    rec = rep["exp-condition-inverse-gamma-martingale"]
    assert not rec.verdict and rec.worst_node == "r"
    certificate = replicate_inverse_gamma(tree, field.gamma)
    dual = check_self_generation_dual(tree, field, [(0, 1)])
    for rec in (
        rep["exp-condition-entropy-identity"],
        dual["dual-self-generation[t=0,T=1]"],
        dual["dual-self-generation"],
    ):
        assert (rec.verdict, rec.value, rec.target) == (False, certificate.residual, 0.0)
        assert (rec.tolerance, rec.worst_node) == (tree_verifier._replication_tol(3), "r")
        assert rec.notes == (tree_verifier._UNREPLICATED,)


PRIMAL_CHECK_CASES = {
    "solved": lambda: (two_period_tree(), solved_field(two_period_tree(), seed=21), None),
    "root-bumped": lambda: (
        two_period_tree(),
        with_offsets(solved_field(two_period_tree(), seed=21), {"r": 0.1}),
        None,
    ),
    "time-pairs": lambda: (
        random_tree(7, periods=3),
        solved_field(random_tree(7, periods=3), 7),
        [(1, 3), (0, 2), (2, 3)],
    ),
}


@pytest.mark.parametrize("case", sorted(PRIMAL_CHECK_CASES))
def test_primal_check_matches_per_wealth_oracle(case):
    tree, field, pairs = PRIMAL_CHECK_CASES[case]()
    if pairs is None:
        pairs = [(0, 1), (0, 2), (1, 2)]
    xi = [-2.0, -0.5, 0.0, 0.5, 2.0]
    got = check_self_generation_primal(tree, field, pairs)
    want = oracles.self_generation_primal_per_wealth(tree, field, pairs, xi)
    assert got.to_json() == want.to_json()
    assert got.all_passed == (case != "root-bumped")


def test_primal_check_solves_each_window_once(monkeypatch):
    calls = []
    run = tree_verifier._Sweep.factors

    def counted(sweep, t):
        calls.append((t, sweep.T))
        return run(sweep, t)

    monkeypatch.setattr(tree_verifier._Sweep, "factors", counted)
    pairs = [(0, 1), (0, 2), (1, 2)]
    tree = two_period_tree()
    check_self_generation_primal(tree, solved_field(tree, seed=21), pairs)
    assert sorted(calls) == pairs


FACTOR_TREES = {
    **{f"random-{p}": lambda p=p: random_tree(p, periods=p) for p in range(1, 6)},
    "two-period": two_period_tree,
}


@pytest.mark.parametrize("case", sorted(FACTOR_TREES))
def test_factor_table_per_window_end_matches_the_per_window_recursion(case):
    # one context serves every window in a shuffled order, so a window
    # reads the nodes an earlier window to its T solved: the log C of
    # levels t..T and the primal's policy of levels t..T-1 are the
    # recursion's on fresh tables, bit for bit; solved, root-moved and
    # leaf-moved shifts
    tree = FACTOR_TREES[case]()
    solved = solved_field(tree, 7)
    rng = np.random.default_rng(len(tree.nodes))
    windows = _window_pairs(tree)
    for field in (solved, with_offsets(solved, {tree.root: 0.1}), with_offsets(solved, {tree.leaves()[0]: 0.1})):
        want = {(t, T): oracles.exponential_factors(tree, field, t, T) for t, T in windows}
        for _ in range(3):
            duals = WindowDuals(tree, field.gamma)
            for i in rng.permutation(len(windows)):
                t, T = windows[i]
                log_c, policy = want[(t, T)]
                got = duals.sweep(field.a_shift, T).factors(t)
                assert [(n, got[n]) for n in log_c] == list(log_c.items()), (t, T)
                assert list(primal_value(tree, field, 0.0, t, T, duals=duals).policy.items()) == list(policy.items())


def test_factor_table_refuses_as_the_per_window_recursion():
    # node a's increments are one-sided: every window through level 1 is
    # refused, in any order through one context, as the recursion refuses
    # it on fresh tables
    tree = mid_arbitrage_tree()
    field = constant_field(tree)
    windows = _window_pairs(tree)
    want = {(t, T): _refusal(oracles.exponential_factors, tree, field, t, T) for t, T in windows}
    assert want[(0, 2)] == want[(1, 2)] and want[(0, 2)][0] is ArbitrageError
    assert want[(0, 1)] is None
    for order in (windows, windows[::-1]):
        duals = WindowDuals(tree, field.gamma)
        for t, T in order:
            assert _refusal(duals.sweep(field.a_shift, T).factors, t) == want[(t, T)], (t, T)


# -- dual values ---------------------------------------------------------


def test_dual_binomial_pin():
    tree = binomial_tree()
    field = constant_field(tree)
    res = dual_value(tree, field, 1.0)
    want = 0.8 * entropy_kernel(0.625) + 0.2 * entropy_kernel(2.5)
    assert want == pytest.approx(-1.0 - math.log(0.8), abs=1e-12)
    assert res.values["r"] == pytest.approx(want, abs=1e-8)
    q = minimiser(tree, res)
    assert q.at("r")[0] == pytest.approx(0.5, abs=1e-7)
    assert res.kkt_residual["r"] <= 1e-8
    assert not res.near_boundary["r"]


def test_dual_uniform_trinomial_pin():
    tree = uniform_trinomial_tree()
    field = constant_field(tree)
    res = dual_value(tree, field, 1.0)
    assert res.values["r"] == pytest.approx(-1.0, abs=1e-8)
    # minimizer is P itself: alpha = 2/3 on the (1/2, 0, 1/2) vertex
    np.testing.assert_allclose(minimiser(tree, res).at("r"), [1/3, 1/3, 1/3], atol=1e-6)


def test_dual_trinomial_matches_1d_oracle():
    tree = trinomial_tree()
    field = constant_field(tree)
    res = dual_value(tree, field, 1.0)
    b_star, want = oracles.symmetric_trinomial_dual_min((0.5, 0.3, 0.2))
    assert res.values["r"] == pytest.approx(want, abs=1e-8)
    assert minimiser(tree, res).at("r")[0] == pytest.approx(b_star, abs=1e-6)


def test_dual_terminal_window_is_conjugate():
    tree = binomial_tree()
    field = solved_field(tree, seed=7)
    res = dual_value(tree, field, 2.0, t=1, T=1)
    for n in ("u", "d"):
        want = entropy_kernel(2.0 / field.gamma[n]) - (2.0 / field.gamma[n]) * field.a_shift[n]
        assert res.values[n] == pytest.approx(want, rel=1e-12)


def test_dual_eta_zero_paths():
    tree = binomial_tree()
    res = dual_value(tree, constant_field(tree), 0.0)
    assert res.values["r"] == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        dual_value(tree, constant_field(tree), -1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dual_value_past_the_float_range_reads_its_shift():
    # at gamma 1e-306 the eta = 1 value h(1/gamma) - a/gamma overflows, but
    # the shift it implies does not: the sweep carries that shift, and the
    # value is inf, never NaN, with 0 at eta = 0, as at any gamma
    tree = binomial_tree()
    field = _constant_gamma_field(tree, 1e-306)
    res = dual_value(tree, field, 1.0)
    assert res.entropy == {"r": math.inf}
    # the sweep the solved shift read, solved again
    assert res.shift == {"r": field.a_shift["r"]}
    assert res.at(0.0).values == {"r": 0.0}
    assert res.at(2.0).values == {"r": math.inf}


def test_library_refuses_a_gamma_whose_reciprocal_leaves_the_float_range():
    # at gamma 1e-310, 1/gamma is inf: the field and the shift construction
    # refuse it naming the root, as the scenario parser does, and the
    # replication's residual inf - inf = NaN is no certificate of
    # feasibility (the field was accepted, and replication passed at 0.0)
    tree = two_period_tree()
    gamma = const_map(tree, 1e-310)
    with pytest.raises(ValueError, match="1/gamma must be finite at node 'r', got gamma 1e-310"):
        ExponentialFieldParams(gamma, dict.fromkeys(gamma, 0.0))
    terminal = dict.fromkeys(tree.leaves(), 0.0)
    with pytest.raises(ValueError, match="with 1/gamma finite, node 'r'"):
        solve_entropy_shift(tree, gamma, terminal)
    with np.errstate(invalid="ignore"):
        rep = replicate_inverse_gamma(tree, gamma)
    assert not rep.feasible and rep.failed_node == "r" and math.isnan(rep.residual)


def test_dual_near_boundary_flag():
    # huge shifts on the outer leaves pull the minimizer to the (1/2, 0, 1/2) vertex
    tree = uniform_trinomial_tree()
    field = ExponentialFieldParams(
        gamma=const_map(tree, 1.0),
        a_shift={"r": 0.0, "u": 20.0, "m": 0.0, "d": 20.0},
    )
    res = dual_value(tree, field, 1.0)
    assert res.near_boundary["r"]
    assert minimiser(tree, res).at("r")[1] == pytest.approx(0.0, abs=1e-5)
    assert minimiser(tree, res).at("r")[0] == pytest.approx(0.5, abs=1e-5)


def test_dual_minimizer_roundtrip():
    # leaf masses -> measure -> density -> masses, plus martingale residual
    tree = two_period_tree()
    field = solved_field(tree, seed=8)
    res = dual_value(tree, field, 1.0)
    q = minimiser(tree, res)
    interior = [n for n in tree._dfs_order if not tree.is_leaf(n)]
    assert oracles.martingale_residual(tree, q, interior) <= 1e-8
    masses = {w: q.node_mass(tree, w) for w in tree.leaves()}
    assert sum(masses.values()) == pytest.approx(1.0, abs=1e-9)
    rebuilt = measure_from_leaf_masses(tree, "r", 2, masses)
    z = density_process(tree, rebuilt)
    for w in tree.leaves():
        p_w = oracles.cond_prob(tree, "r", w)
        assert z.at(w) * p_w == pytest.approx(masses[w], abs=1e-10)


def test_dual_scaling_consistency():
    # v(eta) = (eta + h(eta)) / gamma + eta * minH for constant-gamma solved fields
    tree = trinomial_tree()
    gamma = const_map(tree, 1.6)
    a = solve_entropy_shift(tree, gamma, 0.0)
    field = ExponentialFieldParams(gamma=gamma, a_shift=a)
    ent = dual_value(tree, field, 1.0)
    for e in (0.5, 1.0, 2.0):
        res = dual_value(tree, field, e)
        want = (e + entropy_kernel(e)) / 1.6 + e * ent.values["r"]
        assert res.values["r"] == pytest.approx(want, abs=1e-8)


READ_ETAS = [1e-3, 0.25, 0.5, 2.0, 4.0, 50.0]


@pytest.mark.parametrize("bumped", [False, True], ids=["solved", "root-bumped"])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_dual_read_matches_the_per_eta_program(seed, bumped):
    # every window's eta = 1 value, read at other etas, against the joint
    # program solved at each eta
    tree = random_tree(seed, periods=3)
    field = solved_field(tree, seed)
    if bumped:
        field = with_offsets(field, {tree.root: 0.1})
    for (t, T) in _window_pairs(tree):
        unit = dual_value(tree, field, 1.0, t, T)
        within_the_joint_bound(tree, field, unit)
        assert unit.at(1.0).values == unit.values
        assert all(v == 0.0 for v in unit.at(0.0).values.values())
        for e in READ_ETAS:
            got = unit.at(e).values
            want = oracles.dual_by_eta(tree, field, e, t, T).values
            for n, v in got.items():
                assert abs(v - want[n]) <= 1e-10 * max(1.0, abs(v)), (t, T, e, n)


def test_tree_engine_reproduces_the_ito_parametrization():
    # the tree is a discretization of the diffusion, whose field
    # self-generates, so at constant (theta, delta, phi, rho) the worst dual
    # gap falls with dt = 1 / depth, at first order: depth x gap stays below
    # its depth-1 value. The primal and the entropy identity see the same
    # gap. Without the gamma on rho the field does not self-generate, and
    # the gap does not fall
    def worst_gaps(depth, rho, gamma_on_rho):
        tree, field = ito_tree(depth, 0.5, 0.4, 0.3, rho, gamma_on_rho)
        pairs = _window_pairs(tree)
        duals = WindowDuals(tree, field.gamma)
        return (
            check_self_generation_dual(tree, field, pairs, duals=duals)["dual-self-generation"].value,
            check_self_generation_primal(tree, field, pairs, duals=duals)["primal-self-generation"].value,
            check_exponential_conditions(tree, field, pairs, duals=duals)[
                "exp-condition-entropy-identity"
            ].value,
        )

    gaps = [worst_gaps(depth, 0.2, True) for depth in range(1, 6)]
    for dual, primal, identity in gaps:
        assert abs(primal - dual) <= 1e-12 and abs(identity - dual) <= 1e-12
    dual = [g[0] for g in gaps]
    assert all(later < earlier for earlier, later in zip(dual, dual[1:])), dual
    assert all(depth * gap <= dual[0] for depth, gap in enumerate(dual, 1)), dual
    mutant = [worst_gaps(depth, 0.6, False)[0] for depth in (1, 5)]
    assert mutant[1] >= mutant[0] and mutant[1] > 0.15, mutant


# -- entropy -------------------------------------------------------------


def test_entropy_reference_measure_pin():
    tree = uniform_trinomial_tree()
    p = reference_measure(tree)
    res = oracles.entropy(tree, const_map(tree, 1.0), const_map(tree, 0.0), p)
    assert res["r"] == pytest.approx(-1.0, rel=1e-14)


def test_entropy_vertex_pin():
    tree = uniform_trinomial_tree()
    q = TreeMeasure(cond={"r": (0.5, 0.0, 0.5)})
    res = oracles.entropy(tree, const_map(tree, 1.0), const_map(tree, 0.0), q)
    assert res["r"] == pytest.approx((2.0 / 3.0) * entropy_kernel(1.5), rel=1e-12)


def test_entropy_constant_shift_pin():
    tree = uniform_trinomial_tree()
    c = 0.7
    p = reference_measure(tree)
    res = oracles.entropy(tree, const_map(tree, 1.0), const_map(tree, c), p)
    assert res["r"] == pytest.approx(-1.0 - c, rel=1e-12)


def test_min_entropy_equals_dual_at_unit_argument():
    # the dual value at eta = 1 is the conditional entropy of its minimiser
    tree = two_period_tree()
    field = solved_field(tree, seed=9)
    dual = dual_value(tree, field, 1.0)
    ent = oracles.entropy(tree, field.gamma, field.a_shift, minimiser(tree, dual))
    assert ent["r"] == pytest.approx(dual.values["r"], abs=1e-12)


def test_min_entropy_below_any_vertex():
    tree = trinomial_tree()
    gamma = const_map(tree, 1.0)
    a = const_map(tree, 0.0)
    ent = dual_value(tree, ExponentialFieldParams(gamma, a), 1.0)
    for q in enumerate_product_measures(tree):
        res = oracles.entropy(tree, gamma, a, q)
        assert ent.values["r"] <= res["r"] + 1e-9


# -- entropy shift construction ------------------------------------------


def test_solve_shift_binomial_pin():
    tree = binomial_tree()
    a = solve_entropy_shift(tree, const_map(tree, 1.0), 0.0)
    assert a["r"] == pytest.approx(math.log(0.8), abs=1e-9)
    assert a["u"] == 0.0 and a["d"] == 0.0


def test_solve_shift_trinomial_matches_kl_oracle():
    tree = trinomial_tree()
    a = solve_entropy_shift(tree, const_map(tree, 1.0), 0.0)
    _, kl = oracles.symmetric_trinomial_kl_min((0.5, 0.3, 0.2))
    # at gamma = 1, A_T = 0 the root shift is minus the classical KL minimum
    assert a["r"] == pytest.approx(-kl, abs=1e-8)


def test_solve_shift_symmetric_market_zero():
    tree = binomial_tree(p_up=0.5)
    a = solve_entropy_shift(tree, const_map(tree, 1.0), 0.0)
    assert a["r"] == pytest.approx(0.0, abs=1e-10)


def test_solve_shift_consistent_over_windows():
    for seed in (11, 12, 13):
        tree = random_tree(seed)
        field = solved_field(tree, seed)
        pairs = [(t, T) for t in range(tree.horizon) for T in range(t + 1, tree.horizon + 1)]
        rep = check_exponential_conditions(tree, field, pairs, tol=1e-9)
        assert rep.all_passed, rep.to_text()


def test_solve_shift_refuses_2b_violation():
    tree = trinomial_tree()
    gamma = {"r": 0.5, "u": 1.0 / 2.5, "m": 1.0 / 2.2, "d": 1.0 / 1.5}
    with pytest.raises(ValueError, match="r"):
        solve_entropy_shift(tree, gamma, 0.0)


def test_solve_shift_refuses_the_replication_certificate():
    # 1/gamma off a replicable one by 1e-9 at d: the replication residual
    # is 5e-10, or 4.5e-10 in units of the largest 1/gamma, 1.1, far above
    # its rounding tolerance though the binomial vertex keeps the
    # inverse-gamma mean within 1e-9, so the shift is refused with the
    # certificate's node and residual, before any program is solved
    tree = binomial_tree()
    gamma = {"r": 1.0, "u": 1.0 / 1.1, "d": 1.0 / (0.9 + 1e-9)}
    rep = replicate_inverse_gamma(tree, gamma)
    assert not rep.feasible and 1e-10 < rep.residual <= 1e-9
    duals = WindowDuals(tree, gamma)
    with pytest.raises(ValueError) as info:
        solve_entropy_shift(tree, gamma, 0.0, duals=duals)
    assert type(info.value) is ValueError
    assert str(info.value) == (
        f"inverse-gamma conditional mean violated at node 'r' (replication residual {rep.residual:.3g})"
    )
    assert duals._programs == {}


def test_solve_shift_rejects_bad_gamma():
    tree = binomial_tree()
    with pytest.raises(ValueError, match="positive"):
        solve_entropy_shift(tree, {"r": 1.0, "u": -1.0, "d": 1.0}, 0.0)


# -- self-generation checks ----------------------------------------------


def test_self_generation_clean_field_passes():
    tree = two_period_tree()
    field = solved_field(tree, seed=21)
    pairs = [(0, 1), (0, 2), (1, 2)]
    rep_p = check_self_generation_primal(tree, field, pairs)
    rep_d = check_self_generation_dual(tree, field, pairs)
    assert rep_p.all_passed, rep_p.to_text()
    assert rep_d.all_passed, rep_d.to_text()
    assert rep_p["primal-self-generation"].value <= 1e-9
    assert rep_d["dual-self-generation"].value <= 1e-7


def test_self_generation_detects_root_perturbation():
    tree = two_period_tree()
    field = with_offsets(solved_field(tree, seed=22), {"r": 0.1})
    pairs = [(0, 1), (0, 2), (1, 2)]
    rep_p = check_self_generation_primal(tree, field, pairs)
    rep_d = check_self_generation_dual(tree, field, pairs)
    assert not rep_p.all_passed
    assert not rep_d.all_passed
    # gap in shift units is exactly the perturbation
    assert rep_p["primal-self-generation"].value == pytest.approx(0.1, abs=1e-9)
    assert rep_d["dual-self-generation"].value == pytest.approx(0.1, abs=1e-7)
    # the window that excludes the root stays clean
    assert rep_p["primal-self-generation[t=1,T=2]"].verdict
    assert rep_d["dual-self-generation[t=1,T=2]"].verdict


def _poison(monkeypatch, modes, tree, gamma):
    """Make the one-step dual program of each node named in ``modes`` fail:
    ``pre``, objective values infinite everywhere (the solver fails it at
    its start); ``step1``, a NaN gradient everywhere (its first Newton
    step is not finite); ``step2``, a NaN gradient away from its start
    (its second step); ``post``, its minimiser and its value turned to NaN
    on the way out of the solver (the check after the solve refuses it).
    A program's node is known by its children's probabilities and gammas
    in units of its own."""
    duals = WindowDuals(tree, gamma)
    node_of = {
        tuple((br.prob, gamma[br.child] / gamma[n]) for br in tree.branches_of(n)): n
        for n in tree._dfs_order
        if not tree.is_leaf(n)
    }
    objective_of = tree_verifier._one_step_objective
    barrier_minimize = tree_verifier.barrier_minimize
    stacks = []

    def poisoned_objective_of(p, gam, ash):
        nodes = [node_of[tuple(zip(pr.tolist(), gr.tolist()))] for pr, gr in zip(p, gam)]
        stacks.append(nodes)
        phi = objective_of(p, gam, ash)

        def poisoned_phi(rows):
            objective = phi(rows)

            def poisoned(r):
                v, g, h = (x.copy() for x in objective(r))
                for j, row in enumerate(rows):
                    mode = modes.get(nodes[row])
                    if mode == "pre":
                        v[j] = np.inf
                    moved = r[j].tobytes() != duals.centroid(nodes[row]).tobytes()
                    if mode == "step1" or (mode == "step2" and moved):
                        g[j] = np.nan
                return v, g, h

            return poisoned

        return poisoned_phi

    def poisoned_barrier_minimize(phi, r0, price=None):
        r, lam, info = barrier_minimize(phi, r0, price)
        for j, n in enumerate(stacks[-1]):
            if modes.get(n) == "post":
                r[j] = info["value"][j] = np.nan
        return r, lam, info

    monkeypatch.setattr(tree_verifier, "_one_step_objective", poisoned_objective_of)
    monkeypatch.setattr(tree_verifier, "barrier_minimize", poisoned_barrier_minimize)


def _refusal_one_program_at_a_time(tree, clean, t, modes):
    """The refusal ``dual_value`` on [t, clean.T] owes under ``_poison``:
    level by level from clean.T - 1 down to t, each poisoned node's
    one-step program in tree order, solved on a stack of its own from the
    child shifts of the unpoisoned sweep ``clean`` (the check at its
    start, the solver, the check after the solve); the first that fails. Each program is in units of its
    node's gamma g, at the children's shifts less their largest, top, with
    its price moves over a power of two above the largest, and the shift
    it implies is read back as top - 1 - value. None when no program
    fails."""
    for s in range(clean.T - 1, t - 1, -1):
        for n in (n for n in tree.nodes_at(s) if n in modes):
            branches = tree.branches_of(n)
            g, top = clean.duals.gamma[n], max(clean.shift[br.child] for br in branches)
            data = [[(br.prob, clean.duals.gamma[br.child] / g, clean.shift[br.child] - top) for br in branches]]
            objective = tree_verifier._one_step_objective(*np.array(data).transpose(2, 0, 1))(np.arange(1))
            where = f"dual program below node {n!r} on [{s}, {clean.T}]"

            def one(q):
                return tuple(x[0] for x in objective(q[None]))

            def float_range(q):
                shift = top - 1.0 - float(one(q)[0].sum())
                m = sum(x * clean.inverse_gamma_mean[br.child] for x, br in zip(q.tolist(), branches))
                if not (math.isfinite(shift) and math.isfinite(m)):
                    return f"{where} leaves the float range: shift {shift!r}, m {m!r}"

            dprice = [br.dprice for br in branches]
            price = np.array([[math.ldexp(x, -math.frexp(max(map(abs, dprice)))[1]) for x in dprice]])
            q0 = clean.duals.centroid(n)
            with np.errstate(all="ignore"):
                refused = float_range(q0)
                if not refused:
                    q, _, info = solvers.barrier_minimize(lambda rows: objective, q0[None], price)
                    if info["failure"][0] is not None:
                        refused = f"{where}: {info['failure'][0]}"
                    else:
                        refused = float_range(np.full_like(q[0], np.nan) if modes[n] == "post" else q[0])
            if refused:
                return refused
    return None


@pytest.mark.parametrize(
    "tree, T, modes, first",
    [
        # random_tree(7, periods=3) on [1, 3]: level 2 first, in a stack
        # of n4, n11, n19 and one of n5, n12, n18, then n1, n2, n3 in one.
        # Those three are binomial: their one martingale measure is the
        # start, so no second Newton step is taken and "step2" never fails
        ("random", 3, {"n3": "step1", "n1": "step1"}, "n1"),
        ("random", 3, {"n2": "pre", "n1": "post"}, "n1"),
        ("random", 3, {"n3": "pre"}, "n3"),
        ("random", 3, {"n2": "pre", "n3": "step2"}, "n2"),
        ("random", 3, {"n3": "post", "n2": "step1"}, "n2"),
        # suite_shaped_tree(7) on [1, 2]: n1 and n3 in one stack, solved
        # first, and n2 in a stack of its own
        ("suite", 2, {"n3": "step1", "n2": "pre"}, "n2"),
        ("suite", 2, {"n3": "pre", "n2": "post"}, "n2"),
        ("suite", 2, {"n3": "post", "n2": "step2"}, "n2"),
        ("suite", 2, {"n2": "step1", "n1": "pre"}, "n1"),
        # a program on the level below the starts fails first, whatever
        # fails above it: n12 is n2's child
        ("random", 3, {"n1": "pre", "n12": "step1"}, "n12"),
        ("random", 3, {"n18": "post", "n5": "step2"}, "n5"),
    ],
)
def test_dual_value_refuses_the_first_failing_start(monkeypatch, tree, T, modes, first):
    # whatever stack a program is solved in and whenever its stack fails,
    # the refusal names the first failing program, in tree order, of the
    # first level of the sweep that has one, with the message that program
    # gives alone
    tree = random_tree(7, periods=3) if tree == "random" else suite_shaped_tree(7)
    field = solved_field(tree, 7)
    clean = WindowDuals(tree, field.gamma).sweep(field.a_shift, T).extend(1)
    _poison(monkeypatch, modes, tree, field.gamma)
    want = _refusal_one_program_at_a_time(tree, clean, 1, modes)
    assert want.startswith(f"dual program below node {first!r} on [{tree.time_of(first)}, {T}]")
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc:
        dual_value(tree, field, 1.0, 1, T)
    assert str(exc.value) == want


def test_dual_value_refuses_from_one_solve_per_shape(monkeypatch):
    # suite_shaped_tree(7) on [1, 2]: n1 and n3 in one stack, n2 in its
    # own. A refused level is solved once, one barrier_minimize call per
    # shape, and the refusal names the node and window of the first program
    # in tree order that fails, though a later one in the first stack fails
    # first
    tree = suite_shaped_tree(7)
    field = solved_field(tree, 7)
    clean = WindowDuals(tree, field.gamma).sweep(field.a_shift, 2).extend(1)
    modes = {"n3": "step1", "n2": "step2"}
    _poison(monkeypatch, modes, tree, field.gamma)
    poisoned = tree_verifier.barrier_minimize
    stacks = []

    def counted(phi, r0, price=None):
        stacks.append(len(r0))
        return poisoned(phi, r0, price)

    monkeypatch.setattr(tree_verifier, "barrier_minimize", counted)
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError) as exc:
        dual_value(tree, field, 1.0, 1, 2)
    assert str(exc.value).startswith(
        "dual program below node 'n2' on [1, 2]: barrier_minimize: Newton step 2 is not finite"
    )
    assert stacks == [2, 1]
    assert str(exc.value) == _refusal_one_program_at_a_time(tree, clean, 1, modes)


def test_windows_with_a_node_that_moves_no_price(monkeypatch):
    # u's branches move no price, so its program has the unit-mass row
    # alone: u and d, two children each, are solved in different stacks,
    # each price row over a power of two above its largest move, and every
    # window is within its joint program's bound
    def node(nid, t, branches=()):
        return {"id": nid, "time": t, "branches": [{"child": c, "prob": p, "dprice": d} for c, p, d in branches]}

    tree = EventTree.from_dict(
        {
            "horizon": 2,
            "nodes": [
                node("r", 0, [("u", 0.5, 1.0), ("d", 0.5, -1.0)]),
                node("u", 1, [("uu", 0.4, 0.0), ("ud", 0.6, 0.0)]),
                node("d", 1, [("du", 0.3, 1.0), ("dd", 0.7, -2.0)]),
                *(node(leaf, 2) for leaf in ("uu", "ud", "du", "dd")),
            ],
        }
    )
    field = with_offsets(constant_field(tree), {"uu": 0.3, "ud": -0.2, "du": 0.1})
    stacks = []
    original = tree_verifier.barrier_minimize

    def recorded(phi, r0, price=None):
        stacks.append((len(r0), None if price is None else price[0].tolist()))
        return original(phi, r0, price)

    monkeypatch.setattr(tree_verifier, "barrier_minimize", recorded)
    duals = WindowDuals(tree, field.gamma)
    for t, T in _window_pairs(tree):
        within_the_joint_bound(tree, field, dual_value(tree, field, 1.0, t, T, duals=duals))
    # to T = 1, the root; to T = 2, u, then d, then the root
    assert stacks == [(1, [0.5, -0.5]), (1, None), (1, [0.25, -0.5]), (1, [0.5, -0.5])]


def _perturbed(field, seed):
    """``field`` with every a_shift moved by a seeded normal draw, sd 0.3."""
    rng = np.random.default_rng(seed)
    return ExponentialFieldParams(
        field.gamma, {n: a + float(rng.normal(0.0, 0.3)) for n, a in field.a_shift.items()}
    )


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_stacked_dual_programs_match_the_scalar_oracle(seed):
    # every window's dual value, composed from one-step programs solved in
    # stacks, against its joint program solved by the scalar solver
    # (oracles.dual_by_eta), within the derived bound: depths 1-5 and the
    # 2, 3, 2, 3, 2, 3 shape, with solved, root-perturbed and randomly
    # shifted fields (the shift at every node moved)
    trees = [random_tree(seed, periods=depth) for depth in range(1, 6)]
    trees.append(random_tree(seed, periods=6, branching=lambda t, path: (2, 3)[t % 2]))
    for tree in trees:
        solved = solved_field(tree, seed)
        for field in (solved, with_offsets(solved, {tree.root: 0.1}), _perturbed(solved, 10 * seed + tree.horizon)):
            duals = WindowDuals(tree, field.gamma)
            for t, T in _window_pairs(tree):
                within_the_joint_bound(tree, field, dual_value(tree, field, 1.0, t, T, duals=duals))


def _program_keys(tree, field, got):
    """The (node, bits of its children's shifts) of every one-step program
    the windows ``got`` (every (t, T) with t < T, in ``_window_pairs``
    order) read: at a node of level s < T - 1, a child's shift is the one
    its window [s + 1, T] implies; at level T - 1, it is a_shift."""
    implied = {(r.t, r.T): r.shift for r in got}
    keys = set()
    for T in range(1, tree.horizon + 1):
        for s in range(T):
            for n in tree.nodes_at(s):
                kids = tree.children(n)
                if s + 1 == T:
                    shifts = [field.a_shift[k] for k in kids]
                else:
                    shifts = [implied[(s + 1, T)][k] for k in kids]
                keys.add((n, np.array(shifts, dtype=float).tobytes()))
    return keys


def test_stack_value_is_the_dual_objective_at_the_result(monkeypatch):
    # the value the solver reports per program is the objective's sum at
    # its result, bit for bit, as the whole stack's objective or the
    # program's alone gives it; each window's implied shift at a start is
    # read from the value of the start's one-step program in the sweep to
    # its end, in the node's units, as top - 1 - value with top its
    # children's largest shift, so every implied shift is a value of some
    # stack; and each program, a node with its children's shifts, is
    # solved once: one per internal node on the solved field, where every
    # sweep reads the horizon's programs
    stacks = []
    original = tree_verifier.barrier_minimize

    def recorded(phi, r0, price=None):
        out = original(phi, r0, price)
        stacks.append((phi, out[0], out[2]["value"]))
        return out

    monkeypatch.setattr(tree_verifier, "barrier_minimize", recorded)
    tree = random_tree(7, periods=4)
    solved = solved_field(tree, 7)
    internal = sum(len(tree.nodes_at(t)) for t in range(tree.horizon))
    for field in (solved, _perturbed(solved, 74)):
        stacks.clear()
        duals = WindowDuals(tree, field.gamma)
        got = [dual_value(tree, field, 1.0, t, T, duals=duals) for t, T in _window_pairs(tree)]
        values = []
        for phi, r, value in stacks:
            rows = np.arange(len(r))
            assert value.tobytes() == phi(rows)(r)[0].sum(axis=1).tobytes()
            for j in rows:
                assert value[j].tobytes() == phi(rows[j:j + 1])(r[j:j + 1])[0].sum(axis=1).tobytes()
            values += value.tolist()
        # the store keeps the programs in the order the stacks solved them
        read_back = []
        for ((n, bits), outcome), value in zip(duals._programs.items(), values):
            read_back.append(float(np.frombuffer(bits).max() - 1.0 - value))
            assert outcome[1] == read_back[-1]
        assert {a for res in got for a in res.shift.values()} <= set(read_back)
        assert len(values) == len(duals._programs) == len(_program_keys(tree, field, got))
        assert (len(values) == internal) == (field is solved)


def test_one_stack_per_window_end_level_and_shape(monkeypatch):
    # a solved scenario on random_tree(3, periods=4): the shift solves the
    # sweep to the horizon, one barrier stack per (level, shape), a row per
    # internal node; every dual-reading check's sweep to an earlier T reads
    # those programs and solves nothing, and so does the root-perturbed twin
    tree = random_tree(3, periods=4)
    solved = solved_field(tree, 3)
    stacks = []
    original = tree_verifier.barrier_minimize

    def counted(phi, r0, price=None):
        stacks.append(len(r0))
        return original(phi, r0, price)

    monkeypatch.setattr(tree_verifier, "barrier_minimize", counted)
    duals = WindowDuals(tree, solved.gamma)
    terminal = {w: solved.a_shift[w] for w in tree.leaves()}
    field = ExponentialFieldParams(solved.gamma, solve_entropy_shift(tree, solved.gamma, terminal, duals=duals))
    pairs = _window_pairs(tree)
    shapes = {
        (s, len(tree.children(n)), any(br.dprice != 0.0 for br in tree.branches_of(n)))
        for s in range(4)
        for n in tree.nodes_at(s)
    }
    assert len(stacks) == len(shapes)
    assert sum(stacks) == sum(len(tree.nodes_at(s)) for s in range(4))

    def checks(field):
        check_self_generation_dual(tree, field, pairs, duals=duals)
        check_value_conjugacy(tree, field, 0, 4, [0.0], [1.0], duals=duals)
        check_exponential_conditions(tree, field, pairs, duals=duals)
        check_forward_supermartingale(tree, field, pairs, duals=duals)

    checks(field)
    checks(with_offsets(field, {tree.root: 0.1}))
    assert len(stacks) == len(shapes)


def _nudged_at_time_2(tree, field):
    """``field`` with the shift of the last child of the first time-1 node
    moved up by 2^-30, and the moved node's ancestors."""
    parent = tree.nodes_at(1)[0]
    w = tree.children(parent)[-1]
    a_shift = dict(field.a_shift)
    a_shift[w] += 2.0**-30
    return ExponentialFieldParams(field.gamma, a_shift), [tree.root, parent]


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_shared_programs_match_programs_solved_afresh(depth):
    # every window's dual value, with each one-step program solved once per
    # scenario and read by every sweep that needs it, against the same
    # window with every program solved afresh: each DualResult field equal,
    # bit for bit (repr keeps a float's bits, the sign of a zero included),
    # on solved, root-perturbed, randomly shifted and nudged fields
    tree = random_tree(depth, periods=depth)
    solved = solved_field(tree, depth)
    fields = [solved, with_offsets(solved, {tree.root: 0.1}), _perturbed(solved, 20 + depth)]
    fields.append(_nudged_at_time_2(tree, solved)[0])
    pairs = [(t, T) for T in range(tree.horizon + 1) for t in range(T + 1)]
    for field in fields:
        shared, fresh = WindowDuals(tree, field.gamma), unshared_duals(tree, field.gamma)
        for t, T in pairs:
            got = dual_value(tree, field, 1.0, t, T, duals=shared)
            assert repr(got) == repr(dual_value(tree, field, 1.0, t, T, duals=fresh))


def test_a_nudged_shift_solves_only_the_programs_above_it(monkeypatch):
    # on a solved field each program is solved once for every window; a
    # time-2 shift moved by 2^-30 changes the children's shifts of its
    # parent's program in the sweep to T = 2, and through its implied shift
    # the root's: those two are solved again, nothing else
    tree = random_tree(3, periods=3)
    solved = solved_field(tree, 3)
    internal = sum(len(tree.nodes_at(t)) for t in range(tree.horizon))
    programs = []
    original = tree_verifier.barrier_minimize

    def counted(phi, r0, price=None):
        programs.append(len(r0))
        return original(phi, r0, price)

    monkeypatch.setattr(tree_verifier, "barrier_minimize", counted)
    nudged, above = _nudged_at_time_2(tree, solved)
    for field, again in ((solved, []), (nudged, above)):
        programs.clear()
        duals = WindowDuals(tree, field.gamma)
        for t, T in _window_pairs(tree):
            dual_value(tree, field, 1.0, t, T, duals=duals)
        assert sum(programs) == internal + len(again)
        solved_twice = [n for n in tree._dfs_order if sum(key[0] == n for key in duals._programs) > 1]
        assert solved_twice == again


# -- conjugacy between computed fields -----------------------------------


@pytest.mark.parametrize("periods", [2, 3, 4])
def test_primal_and_dual_agree_in_shift_units_on_every_window(periods):
    # Fenchel conjugacy, as a property of the two solvers rather than a
    # record of the field. u(xi) = -exp(-gamma xi + log C) has the conjugate
    # v(eta) = h(eta / gamma) - (eta / gamma) log C, so at eta = 1 the shift
    # the dual value implies, gamma (h(1 / gamma) - v(1)), is log C exactly,
    # for any shift at T. So on every window and start:
    # - the sweep's implied shift is within kkt_residual of the minimum's
    #   (the tree_verifier docstring's error bound, in shift units);
    # - the exp-sum's stop leaves log C off by the square of its last step,
    #   about 1e-26, below the rounding;
    # - each level of the sweep and of the factor recursion rounds at most
    #   32 terms of size at most size = 4 + max|a| (the shifts; the log
    #   probabilities, at least log(0.2 / 2.2); and a step's entropy, in
    #   its node's units, where no log gamma enters), so each side carries
    #   at most 32 u size per level of [t, T].
    u = 2.0**-53
    for seed in range(1, 21):
        tree = random_tree(seed, periods=periods)
        solved = solved_field(tree, seed)
        rng = np.random.default_rng(seed)
        shifted = ExponentialFieldParams(
            solved.gamma, {n: a + float(rng.normal(0.0, 0.3)) for n, a in solved.a_shift.items()}
        )
        for field in (solved, shifted):
            duals = WindowDuals(tree, field.gamma)
            size = 4.0 + max(abs(a) for a in field.a_shift.values())
            for t, T in _window_pairs(tree):
                log_factor = primal_value(tree, field, 0.0, t, T, duals=duals).log_factor
                unit = dual_value(tree, field, 1.0, t, T, duals=duals)
                for n in tree.nodes_at(t):
                    bound = unit.kkt_residual[n] + 64 * u * size * (T - t)
                    assert abs(log_factor[n] - unit.shift[n]) <= bound, (seed, t, T, n)


def test_conjugacy_clean_field():
    tree = two_period_tree()
    field = solved_field(tree, seed=23)
    rep = check_value_conjugacy(tree, field, 0, 2, [-1.0, 0.0, 1.0], [0.5, 1.0, 2.0])
    assert rep.all_passed, rep.to_text()


def test_conjugacy_foc_pin_binomial():
    # solved binomial at xi = 0: u(0) = -0.8, so the attaining eta is 0.8
    tree = binomial_tree()
    gamma = const_map(tree, 1.0)
    a = solve_entropy_shift(tree, gamma, 0.0)
    field = ExponentialFieldParams(gamma=gamma, a_shift=a)
    rep = check_value_conjugacy(tree, field, 0, 1, [0.0], [0.5, 1.0, 2.0])
    assert rep.all_passed
    eta_hat = rep["conjugacy-primal-from-dual[t=0,T=1]"].details["eta_hat"]["r"]
    assert eta_hat == pytest.approx(0.8, abs=1e-5)
    assert eta_hat == pytest.approx(0.8, rel=1e-8)


def test_conjugacy_foc_pin_uniform_trinomial():
    tree = uniform_trinomial_tree()
    field = constant_field(tree)
    rep = check_value_conjugacy(tree, field, 0, 1, [0.0], [0.5, 1.0, 2.0])
    assert rep.all_passed
    eta_hat = rep["conjugacy-primal-from-dual[t=0,T=1]"].details["eta_hat"]["r"]
    assert eta_hat == pytest.approx(1.0, abs=1e-5)
    assert eta_hat == pytest.approx(1.0, rel=1e-8)


def test_conjugacy_foc_matches_marginal():
    # the attaining eta equals u'(xi) by finite differences on the computed primal
    tree = two_period_tree()
    field = solved_field(tree, seed=24)
    xi = 0.3
    rep = check_value_conjugacy(tree, field, 0, 2, [xi], [0.5, 1.0, 2.0])
    eta_hat = rep["conjugacy-primal-from-dual[t=0,T=2]"].details["eta_hat"]["r"]
    eps = 1e-5
    up = primal_value(tree, field, xi + eps).values["r"]
    dn = primal_value(tree, field, xi - eps).values["r"]
    assert eta_hat == pytest.approx((up - dn) / (2 * eps), rel=1e-3)
    # and u'(xi) = gamma exp(-gamma xi + a) in closed form on a solved field
    g, a = field.gamma["r"], field.a_shift["r"]
    assert eta_hat == pytest.approx(g * math.exp(-g * xi + a), rel=1e-8)


def test_conjugacy_requires_fast_path():
    tree = trinomial_tree()
    gamma = {"r": 0.5, "u": 1.0 / 2.5, "m": 1.0 / 2.2, "d": 1.0 / 1.5}
    field = ExponentialFieldParams(gamma=gamma, a_shift=const_map(tree, 0.0))
    with pytest.raises(ValueError, match="fast path"):
        check_value_conjugacy(tree, field, 0, 1, [0.0], [1.0])


# The conjugacy cases: the 50 trees of the acceptance criterion-3 suite with
# its grids, solved, and every fifth with the root shift bumped (the check
# never reads the root shift, so more bumped trees would repeat the solved
# ones); trees in the shape of the tree-suite benchmark (default scenario
# grids, a one-start and a three-start window); four-period random trees.
SCENARIO_XI = [-2.0, -0.5, 0.0, 0.5, 2.0]
SCENARIO_ETA = [0.25, 0.5, 1.0, 2.0, 4.0]
CONJUGACY_CASES = [
    *(("crit3-solved", seed) for seed in range(50)),
    *(("crit3-bumped", seed) for seed in range(0, 50, 5)),
    *((kind, seed) for seed in range(3) for kind in ("suite-root", "suite-t1")),
    ("depth4", 1),
    ("depth4", 2),
]


def conjugacy_case(kind, seed):
    """(tree, field, window, xi grid, eta grid) for one conjugacy case."""
    if kind.startswith("crit3"):
        tree = random_tree(seed)
        field = solved_field(tree, seed)
        if kind == "crit3-bumped":
            field = with_offsets(field, {"r": 0.1})
        return tree, field, (0, 2), [-1.0, 0.0, 1.0], [0.5, 1.0, 2.0]
    if kind.startswith("suite"):
        tree = suite_shaped_tree(seed)
        window = (0, 1) if kind == "suite-root" else (1, 2)
        return tree, solved_field(tree, seed), window, SCENARIO_XI, SCENARIO_ETA
    tree = random_tree(seed, periods=4)
    return tree, solved_field(tree, seed), (0, 4), SCENARIO_XI, SCENARIO_ETA


@pytest.mark.parametrize("kind,seed", CONJUGACY_CASES)
def test_conjugacy_joint_solve_matches_eta_search(kind, seed):
    tree, field, (t, T), xi_grid, eta_grid = conjugacy_case(kind, seed)
    tol = 1e-6
    rep = check_value_conjugacy(tree, field, t, T, xi_grid, eta_grid, tol)
    rec = rep[f"conjugacy-primal-from-dual[t={t},T={T}]"]
    # the check's reads of the eta = 1 program against the joint program
    # over the unnormalised leaf masses, one solve per start and wealth
    unit = dual_value(tree, field, 1.0, t, T)
    joint = oracles.conjugate_primal_joint(tree, field, t, T, xi_grid)
    assert set(rec.details["eta_hat"]) == set(joint)
    for n, sols in joint.items():
        reads = [tree_verifier._conjugate_read(unit, n, x) for x in xi_grid]
        assert rec.details["eta_hat"][n] == reads[0][1]
        for (u_read, eta_read), (u, eta_hat) in zip(reads, sols):
            assert abs(u_read - u) <= 1e-10 * max(1.0, abs(u))
            assert eta_read == pytest.approx(eta_hat, rel=1e-10)
    log_factor = primal_value(tree, field, 0.0, t, T).log_factor
    searched = oracles.conjugate_primal_by_eta_search(tree, field, t, T, xi_grid, eta_grid, tol)
    oracle_gap = max(
        abs(u + math.exp(-field.gamma[n] * x + log_factor[n]))
        for n, sols in searched.items()
        for x, (u, _) in zip(xi_grid, sols)
    )
    assert rec.verdict == (oracle_gap <= tol)
    assert rec.value <= tol and oracle_gap <= tol
    assert set(rec.details["eta_hat"]) == set(searched)
    for n, sols in searched.items():
        assert rec.details["eta_hat"][n] == pytest.approx(sols[0][1], rel=1e-4)
        # the attaining eta is u'(xi) = gamma exp(-gamma xi + log_factor)
        g = field.gamma[n]
        marginal = g * math.exp(-g * xi_grid[0] + log_factor[n])
        assert rec.details["eta_hat"][n] == pytest.approx(marginal, rel=1e-8)


@pytest.mark.parametrize("kind,seed", [("crit3-bumped", 5), ("suite-t1", 1), ("depth4", 2)])
def test_conjugacy_dual_from_primal_is_the_closed_form_gap(kind, seed):
    # the conjugate of u(xi) = -exp(-gamma xi + log_factor) is closed form,
    # so the record is exactly its worst gap to the computed dual, scaled
    # by max(1, |conjugate|)
    tree, field, (t, T), xi_grid, eta_grid = conjugacy_case(kind, seed)
    rep = check_value_conjugacy(tree, field, t, T, xi_grid, eta_grid)
    log_factor = primal_value(tree, field, 0.0, t, T).log_factor
    gaps = []
    for n in tree.nodes_at(t):
        for e in eta_grid:
            V = conjugate_exponential(field.gamma[n], log_factor[n], e)
            gaps.append(abs(V - dual_value(tree, field, e, t, T).values[n]) / max(1.0, abs(V)))
    assert rep[f"conjugacy-dual-from-primal[t={t},T={T}]"].value == max(gaps)


def test_failing_conjugacy_records_name_their_worst_start():
    # below any gap's tolerance both directions fail; each record names the
    # first start attaining its value
    tree, field, (t, T), xi_grid, eta_grid = conjugacy_case("suite-t1", 1)
    assert len(tree.nodes_at(t)) > 1
    rep = check_value_conjugacy(tree, field, t, T, xi_grid, eta_grid, tol=-1.0)
    assert not rep[f"conjugacy-primal-from-dual[t={t},T={T}]"].verdict
    assert rep[f"conjugacy-primal-from-dual[t={t},T={T}]"].worst_node in tree.nodes_at(t)
    rec = rep[f"conjugacy-dual-from-primal[t={t},T={T}]"]
    assert not rec.verdict
    log_factor = primal_value(tree, field, 0.0, t, T).log_factor
    gaps = {}
    for n in tree.nodes_at(t):
        for e in eta_grid:
            V = conjugate_exponential(field.gamma[n], log_factor[n], e)
            gap = abs(V - dual_value(tree, field, e, t, T).values[n]) / max(1.0, abs(V))
            gaps[n] = max(gaps.get(n, 0.0), gap)
    assert rec.worst_node == next(n for n, g in gaps.items() if g == rec.value)


@pytest.mark.parametrize("xi", [-1000.0, 1000.0])
def test_conjugacy_refuses_xi_beyond_float_range(xi):
    # the optimal eta, about exp(-xi) here, over- or underflows: a refusal
    # of the wealth, before the primal is read there
    tree = two_period_tree()
    with pytest.raises(WealthRangeError, match=f"xi={xi:g} at node 'r': .* outside the float range"):
        check_value_conjugacy(tree, solved_field(tree, seed=23), 0, 2, [xi], [1.0])


def test_conjugacy_scales_the_gap_with_the_value():
    # leaf shifts of 20 make |u(-2)| about 2.4e9, where the rounding of a
    # consistent pair of fields is an absolute gap of several 1e-6; scaled
    # by max(1, |u|) it sits at the rounding floor
    tree = uniform_trinomial_tree()
    field = ExponentialFieldParams(
        gamma=const_map(tree, 1.0),
        a_shift={"r": 0.0, "u": 20.0, "m": 0.0, "d": 20.0},
    )
    rep = check_value_conjugacy(tree, field, 0, 1, SCENARIO_XI, SCENARIO_ETA)
    assert rep.all_passed, rep.to_text()
    assert abs(primal_value(tree, field, -2.0, 0, 1).values["r"]) > 1e9
    assert rep["conjugacy-primal-from-dual[t=0,T=1]"].value <= 1e-12


def test_conjugacy_joint_solve_evidence():
    # the evidence is the window's eta = 1 program's, as on the
    # dual-self-generation records
    tree = two_period_tree()
    field = solved_field(tree, seed=23)
    rep = check_value_conjugacy(tree, field, 1, 2, SCENARIO_XI, [0.5, 1.0, 2.0])
    details = rep["conjugacy-primal-from-dual[t=1,T=2]"].details
    unit = dual_value(tree, field, 1.0, 1, 2)
    for key in ("newton_iterations", "kkt_residual", "near_boundary"):
        assert details[key] == getattr(unit, key)
    for n in tree.nodes_at(1):
        assert isinstance(details["newton_iterations"][n], int)
        assert 1 <= details["newton_iterations"][n] < 200
        assert 0.0 < details["kkt_residual"][n] <= 1e-9
        assert details["near_boundary"][n] is False
    # a very negative shift on the middle leaf starves it: the attaining
    # measure puts about e^-20 there, at the polytope boundary
    tree = uniform_trinomial_tree()
    field = ExponentialFieldParams(
        gamma=const_map(tree, 1.0),
        a_shift={"r": 0.0, "u": 0.0, "m": -20.0, "d": 0.0},
    )
    rep = check_value_conjugacy(tree, field, 0, 1, [0.0], [1.0])
    assert rep.all_passed, rep.to_text()
    assert rep["conjugacy-primal-from-dual[t=0,T=1]"].details["near_boundary"]["r"] is True


def test_window_duals_share_and_refuse_another_field():
    tree = two_period_tree()
    field = solved_field(tree, seed=23)
    duals = WindowDuals(tree, field.gamma)
    unit = dual_value(tree, field, 1.0, 0, 2, duals=duals)
    # a second read of the window composes it from the same sweep
    (sweep,) = duals._sweeps.values()
    again = dual_value(tree, field, 1.0, 0, 2, duals=duals)
    assert (again.values, again.leaf_masses) == (unit.values, unit.leaf_masses)
    assert list(duals._sweeps.values()) == [sweep]
    # eta = 1 is the window's one program, bit for bit; eta = 2 is read
    # from it, as dual_value reads it, and matches the program at eta = 2
    read = unit.at(2.0)
    assert unit.values == dual_value(tree, field, 1.0, 0, 2).values
    assert read.values == dual_value(tree, field, 2.0, 0, 2).values
    assert read.leaf_masses is unit.leaf_masses
    per_eta = oracles.dual_by_eta(tree, field, 2.0, 0, 2)
    for n, v in read.values.items():
        assert abs(v - per_eta.values[n]) <= 1e-10 * max(1.0, abs(v))
    # the exponential checks read the sweep to 2 they are given
    pairs = [(0, 2)]
    for check in (
        lambda d: check_exponential_conditions(tree, field, pairs, duals=d),
        lambda d: check_forward_supermartingale(tree, field, pairs, duals=d),
    ):
        assert check(duals).to_json() == check(None).to_json()
    assert list(duals._sweeps.values()) == [sweep]
    # the window [0, 2] reads the shift at time 2 only: a shift moved at
    # time 1 reads the same sweep, one moved at a leaf gets its own
    moved_before = with_offsets(field, {"a": 0.1})
    assert dual_value(tree, moved_before, 1.0, 0, 2, duals=duals).shift == unit.shift
    assert list(duals._sweeps.values()) == [sweep]
    moved_leaf = with_offsets(field, {"a1": 0.1})
    fresh = dual_value(tree, moved_leaf, 1.0, 0, 2)
    assert dual_value(tree, moved_leaf, 1.0, 0, 2, duals=duals).values == fresh.values
    assert fresh.values != unit.values
    assert len(duals._sweeps) == 2
    # a context belongs to one tree and one gamma
    other = ExponentialFieldParams({n: 2.0 * g for n, g in field.gamma.items()}, field.a_shift)
    with pytest.raises(ValueError, match="another tree or gamma"):
        check_self_generation_dual(tree, other, pairs, duals=duals)
    with pytest.raises(ValueError, match="another tree or gamma"):
        check_self_generation_primal(tree, other, pairs, duals=duals)
    with pytest.raises(ValueError, match="another tree or gamma"):
        check_exponential_conditions(tree, other, pairs, duals=duals)
    with pytest.raises(ValueError, match="another tree or gamma"):
        check_forward_supermartingale(tree, other, pairs, duals=duals)
    with pytest.raises(ValueError, match="another tree or gamma"):
        check_value_conjugacy(two_period_tree(), field, 0, 2, [0.0], [1.0], duals=duals)


def shifted_context(tree, seed, offsets):
    """A context that solved the entropy shift of solved_field(tree, seed)'s
    terminal values, and that shift moved by ``offsets``."""
    solved = solved_field(tree, seed)
    gamma = solved.gamma
    terminal = {w: solved.a_shift[w] for w in tree.leaves()}
    duals = WindowDuals(tree, gamma)
    a_shift = solve_entropy_shift(tree, gamma, terminal, duals=duals)
    return duals, with_offsets(ExponentialFieldParams(gamma, a_shift), offsets)


def test_window_duals_resolve_a_window_whose_leaf_shift_moved():
    tree = random_tree(7, periods=3)
    duals, field = shifted_context(tree, 7, {tree.leaves()[0]: 0.1})
    # the shift construction solved one sweep, to the horizon, and no window
    (stale,) = duals._sweeps.values()
    assert (stale.T, stale.level) == (3, 0)
    for t in (0, 1, 2):
        # not the shift construction's sweep, which read the unmoved leaf,
        # but the one a fresh dual_value reads
        got = dual_value(tree, field, 1.0, t, 3, duals=duals)
        fresh = dual_value(tree, field, 1.0, t, 3)
        assert got.shift != {n: stale.shift[n] for n in tree.nodes_at(t)}
        assert (got.values, got.leaf_masses) == (fresh.values, fresh.leaf_masses)
    assert len(duals._sweeps) == 2
    # moved at the root instead, the windows to the horizon read the shift's sweep
    duals, field = shifted_context(tree, 7, {tree.root: 0.1})
    (stale,) = duals._sweeps.values()
    for t in (0, 1, 2):
        assert dual_value(tree, field, 1.0, t, 3, duals=duals).shift == {n: stale.shift[n] for n in tree.nodes_at(t)}
    assert list(duals._sweeps.values()) == [stale]


@pytest.mark.parametrize("offsets", [{}, {"r": 0.1}, {"leaf": 0.1}])
def test_shared_context_matches_per_window_rebuild(offsets):
    tree = random_tree(7, periods=3)
    offsets = {tree.leaves()[-1] if n == "leaf" else n: off for n, off in offsets.items()}
    duals, solved = shifted_context(tree, 7, {})
    windows = _window_pairs(tree)
    etas = [0.5, 1.0, 2.0]
    # one context serves the solved field, then the moved one
    for field in (solved, with_offsets(solved, offsets)):
        log_factor, rebuilt = oracles.window_programs_rebuilt(tree, field, windows, etas)
        for (t, T) in windows:
            primal = primal_value(tree, field, 0.0, t, T, duals=duals)
            assert primal.log_factor == log_factor[(t, T)]
            fresh = dual_value(tree, field, 1.0, t, T)
            for e in etas:
                got, want = dual_value(tree, field, 1.0, t, T, duals=duals).at(e), rebuilt[(t, T, e)]
                assert got.near_boundary == want.near_boundary
                if e == 1.0:
                    # the shared sweep is a fresh one, bit for bit, and
                    # within the joint program's bound
                    assert (got.values, got.leaf_masses) == (fresh.values, fresh.leaf_masses)
                    assert (got.kkt_residual, got.newton_iterations) == (fresh.kkt_residual, fresh.newton_iterations)
                    within_the_joint_bound(tree, field, got)
                    continue
                # read from the eta = 1 value, against the program at eta
                assert got.values.keys() == want.values.keys()
                for n, v in got.values.items():
                    assert abs(v - want.values[n]) <= 1e-10 * max(1.0, abs(v))
        if field is solved:
            # one sweep per window end, whatever the start and the eta
            assert sorted(T for T, _ in duals._sweeps) == sorted({T for _, T in windows})


def test_weak_duality_any_field():
    # u(xi) <= v(eta) + xi eta even for fields that are not self-generating
    for seed in (31, 32):
        tree = random_tree(seed)
        gamma, _ = replicable_gamma(tree, seed)
        rng = np.random.default_rng(seed)
        a = {nid: float(rng.uniform(-0.5, 0.5)) for nid in tree._dfs_order}
        field = ExponentialFieldParams(gamma=gamma, a_shift=a)
        xis = np.linspace(-2.0, 2.0, 7)
        etas = np.logspace(-1, 1, 7)
        for xi in xis:
            u = primal_value(tree, field, float(xi)).values[tree.root]
            for eta in etas:
                v = dual_value(tree, field, float(eta)).values[tree.root]
                assert v + float(xi) * float(eta) - u >= -1e-9


# -- exponential conditions ----------------------------------------------


def test_exponential_conditions_clean():
    tree = two_period_tree()
    field = solved_field(tree, seed=25)
    pairs = [(0, 1), (0, 2), (1, 2)]
    rep = check_exponential_conditions(tree, field, pairs)
    assert rep.all_passed, rep.to_text()
    assert rep["exp-condition-inverse-gamma-martingale"].value <= 1e-10
    assert rep["exp-condition-entropy-identity"].value <= 1e-8


def test_exponential_conditions_flag_perturbation():
    tree = two_period_tree()
    field = with_offsets(solved_field(tree, seed=26), {"r": 0.1})
    rep = check_exponential_conditions(tree, field, [(0, 2)])
    assert not rep.all_passed
    rec = rep["exp-condition-entropy-identity"]
    assert (rec.verdict, rec.worst_node) == (False, "r")
    assert rec.value == pytest.approx(0.1, abs=1e-7)
    # the 1/gamma martingale condition does not see shifts
    assert rep["exp-condition-inverse-gamma-martingale[t=0,T=2]"].verdict


def test_exponential_conditions_2b_example():
    # unique martingale measure is (1/2, 1/2); leaves 1/gamma = (2.5, 1.5)
    # average to 2.0, so root 1/gamma = 2 passes and 4/3 fails by 2/3, or
    # by 1/2 in units of 4/3
    tree = binomial_tree(p_up=0.5)
    zero = const_map(tree, 0.0)
    ok_gamma = {"r": 0.5, "u": 1.0 / 2.5, "d": 1.0 / 1.5}
    rep = check_exponential_conditions(tree, ExponentialFieldParams(ok_gamma, zero), [(0, 1)])
    assert rep["exp-condition-inverse-gamma-martingale[t=0,T=1]"].verdict
    bad_gamma = {"r": 0.75, "u": 1.0 / 2.5, "d": 1.0 / 1.5}
    rep = check_exponential_conditions(tree, ExponentialFieldParams(bad_gamma, zero), [(0, 1)])
    rec = rep["exp-condition-inverse-gamma-martingale[t=0,T=1]"]
    assert not rec.verdict
    assert rec.value == pytest.approx(0.5, abs=1e-9)

def test_exponential_conditions_without_windows_pass_at_zero():
    tree = two_period_tree()
    field = solved_field(tree, seed=25)
    rep = check_exponential_conditions(tree, field, [])
    assert len(rep) == 2
    for tag in ("exp-condition-inverse-gamma-martingale", "exp-condition-entropy-identity"):
        rec = rep[tag]
        assert (rec.verdict, rec.value, rec.target, rec.worst_node) == (True, 0.0, 0.0, None)
        assert rec.tolerance == 1e-6 and not rec.details


# -- forward supermartingale ---------------------------------------------


def test_forward_supermartingale_clean():
    tree = two_period_tree()
    field = solved_field(tree, seed=27)
    pairs = [(0, 1), (0, 2), (1, 2)]
    rep = check_forward_supermartingale(tree, field, pairs)
    assert rep.all_passed, rep.to_text()
    assert len(rep) == len(pairs) + 1
    assert rep["forward-martingale-at-optimum"].value <= 1e-8


def test_forward_supermartingale_perturbation():
    tree = two_period_tree()
    field = with_offsets(solved_field(tree, seed=28), {"r": 0.1})
    rep = check_forward_supermartingale(tree, field, [(0, 2)])
    # the inequality direction still holds; only the equality at the
    # entropy minimizer breaks, by exactly the perturbation
    assert rep["forward-supermartingale[t=0,T=2]"].verdict
    rec = rep["forward-martingale-at-optimum"]
    assert (rec.verdict, rec.worst_node) == (False, "r")
    assert rec.value == pytest.approx(0.1, abs=1e-7)


def test_forward_supermartingale_guards(monkeypatch):
    tree = two_period_tree()
    field = solved_field(tree, seed=29)
    non2b = {"r": 0.5, "u": 1.0 / 2.5, "m": 1.0 / 2.2, "d": 1.0 / 1.5}
    unreplicated = ExponentialFieldParams(non2b, dict.fromkeys(non2b, 0.0))
    with pytest.raises(ReplicationError, match="forward measures need a replicable 1/gamma"):
        check_forward_supermartingale(trinomial_tree(), unreplicated, [(0, 1)])
    # the field type and every window are refused before any pass or sweep
    _no_pass(monkeypatch)
    with pytest.raises(TypeError, match="ExponentialFieldParams"):
        check_forward_supermartingale(tree, field.gamma, [(0, 2)])
    for pairs in ([(1, 1)], [(0, 2), (1, 1)], [(0, 3)]):
        with pytest.raises(ValueError, match="nondegenerate"):
            check_forward_supermartingale(tree, field, pairs)
    # a gamma that is not positive, or a shift or gamma that is not finite,
    # at a window node or outside the window, is refused where the field
    # is built, not read into a passing report
    bad = dict(field.gamma)
    bad["a1"] = -1.0
    with pytest.raises(ValueError, match="positive"):
        ExponentialFieldParams(bad, field.a_shift)
    for node in ("a", "a1", "r"):
        nan_shift = dict(field.a_shift)
        nan_shift[node] = math.nan
        with pytest.raises(ValueError, match=f"a_shift must be finite at node {node!r}"):
            ExponentialFieldParams(field.gamma, nan_shift)
    inf_gamma = dict(field.gamma)
    inf_gamma["a1"] = math.inf
    with pytest.raises(ValueError, match="gamma must be positive and finite at node 'a1'"):
        ExponentialFieldParams(inf_gamma, field.a_shift)


# -- per-node recursion against enumeration of the product measures --------


def _window_pairs(tree):
    return [(t, T) for t in range(tree.horizon) for T in range(t + 1, tree.horizon + 1)]


def _oracle_cases():
    """The criterion-3 suite (random_tree(seed) for seed < 50, solved field)
    and three four-period trees whose windows have few enough product
    measures (at most a few hundred each) for the oracle to list quickly."""
    for seed in range(50):
        tree = random_tree(seed)
        yield tree, solved_field(tree, seed)
    for seed in (4, 9, 11):
        tree = random_tree(seed, periods=4)
        yield tree, solved_field(tree, seed)


# gaps of a field whose 1/gamma keeps its mean: a few units in the last place
ROUNDING = 1e-12


def _inverse_gamma_cases():
    """``_oracle_cases`` with the solved gamma and one drawn at random,
    which no portfolio replicates (the draws of the enumeration test)."""
    rng = np.random.default_rng(4)
    for tree, solved in _oracle_cases():
        drawn = {n: float(rng.uniform(0.5, 2.0)) for n in tree._dfs_order}
        for gamma in (solved.gamma, drawn):
            yield tree, ExponentialFieldParams(gamma, solved.a_shift)


def test_inverse_gamma_records_read_the_largest_one_step_gap():
    # each window's record against the largest one-step gap over the nodes
    # of its levels t..T-1, built on numpy vertices; a failing record names
    # a node attaining it
    for tree, field in _inverse_gamma_cases():
        want = oracles.one_step_inverse_gamma_gaps(tree, field.gamma)
        rep = check_exponential_conditions(tree, field, _window_pairs(tree))
        for t, T in _window_pairs(tree):
            rec = rep[f"exp-condition-inverse-gamma-martingale[t={t},T={T}]"]
            worst = max(want[n] for s in range(t, T) for n in tree.nodes_at(s))
            assert rec.value == pytest.approx(worst, rel=1e-12, abs=1e-13), (t, T)
            if not rec.verdict:
                assert want[rec.worst_node] == pytest.approx(worst, rel=1e-12), (t, T)


def test_one_step_inverse_gamma_records_keep_their_bits():
    # on a window of one step the record is the multi-step range's, as the
    # package took it before it read one-step gaps, bit for bit: the same
    # polytope entry and the same sums, in the same order
    for tree, field in _inverse_gamma_cases():
        gamma = field.gamma
        rep = check_exponential_conditions(tree, field, [(t, t + 1) for t in range(tree.horizon)])
        for t in range(tree.horizon):
            walk = oracles.vertex_recursion(
                tree, t, t + 1, lambda w: (1.0 / gamma[w],) * 2, oracles.inverse_gamma_step, _window_vertices(tree, t + 1)
            )
            gaps = {}
            for n, values in walk.items():
                hi, lo = values[n]
                gaps[n] = gamma[n] * max(hi - 1.0 / gamma[n], 1.0 / gamma[n] - lo)
            worst = max(gaps.values())
            rec = rep[f"exp-condition-inverse-gamma-martingale[t={t},T={t + 1}]"]
            assert rec.value == worst, t
            assert rec.worst_node == (None if rec.verdict else next(n for n, g in gaps.items() if g == worst))


def test_inverse_gamma_records_refuse_a_node_without_an_equivalent_measure(monkeypatch):
    # a window with such a node at levels t..T-1 is refused before any gap
    # is read, naming the first in DFS order from each start, whether or
    # not some measure from the start reaches it (u of starved_tree), as
    # the sweep refuses it; any other window reads its records
    def read(*args):
        raise AssertionError("a one-step gap was read")

    for tree in (starved_tree(), mid_arbitrage_tree()):
        failing = check_nflvr(tree)[1]["nflvr"].details["failing_nodes"]
        for gamma in (const_map(tree, 1.0), replicable_gamma(tree, 5)[0]):
            field = ExponentialFieldParams(gamma, const_map(tree, 0.0))
            for t, T in _window_pairs(tree):
                window = [m for start in tree.nodes_at(t) for m in tree.window_interior(start, T)]
                bad = [m for m in window if m in failing]
                if not bad:
                    rep = check_exponential_conditions(tree, field, [(t, T)])
                    assert f"exp-condition-inverse-gamma-martingale[t={t},T={T}]" in rep
                    continue
                with monkeypatch.context() as m:
                    m.setattr(tree_verifier, "_one_step_gap", read)
                    assert _refusal(check_exponential_conditions, tree, field, [(t, T)]) == (
                        ArbitrageError,
                        f"node {bad[0]!r}: no equivalent one-step martingale measure; dual program has no interior point",
                    ), (t, T)


def test_forward_checks_match_enumeration_oracle():
    tol = 1e-6
    rng = np.random.default_rng(4)
    binomial = missed = 0
    for tree, solved in _oracle_cases():
        pairs = _window_pairs(tree)
        # a gamma drawn at random is not replicable: wide one-step gaps
        drawn = {n: float(rng.uniform(0.5, 2.0)) for n in tree._dfs_order}
        for gamma in (solved.gamma, drawn):
            field = ExponentialFieldParams(gamma, solved.a_shift)
            duals = WindowDuals(tree, gamma)
            rep_e = check_exponential_conditions(tree, field, pairs, tol=tol, duals=duals)
            for (t, T) in pairs:
                want, _ = oracles.inverse_gamma_gap_by_enumeration(tree, gamma, t, T)
                rec = rep_e[f"exp-condition-inverse-gamma-martingale[t={t},T={T}]"]
                # the window's gap over every product measure and its
                # largest one-step gap vanish together, or both fail
                assert max(rec.value, want) <= ROUNDING or min(rec.value, want) > tol, (t, T)
                assert rec.verdict == (want <= tol)
                if T == t + 1:
                    assert rec.value == pytest.approx(want, abs=ROUNDING)
                # and the one-step gaps bound the window's (tree_verifier's docstring)
                gaps = duals.inverse_gamma_gaps(t, T)
                bound = max(
                    gamma[n] * sum(
                        max(gaps[k] / gamma[k] for k in tree.window_interior(n, T) if tree.time_of(k) == s)
                        for s in range(t, T)
                    )
                    for n in tree.nodes_at(t)
                )
                assert want <= bound + ROUNDING, (t, T)
        for (t, T) in pairs:
            # the bumps below move a, not gamma: one precondition run covers all
            oracles.forward_precondition_by_enumeration(tree, solved.gamma, t, T)
        only_binomial = all(len(tree.children(n)) <= 2 for n in tree._dfs_order)
        binomial += only_binomial
        step = oracles.worst_vertex_drift_step(tree, solved.gamma)
        lowered = with_offsets(solved, {"r": -0.1})
        for field in (solved, with_offsets(solved, {"r": 0.1}), lowered):
            rep_f = check_forward_supermartingale(tree, field, pairs, tol=tol)
            a = field.a_shift
            for T in range(1, tree.horizon + 1):
                best = oracles.worst_forward_drift_by_golden_section(tree, field.gamma, a, T)
                table = _window_vertices(tree, T)
                for t in range(T):
                    rec = rep_f[f"forward-supermartingale[t={t},T={T}]"]
                    # the worst product vertex, by the walk per start and (but
                    # for the lowered twin, to save time) by listing every
                    # product measure: a lower bound, exact where every
                    # polytope is a point
                    walk = oracles.vertex_recursion(tree, t, T, lambda w: a[w], step, table)
                    vertex = max(d - a[m] for values in walk.values() for m, d in values.items())
                    if field is not lowered:
                        listed, _ = oracles.worst_forward_drift_by_enumeration(tree, field.gamma, a, t, T)
                        assert vertex == pytest.approx(listed, abs=1e-12), (tree.horizon, t, T)
                    assert rec.value >= vertex - 1e-12, (tree.horizon, t, T)
                    if only_binomial:
                        assert rec.value == pytest.approx(vertex, abs=1e-12), (tree.horizon, t, T)
                    # the worst over every measure, searched over each polytope
                    want = max(best[m] - a[m] for start in tree.nodes_at(t) for m in tree.window_interior(start, T))
                    assert abs(rec.value - want) <= 1e-10, (tree.horizon, t, T)
                    assert rec.verdict == (want <= tol)
                    missed += rec.verdict != (vertex <= tol)
    # the suite has binomial-only trees, and windows whose violation lies
    # inside a polytope, where the worst vertex passes
    assert binomial > 0 and missed > 0


def test_lopsided_root_records_match_enumeration_oracles():
    # root moves 1 and -1e-13: a vertex tolerance of 1e-12 gave u no mass
    # and refused the tree as arbitrage. With exact vertices the
    # inverse-gamma and forward records agree with the oracles that list
    # every product measure. Every node has two children, so each one-step
    # polytope is a point and the forward records are the listed worst
    tol = 1e-6
    tree = EventTree.from_dict(lopsided_scenario(1.0, -1e-13)["tree"])
    assert check_nflvr(tree)[0]
    solved = solved_field(tree, 3)
    pairs = _window_pairs(tree)
    rng = np.random.default_rng(13)
    drawn = {n: float(rng.uniform(0.5, 2.0)) for n in tree._dfs_order}
    for gamma in (solved.gamma, drawn):
        rep = check_exponential_conditions(tree, ExponentialFieldParams(gamma, solved.a_shift), pairs, tol=tol)
        for t, T in pairs:
            want, _ = oracles.inverse_gamma_gap_by_enumeration(tree, gamma, t, T)
            rec = rep[f"exp-condition-inverse-gamma-martingale[t={t},T={T}]"]
            assert max(rec.value, want) <= ROUNDING or min(rec.value, want) > tol, (t, T)
            assert rec.verdict == (want <= tol)
            if T == t + 1:
                assert rec.value == pytest.approx(want, abs=ROUNDING)
    for field in (solved, with_offsets(solved, {"r": 0.1}), with_offsets(solved, {"r": -0.1})):
        rep = check_forward_supermartingale(tree, field, pairs, tol=tol)
        for t, T in pairs:
            want, _ = oracles.worst_forward_drift_by_enumeration(tree, field.gamma, field.a_shift, t, T)
            rec = rep[f"forward-supermartingale[t={t},T={T}]"]
            assert rec.value == pytest.approx(want, abs=1e-12), (t, T)
            assert rec.verdict == (want <= tol)


def test_forward_supermartingale_finds_a_violation_inside_the_polytope():
    # the root of suite_shaped_tree has three children, so its one-step
    # polytope is a segment. Lowering the solved shift there by 0.1 lets
    # the shifted log density drift up by 0.1 under some measure inside
    # that segment, and under neither of its two vertices
    tree = suite_shaped_tree(5)
    field = with_offsets(solved_field(tree, 5), {tree.root: -0.1})
    assert len(tree.children(tree.root)) == 3
    rep = check_forward_supermartingale(tree, field, _window_pairs(tree))
    for T in (1, 2):
        rec = rep[f"forward-supermartingale[t=0,T={T}]"]
        assert not rec.verdict
        assert abs(rec.value - 0.1) <= 1e-9
        assert rec.worst_node == tree.root
    assert rep["forward-supermartingale[t=1,T=2]"].verdict
    step = oracles.worst_vertex_drift_step(tree, field.gamma)
    walk = oracles.vertex_recursion(tree, 0, 1, lambda w: field.a_shift[w], step, _window_vertices(tree, 1))
    assert walk[tree.root][tree.root] - field.a_shift[tree.root] < 0.0


@pytest.mark.parametrize("bumped", [False, True], ids=["solved", "root-bumped"])
@pytest.mark.parametrize("periods", [2, 3, 4, 5])
def test_forward_optimum_matches_density_oracle(periods, bumped):
    # the gaps the forward equality reads, the sweep's |shift - a| per
    # node, against those read from the whole-tree density process of the
    # entropy minimiser's forward reweighting, window by window; and the
    # roll-up against the largest of the oracle's gaps
    tree = random_tree(7, periods=periods)
    field = solved_field(tree, 7)
    if bumped:
        field = with_offsets(field, {tree.root: 0.1})
    duals = WindowDuals(tree, field.gamma)
    rep = check_forward_supermartingale(tree, field, _window_pairs(tree), duals=duals)
    want, want_node = 0.0, None
    for (t, T) in _window_pairs(tree):
        res = dual_value(tree, field, 1.0, t, T, duals=duals)
        shift = duals.sweep(field.a_shift, T).extend(t).shift
        for start in tree.nodes_at(t):
            q = measure_from_leaf_masses(tree, start, T, res.leaf_masses[start])
            gaps = oracles.forward_gaps_by_density(tree, field.gamma, field.a_shift, q, start, T)
            for m, gap in gaps.items():
                assert abs(abs(shift[m] - field.a_shift[m]) - abs(gap)) <= 1e-12, (t, T, m)
                if abs(gap) > want:
                    want, want_node = abs(gap), m
    rec = rep["forward-martingale-at-optimum"]
    assert abs(rec.value - want) <= 1e-12
    # only a failing record names its worst node
    assert rec.worst_node == (want_node if want > 1e-6 else None)


def _sweep_fields(tree, seed, rng):
    """The solved field, its root bumped by 0.1, and a shift drawn at
    random on the same gamma."""
    solved = solved_field(tree, seed)
    drawn = {n: float(rng.uniform(-1.0, 1.0)) for n in tree._dfs_order}
    return [solved, with_offsets(solved, {tree.root: 0.1}), ExponentialFieldParams(solved.gamma, drawn)]


@pytest.mark.parametrize("periods", [2, 3, 4, 5])
def test_sweep_drift_matches_the_leaf_mass_oracle(periods):
    # the drift at the entropy minimiser is the sweep's implied shift, one
    # value per node, against the recursion read from the minimiser's
    # reweighted leaf masses per window and start: solved, root-bumped and
    # random shifts, every window; the minimiser reaches every window node
    rng = np.random.default_rng(periods)
    for seed in (3, 7):
        tree = random_tree(seed, periods=periods)
        for field in _sweep_fields(tree, seed, rng):
            duals = WindowDuals(tree, field.gamma)
            for t, T in _window_pairs(tree):
                res = dual_value(tree, field, 1.0, t, T, duals=duals)
                sweep = duals.sweep(field.a_shift, T).extend(t)
                for start in tree.nodes_at(t):
                    want = oracles.optimum_gaps(
                        tree, field.gamma, field.a_shift, start, T, res.leaf_masses[start]
                    )
                    assert list(want) == list(tree.window_interior(start, T))
                    for m, gap in want.items():
                        assert abs(abs(sweep.shift[m] - field.a_shift[m]) - gap) <= 1e-12, (t, T, m)


def _drift_rounding_bound(tree, gamma, sweep):
    """{node: bound on |D - shift|} over a sweep's solved nodes, D the drift
    recursion (``oracles.sweep_drift``). At a node of K children with
    weights w_k = q_k gamma_n / gamma_k, both sides are K-term sums of
    w_k (s_k - log(w_k / p_k)) (``tree_verifier``'s module docstring), each
    within 2 (K + 1) u of the magnitude S = 1 + max |s_k| +
    sum_k w_k (|s_k| + |log(w_k / p_k)|), u the unit roundoff. The drift
    normalises the weights by their sum, where the program's shift reads
    them as summing to 1, which moves the two apart by at most
    |sum w - 1| S. A child's error enters its parent's value through a
    convex combination, so the bounds add along paths."""
    u = 2.0**-53
    bound = dict.fromkeys(tree.nodes_at(sweep.T), 0.0)
    for s in range(sweep.T - 1, sweep.level - 1, -1):
        for n in tree.nodes_at(s):
            pairs = [(k, x * gamma[n] / gamma[k]) for k, x in sweep.q[n]]
            terms = sum(
                w * (abs(sweep.shift[k]) + abs(math.log(w / tree.branch_to(k).prob)))
                for k, w in pairs
                if w > 0.0
            )
            magnitude = 1.0 + max(abs(sweep.shift[k]) for k, _ in pairs) + terms
            residual = abs(sum(w for _, w in pairs) - 1.0)
            local = (4.0 * (len(pairs) + 1) * u + residual) * magnitude
            bound[n] = local + max(bound[k] for k, _ in pairs)
    return bound


@pytest.mark.parametrize("periods", [2, 3, 4, 5])
def test_the_drift_at_the_minimiser_is_the_sweeps_implied_shift(periods):
    # the forward drift recursion at the sweep's one-step minimisers and
    # the shift each program implies are one value (the module docstring),
    # for every field: solved, root-bumped and random shifts, and gamma
    # scaled by 1e300 and 1e-300, at every node of the sweep to each window
    # end, so of every window
    rng = np.random.default_rng(100 + periods)
    for seed in (3, 7):
        tree = random_tree(seed, periods=periods)
        fields = _sweep_fields(tree, seed, rng)
        for scale in (1e300, 1e-300):
            fields += [ExponentialFieldParams({n: g * scale for n, g in f.gamma.items()}, f.a_shift) for f in fields[:3]]
        for field in fields:
            duals = WindowDuals(tree, field.gamma)
            for T in range(1, tree.horizon + 1):
                sweep = duals.sweep(field.a_shift, T).extend(0)
                drift = oracles.sweep_drift(tree, sweep)
                bound = _drift_rounding_bound(tree, field.gamma, sweep)
                assert drift.keys() == sweep.shift.keys()
                for n, d in drift.items():
                    assert abs(d - sweep.shift[n]) <= bound[n], (T, n, d - sweep.shift[n], bound[n])


@pytest.mark.parametrize("periods", [2, 3, 4])
def test_forward_optimum_record_reads_the_sweeps_shift(periods):
    # the forward-martingale-at-optimum value is, bit for bit, the largest
    # |shift - a| over the windows' nodes, start by start in DFS order, with
    # the shift of a fresh sweep to each T; a failing record names the first
    # node attaining it in the first window that does. On every window, and
    # on the windows from the root only, which skip the starts after 0
    rng = np.random.default_rng(200 + periods)
    for seed in (3, 7):
        tree = random_tree(seed, periods=periods)
        for field in _sweep_fields(tree, seed, rng):
            for pairs in (_window_pairs(tree), [(0, T) for T in range(1, periods + 1)]):
                rep = check_forward_supermartingale(tree, field, pairs)
                duals = WindowDuals(tree, field.gamma)
                windows = []
                for t, T in pairs:
                    shift = duals.sweep(field.a_shift, T).extend(t).shift
                    windows.append(
                        {
                            m: abs(shift[m] - field.a_shift[m])
                            for start in tree.nodes_at(t)
                            for m in tree.window_interior(start, T)
                        }
                    )
                worst = max(max(gaps.values()) for gaps in windows)
                rec = rep["forward-martingale-at-optimum"]
                assert rec.value == worst, (pairs, rec.value - worst)
                assert rec.verdict == (worst <= 1e-6)
                gaps = next(gaps for gaps in windows if max(gaps.values()) == worst)
                want_node = None if rec.verdict else next(m for m, g in gaps.items() if g == worst)
                assert rec.worst_node == want_node, pairs


def test_forward_optimum_reads_the_levels_the_windows_skip():
    # with the window [0, 2] alone, the entropy identity and the dual
    # self-generation read the root, whose implied shift a moved level-1
    # shift does not reach; the forward equality reads every node of levels
    # 0..1, so it alone sees the move
    tree = two_period_tree()
    field = with_offsets(solved_field(tree, seed=28), {"a": 0.1})
    pairs = [(0, 2)]
    assert check_exponential_conditions(tree, field, pairs).all_passed
    assert check_self_generation_dual(tree, field, pairs).all_passed
    rec = check_forward_supermartingale(tree, field, pairs)["forward-martingale-at-optimum"]
    assert (rec.verdict, rec.worst_node) == (False, "a")
    assert rec.value == pytest.approx(0.1, abs=1e-7)


def test_forward_drift_once_per_node_and_window_end(monkeypatch):
    # a solved scenario on random_tree(3, periods=4), every window: after
    # the primal check on the same context, the forward check solves no
    # factor, as it reads the primal's log C; the root-perturbed twin
    # evaluates nothing more
    tree = random_tree(3, periods=4)
    solved = solved_field(tree, 3)
    factors = []
    original_factor = tree_verifier.minimize_exp_sum

    def counted_factor(*args):
        factors.append(1)
        return original_factor(*args)

    monkeypatch.setattr(tree_verifier, "minimize_exp_sum", counted_factor)
    duals = WindowDuals(tree, solved.gamma)
    pairs = _window_pairs(tree)
    sweep_nodes = sum(len(tree.nodes_at(s)) for T in range(1, 5) for s in range(T))
    for field in (solved, with_offsets(solved, {tree.root: 0.1})):
        check_self_generation_primal(tree, field, pairs, duals=duals)
        solved_factors = len(factors)
        check_forward_supermartingale(tree, field, pairs, duals=duals)
        assert len(factors) == solved_factors == sweep_nodes


def _refusal(fn, *args):
    try:
        fn(*args)
    except (ValueError, ArbitrageError) as exc:
        return type(exc), str(exc)
    return None


def _no_pass(monkeypatch):
    """Make a one-step gap, a sweep or the factor recursion fail the test."""

    def ran(*args):
        raise AssertionError("a one-step gap, a sweep or the factor recursion ran")

    monkeypatch.setattr(tree_verifier, "_one_step_gap", ran)
    monkeypatch.setattr(tree_verifier, "_Sweep", ran)
    monkeypatch.setattr(tree_verifier, "minimize_exp_sum", ran)


def _forward_replication_refusal(tree, gamma):
    rep = replicate_inverse_gamma(tree, gamma)
    return (
        f"forward measures need a replicable 1/gamma: no portfolio replicates 1/gamma "
        f"at node {rep.failed_node!r} (residual {rep.residual:.3g})"
    )


def test_forward_precondition_refusal_matches_enumeration_oracle(monkeypatch):
    # 1/gamma moved at one node strictly inside the tree. The enumeration
    # oracle refuses the windows where some product measure charges a node
    # that misses the inverse-gamma mean; the check refuses every window,
    # since no portfolio replicates 1/gamma at the moved node's parent,
    # before any vertex pass or sweep runs
    cases = list(_oracle_cases())
    _no_pass(monkeypatch)
    refused = kept = 0
    for tree, solved in cases:
        node = tree.nodes_at(tree.horizon // 2)[-1]
        gamma = dict(solved.gamma)
        gamma[node] = 1.0 / (1.0 / gamma[node] + 0.05)
        assert replicate_inverse_gamma(tree, gamma).failed_node == tree.parent[node]
        want = _forward_replication_refusal(tree, gamma)
        field = ExponentialFieldParams(gamma, solved.a_shift)
        for (t, T) in _window_pairs(tree):
            oracle = _refusal(oracles.forward_precondition_by_enumeration, tree, gamma, t, T)
            assert _refusal(check_forward_supermartingale, tree, field, [(t, T)]) == (
                ReplicationError, want
            ), (t, T)
            if oracle is None:
                kept += 1
            else:
                assert oracle[0] is ReplicationError
                refused += 1
    assert refused > 100 and kept > 0


def test_forward_precondition_skips_uncharged_nodes(monkeypatch):
    # no martingale measure reaches u, so the enumeration oracle does not
    # refuse its broken 1/gamma mean on [0, 2]; the check refuses the gamma
    # on every window, since no portfolio replicates 1/gamma at u, before
    # any vertex pass or sweep. With a replicable gamma the sweep refuses
    # the tree for its arbitrage at the root.
    tree = starved_tree()
    inv = {"u1": 1.0, "u2": 2.0, "u": 1.2, "m1": 0.8, "m2": 1.2, "m": 0.9, "r": 0.9}
    gamma = {n: 1.0 / x for n, x in inv.items()}
    a = const_map(tree, 0.0)
    assert _refusal(oracles.forward_precondition_by_enumeration, tree, gamma, 0, 2) is None
    want = _refusal(oracles.forward_precondition_by_enumeration, tree, gamma, 1, 2)
    assert want is not None and "node 'u'" in want[1]
    with pytest.raises(ArbitrageError, match="node 'r': .* no interior point"):
        check_forward_supermartingale(tree, ExponentialFieldParams(const_map(tree, 1.0), a), [(0, 2)])
    _no_pass(monkeypatch)
    assert replicate_inverse_gamma(tree, gamma).failed_node == "u"
    for t, T in _window_pairs(tree):
        got = _refusal(check_forward_supermartingale, tree, ExponentialFieldParams(gamma, a), [(t, T)])
        assert got == (ReplicationError, _forward_replication_refusal(tree, gamma))


def test_forward_checks_have_no_product_measure_cap():
    tree = random_tree(7, periods=6)
    with pytest.raises(ValueError, match="too many vertices"):
        enumerate_product_measures(tree, 0, 6)
    field = solved_field(tree, 7)
    rep = check_exponential_conditions(tree, field, [(0, 6)])
    assert rep.all_passed, rep.to_text()
    rep = check_forward_supermartingale(tree, field, [(0, 6)])
    assert rep.all_passed, rep.to_text()
    bumped = with_offsets(field, {"r": 0.1})
    rep = check_forward_supermartingale(tree, bumped, [(0, 6)])
    assert rep["forward-martingale-at-optimum"].value == pytest.approx(0.1, abs=1e-7)


def test_forward_checks_refuse_infeasible_start():
    # one-period tree whose increments are all positive: no martingale measure
    tree = EventTree.from_dict(
        {
            "horizon": 1,
            "nodes": [
                {
                    "id": "r",
                    "time": 0,
                    "branches": [
                        {"child": "u", "prob": 0.5, "dprice": 1.0},
                        {"child": "d", "prob": 0.5, "dprice": 0.5},
                    ],
                },
                {"id": "u", "time": 1, "branches": []},
                {"id": "d", "time": 1, "branches": []},
            ],
        }
    )
    gamma, a = const_map(tree, 1.0), const_map(tree, 0.0)
    assert _refusal(oracles.inverse_gamma_gap_by_enumeration, tree, gamma, 0, 1) == (
        ArbitrageError,
        "no martingale measure below node 'r'",
    )
    # both checks refuse the node as the sweep does: the conditions before
    # any one-step gap is read, the forward check before its factor is
    want = (ArbitrageError, "node 'r': no equivalent one-step martingale measure; dual program has no interior point")
    for check in (check_exponential_conditions, check_forward_supermartingale):
        assert _refusal(check, tree, ExponentialFieldParams(gamma, a), [(0, 1)]) == want


# -- grid reads as arrays, against the per-point oracles ------------------

# eta grid points at which numpy 2.4's log and math.log differ in the last
# bit on x86-64 (at the first two, y log y - y differs too), and 0
LOG_SPLIT_ETAS = [1.235332518347858, 8.70834843767571, 0.9908371028420025]
ORACLE_ETAS = [0.0, 0.5, 1.0, *LOG_SPLIT_ETAS]
# 1 / 0.8094986452209698 is such a point as well
LOG_SPLIT_GAMMA = 0.8094986452209698


def _constant_gamma_field(tree, g):
    gamma = const_map(tree, g)
    terminal = {w: 0.1 * k for k, w in enumerate(tree.leaves())}
    return ExponentialFieldParams(gamma, solve_entropy_shift(tree, gamma, terminal))


def _grid_read_cases():
    two = two_period_tree()
    suite = suite_shaped_tree(5)
    deep = random_tree(3, periods=3)
    wide = random_tree(4, periods=2)
    solved = {
        "two-period": (two, solved_field(two, seed=31)),
        "suite-shaped": (suite, solved_field(suite, seed=5)),
        "gamma0-one": (deep, solved_field(deep, 3, gamma0=1.0)),
        "log-split-gamma": (wide, _constant_gamma_field(wide, LOG_SPLIT_GAMMA)),
        "tiny-gamma": (two, _constant_gamma_field(two, 1e-300)),
    }
    for name, (tree, field) in solved.items():
        yield pytest.param(tree, field, id=f"{name}-solved")
        yield pytest.param(tree, with_offsets(field, {tree.root: 0.1}), id=f"{name}-root-bumped")


def _records_within(got, want, bound):
    """The records ``got`` equal ``want`` but for their values, which are
    within ``bound`` of each other."""
    assert [r.check_tag for r in got] == [r.check_tag for r in want]
    for r, w in zip(got, want):
        assert replace(r, value=w.value) == w, r.check_tag
        assert abs(r.value - w.value) <= bound, r.check_tag


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tree, field", list(_grid_read_cases()))
def test_grid_reads_match_the_per_point_oracles(tree, field):
    # every window, one start (t = 0) and several. The shift reads against
    # the oracles' read of the window's eta = 1 value v = DualResult.entropy,
    # gamma (h(1/gamma) - v), within its rounding. In shift units v is
    # gamma v = -1 - a - log gamma, rounded four times (log, sum, difference,
    # quotient) within 4 u S, with S = 1 + |a| + |log gamma|;
    # gamma h(1/gamma) = -log gamma - 1 is rounded five times (reciprocal,
    # log, product, difference, and the reciprocal moving the log) within
    # 5 u S; their difference, a in size, and the product by gamma round
    # twice more, 2 u S. So each read is within 11 u S of the sweep's
    # shift, and so is each gap and each record's largest gap; S takes the
    # field's largest |a| plus the root offset of 0.1. The entropy
    # identity's oracle reads each start's implied shift so, against the
    # sweep's shift table node by node, and its roll-up against the
    # check's. The conjugacy reads are the same reads of v per point, bit
    # for bit
    u = 2.0**-53
    size = 1.1 + max(abs(a) for a in field.a_shift.values()) + max(abs(math.log(g)) for g in field.gamma.values())
    bound = 11 * u * size
    pairs = _window_pairs(tree)
    duals = WindowDuals(tree, field.gamma)
    terminal = {w: field.a_shift[w] for w in tree.leaves()}
    got = solve_entropy_shift(tree, field.gamma, terminal, duals=duals)
    want = oracles.entropy_shift_per_node(tree, field.gamma, terminal, duals)
    assert list(got) == list(want)
    assert all(abs(got[n] - want[n]) <= bound for n in got)
    got = check_self_generation_dual(tree, field, pairs, duals=duals)
    want = oracles.self_generation_dual_per_point(tree, field, pairs, duals)
    _records_within(got.records(), want.records(), bound)
    for t, T in pairs:
        shift = duals.sweep(field.a_shift, T).extend(t).shift
        for n, implied in oracles.implied_shift_per_start(tree, field, t, T, duals).items():
            assert abs(shift[n] - implied) <= bound, (t, T, n)
    got = check_exponential_conditions(tree, field, pairs, duals=duals)
    want = oracles.entropy_identity_per_node(tree, field.gamma, field.a_shift, pairs, duals)
    _records_within([got["exp-condition-entropy-identity"]], [want], bound)
    for t, T in pairs:
        args = (tree, field, t, T, [-1.0, 0.0, 2.0], ORACLE_ETAS[1:])
        try:
            want = oracles.value_conjugacy_per_point(*args, duals)
        except ForwardPerfError as exc:
            # a primal factor recursion that cannot bracket (gamma 1e-300)
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                check_value_conjugacy(*args, duals=duals)
            continue
        got = check_value_conjugacy(*args, duals=duals)
        assert repr(got.records()) == repr(want.records())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("eta", [1e307, 1e308, 5e-324])
def test_dual_reads_refuse_an_eta_outside_the_float_range(eta):
    # at 1e307 and 1e308 the read and the closed-form dual overflow, so
    # that their gap is NaN; at 5e-324 gamma / eta does. The conjugacy
    # check's dual side refuses such an eta, naming it and the start, where
    # the gap is NaN, and reads 5e-324, where it is not
    tree = two_period_tree()
    field = solved_field(tree, seed=31)
    g = field.gamma["r"]
    v = dual_value(tree, field, 1.0, 0, 2).at(eta).values["r"]
    assert math.isnan(v - conjugate_exponential(g, field.a_shift["r"], eta)) or g / eta == math.inf
    message = re.escape(f"eta={eta:g} at node 'r': ") + ".* outside the float range"
    if eta > 1.0:
        with pytest.raises(WealthRangeError, match=message):
            check_value_conjugacy(tree, field, 0, 2, [0.0], [1.0, eta])
    else:
        assert check_value_conjugacy(tree, field, 0, 2, [0.0], [1.0, eta]).all_passed
