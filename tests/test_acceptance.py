"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line,
and enforces its runtime budget where one applies. Oracles come from
tests/oracles.py and never share code with the package's solvers.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

import forwardperf.cli as cli
import oracles
from forwardperf.fields import conjugate_exponential
from forwardperf.cli import run_ito_scenario
from forwardperf.ito_engine import CoefficientSpec, simulate_paths
from forwardperf.mc_verifier import check_inverse_gamma_mean_mc, mc_mean_test
from forwardperf.tree_market import check_nflvr, measure_from_leaf_masses
from forwardperf.tree_verifier import (
    check_exponential_conditions,
    check_forward_supermartingale,
    check_self_generation_dual,
    check_self_generation_primal,
    dual_value,
    primal_value,
    solve_entropy_shift,
)
from treegen import (
    binomial_tree,
    constant_field,
    random_tree,
    solved_field,
    trinomial_tree,
    with_offsets,
)

MC_SEED = 20250825
N_SUITE = 50


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {label}: FAIL", flush=True)
        raise
    print(f"[criterion {num}] {label}: PASS", flush=True)


def budget(num, elapsed, limit):
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, budget {limit:g}s"


# -- shared fixtures (built lazily so the cost lands inside the budgets) --

_SUITE: list = []
_MC: dict = {}


def randomized_suite():
    if not _SUITE:
        for seed in range(N_SUITE):
            tree = random_tree(seed)
            ok, _ = check_nflvr(tree)
            assert ok, f"suite tree {seed} admits arbitrage"
            _SUITE.append((tree, solved_field(tree, seed)))
    return _SUITE


def _mc_doc():
    return {
        "schema_version": 1,
        "kind": "ito-verify",
        "model": {"horizon": 1.0, "theta": 0.5, "phi": 0.3, "rho": 0.1},
        "gamma0": 1.0,
        "a0": 0.0,
        "n_steps": 64,
        "n_paths": 100_000,
        "seed": MC_SEED,
        "eta_list": [1.0, 2.0],
        "time_indices": [16, 32, 64],
        "nu": {"0": 0.0, "0.7": 0.7},
        "checks": ["dual-martingale-at-optimum", "inverse-gamma-mean", "forward-drift"],
    }


def mc_base_report():
    if "report" not in _MC:
        t0 = time.perf_counter()
        _MC["report"] = run_ito_scenario(_mc_doc())
        _MC["elapsed"] = time.perf_counter() - t0
    return _MC["report"], _MC["elapsed"]


# -- criteria -------------------------------------------------------------


def test_criterion_1_conjugate_agreement():
    with criterion(1, "numeric vs closed-form conjugate"):
        t0 = time.perf_counter()
        ys = np.logspace(-3.0, 3.0, 20)
        worst = 0.0
        for gamma in (0.5, 1.0, 2.0):
            for a in (-1.0, 0.0, 1.0):
                u = oracles.exponential_slice(gamma, a)
                for y in ys:
                    num, _ = oracles.conjugate_numeric(u, float(y))
                    closed = conjugate_exponential(gamma, a, float(y))
                    worst = max(worst, abs(num - closed))
        assert worst <= 1e-8, f"worst conjugate disagreement {worst:.3e}"
        budget(1, time.perf_counter() - t0, 1.0)


def test_criterion_2_one_period_oracles():
    with criterion(2, "one-period closed-form and 1-d oracles"):
        t0 = time.perf_counter()
        # binomial, p = (0.8, 0.2)
        tree = binomial_tree(p_up=0.8)
        field = constant_field(tree)
        factor = math.exp(primal_value(tree, field, 0.0).log_factor["r"])
        assert abs(factor - 0.8) <= 1e-8
        assert abs(factor - oracles.binomial_factor_closed_form(0.8)) <= 1e-8
        a = solve_entropy_shift(tree, {n: 1.0 for n in tree._dfs_order}, 0.0)
        assert abs(a["r"] - math.log(0.8)) <= 1e-8

        # trinomial, p = (0.5, 0.3, 0.2)
        tree = trinomial_tree(probs=(0.5, 0.3, 0.2))
        field = constant_field(tree)
        res = primal_value(tree, field, 0.0)
        factor = math.exp(res.log_factor["r"])
        assert abs(factor - 0.9324555) <= 1e-6
        assert abs(factor - oracles.trinomial_factor_closed_form((0.5, 0.3, 0.2))) <= 1e-8

        dual = dual_value(tree, field, 1.0)
        q = measure_from_leaf_masses(tree, "r", 1, dual.leaf_masses["r"])
        p = (0.5, 0.3, 0.2)
        kl = sum(
            qm * math.log(qm / pm)
            for qm, pm in zip(q.at("r"), p)
            if qm > 0.0
        )
        _, kl_oracle = oracles.symmetric_trinomial_kl_min(p)
        assert abs(kl - 0.069934) <= 1e-5
        assert abs(kl - kl_oracle) <= 1e-6

        a0_primal = res.log_factor["r"]
        a0_dual = -1.0 - dual.values["r"]
        assert abs(a0_primal - a0_dual) <= 1e-6
        budget(2, time.perf_counter() - t0, 1.0)


def test_criterion_3_equivalence_suite():
    with criterion(3, "four checks agree on 50 randomized trees"):
        t0 = time.perf_counter()
        for i, (tree, field) in enumerate(randomized_suite()):
            pairs = [
                (t1, t2)
                for t1 in range(tree.horizon)
                for t2 in range(t1 + 1, tree.horizon + 1)
            ]
            rep_p = check_self_generation_primal(tree, field, pairs, tol=1e-6)
            rep_d = check_self_generation_dual(tree, field, pairs, tol=1e-6)
            rep_e = check_exponential_conditions(tree, field, pairs, tol=1e-6)
            assert rep_p.all_passed, f"tree {i}: {rep_p.to_text()}"
            assert rep_d.all_passed, f"tree {i}: {rep_d.to_text()}"
            assert rep_e.all_passed, f"tree {i}: {rep_e.to_text()}"
            rep_f = check_forward_supermartingale(tree, field, pairs, tol=1e-6)
            assert rep_f.all_passed, f"tree {i}: {rep_f.to_text()}"

            bumped = with_offsets(field, {"r": 0.1})
            rep_p = check_self_generation_primal(tree, bumped, pairs, tol=1e-6)
            rep_d = check_self_generation_dual(tree, bumped, pairs, tol=1e-6)
            rep_e = check_exponential_conditions(tree, bumped, pairs, tol=1e-6)
            rep_f = check_forward_supermartingale(tree, bumped, [(0, tree.horizon)], tol=1e-6)
            assert not rep_p.all_passed, f"tree {i}: perturbation missed (primal)"
            assert not rep_d.all_passed, f"tree {i}: perturbation missed (dual)"
            assert not rep_e.all_passed, f"tree {i}: perturbation missed (conditions)"
            assert not rep_f.all_passed, f"tree {i}: perturbation missed (forward)"
            gap = rep_d["dual-self-generation"].value
            assert abs(gap - 0.1) <= 1e-6, f"tree {i}: dual gap {gap}"
        budget(3, time.perf_counter() - t0, 10.0)


def test_criterion_4_weak_duality():
    with criterion(4, "primal below shifted dual on the grid"):
        xi_grid = np.linspace(-2.0, 2.0, 7)
        eta_grid = np.logspace(-1.0, 1.0, 7)
        worst = math.inf
        for tree, field in randomized_suite():
            u = {
                float(x): primal_value(tree, field, float(x)).values[tree.root]
                for x in xi_grid
            }
            for e in eta_grid:
                v = dual_value(tree, field, float(e)).values[tree.root]
                for x, ux in u.items():
                    worst = min(worst, v + x * float(e) - ux)
        assert worst >= -1e-9, f"duality slack {worst:.3e}"


def test_criterion_5_brute_force_cross_check():
    with criterion(5, "recursion matches flat joint optimization"):
        for seed in (107, 211, 313, 401, 547):
            tree = random_tree(seed)
            field = solved_field(tree, seed)
            got = primal_value(tree, field, 0.3).values[tree.root]
            want, _ = oracles.joint_primal(tree, field.gamma, field.a_shift, 0.3)
            assert abs(got - want) <= 1e-6, f"seed {seed}: {got} vs {want}"


def test_criterion_6_mc_suite():
    with criterion(6, "Monte Carlo suite on the diffusion model"):
        report, elapsed = mc_base_report()
        # (a) flat dual process at the optimal load
        for eta in ("1", "2"):
            for t in ("0.25", "0.5", "1"):
                rec = report[f"dual-martingale-at-optimum[eta={eta},t={t}]"]
                assert rec.verdict, report.to_text()
        # (b) forward drift targets hit within three standard errors
        for label, target in (("0", -0.045), ("0.7", -0.08)):
            # the forward weight's unit mass
            assert report[f"inverse-gamma-mean[nu={label}]"].verdict
            rec = report[f"forward-drift[nu={label}]"]
            assert abs(rec.target - target) <= 1e-12
            assert rec.verdict
            assert abs(rec.value - rec.target) <= 3.0 * rec.std_error
        # (c) terminal inverse-gamma mean with risk-aversion volatility on
        t0 = time.perf_counter()
        spec = CoefficientSpec.constant(1.0, theta=0.5, delta=0.2, phi=0.3, rho=0.1)
        fam = {"0": np.zeros(64), "0.4": np.full(64, 0.4)}
        bundle = simulate_paths(spec, 64, 100_000, MC_SEED)
        rep_c = check_inverse_gamma_mean_mc(bundle, 1.0, 0.0, nu_family=fam)
        for label in ("0", "0.4"):
            assert rep_c[f"inverse-gamma-mean[nu={label}]"].verdict, rep_c.to_text()
        budget(6, elapsed + (time.perf_counter() - t0), 60.0)


def test_criterion_7_band_calibration():
    with criterion(7, "false-rejection rate of the mean test"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(991)
        n_trials, n_samples = 10_000, 200
        draws = rng.standard_normal((n_trials, n_samples))
        rejections = sum(
            0 if mc_mean_test(row, 0.0, "calibration").verdict else 1 for row in draws
        )
        rate = rejections / n_trials
        assert 0.0 <= rate <= 0.01, f"false-rejection rate {rate}"
        budget(7, time.perf_counter() - t0, 30.0)


def test_criterion_8_bitwise_reproducibility(monkeypatch):
    with criterion(8, "chunking does not change the report"):
        base, _ = mc_base_report()
        # 50k streams over 3 simulated intervals (columns 0, 16, 32, 64): 3
        # runs of the default budget, and 8 runs of 6250 streams in a budget
        # of 7001 streams a run
        runs = []
        original = cli.simulate_paths

        def recorded(*args, **kwargs):
            runs.append(kwargs["stream_offset"])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "simulate_paths", recorded)
        monkeypatch.setattr(cli, "DRAW_BUDGET", 3 * 7001)
        chunked = run_ito_scenario(_mc_doc())
        assert len(runs) == 8
        a = base.to_json().encode()
        b = chunked.to_json().encode()
        assert a == b, "reports differ between the default and a smaller draw budget"
        # sanity: the comparison is not vacuous
        doc = json.loads(a)
        assert doc["all_passed"] is True
        assert len(doc["checks"]) >= 10
