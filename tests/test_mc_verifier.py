"""Statistical verification layer: band tests, refusal logic, reproducibility."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from forwardperf import cli, ito_engine, mc_verifier
from forwardperf.cli import run_ito_scenario
from forwardperf.errors import RegularityError
from forwardperf.ito_engine import (
    CoefficientSpec,
    build_forward_exponential,
    chunk_bounds,
    simulate_paths,
)
from forwardperf.ito_engine import validate_regularity
from forwardperf.mc_verifier import (
    DEFAULT_CONFIDENCE,
    MC_CHECKS,
    MonteCarloPass,
    check_dual_martingale_at_optimum,
    check_dual_submartingale,
    check_forward_drift_mc,
    check_inverse_gamma_mean_mc,
    collapse_pairs,
    mc_mean_test,
    run_mc_checks,
    z_critical,
)
from forwardperf.kernels import Workspace
from forwardperf.report import VerificationReport

CLEAN = CoefficientSpec.constant(1.0, theta=0.5, phi=0.3, rho=0.1)
SHIFTED_GAMMA = CoefficientSpec.constant(1.0, theta=0.5, delta=0.2, phi=0.3, rho=0.1)
FAILING = CoefficientSpec.constant(1.0, theta=0.5, delta=0.2)


def simulated(spec, gamma0, a0, n_steps, n_paths, seed, **kwargs):
    """The (bundle, fields) pair a scenario shares between its checks."""
    bundle = simulate_paths(spec, n_steps, n_paths, seed, **kwargs)
    return bundle, build_forward_exponential(spec, gamma0, a0, bundle)


# -- band machinery ------------------------------------------------------


def test_z_critical_pin():
    assert z_critical(0.997) == norm.ppf(0.5 * (1.0 + 0.997))
    assert z_critical(0.997) == pytest.approx(2.96774, abs=1e-5)
    assert DEFAULT_CONFIDENCE == 0.997
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            z_critical(bad)


def test_z_critical_matches_normal_quantile_exactly():
    # the last two reach the x >= 8 tail branch
    fixed = [0.9, 0.95, 0.99, 0.997, 0.999, 1 - 1e-9, 1 - 1e-15, 1 - 2**-52]
    rng = np.random.default_rng(19)
    uniform = rng.uniform(0.0, 1.0, 6000)
    near_one = 1.0 - 10.0 ** -rng.uniform(0.0, 15.5, 6000)
    sweep = [float(c) for c in [*np.linspace(0.01, 0.99, 99), *fixed, *uniform, *near_one]]
    for c in sweep:
        assert z_critical(c) == float(norm.ppf((1 + c) / 2)), c


@pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-20, 0.5, 1 - 2**-53])
def test_private_ndtri_is_scipys_bit_for_bit(p):
    # all but 0.5 (the central branch) take the x >= 8 tail branch, the
    # last one from above
    assert mc_verifier._ndtri(p) == float(ndtri(p))


def test_private_ndtri_endpoints():
    assert mc_verifier._ndtri(0.0) == -math.inf
    assert mc_verifier._ndtri(1.0) == math.inf


def test_collapse_pairs():
    v = np.array([1.0, 3.0, 10.0, -4.0])
    np.testing.assert_array_equal(collapse_pairs(v, True), [2.0, 3.0])
    np.testing.assert_array_equal(collapse_pairs(v, False), v)
    out = np.full(2, np.nan)
    assert collapse_pairs(v, True, out=out) is out
    np.testing.assert_array_equal(out, [2.0, 3.0])
    with pytest.raises(ValueError, match="even"):
        collapse_pairs(np.ones(3), True)


def test_mean_test_two_sided(rng):
    samples = rng.normal(0.5, 1.0, size=5000)
    ok = mc_mean_test(samples, 0.5, "demo")
    assert ok.verdict and abs(ok.z_score) <= z_critical(0.997)
    assert ok.n_samples == 5000
    bad = mc_mean_test(samples, 0.7, "demo")
    assert not bad.verdict


def test_mean_test_sidedness(rng):
    samples = rng.normal(1.0, 0.5, size=2000)
    assert mc_mean_test(samples, 0.0, "demo", sided="lower").verdict
    assert not mc_mean_test(samples, 2.0, "demo", sided="lower").verdict
    with pytest.raises(ValueError, match="sidedness"):
        mc_mean_test(samples, 2.0, "demo", sided="upper")


def test_mean_test_degenerate_exact():
    res = mc_mean_test(np.full(200, 0.25), 0.25, "demo")
    assert res.verdict
    assert res.std_error == 0.0
    assert "zero sample variance; exact comparison" in res.notes
    res = mc_mean_test(np.full(200, 0.25), 0.2500001, "demo")
    assert not res.verdict
    assert res.z_score == math.inf
    # one-sided degenerate still honors direction
    assert mc_mean_test(np.full(200, 0.3), 0.25, "demo", sided="lower").verdict


def test_mean_test_refuses_small_samples():
    with pytest.raises(ValueError, match="at least 100"):
        mc_mean_test(np.ones(99), 1.0, "demo")


def test_mean_test_to_record(rng):
    samples = rng.normal(0.0, 1.0, size=400)
    res = mc_mean_test(samples, 0.0, "demo", notes=("context",))
    rec = res.to_record()
    assert rec.check_tag == "demo"
    assert rec.tolerance == pytest.approx(z_critical(0.997) * res.std_error, rel=1e-14)
    assert rec.details["n_samples"] == 400
    assert rec.details["z_score"] == res.z_score
    assert "context" in rec.notes
    # on a workspace: the same record, bit for bit
    work = Workspace()
    for _ in range(2):
        again = mc_mean_test(samples, 0.0, "demo", notes=("context",), work=work)
        assert again == res
        assert again.to_record() == rec


def test_default_nu_family_labels():
    fam = MonteCarloPass(CLEAN, 8, ["inverse-gamma-mean"]).nu_family
    assert set(fam) == {"0", "phi", "phi+0.4", "phi-0.4", "0.8"}
    np.testing.assert_array_equal(fam["phi"], np.full(8, 0.3))
    np.testing.assert_array_equal(fam["phi+0.4"], np.full(8, 0.7))


# -- dual process checks -------------------------------------------------


def test_submartingale_clean_spec_passes():
    rep = check_dual_submartingale(*simulated(CLEAN, 1.0, 0.0, 32, 4000, seed=101))
    assert rep.all_passed, rep.to_text()
    rec = rep["dual-submartingale[nu=0,eta=1,t1=0,t2=1]"]
    assert rec.std_error is not None
    assert any("conditional dominance not tested" in n for n in rec.notes)
    # suboptimal loads produce strictly positive drift, visible at this size
    assert rec.value > 0


def test_submartingale_time_index_validation():
    with pytest.raises(ValueError, match="outside the grid"):
        check_dual_submartingale(
            *simulated(CLEAN, 1.0, 0.0, 32, 400, seed=1), time_indices=[999]
        )


def test_optimum_equality_and_chain_consistency():
    # the lower-sided level test in the submartingale suite and the
    # two-sided equality test at the optimum share the same statistic:
    # with one seed the estimates agree bitwise and two-sided pass
    # implies one-sided pass
    sim = simulated(CLEAN, 1.0, 0.0, n_steps=32, n_paths=4000, seed=202)
    kw = dict(eta_list=(1.0, 2.0))
    sub = check_dual_submartingale(*sim, nu_family=None, time_indices=(16, 32), **kw)
    opt = check_dual_martingale_at_optimum(*sim, time_indices=(16, 32), **kw)
    assert opt.all_passed, opt.to_text()
    for eta in ("1", "2"):
        for t in ("0.5", "1"):
            a = sub[f"dual-above-start[nu=phi,eta={eta},t={t}]"]
            b = opt[f"dual-martingale-at-optimum[eta={eta},t={t}]"]
            assert a.value == b.value
            assert a.std_error == b.std_error
            assert a.verdict


def test_refusal_failing_class():
    with pytest.raises(RegularityError, match="refusing to certify"):
        check_dual_submartingale(*simulated(FAILING, 1.0, 0.0, 16, 400, seed=1))
    with pytest.raises(RegularityError, match="constant risk aversion"):
        check_dual_martingale_at_optimum(*simulated(FAILING, 1.0, 0.0, 16, 400, seed=1))


def test_undetermined_runs_with_disclosure():
    rep = check_dual_submartingale(*simulated(SHIFTED_GAMMA, 1.0, 0.0, 32, 2000, seed=303))
    recs = rep.records()
    assert recs
    for rec in recs:
        assert any("undetermined" in n for n in rec.notes)
    with pytest.raises(RegularityError):
        check_dual_martingale_at_optimum(
            *simulated(SHIFTED_GAMMA, 1.0, 0.0, 32, 2000, seed=303)
        )


# -- terminal mean checks ------------------------------------------------


def test_inverse_gamma_mean_constant_and_shifted():
    rep = check_inverse_gamma_mean_mc(*simulated(CLEAN, 2.0, 0.0, 32, 2000, seed=404))
    assert rep.all_passed, rep.to_text()
    assert set(rep["inverse-gamma-mean[nu=phi]"].notes) == {
        "terminal-time consequence of the conditional statement"
    }
    # with risk-aversion volatility the identity is an exact exponential
    # martingale fact, so it holds regardless of the regularity class
    rep = check_inverse_gamma_mean_mc(*simulated(SHIFTED_GAMMA, 2.0, 0.0, 32, 2000, seed=405))
    assert rep.all_passed, rep.to_text()


def test_forward_drift_clean_and_shifted():
    rep = check_forward_drift_mc(*simulated(CLEAN, 1.0, 0.1, 32, 4000, seed=506))
    assert rep.all_passed, rep.to_text()
    drift = rep["forward-drift[nu=phi]"]
    assert drift.target == pytest.approx(0.1, abs=1e-15)
    drift0 = rep["forward-drift[nu=0]"]
    assert drift0.target == pytest.approx(0.1 - 0.045, abs=1e-15)
    rep = check_forward_drift_mc(*simulated(SHIFTED_GAMMA, 1.0, 0.1, 32, 4000, seed=507))
    assert rep.all_passed, rep.to_text()


def test_forward_mass_band_miss_on_extreme_load():
    # a huge orthogonal load starves the weight mass at this sample size:
    # the mass record misses its band, the load's drift record is still
    # reported, and both count as statistical records
    fam = {"big": np.full(32, 10.0)}
    rep = check_forward_drift_mc(*simulated(CLEAN, 1.0, 0.0, 32, 200, seed=608), nu_family=fam)
    assert {rec.check_tag for rec in rep.records()} == {
        "forward-mass[nu=big]",
        "forward-drift[nu=big]",
    }
    mass = rep["forward-mass[nu=big]"]
    assert not mass.verdict and mass.std_error is not None
    assert abs(mass.value - 1.0) > mass.tolerance
    assert rep["forward-drift[nu=big]"].std_error is not None


# -- reproducibility -----------------------------------------------------


def test_reports_chunk_invariant():
    # the pass fed four uneven stream ranges reports what it reports on the
    # whole simulation
    checks = list(MC_CHECKS)
    whole = run_mc_checks(*simulated(CLEAN, 1.0, 0.0, 32, 2002, seed=709), checks)
    mc = MonteCarloPass(CLEAN, 32, checks)
    for lo, hi in chunk_bounds(1001, 4):
        mc.gather(*simulated(CLEAN, 1.0, 0.0, 32, 2 * (hi - lo), seed=709, stream_offset=lo))
    assert mc.reduce().to_json() == whole.to_json()


def test_reduce_holds_only_its_scratch_above_the_gathered_columns():
    # reduce reads the gathered columns where they are and builds every
    # statistic in the pass's scratch, so what it allocates is bounded by
    # that scratch, not by the columns: joining them into fresh arrays,
    # or one fresh array per statistic, would exceed the bound
    n = 20_000  # antithetic paths: n // 2 samples per test
    mc = MonteCarloPass(CLEAN, 8, list(MC_CHECKS))
    bundle = simulate_paths(CLEAN, 8, n, seed=31, columns=mc.simulated_columns)
    mc.gather(bundle, build_forward_exponential(CLEAN, 1.0, 0.0, bundle, mc.columns))
    n_dual = max(len(mc.idx), len(mc.opt_idx))
    # per load: a density column per pass column and log z~; the optimum's
    # density at its times; 1/gamma and the shift per pass column
    n_columns = len(mc.nu_family) * (len(mc.columns) + 1) + len(mc.opt_idx)
    gathered = 8 * n * (n_columns + 2 * len(mc.columns))
    scratch = 8 * (
        n * (3 + n_dual)  # "sample", "weight", "dual-arg" and the ("dual", k) values
        + 2 * (n // 2)  # "pairs" and "deviations"
        + (n // 4 + n // 8)  # "pairwise": levels of the n // 2 pair means
    )
    masks = 2 * n  # entropy_kernel's y >= 0 and y > 0, one byte a path
    bound = scratch + masks + 64 * 1024  # and the records' Python objects
    assert bound < gathered / 3
    tracemalloc.start()
    try:
        report = mc.reduce()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
    assert report.all_passed


@pytest.mark.parametrize(
    "antithetic, checks", [(True, None), (False, ["inverse-gamma-mean"])], ids=["suite", "plain"]
)
def test_four_runs_report_the_bytes_of_one(monkeypatch, antithetic, checks):
    # the README model, as the benchmark's Monte Carlo workloads run it:
    # a pass of four runs joins their columns into one array per key and
    # reports the bytes of a pass of one run
    doc = {
        "schema_version": 1,
        "kind": "ito-verify",
        "model": {
            "horizon": 1.0,
            "breakpoints": [0.0, 0.5],
            "theta": [0.5, 0.5],
            "delta": 0.0,
            "phi": [0.3, 0.0],
            "rho": 0.1,
        },
        "gamma0": 1.0,
        "a0": 0.0,
        "n_steps": 64,
        "n_paths": 4002,
        "seed": 1234,
        "antithetic": antithetic,
    }
    if checks:
        doc["checks"] = checks
    calls = []
    original = cli.simulate_paths

    def counted(*args, **kwargs):
        calls.append(kwargs["columns"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", counted)
    one = run_ito_scenario(doc).to_json()
    assert len(calls) == 1
    n_streams = 2001 if antithetic else 4002
    monkeypatch.setattr(cli, "DRAW_BUDGET", -(-n_streams // 4) * (len(calls[0]) - 1))
    assert run_ito_scenario(doc).to_json() == one
    assert len(calls) == 5


def test_pass_refuses_chunks_that_do_not_continue_the_simulation():
    mc = MonteCarloPass(CLEAN, 8, ["inverse-gamma-mean"])
    with pytest.raises(ValueError, match="no chunk gathered"):
        mc.reduce()
    mc.gather(*simulated(CLEAN, 1.0, 0.0, 8, 100, seed=5))
    refused = [
        # skips streams 50 .. 59
        ({"stream_offset": 60}, (1.0, 0.0), "expects stream 50"),
        # repeats the first chunk
        ({}, (1.0, 0.0), "expects stream 50"),
        ({"stream_offset": 50, "antithetic": False}, (1.0, 0.0), "the first chunk had"),
        ({"stream_offset": 50}, (2.0, 0.0), "the first chunk had"),
        ({"stream_offset": 50}, (1.0, 0.5), "the first chunk had"),
    ]
    for kwargs, (gamma0, a0), match in refused:
        with pytest.raises(ValueError, match=match):
            mc.gather(*simulated(CLEAN, gamma0, a0, 8, 100, seed=5, **kwargs))
    bundle, _ = simulated(CLEAN, 1.0, 0.0, 16, 100, seed=5, stream_offset=50)
    with pytest.raises(ValueError, match="needs 8 steps"):
        mc.gather(bundle, build_forward_exponential(CLEAN, 1.0, 0.0, bundle))
    # the refused chunks left the pass as it was
    mc.gather(*simulated(CLEAN, 1.0, 0.0, 8, 100, seed=5, stream_offset=50))
    whole = run_mc_checks(*simulated(CLEAN, 1.0, 0.0, 8, 200, seed=5), ["inverse-gamma-mean"])
    assert mc.reduce().to_json() == whole.to_json()


def test_pass_builds_only_its_columns(monkeypatch):
    # densities and fields are built at the columns the checks read: the
    # time indices and the horizon, and the horizon alone for the forward
    # check's own route; fields without one of them are refused
    calls = []
    original = ito_engine.density_path

    def recorded(*args):
        calls.append(args[1:])
        return original(*args)

    for module in (ito_engine, mc_verifier):
        monkeypatch.setattr(module, "density_path", recorded)
    mc = MonteCarloPass(CLEAN, 8, list(MC_CHECKS), time_indices=[6, 0, 2])
    assert mc.columns == [0, 2, 6, 8]
    assert MonteCarloPass(CLEAN, 8, ["inverse-gamma-mean"]).columns == [8]
    bundle = simulate_paths(CLEAN, 8, 400, seed=5)
    other_grid = simulate_paths(CLEAN, 16, 400, seed=5)
    with pytest.raises(ValueError, match="needs 8 steps"):
        mc.gather(bundle, build_forward_exponential(CLEAN, 1.0, 0.0, other_grid))
    for cols in ([0, 2, 8], [6, 2, 0], [1, 3, 5, 7]):
        with pytest.raises(ValueError, match="fields lack the grid columns"):
            mc.gather(bundle, build_forward_exponential(CLEAN, 1.0, 0.0, bundle, cols))
    assert calls == []
    mc.gather(bundle, build_forward_exponential(CLEAN, 1.0, 0.0, bundle, [8, 0, 6, 5, 2]))
    # five loads, each with its forward route, and the optimum at the times > 0
    assert sorted(cols for _, _, cols in calls) == sorted(
        [[0, 2, 6, 8]] * 5 + [[8]] * 5 + [[2, 6]]
    )
    columns = mc.reduce()
    whole = run_mc_checks(
        bundle,
        build_forward_exponential(CLEAN, 1.0, 0.0, bundle),
        list(MC_CHECKS),
        time_indices=[6, 0, 2],
    )
    assert columns.to_json() == whole.to_json()


def test_pass_simulated_columns_depend_on_the_scenario_alone():
    # 0, the horizon, the time indices and every change point of the
    # coefficients and loads, whatever checks run; a bundle without one of
    # them is refused before anything is kept
    spec = CoefficientSpec(
        horizon=1.0, breakpoints=(0.0, 0.25, 0.5), theta=(0.5, 0.5, 0.2),
        delta=(0.0, 0.0, 0.0), phi=(0.3, 0.1, 0.1), rho=(0.1, 0.1, 0.1),
    )
    family = {"flat": np.full(8, 0.2), "step": np.array([0.0] * 3 + [0.5] * 5)}
    for checks in ([], ["inverse-gamma-mean"], list(MC_CHECKS[:1]), ["forward-drift"]):
        mc = MonteCarloPass(spec, 8, checks, nu_family=family, time_indices=[1])
        assert mc.simulated_columns == [0, 1, 2, 3, 4, 8]
    assert MonteCarloPass(CLEAN, 8, ["inverse-gamma-mean"]).simulated_columns == [0, 4, 8]
    mc = MonteCarloPass(CLEAN, 8, ["inverse-gamma-mean"])
    bundle = simulate_paths(CLEAN, 8, 200, seed=5, columns=[0, 8])
    with pytest.raises(ValueError, match=r"not simulated at the grid columns \[4\]"):
        mc.gather(bundle, build_forward_exponential(CLEAN, 1.0, 0.0, bundle))
    # at the simulated columns, or any superset of them, the pass reads it
    for columns in (mc.simulated_columns, range(9), [4, 6]):
        mc.gather(*simulated(CLEAN, 1.0, 0.0, 8, 200, seed=5, columns=columns))
        assert len(mc.reduce().records()) == 5


def test_simulated_columns_agree_with_the_full_grid():
    # the scenario on its simulated columns (0, 4, 8) and on every column
    # (time indices 0 .. 8, with another seed, so the draws are independent):
    # every mean record of the first agrees with the second within four
    # combined standard errors
    doc = {
        "schema_version": 1,
        "kind": "ito-verify",
        "model": {
            "horizon": 1.0, "breakpoints": [0.0, 0.5], "theta": [0.5, 0.5],
            "delta": 0.0, "phi": [0.3, 0.0], "rho": 0.1,
        },
        "gamma0": 1.0,
        "a0": 0.0,
        "n_steps": 8,
        "n_paths": 20_000,
        "seed": 61,
    }
    sparse = run_ito_scenario(doc)
    full = run_ito_scenario({**doc, "seed": 62, "time_indices": list(range(9))})
    means = [rec for rec in sparse.records() if rec.std_error is not None]
    assert len(means) == 69
    for rec in means:
        other = full[rec.check_tag]
        se = math.hypot(rec.std_error, other.std_error)
        assert abs(rec.value - other.value) <= 4.0 * se, (rec.check_tag, rec.value, other.value, se)


def test_reports_seed_deterministic():
    a = check_forward_drift_mc(*simulated(CLEAN, 1.0, 0.0, 32, 2000, seed=810))
    b = check_forward_drift_mc(*simulated(CLEAN, 1.0, 0.0, 32, 2000, seed=810))
    c = check_forward_drift_mc(*simulated(CLEAN, 1.0, 0.0, 32, 2000, seed=811))
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


ALL_ITO_CHECKS = [
    "regularity",
    "dual-submartingale",
    "dual-martingale-at-optimum",
    "inverse-gamma-mean",
    "forward-drift",
]
CUSTOM_ARGS = {
    "nu": {"flat": 0.2, "ramp": [0.1 * k for k in range(8)]},
    "eta_list": [0.5, 3.0],
    "time_indices": [2, 8, 5],
}


@pytest.mark.parametrize(
    "runs, antithetic, checks, custom",
    [
        *(
            pytest.param(runs, antithetic, ALL_ITO_CHECKS, {}, id=f"{runs}-{antithetic}")
            for runs in (1, 4)
            for antithetic in (True, False)
        ),
        pytest.param(
            3,
            False,
            ["forward-drift", "dual-submartingale", "dual-martingale-at-optimum"],
            CUSTOM_ARGS,
            id="3-False-custom",
        ),
    ],
)
def test_shared_simulation_matches_fresh_per_check(
    monkeypatch, runs, antithetic, checks, custom
):
    # a scenario hands one bundle and one set of field paths to every check,
    # one run of streams at a time; each check must report what it reports
    # on a whole simulation of its own
    doc = {
        "schema_version": 1,
        "kind": "ito-verify",
        "model": {"horizon": 1.0, "theta": 0.5, "phi": 0.3, "rho": 0.1},
        "gamma0": 1.5,
        "a0": 0.1,
        "n_steps": 8,
        "n_paths": 800,
        "seed": 912,
        "antithetic": antithetic,
        "checks": checks,
        **custom,
    }
    nu = custom.get("nu")
    family = nu and {k: np.full(8, v) if np.ndim(v) == 0 else np.asarray(v) for k, v in nu.items()}
    dual = {"eta_list": custom.get("eta_list", (1.0, 2.0)), "time_indices": custom.get("time_indices")}
    # the scenario's simulated columns, whatever the checks
    columns = MonteCarloPass(
        CLEAN, 8, [], nu_family=family, time_indices=dual["time_indices"]
    ).simulated_columns
    # a draw budget of that many streams' intervals splits the streams
    n_streams = 400 if antithetic else 800
    monkeypatch.setattr(cli, "DRAW_BUDGET", -(-n_streams // runs) * (len(columns) - 1))
    calls = []
    original = cli.simulate_paths

    def counted(*args, **kwargs):
        calls.append(kwargs["stream_offset"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_paths", counted)
    shared = run_ito_scenario(doc)
    assert len(calls) == runs

    def fresh():
        bundle = simulate_paths(CLEAN, 8, 800, seed=912, antithetic=antithetic, columns=columns)
        return bundle, build_forward_exponential(CLEAN, 1.5, 0.1, bundle)

    runs = {
        "regularity": lambda: validate_regularity(CLEAN),
        "dual-submartingale": lambda: check_dual_submartingale(*fresh(), nu_family=family, **dual),
        "dual-martingale-at-optimum": lambda: check_dual_martingale_at_optimum(*fresh(), **dual),
        "inverse-gamma-mean": lambda: check_inverse_gamma_mean_mc(*fresh(), nu_family=family),
        "forward-drift": lambda: check_forward_drift_mc(*fresh(), nu_family=family),
    }
    separate = VerificationReport()
    for name in checks:
        separate.merge(runs[name]())
    separate.add(shared["mc-expected-false-failures"])
    assert shared.to_json() == separate.to_json()
