"""Statistical verification layer: band tests, refusal logic, reproducibility."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import oracles
import pytest
from scipy.special import ndtri
from scipy.stats import norm

from forwardperf import cli, ito_engine, mc_verifier
from forwardperf.cli import run_ito_scenario
from forwardperf.fields import conjugate_exponential
from forwardperf.ito_engine import (
    CoefficientSpec,
    chunk_bounds,
    simulate_paths,
)
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


def simulated(spec, gamma0, a0, n_steps, n_paths, seed, **kwargs):
    """The simulation a scenario shares between its checks, and the field
    start (gamma0, a0) they build on it."""
    return simulate_paths(spec, n_steps, n_paths, seed, **kwargs), gamma0, a0


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
    # as halves: the even partners' row, then the odd partners'
    halves = np.array([[1.0, 10.0], [3.0, -4.0]])
    np.testing.assert_array_equal(collapse_pairs(halves, True), [2.0, 3.0])
    np.testing.assert_array_equal(collapse_pairs(v[None, :], False), v)


def test_mean_test_two_sided(rng):
    samples = rng.normal(0.5, 1.0, size=5000)
    ok = mc_mean_test(samples, 0.5, "demo")
    assert ok.verdict and abs(ok.details["z_score"]) <= z_critical(0.997)
    assert ok.details["n_samples"] == 5000
    bad = mc_mean_test(samples, 0.7, "demo")
    assert not bad.verdict


def test_mean_test_sidedness(rng):
    # every mean test is two-sided: an estimate above its target misses
    # as one below does, and there is no one-sided option
    samples = rng.normal(1.0, 0.5, size=2000)
    assert mc_mean_test(samples, 1.0, "demo").verdict
    assert not mc_mean_test(samples, 0.0, "demo").verdict
    assert not mc_mean_test(samples, 2.0, "demo").verdict
    with pytest.raises(TypeError, match="sided"):
        mc_mean_test(samples, 0.0, "demo", sided="lower")


def test_mean_test_rounding_floor():
    # a constant statistic, off by an ulp on most of its samples: its
    # standard error sits far below the mean's rounding, and the rounding
    # floor c u S with c = ceil(log2 200) + 1 = 9 and S the samples' root
    # mean square holds it
    ulp = math.ulp(0.25)
    samples = np.full(200, 0.25)
    samples[:150] += ulp
    rec = mc_mean_test(samples, 0.25, "demo")
    assert rec.verdict
    assert abs(rec.details["z_score"]) > 10.0
    rms = math.sqrt(float(np.mean(samples**2)))
    assert rec.details["rounding_floor"] == pytest.approx(9 * 2.0**-53 * rms, rel=1e-15, abs=0)
    assert rec.tolerance == z_critical(0.997) * rec.std_error + rec.details["rounding_floor"]
    # the floor is rounding, not a tolerance: 4.5 ulps of 0.25, and 4 more
    # for each 8 roundings that built each sample
    assert not mc_mean_test(samples + 8 * ulp, 0.25, "demo").verdict
    assert mc_mean_test(samples + 8 * ulp, 0.25, "demo", roundings=16).verdict
    # a scale is the size of the terms the samples are differences of
    assert not mc_mean_test(samples - 0.25, 0.0, "demo").verdict
    assert mc_mean_test(samples - 0.25, 0.0, "demo", scale=0.5).verdict


def test_mean_test_degenerate_exact():
    # zero variance: the band is the rounding floor alone, and there is no
    # z-score, hit or miss
    res = mc_mean_test(np.full(200, 0.25), 0.25, "demo")
    assert res.verdict
    assert res.std_error == 0.0
    assert res.details["z_score"] is None
    res = mc_mean_test(np.full(200, 0.25), 0.2500001, "demo")
    assert not res.verdict
    assert res.details["z_score"] is None
    assert res.tolerance == res.details["rounding_floor"] == 9 * 2.0**-53 * 0.25
    res = mc_mean_test(np.zeros(200), 0.0, "demo")
    assert res.verdict and res.tolerance == 0.0


def test_mean_test_refuses_small_samples():
    with pytest.raises(ValueError, match="at least 100"):
        mc_mean_test(np.ones(99), 1.0, "demo")


def test_mean_test_to_record(rng):
    # the test is its check record: the estimate, the band's half-width
    # and the z-score over it
    samples = rng.normal(0.0, 1.0, size=400)
    rec = mc_mean_test(samples, 0.0, "demo", notes=("context",))
    assert rec.check_tag == "demo"
    assert rec.value == pytest.approx(float(samples.mean()), rel=1e-12)
    # the band: the normal half-width plus the rounding floor, (ceil(log2
    # 400) + 1) u times the samples' root mean square
    rms = math.sqrt(float(np.mean(samples**2)))
    assert rec.details["rounding_floor"] == pytest.approx(10 * 2.0**-53 * rms, rel=1e-12, abs=0)
    assert rec.tolerance == z_critical(0.997) * rec.std_error + rec.details["rounding_floor"]
    assert rec.details["n_samples"] == 400
    assert rec.details["z_score"] == (rec.value - rec.target) / rec.std_error
    assert rec.notes == ("context",)
    # on a workspace and a deviations buffer: the same record, bit for bit
    work, dev = Workspace(), np.empty(400)
    for _ in range(2):
        again = mc_mean_test(samples, 0.0, "demo", notes=("context",), work=work, deviations=dev)
        assert again == rec
    np.testing.assert_array_equal(dev, (samples - rec.value) ** 2)


def test_default_nu_family_labels():
    fam = MonteCarloPass(CLEAN, 8, 200, ["inverse-gamma-mean"], 1.0, 0.0, True).nu_family
    assert set(fam) == {"0", "phi", "phi+0.4", "phi-0.4", "0.8"}
    np.testing.assert_array_equal(fam["phi"], np.full(8, 0.3))
    np.testing.assert_array_equal(fam["phi+0.4"], np.full(8, 0.7))


# -- dual process checks -------------------------------------------------


def test_submartingale_clean_spec_passes():
    rep = check_dual_submartingale(*simulated(CLEAN, 1.0, 0.0, 32, 4000, seed=101))
    assert rep.all_passed, rep.to_text()
    rec = rep["dual-submartingale[nu=0,eta=1,t1=0.5,t2=1]"]
    assert rec.std_error is not None
    assert any("conditional drift not tested" in n for n in rec.notes)
    # a suboptimal load's increment has the closed-form mean
    # (1/2)(eta / gamma0) integral (nu - phi)^2, here 0.0225 over [0.5, 1],
    # visible at this size
    assert rec.target == pytest.approx(0.0225, abs=1e-15)
    assert rec.value > 0


def test_submartingale_time_index_validation():
    with pytest.raises(ValueError, match="outside the grid"):
        check_dual_submartingale(
            *simulated(CLEAN, 1.0, 0.0, 32, 400, seed=1), time_indices=[999]
        )


def test_pass_refuses_a_malformed_load():
    # when the pass is built, before any path is drawn
    for load in (np.ones(7), np.ones(1), np.ones((8, 1))):
        with pytest.raises(ValueError, match=r"load 'bad' must be scalar or shape \(8,\)"):
            MonteCarloPass(
                CLEAN, 8, 200, ["inverse-gamma-mean"], 1.0, 0.0, True, nu_family={"bad": load}
            )


def test_pass_refuses_a_repeated_load():
    # two loads equal at every step would run each test twice; a scalar
    # load and its per-step array are one load
    with pytest.raises(ValueError, match=r"^loads 'a' and 'b' are equal at every step$"):
        MonteCarloPass(
            CLEAN, 8, 200, ["inverse-gamma-mean"], 1.0, 0.0, True,
            nu_family={"a": 0.3, "0": 0.0, "b": np.full(8, 0.3)},
        )
    # -0.0 and +0.0 are one load, though their bytes differ
    with pytest.raises(ValueError, match=r"^loads 'a' and 'b' are equal at every step$"):
        MonteCarloPass(
            CLEAN, 8, 200, ["inverse-gamma-mean"], 1.0, 0.0, True,
            nu_family={"a": np.zeros(8), "b": np.where(np.arange(8) % 2, -0.0, 0.0)},
        )


@pytest.mark.parametrize("time_indices", [[], [0], [0, 0]])
@pytest.mark.parametrize("check", ["dual-submartingale", "dual-martingale-at-optimum"])
def test_dual_checks_refuse_time_indices_with_nothing_above_0(check, time_indices):
    # with no time above 0 a dual check has no record to report, so a
    # report of it would pass on nothing; other checks read the horizon
    with pytest.raises(ValueError, match="the dual checks need a time index above 0"):
        MonteCarloPass(CLEAN, 8, 200, [check], 1.0, 0.0, True, time_indices=time_indices)
    mc = MonteCarloPass(CLEAN, 8, 200, ["inverse-gamma-mean"], 1.0, 0.0, True, time_indices=[])
    assert mc.columns == [8]


def test_optimum_equality_and_chain_consistency():
    # the level test in the submartingale suite at nu = phi and the
    # equality test at the optimum are one test: the same statistic, the
    # same closed-form mean V(0, eta), the same band and verdict
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
            assert a.target == b.target == conjugate_exponential(1.0, 0.0, float(eta))
            assert a.tolerance == b.tolerance
            assert a.verdict and b.verdict


# the README model, with delta = 0 and with delta = 0.2 on [0, 0.5)
README_MODELS = {
    delta: CoefficientSpec(
        horizon=1.0, breakpoints=(0.0, 0.5), theta=(0.5, 0.5), delta=delta,
        phi=(0.3, 0.0), rho=(0.1, 0.1),
    )
    for delta in ((0.0, 0.0), (0.2, 0.0))
}


@pytest.mark.parametrize("seed", [3, 17, 29])
@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
@pytest.mark.parametrize("delta", list(README_MODELS), ids=["delta-0", "delta-0.2-0"])
def test_dual_above_start_is_the_increment_from_time_0(delta, antithetic, seed):
    # Y_0 = V(0, eta) on every path (Z_0 = 1), so the increment from time
    # 0 is the level less a constant, tested against the same drift: each
    # dual-above-start record has the oracle's increment record's verdict,
    # and its miss and standard error within the record's rounding floor
    spec, n_steps = README_MODELS[delta], 16
    mc = MonteCarloPass(spec, n_steps, 4000, ["dual-submartingale"], 1.0, 0.0, antithetic)
    bundle = simulate_paths(spec, n_steps, 4000, seed, antithetic, columns=mc.simulated_columns)
    rep = run_mc_checks(bundle, 1.0, 0.0, ["dual-submartingale"])
    assert len(rep.records()) == 5 * 2 * 3
    for label, nu in mc.nu_family.items():
        for eta in (1.0, 2.0):
            for t_index in (8, 16):
                old = oracles.dual_increment_from_start(bundle, seed, 1.0, 0.0, label, nu, eta, t_index)
                assert old.check_tag not in rep
                level = rep[f"dual-above-start[nu={label},eta={eta:g},t={t_index / n_steps:g}]"]
                floor = level.details["rounding_floor"]
                assert old.verdict == level.verdict
                miss = level.value - level.target
                assert abs((old.value - old.target) - miss) <= floor, (old, level)
                assert abs(old.std_error - level.std_error) <= floor, (old, level)


# (theta, delta, phi, rho): risk-aversion volatility with and without shift
# volatility, all four at once, a piecewise spec, and the degenerate
# delta = theta with no shift volatility, where R = eta Z / gamma and the
# dual value are constant up to rounding
DELTA_MODELS = {
    "delta": CoefficientSpec.constant(1.0, theta=0.5, delta=0.2),
    "delta-phi-rho": SHIFTED_GAMMA,
    "all-four": CoefficientSpec.constant(1.0, theta=0.5, delta=0.4, phi=0.3, rho=0.2),
    "piecewise": CoefficientSpec(
        horizon=1.0, breakpoints=(0.0, 0.5), theta=(0.5, 0.5), delta=(0.2, -0.1),
        phi=(0.3, 0.0), rho=(0.1, 0.2),
    ),
    "degenerate": CoefficientSpec.constant(1.0, theta=0.5, delta=0.5),
}


@pytest.mark.parametrize("model", list(DELTA_MODELS))
def test_dual_records_hold_for_every_delta(model):
    # the dual drift (1/2) R (nu - phi)^2 holds for every delta, phi and rho:
    # every record passes two-sided against its closed-form mean, with no
    # refusal and no disclosure. 40 records, 32 where phi = 0 and the
    # default family holds 4 loads: at confidence 0.9999 a band miss is
    # expected once in 250 runs
    spec = DELTA_MODELS[model]
    rep = run_mc_checks(
        *simulated(spec, 1.5, 0.1, 16, 20_000, seed=1), list(MC_CHECKS), confidence=0.9999
    )
    assert len(rep.records()) == (40 if any(spec.phi) else 32)
    assert rep.all_passed, [r.check_tag for r in rep.records() if not r.verdict]
    # (1/2)(eta / gamma0) integral_0^1 (0.8 - phi)^2 dt, piece by piece
    pieces = np.diff([*spec.breakpoints, spec.horizon])
    gap = sum((0.8 - phi) ** 2 * length for phi, length in zip(spec.phi, pieces))
    level = rep["dual-above-start[nu=0.8,eta=2,t=1]"]
    start = conjugate_exponential(1.5, 0.1, 2.0)
    assert level.target == pytest.approx(start + 0.5 * (2.0 / 1.5) * gap, rel=1e-14)
    assert all(rec.notes in (_DUAL, _TERMINAL, _PHI_LEVEL) for rec in rep.records())


_DUAL = ("unconditional mean at grid times; conditional drift not tested",)
_TERMINAL = ("terminal-time consequence of the conditional statement",)
_OPTIMUM = ("unconditional mean equality at grid times",)
_PHI_LEVEL = (*_DUAL, "nu = phi, the optimum: the dual-martingale-at-optimum test at this eta and t")


def in_one_pass(separate):
    """``separate``, the merged reports of checks run alone, as one pass of
    them reports it: where the default family's load "phi" has level
    records, the optimum's records are those tests, to the bit but for tag
    and notes, and the pass writes each once, as the level record with a
    note naming the optimum."""
    records = {rec.check_tag: rec for rec in separate.records()}
    optimum = [tag for tag in records if tag.startswith("dual-martingale-at-optimum[")]
    for tag in optimum:
        level = records.get(tag.replace("dual-martingale-at-optimum[", "dual-above-start[nu=phi,"))
        if level is None:
            continue
        opt = records.pop(tag)
        assert opt.notes == _OPTIMUM
        assert dataclasses.replace(opt, check_tag=level.check_tag, notes=_DUAL) == level
        records[level.check_tag] = dataclasses.replace(level, notes=_PHI_LEVEL)
    return VerificationReport(records.values())


# -- terminal mean checks ------------------------------------------------


def test_inverse_gamma_mean_constant_and_shifted():
    rep = check_inverse_gamma_mean_mc(*simulated(CLEAN, 2.0, 0.0, 32, 2000, seed=404))
    assert rep.all_passed, rep.to_text()
    assert set(rep["inverse-gamma-mean[nu=phi]"].notes) == {
        "terminal-time consequence of the conditional statement"
    }
    # with risk-aversion volatility the identity is an exact exponential
    # martingale fact: Z / gamma is a stochastic exponential
    rep = check_inverse_gamma_mean_mc(*simulated(SHIFTED_GAMMA, 2.0, 0.0, 32, 2000, seed=405))
    assert rep.all_passed, rep.to_text()


def test_inverse_gamma_mean_is_invariant_under_gamma_scaling():
    # the record tests w = ((1/gamma_T) gamma0) Z_T against 1: scaling gamma
    # by a constant moves each sample by a rounding or two and moves no
    # verdict; a power of two scales exactly and moves no bit
    bundle, _, _ = simulated(SHIFTED_GAMMA, 1.0, 0.0, 32, 2000, seed=405)
    base = check_inverse_gamma_mean_mc(bundle, 1.0, 0.0)
    assert check_inverse_gamma_mean_mc(bundle, 2.0, 0.0).to_json() == base.to_json()
    for gamma0 in (1.5, 1e-200, 1e200):
        for rec in check_inverse_gamma_mean_mc(bundle, gamma0, 0.0).records():
            want = base[rec.check_tag]
            assert rec.target == 1.0 and rec.verdict == want.verdict
            assert rec.value == pytest.approx(want.value, rel=1e-14, abs=0)
            assert rec.std_error == pytest.approx(want.std_error, rel=1e-12, abs=0)


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
    # a huge orthogonal load starves the forward weight's mass at this
    # sample size: the inverse-gamma-mean record, which tests that mass,
    # misses its band, the load's drift record is still reported, and both
    # count as statistical records
    fam = {"big": np.full(32, 10.0)}
    rep = run_mc_checks(
        *simulated(CLEAN, 1.0, 0.0, 32, 200, seed=608),
        ["inverse-gamma-mean", "forward-drift"],
        nu_family=fam,
    )
    assert {rec.check_tag for rec in rep.records()} == {
        "inverse-gamma-mean[nu=big]",
        "forward-drift[nu=big]",
    }
    mass = rep["inverse-gamma-mean[nu=big]"]
    assert not mass.verdict and mass.std_error is not None
    assert abs(mass.value - 1.0) > mass.tolerance
    assert rep["forward-drift[nu=big]"].std_error is not None


# -- reproducibility -----------------------------------------------------


def test_reports_chunk_invariant():
    # the pass fed four uneven stream ranges reports what it reports on the
    # whole simulation: each run fills its paths' slice of the fields and
    # its streams' slice of the densities, on either pairing, with 1/gamma
    # held once (CLEAN) or per path (SHIFTED_GAMMA)
    checks = list(MC_CHECKS)
    for spec in (CLEAN, SHIFTED_GAMMA):
        for antithetic in (True, False):
            per = 2 if antithetic else 1
            whole = run_mc_checks(
                *simulated(spec, 1.0, 0.0, 32, 2002, seed=709, antithetic=antithetic), checks
            )
            mc = MonteCarloPass(spec, 32, 2002, checks, 1.0, 0.0, antithetic)
            for lo, hi in chunk_bounds(2002 // per, 4):
                bundle, _, _ = simulated(
                    spec, 1.0, 0.0, 32, per * (hi - lo), seed=709, antithetic=antithetic,
                    stream_offset=lo,
                )
                mc.gather(bundle)
            assert mc.reduce().to_json() == whole.to_json(), (spec, antithetic)


def test_reduce_holds_only_its_scratch_above_the_gathered_columns():
    # reduce reads the gathered columns where they are and builds every
    # statistic in the pass's scratch, so what it allocates is bounded by
    # that scratch, not by the columns. A paired density's even partners
    # are expanded in place of its drawn rows and its odd ones into one
    # scratch of n // 2 paths a column, one density at a time; the dual
    # increments, forward weight, log z~ and scale products reuse the dual
    # buffers, and the squared deviations the dead difference buffer. A
    # path-length density scratch, a second density's odd half, a separate
    # sample, weight or deviations buffer, or one fresh array per
    # statistic would exceed the bound
    n = 20_000  # antithetic paths: n // 2 samples per test
    mc = MonteCarloPass(CLEAN, 8, n, list(MC_CHECKS), 1.0, 0.0, True)
    mc.gather(simulate_paths(CLEAN, 8, n, seed=31, columns=mc.simulated_columns))
    # per-path dual values: one buffer for each index above 0
    n_dual = len(mc.idx)
    # each planned density at its columns (here the loads', which the
    # optimum and z~ share): the largest at every pass column
    assert max(len(cols) for _, _, cols in mc.densities) == len(mc.columns)
    odd_half = 8 * (n // 2) * len(mc.columns)
    scratch = 8 * (
        n * (1 + n_dual)  # "dual-arg" and the ("dual", k) values
        + n // 2  # "pairs"
        + (n // 4 + n // 8)  # "pairwise": levels of the n // 2 pair means
    )
    masks = 2 * n  # entropy_kernel's y >= 0 and y > 0, one byte a path
    bound = scratch + masks + odd_half + 64 * 1024  # and the records' Python objects
    # the smallest buffer that could come back, the deviations, breaks it
    assert bound < scratch + masks + odd_half + 8 * (n // 2)
    tracemalloc.start()
    try:
        report = mc.reduce()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
    assert report.all_passed


EXPANSION_CASES = {
    "suite": (CLEAN, list(MC_CHECKS), None),
    "shifted-gamma": (SHIFTED_GAMMA, list(MC_CHECKS), None),
    # phi is read by the weight before the optimum, without the level tests
    "optimum-and-weight": (CLEAN, ["dual-martingale-at-optimum", "inverse-gamma-mean"], None),
    # the optimum shares the density of the load "b", which is phi; z and
    # z~ apart
    "shared-loads": (
        SHIFTED_GAMMA,
        ["dual-martingale-at-optimum", "inverse-gamma-mean", "forward-drift"],
        {"a": np.full(8, 0.2), "b": np.full(8, 0.3), "c": np.full(8, 0.5)},
    ),
}


def recorded_expansions(monkeypatch, case, antithetic):
    """Reduce the pass of ``EXPANSION_CASES[case]`` on 400 paths, recording
    each call of ``_expand_halves``: (the drawn rows it expanded, a copy of
    the halves it returned). Returns the pass's drawn arrays, the calls,
    the bundle, the pass and its report's bytes."""
    spec, checks, family = EXPANSION_CASES[case]
    bundle = simulate_paths(spec, 8, 400, seed=17, antithetic=antithetic)
    mc = MonteCarloPass(spec, 8, 400, checks, 1.0, 0.0, antithetic, nu_family=family)
    mc.gather(bundle)
    draws = mc._arrays[2:]
    calls = []
    original = mc_verifier._expand_halves

    def recorded(drawn, *args):
        halves = original(drawn, *args)
        calls.append((drawn, [h.copy() for h in halves]))
        return halves

    monkeypatch.setattr(mc_verifier, "_expand_halves", recorded)
    text = mc.reduce().to_json()
    return draws, calls, bundle, mc, text


@pytest.mark.parametrize("case", sorted(EXPANSION_CASES))
@pytest.mark.parametrize("antithetic", [True, False], ids=["paired", "plain"])
def test_reduce_expands_each_planned_density_once(monkeypatch, case, antithetic):
    # readers are grouped by density, so every planned density is expanded
    # exactly once, however its readers interleave in the checks, and the
    # report keeps the bytes of the checks run one by one, the optimum's
    # records written once
    draws, calls, bundle, mc, text = recorded_expansions(monkeypatch, case, antithetic)
    assert len(draws) == len(mc.densities)
    assert sorted(id(drawn) for drawn, _ in calls) == sorted(map(id, draws))
    spec, checks, family = EXPANSION_CASES[case]
    alone = VerificationReport()
    for check in checks:
        alone.merge(run_mc_checks(bundle, 1.0, 0.0, [check], nu_family=family))
    assert text == in_one_pass(alone).to_json()


@pytest.mark.parametrize("case", sorted(EXPANSION_CASES))
@pytest.mark.parametrize("antithetic", [True, False], ids=["paired", "plain"])
def test_reduce_reads_density_path_halves_bit_for_bit(monkeypatch, case, antithetic):
    # the halves reduce reads, the even partners in place of the drawn
    # rows and the odd ones in scratch, are density_path's even and odd
    # rows bit for bit (every row without pairing): density_path stays the
    # reference for the pass's expansion
    draws, calls, bundle, mc, _ = recorded_expansions(monkeypatch, case, antithetic)
    for drawn, halves in calls:
        nu1, nu2, columns = mc.densities[[id(a) for a in draws].index(id(drawn))]
        want = ito_engine.density_path(bundle, nu1, nu2, columns)
        rows = [want[0::2], want[1::2]] if antithetic else [want]
        assert len(halves) == len(rows)
        for half, row in zip(halves, rows):
            assert half.tobytes() == np.ascontiguousarray(row.T).tobytes()


def gathered_growth(spec, mc, n):
    """The bytes one gather of ``n`` paths of ``spec``, paired as ``mc``
    pairs them, leaves allocated once the run's bundle (and the B integral
    its densities share) is dropped, as the next run's simulation drops
    it."""
    bundle = simulate_paths(
        spec, 8, n, seed=31, antithetic=mc.antithetic, columns=mc.simulated_columns
    )
    tracemalloc.start()
    try:
        mc.gather(bundle)
        del bundle
        growth = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return growth


def assert_gather_keeps(spec, per_path_inv_gamma, density_columns, field_columns, antithetic=True):
    """One gather of the full suite on ``spec`` keeps ``density_columns``
    density columns, one value per drawn stream (per antithetic pair with
    pairing), and ``field_columns`` per-path field columns: the shift's,
    and 1/gamma's exactly when ``per_path_inv_gamma``."""
    n = 20_000
    n_streams = n // 2 if antithetic else n
    mc = MonteCarloPass(spec, 8, n, list(MC_CHECKS), 1.0, 0.0, antithetic)
    assert mc.columns == mc.shift_columns == [4, 8]
    assert mc.per_path_inv_gamma == per_path_inv_gamma
    assert density_columns == sum(len(cols) for _, _, cols in mc.densities)
    assert field_columns == len(mc.shift_columns) + (
        len(mc.columns) if per_path_inv_gamma else 0
    )
    kept = 8 * (n_streams * density_columns + n * field_columns)
    growth = gathered_growth(spec, mc, n)
    assert kept <= growth <= kept + 64 * 1024, (growth, kept)


def test_gather_keeps_the_planned_densities_and_the_field_columns():
    # one gather keeps the pass's density arrays and the shift columns, all
    # above 0: each load's density at 4 and 8 (z~ is z when delta = 0) and
    # the shift at 4 and 8. A density built once per reader, a column at
    # t = 0, a log z~ column or a per-path 1/gamma, which delta = 0 makes
    # 1/gamma0 on every path, would exceed the bound
    assert_gather_keeps(CLEAN, False, 5 * 2, 2)


def test_gather_keeps_a_per_path_inverse_gamma_where_delta_moves_it():
    # delta = 0.2: 1/gamma varies by path, so the pass keeps it at 4 and 8,
    # and each load's z~ (B-load theta - delta) at 8 is a density of its own
    assert_gather_keeps(SHIFTED_GAMMA, True, 5 * 2 + 5, 2 + 2)


@pytest.mark.parametrize("spec", [CLEAN, SHIFTED_GAMMA], ids=["clean", "shifted-gamma"])
def test_paired_pass_holds_each_density_once_per_stream(spec):
    # a pair's partner reads the negated drawn log-density of its stream,
    # so a paired pass holds each density once per pair, half the density
    # bytes of a plain pass of as many paths; the fields stay per path.
    # Densities kept per path would exceed the paired bound
    densities = 5 * 2 + (5 if spec is SHIFTED_GAMMA else 0)
    fields = 2 + (2 if spec is SHIFTED_GAMMA else 0)
    for antithetic in (True, False):
        assert_gather_keeps(spec, spec is SHIFTED_GAMMA, densities, fields, antithetic)


def test_gather_keeps_no_shift_for_inverse_gamma_mean_alone():
    # no requested check reads the shift, so the fields hold none; with
    # delta = 0, 1/gamma is 1/gamma0 on every path and held once, so the
    # pass keeps each load's terminal density alone, once per pair
    n = 20_000
    mc = MonteCarloPass(CLEAN, 8, n, ["inverse-gamma-mean"], 1.0, 0.0, True)
    assert mc.columns == [8] and mc.shift_columns == []
    assert [cols for _, _, cols in mc.densities] == [[8]] * 5
    kept = 8 * (n // 2) * 5
    growth = gathered_growth(CLEAN, mc, n)
    assert kept <= growth <= kept + 64 * 1024, (growth, kept)


def test_inverse_gamma_mean_alone_reduces_without_a_sample_buffer():
    # the record reads the forward weight, so reduce takes its buffer and
    # the mean test's, and none for a difference or a log: a "sample"
    # buffer of n paths would exceed the bound
    n = 20_000  # plain paths, one sample each, as the chunked workload runs
    mc = MonteCarloPass(CLEAN, 8, n, ["inverse-gamma-mean"], 1.0, 0.0, False)
    mc.gather(simulate_paths(CLEAN, 8, n, seed=31, antithetic=False, columns=mc.simulated_columns))
    scratch = 8 * (
        2 * n  # "weight" and "deviations"
        + (n // 2 + n // 4)  # "pairwise": levels of the n samples
    )
    bound = scratch + 64 * 1024  # and the records' Python objects
    assert bound < scratch + 8 * n
    tracemalloc.start()
    try:
        report = mc.reduce()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
    assert len(report) == 5 and report.all_passed


@pytest.mark.parametrize(
    "antithetic, checks", [(True, None), (False, ["inverse-gamma-mean"])], ids=["suite", "plain"]
)
def test_four_runs_report_the_bytes_of_one(monkeypatch, antithetic, checks):
    # the README model, as the benchmark's Monte Carlo workloads run it:
    # a pass of four runs writes each run's densities into its slice of
    # the pass's arrays, joins the runs' field columns, and reports the
    # bytes of a pass of one run
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
    # the pass is told its simulation: a run of another spec, grid or
    # pairing, or one that does not start at the next path to fill, is
    # refused and leaves the pass as it was
    mc = MonteCarloPass(CLEAN, 8, 200, ["inverse-gamma-mean"], 1.0, 0.0, True)
    mc.gather(simulate_paths(CLEAN, 8, 100, seed=5))
    other = "another spec, grid or pairing than the pass's 8 steps with antithetic=True"
    order = "after the 100 gathered; the pass holds 200, and the chunk starts at path {}"
    refused = [
        # skips paths 100 .. 119 (streams 50 .. 59)
        ((CLEAN, 8, 100), {"stream_offset": 60}, order.format(120)),
        # repeats the first chunk
        ((CLEAN, 8, 100), {}, order.format(0)),
        # paths 100 .. 199 of a simulation without pairing
        ((CLEAN, 8, 100), {"stream_offset": 100, "antithetic": False}, other),
        ((CLEAN, 16, 100), {"stream_offset": 50}, other),
        # the pass plans its densities from its own model's coefficients
        ((SHIFTED_GAMMA, 8, 100), {"stream_offset": 50}, other),
    ]
    for args, kwargs, match in refused:
        with pytest.raises(ValueError, match=re.escape(match)):
            mc.gather(simulate_paths(*args, seed=5, **kwargs))
    mc.gather(simulate_paths(CLEAN, 8, 100, seed=5, stream_offset=50))
    whole = run_mc_checks(*simulated(CLEAN, 1.0, 0.0, 8, 200, seed=5), ["inverse-gamma-mean"])
    assert mc.reduce().to_json() == whole.to_json()


def test_pass_reads_the_shift_only_where_its_checks_do(monkeypatch):
    # the dual checks read the shift at their time indices above 0 and the
    # forward drift at the horizon; inverse-gamma-mean alone reads none.
    # With delta = 0, 1/gamma is held once and the shift divides by
    # 1/gamma0, so the fields build no 1/gamma column, and nothing at all
    # for inverse-gamma-mean alone
    built = []
    original = mc_verifier.build_forward_exponential

    def recorded(*args, **kwargs):
        fields = original(*args, **kwargs)
        built.append((fields.columns, fields.shift_columns))
        return fields

    monkeypatch.setattr(mc_verifier, "build_forward_exponential", recorded)
    bundle = simulate_paths(CLEAN, 8, 200, seed=5)
    shifts = (
        (["forward-drift"], [8]), (["dual-submartingale"], [4, 8]), (["inverse-gamma-mean"], [])
    )
    for checks, shift_columns in shifts:
        mc = MonteCarloPass(CLEAN, 8, 200, checks, 1.0, 0.0, True)
        assert mc.shift_columns == shift_columns
        run_mc_checks(bundle, 1.0, 0.0, checks)
        assert built == ([((), tuple(shift_columns))] if shift_columns else [])
        built.clear()


def test_pass_holds_exactly_its_path_count():
    # the pass writes each run into its slice of arrays of n_paths paths:
    # a run past them is refused and leaves the pass as it was, and a pass
    # short of them is not reduced
    with pytest.raises(ValueError, match="n_paths must be positive, got 0"):
        MonteCarloPass(CLEAN, 8, 0, ["inverse-gamma-mean"], 1.0, 0.0, True)
    mc = MonteCarloPass(CLEAN, 8, 300, ["inverse-gamma-mean"], 1.0, 0.0, True)
    mc.gather(simulated(CLEAN, 1.0, 0.0, 8, 200, seed=5)[0])
    with pytest.raises(ValueError, match="gathered 200 paths of the 300 it holds"):
        mc.reduce()
    past = "chunk has 200 paths after the 200 gathered; the pass holds 300"
    with pytest.raises(ValueError, match=past):
        mc.gather(simulated(CLEAN, 1.0, 0.0, 8, 200, seed=5, stream_offset=100)[0])
    mc.gather(simulated(CLEAN, 1.0, 0.0, 8, 100, seed=5, stream_offset=100)[0])
    whole = run_mc_checks(*simulated(CLEAN, 1.0, 0.0, 8, 300, seed=5), ["inverse-gamma-mean"])
    assert mc.reduce().to_json() == whole.to_json()


@pytest.mark.parametrize(
    "checks, per_run", [(None, {"B": 2, "W": 6}), (["inverse-gamma-mean"], {"B": 1, "W": 5})],
    ids=["suite", "inverse-gamma-mean"],
)
def test_each_run_builds_one_b_integral_for_its_densities(monkeypatch, checks, per_run):
    # on the README model every density loads theta on B (delta = 0), so a
    # run builds one B integral for its five densities; the shift's B and W
    # integrals only when a check reads the shift, and none for 1/gamma,
    # which delta = 0 makes 1/gamma0 on every path. Each load's density has
    # a W integral of its own
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
        "n_paths": 4000,
        "seed": 1234,
    }
    if checks:
        doc["checks"] = checks
    counts = {"B": 0, "W": 0, "runs": 0}
    integral, simulate = ito_engine._integral, cli.simulate_paths

    def counted_integral(bundle, sums, *args, **kwargs):
        counts["B" if sums is bundle.sum_dB else "W"] += 1
        return integral(bundle, sums, *args, **kwargs)

    def counted_simulate(*args, **kwargs):
        counts["runs"] += 1
        return simulate(*args, **kwargs)

    monkeypatch.setattr(ito_engine, "_integral", counted_integral)
    monkeypatch.setattr(cli, "simulate_paths", counted_simulate)
    # two runs of 1000 streams over the two simulated intervals
    monkeypatch.setattr(cli, "DRAW_BUDGET", 1000 * 2)
    run_ito_scenario(doc)
    assert counts == {"B": 2 * per_run["B"], "W": 2 * per_run["W"], "runs": 2}


def test_pass_builds_only_its_columns(monkeypatch):
    # densities and fields are built at the columns above 0 the checks
    # read: the time indices and the horizon. Each distinct load's density
    # is built once: with delta = 0 and phi a load of the family, the
    # optimum and the forward check's z~ read the loads' columns
    calls = []
    original = ito_engine.drawn_log_density

    def recorded(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    for module in (ito_engine, mc_verifier):
        monkeypatch.setattr(module, "drawn_log_density", recorded)
    mc = MonteCarloPass(CLEAN, 8, 400, list(MC_CHECKS), 1.0, 0.0, True, time_indices=[6, 0, 2])
    assert mc.columns == [2, 6, 8]
    assert MonteCarloPass(CLEAN, 8, 400, ["inverse-gamma-mean"], 1.0, 0.0, True).columns == [8]
    bundle = simulate_paths(CLEAN, 8, 400, seed=5)
    other_grid = simulate_paths(CLEAN, 16, 400, seed=5)
    with pytest.raises(ValueError, match="another spec, grid or pairing"):
        mc.gather(other_grid)
    assert calls == []
    mc.gather(bundle)
    # five loads, one density each, none at column 0
    assert [cols for _, _, cols in calls] == [[2, 6, 8]] * 5
    columns = mc.reduce()
    whole = run_mc_checks(bundle, 1.0, 0.0, list(MC_CHECKS), time_indices=[6, 0, 2])
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
        mc = MonteCarloPass(
            spec, 8, 200, checks, 1.0, 0.0, True, nu_family=family, time_indices=[1]
        )
        assert mc.simulated_columns == [0, 1, 2, 3, 4, 8]
    igm = MonteCarloPass(CLEAN, 8, 200, ["inverse-gamma-mean"], 1.0, 0.0, True)
    assert igm.simulated_columns == [0, 4, 8]
    mc = MonteCarloPass(CLEAN, 8, 200, ["inverse-gamma-mean"], 1.0, 0.0, True)
    bundle = simulate_paths(CLEAN, 8, 200, seed=5, columns=[0, 8])
    with pytest.raises(ValueError, match=r"not simulated at the grid columns \[4\]"):
        mc.gather(bundle)
    # at the simulated columns, or any superset of them, the pass reads it
    for columns in (mc.simulated_columns, range(9), [4, 6]):
        mc.gather(simulated(CLEAN, 1.0, 0.0, 8, 200, seed=5, columns=columns)[0])
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
    assert len(means) == 40
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
    # on a whole simulation of its own, the optimum's records written once
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
        CLEAN, 8, 800, [], 1.5, 0.1, antithetic, nu_family=family,
        time_indices=dual["time_indices"],
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
        return bundle, 1.5, 0.1

    runs = {
        "dual-submartingale": lambda: check_dual_submartingale(*fresh(), nu_family=family, **dual),
        "dual-martingale-at-optimum": lambda: check_dual_martingale_at_optimum(*fresh(), **dual),
        "inverse-gamma-mean": lambda: check_inverse_gamma_mean_mc(*fresh(), nu_family=family),
        "forward-drift": lambda: check_forward_drift_mc(*fresh(), nu_family=family),
    }
    separate = VerificationReport()
    for name in checks:
        separate.merge(runs[name]())
    separate.add(shared["mc-expected-false-failures"])
    assert shared.to_json() == in_one_pass(separate).to_json()
