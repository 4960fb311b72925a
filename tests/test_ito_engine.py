"""Path simulation, density processes, and the continuous-model field paths."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from forwardperf import ito_engine
from forwardperf.errors import AlignmentError
from forwardperf.ito_engine import (
    CoefficientSpec,
    build_forward_exponential,
    chunk_bounds,
    density_drift,
    density_path,
    drawn_log_density,
    expand_density,
    load_gap_integral,
    martingale_density,
    path_table,
    simulate_paths,
    write_paths_csv,
)
from forwardperf.kernels import Workspace, gaussian_field

PIECEWISE = CoefficientSpec(
    horizon=1.0,
    breakpoints=(0.0, 0.5),
    theta=(0.5, 0.5),
    delta=(0.2, -0.1),
    phi=(0.3, 0.0),
    rho=(0.1, 0.2),
)


# -- coefficient spec ----------------------------------------------------


def test_spec_constant_helper():
    spec = CoefficientSpec.constant(2.0, theta=0.5, phi=0.3)
    assert spec.breakpoints == (0.0,)
    assert spec.theta == (0.5,)
    assert spec.delta == (0.0,)
    assert spec.horizon == 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(horizon=0.0),
        dict(horizon=math.inf),
        dict(breakpoints=(0.1, 0.5), theta=(1.0, 1.0), delta=(0.0, 0.0), phi=(0.0, 0.0), rho=(0.0, 0.0)),
        dict(breakpoints=(0.0, 0.5, 0.5), theta=(1.0,) * 3, delta=(0.0,) * 3, phi=(0.0,) * 3, rho=(0.0,) * 3),
        dict(breakpoints=(0.0, 1.0), theta=(1.0, 1.0), delta=(0.0, 0.0), phi=(0.0, 0.0), rho=(0.0, 0.0)),
        dict(theta=(1.0, 2.0)),
        dict(theta=(math.nan,)),
    ],
)
def test_spec_validation(kwargs):
    base = dict(
        horizon=1.0, breakpoints=(0.0,), theta=(0.0,), delta=(0.0,), phi=(0.0,), rho=(0.0,)
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        CoefficientSpec(**base)


def test_per_step_left_endpoint_rule():
    spec = CoefficientSpec(
        horizon=1.0,
        breakpoints=(0.0, 1.0 / 3.0),
        theta=(1.0, 2.0),
        delta=(0.0, 0.0),
        phi=(0.0, 0.0),
        rho=(0.0, 0.0),
    )
    vals = spec.per_step_values(3)
    np.testing.assert_array_equal(vals["theta"], [1.0, 2.0, 2.0])
    vals = spec.per_step_values(6)
    np.testing.assert_array_equal(vals["theta"], [1.0, 1.0, 2.0, 2.0, 2.0, 2.0])


def test_per_step_refuses_offgrid_breakpoint():
    spec = CoefficientSpec(
        horizon=1.0,
        breakpoints=(0.0, 1.0 / 3.0),
        theta=(1.0, 2.0),
        delta=(0.0, 0.0),
        phi=(0.0, 0.0),
        rho=(0.0, 0.0),
    )
    with pytest.raises(AlignmentError, match="refine n_steps"):
        spec.per_step_values(4)
    with pytest.raises(ValueError):
        spec.per_step_values(0)


# -- simulation ----------------------------------------------------------


def test_simulate_validation():
    spec = CoefficientSpec.constant(1.0, theta=0.5)
    with pytest.raises(ValueError, match="even"):
        simulate_paths(spec, 8, 7, seed=1)
    with pytest.raises(ValueError, match="stream indices"):
        simulate_paths(spec, 8, 4, seed=1, stream_offset=-1)
    with pytest.raises(ValueError, match="positive"):
        simulate_paths(spec, 8, 0, seed=1)


def prices(bundle):
    """The export's price column of every path of ``bundle``, one row each."""
    fields = build_forward_exponential(bundle.spec, 1.0, 0.0, bundle)
    return np.array(
        [path_table(bundle, fields, {}, bundle.first_path + i)[:, 1] for i in range(bundle.n_paths)]
    )


def test_simulate_shapes_and_grid():
    bundle = simulate_paths(PIECEWISE, 8, 6, seed=7)
    # one row per stream: 3 antithetic pairs
    assert bundle.sum_dB.shape == bundle.sum_dW.shape == (3, 9)
    assert bundle.dt == pytest.approx(0.125)
    np.testing.assert_allclose(bundle.grid, np.linspace(0, 1, 9))
    np.testing.assert_array_equal(bundle.theta, [0.5] * 8)
    np.testing.assert_array_equal(bundle.delta, [0.2] * 4 + [-0.1] * 4)
    assert not bundle.sum_dB.flags.writeable
    assert not bundle.sum_dW.flags.writeable
    # the running sums are the only stored form of the draws
    for name in ("dB", "dW", "ds", "s", "work"):
        assert not hasattr(bundle, name)


def test_simulate_antithetic_pairing():
    # stream i drives paths 2i and 2i + 1: the sums are the plain
    # simulation's of the same streams, and path 2i + 1 reads them negated
    bundle = simulate_paths(PIECEWISE, 8, 10, seed=3)
    plain = simulate_paths(PIECEWISE, 8, 5, seed=3, antithetic=False)
    np.testing.assert_array_equal(bits(bundle.sum_dB), bits(plain.sum_dB))
    np.testing.assert_array_equal(bits(bundle.sum_dW), bits(plain.sum_dW))
    dB, _ = oracles.increments(bundle, 3)
    np.testing.assert_array_equal(bits(prices(bundle)), bits(oracles.price_paths(bundle, dB)))


def test_simulate_price_recursion():
    bundle = simulate_paths(PIECEWISE, 8, 4, seed=5)
    dB, _ = oracles.increments(bundle, 5)
    s = prices(bundle)
    assert np.all(s[:, 0] == 0.0)
    # theta t + B(t): the drift summed over the grid plus the running sums
    # of dB, bit for bit
    np.testing.assert_array_equal(bits(s), bits(oracles.price_paths(bundle, dB)))
    # and, to rounding, the running sums of the increments theta dt + dB
    np.testing.assert_allclose(np.diff(s, axis=1), bundle.theta * bundle.dt + dB, atol=1e-15)
    np.testing.assert_allclose(
        s, oracles.running_sums(bundle.theta * bundle.dt + dB), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize("antithetic", [True, False])
def test_simulate_runs_share_a_workspace(antithetic):
    # runs on one workspace reuse its memory, and each run's bundle holds
    # the rows of the whole simulation until the next run overwrites them
    per = 2 if antithetic else 1
    whole = simulate_paths(PIECEWISE, 8, per * 13, seed=21, antithetic=antithetic)
    z_whole = martingale_density(whole, 0.3)
    s_whole = prices(whole)
    work = Workspace()
    first = None
    for lo, hi in [(0, 7), (7, 12), (12, 13)]:
        bundle = simulate_paths(
            PIECEWISE, 8, per * (hi - lo), seed=21, antithetic=antithetic, stream_offset=lo,
            work=work,
        )
        # a run holds the two running sums and gaussian_field's tiles
        assert set(work._buffers) == {"sum_dB", "sum_dW", "blocks", "uniforms"}
        first = bundle if first is None else first
        for name in ("sum_dB", "sum_dW"):
            assert np.shares_memory(getattr(bundle, name), getattr(first, name))
            np.testing.assert_array_equal(getattr(bundle, name), getattr(whole, name)[lo:hi])
        rows = slice(per * lo, per * hi)
        np.testing.assert_array_equal(prices(bundle), s_whole[rows])
        np.testing.assert_array_equal(martingale_density(bundle, 0.3), z_whole[rows])


def test_simulate_chunk_invariance():
    # consecutive stream ranges, simulated one at a time from their offset,
    # rebuild the whole simulation's paths, fields and densities bit for bit
    n_streams = 11
    ranges = chunk_bounds(n_streams, 4)
    assert [hi - lo for lo, hi in ranges] == [2, 3, 3, 3]
    for antithetic in (True, False):
        per = 2 if antithetic else 1
        whole = simulate_paths(PIECEWISE, 16, per * n_streams, seed=11, antithetic=antithetic)
        parts = [
            simulate_paths(
                PIECEWISE, 16, per * (hi - lo), seed=11, antithetic=antithetic, stream_offset=lo
            )
            for lo, hi in ranges
        ]
        assert [p.first_path for p in parts] == [per * lo for lo, _ in ranges]

        def stacked(fn):
            return np.vstack([fn(p) for p in parts])

        for name in ("sum_dB", "sum_dW"):
            np.testing.assert_array_equal(
                stacked(lambda p: getattr(p, name)), getattr(whole, name)
            )
        np.testing.assert_array_equal(stacked(prices), prices(whole))
        fields = build_forward_exponential(PIECEWISE, 1.5, 0.1, whole)
        for name in ("inv_gamma", "a_shift"):
            got = stacked(
                lambda p: getattr(build_forward_exponential(PIECEWISE, 1.5, 0.1, p), name)
            )
            np.testing.assert_array_equal(got, getattr(fields, name))
        np.testing.assert_array_equal(
            stacked(lambda p: martingale_density(p, 0.7)), martingale_density(whole, 0.7)
        )


def test_simulate_seed_determinism():
    a = simulate_paths(PIECEWISE, 8, 4, seed=9)
    b = simulate_paths(PIECEWISE, 8, 4, seed=9)
    c = simulate_paths(PIECEWISE, 8, 4, seed=10)
    np.testing.assert_array_equal(a.sum_dB, b.sum_dB)
    assert not np.array_equal(a.sum_dB, c.sum_dB)


def test_simulate_moments():
    spec = CoefficientSpec.constant(1.0, theta=0.5)
    bundle = simulate_paths(spec, 64, 20000, seed=13)
    dB, dW = oracles.increments(bundle, 13)
    # the draws the bundle summed
    np.testing.assert_array_equal(bits(bundle.sum_dB), bits(oracles.running_sums(dB)[0::2]))
    s_term = oracles.price_paths(bundle, dB)[:, -1]
    # antithetic pairing cancels the Gaussian part of the mean exactly
    assert np.mean(s_term) == pytest.approx(0.5, abs=1e-12)
    assert np.var(s_term) == pytest.approx(1.0, abs=0.05)
    # B and W stay uncorrelated
    corr = np.corrcoef(dB.ravel(), dW.ravel())[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(dB.size)


# -- density processes ---------------------------------------------------


def test_density_trivial_load_is_one():
    bundle = simulate_paths(PIECEWISE, 8, 4, seed=15)
    z = density_path(bundle, 0.0, 0.0)
    np.testing.assert_array_equal(z, np.ones_like(z))


def test_density_starts_at_one_and_validates():
    bundle = simulate_paths(PIECEWISE, 8, 4, seed=15)
    z = density_path(bundle, 0.3, np.full(8, 0.2))
    assert np.all(z[:, 0] == 1.0)
    assert z.shape == (4, 9)
    with pytest.raises(ValueError, match="nu1"):
        density_path(bundle, np.ones(7), 0.0)


def test_density_unit_mean_and_price_martingale():
    spec = CoefficientSpec.constant(1.0, theta=0.5)
    bundle = simulate_paths(spec, 64, 20000, seed=17)
    z = martingale_density(bundle, 0.3)[:, -1]
    pairs_z = 0.5 * (z[0::2] + z[1::2])
    se = np.std(pairs_z) / math.sqrt(pairs_z.size)
    assert abs(np.mean(pairs_z) - 1.0) <= 3.0 * se
    zs = z * oracles.price_paths(bundle, oracles.increments(bundle, 17)[0])[:, -1]
    pairs = 0.5 * (zs[0::2] + zs[1::2])
    se = np.std(pairs) / math.sqrt(pairs.size)
    assert abs(np.mean(pairs)) <= 3.0 * se


def test_martingale_density_pins_price_load():
    bundle = simulate_paths(PIECEWISE, 8, 4, seed=19)
    np.testing.assert_array_equal(
        martingale_density(bundle, 0.4), density_path(bundle, bundle.theta, 0.4)
    )


# -- density and field kernels -------------------------------------------

# a piecewise model with every coefficient active, on a grid that hits its
# breakpoints
KERNEL_SPEC = CoefficientSpec(
    horizon=1.0,
    breakpoints=(0.0, 0.25, 0.75),
    theta=(0.5, 0.3, 0.6),
    delta=(0.2, 0.0, -0.1),
    phi=(0.3, 0.1, 0.2),
    rho=(0.1, -0.2, 0.05),
)
# None asks for the full matrices; the last set names every column
COLUMN_SETS = [None, [0], [16], [11, 3, 16, 7], list(range(17))]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_close_to_per_step(got, want):
    # the per-step cumsums sum in another order: equal to rounding
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("a0", [0.0, -0.0, 0.1, -2.5])
@pytest.mark.parametrize(
    "spec",
    [CoefficientSpec.constant(1.0, theta=0.5, delta=0.2, phi=-0.3, rho=-0.1), KERNEL_SPEC],
    ids=["delta", "piecewise"],
)
@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
def test_kernels_start_every_path_at_the_start_values(antithetic, spec, a0):
    # at grid column 0 every path holds Z_0 = 1.0, 1/gamma_0 = 1/gamma0 and
    # a_0 = a0 + 0.0, bit for bit: S_B(0) = S_W(0) = 0, exp(+-0) = 1, and a
    # partner's -0 vanishes in + 0.0. MonteCarloPass reads these constants
    # at index 0 instead of building the columns
    bundle = simulate_paths(spec, 16, 514, seed=43, antithetic=antithetic)

    def start(value):
        return bits(np.full(bundle.n_paths, value))

    loads = (
        (bundle.theta, np.linspace(-0.4, 0.6, 16)),
        (bundle.theta - bundle.delta, -0.25),
        (-0.3, 0.0),
    )
    for nu1, nu2 in loads:
        z = density_path(bundle, nu1, nu2, [0, 16])
        np.testing.assert_array_equal(bits(z[:, 0]), start(1.0))
    fields = build_forward_exponential(spec, 1.3, a0, bundle, [0, 16])
    np.testing.assert_array_equal(bits(fields.inv_gamma[:, 0]), start(1.0 / 1.3))
    np.testing.assert_array_equal(bits(fields.a_shift[:, 0]), start(a0 + 0.0))


@pytest.mark.parametrize(
    "n_paths, antithetic",
    [(n, False) for n in (1, 511, 512, 513, 1027)]
    + [(n, True) for n in (2, 510, 512, 514, 1028)],
)
def test_blocked_kernels_match_whole_matrix_oracles(n_paths, antithetic):
    # every path count and column request gives the whole-matrix statement
    # of the running-sum construction bit for bit, with constant, piecewise
    # and per-step loads (the ramp changes at every step)
    bundle = simulate_paths(KERNEL_SPEC, 16, n_paths, seed=31, antithetic=antithetic)
    draws = oracles.increments(bundle, 31)
    # the running sums of the drawn rows: the even rows with pairing
    drawn = slice(None, None, 2 if antithetic else 1)
    for sums, d in zip((bundle.sum_dB, bundle.sum_dW), draws):
        np.testing.assert_array_equal(bits(sums), bits(oracles.running_sums(d)[drawn]))
    ramp = np.linspace(-0.4, 0.6, 16)
    loads = ((bundle.theta, ramp), (bundle.theta - bundle.delta, 0.25), (0.3, ramp))
    want_z = [oracles.density_path_full(bundle, draws, nu1, nu2) for nu1, nu2 in loads]
    want_inv, want_shift = oracles.forward_exponential_full(1.3, 0.2, bundle, draws)
    for cols in COLUMN_SETS:
        keep = slice(None) if cols is None else cols
        for (nu1, nu2), want in zip(loads, want_z):
            got = density_path(bundle, nu1, nu2, cols)
            np.testing.assert_array_equal(bits(got), bits(want[:, keep]))
        np.testing.assert_array_equal(
            bits(martingale_density(bundle, ramp, cols)), bits(want_z[0][:, keep])
        )
        fields = build_forward_exponential(KERNEL_SPEC, 1.3, 0.2, bundle, cols)
        np.testing.assert_array_equal(bits(fields.inv_gamma), bits(want_inv[:, keep]))
        np.testing.assert_array_equal(bits(fields.a_shift), bits(want_shift[:, keep]))
        assert fields.columns == tuple(range(17) if cols is None else cols)
        assert not fields.inv_gamma.flags.writeable
        assert not fields.a_shift.flags.writeable
    for (nu1, nu2), want in zip(loads, want_z):
        assert_close_to_per_step(want, oracles.density_path_per_step(bundle, draws, nu1, nu2))
    per_step_inv, per_step_shift = oracles.forward_exponential_per_step(1.3, 0.2, bundle, draws)
    assert_close_to_per_step(want_inv, per_step_inv)
    assert_close_to_per_step(want_shift, per_step_shift)


def test_kernels_refuse_columns_off_the_grid():
    bundle = simulate_paths(KERNEL_SPEC, 16, 4, seed=31)
    for cols in ([17], [0, -1], [3, 40]):
        with pytest.raises(ValueError, match="grid columns must lie in 0..16"):
            density_path(bundle, 0.1, 0.2, cols)
        with pytest.raises(ValueError, match="grid columns must lie in 0..16"):
            build_forward_exponential(KERNEL_SPEC, 1.0, 0.0, bundle, cols)
    with pytest.raises(TypeError):
        density_path(bundle, 0.1, 0.2, [2.5])


# -- simulated columns ---------------------------------------------------

# KERNEL_SPEC changes its coefficients at columns 4 and 12 of 16 steps
SIMULATED = [0, 4, 7, 12, 16]


@pytest.mark.parametrize("antithetic", [True, False])
def test_simulated_columns_draw_each_interval_sum(antithetic):
    # increment k over [c_k, c_{k+1}) is sqrt((c_{k+1} - c_k) dt) times step
    # k of the Gaussian field, and the sums run over the intervals in
    # order, bit for bit
    per = 2 if antithetic else 1
    bundle = simulate_paths(
        KERNEL_SPEC, 16, 10, seed=31, antithetic=antithetic, columns=[12, 7, 4, 12]
    )
    assert bundle.columns.tolist() == SIMULATED and bundle.n_steps == 16
    np.testing.assert_array_equal(bundle.grid, np.linspace(0.0, 1.0, 17)[SIMULATED])
    fields = gaussian_field(31, 10 // per, 4)
    scale = [math.sqrt(length * bundle.dt) for length in np.diff(SIMULATED)]
    draws = oracles.increments(bundle, 31)
    for sums, z, d in zip((bundle.sum_dB, bundle.sum_dW), fields, draws):
        assert sums.shape == (10 // per, 5) and np.all(sums[:, 0] == 0.0)
        np.testing.assert_array_equal(bits(sums[:, 1:]), bits(np.cumsum(z * scale, axis=1)))
        np.testing.assert_array_equal(bits(sums), bits(oracles.running_sums(d)[0::per]))
    # the price drifts by theta dt summed over each interval
    drift = [np.sum(bundle.theta[a:b] * bundle.dt) for a, b in zip(SIMULATED, SIMULATED[1:])]
    s = prices(bundle)
    assert s.shape == (10, 5) and np.all(s[:, 0] == 0.0)
    np.testing.assert_allclose(
        np.diff(s, axis=1), np.asarray(drift) + draws[0], rtol=0, atol=1e-15
    )


def test_simulated_columns_default_to_the_full_grid():
    # the full grid as columns is the default simulation, bit for bit; no
    # columns at all is the one interval [0, n_steps]
    full = simulate_paths(KERNEL_SPEC, 16, 6, seed=8)
    listed = simulate_paths(KERNEL_SPEC, 16, 6, seed=8, columns=range(17))
    assert full.columns.tolist() == list(range(17))
    for name in ("sum_dB", "sum_dW", "grid"):
        np.testing.assert_array_equal(bits(getattr(listed, name)), bits(getattr(full, name)))
    np.testing.assert_array_equal(bits(prices(listed)), bits(prices(full)))
    ends = simulate_paths(KERNEL_SPEC, 16, 6, seed=8, columns=[])
    assert ends.columns.tolist() == [0, 16] and ends.sum_dB.shape == (3, 2)
    with pytest.raises(ValueError, match="grid columns must lie in 0..16"):
        simulate_paths(KERNEL_SPEC, 16, 6, seed=8, columns=[3, 17])


@pytest.mark.parametrize("antithetic", [True, False])
def test_kernels_on_simulated_columns_match_whole_matrix_oracles(antithetic):
    # the oracles read the running sums at the simulated columns and NaN at
    # every other column: the kernels match them bit for bit, so they read
    # no column that was not simulated
    bundle = simulate_paths(KERNEL_SPEC, 16, 14, seed=31, antithetic=antithetic, columns=[7, 4, 12])
    draws = oracles.increments(bundle, 31)
    loads = ((bundle.theta, 0.25), (bundle.theta - bundle.delta, bundle.phi), (0.3, -0.1))
    want_z = [oracles.density_path_full(bundle, draws, nu1, nu2) for nu1, nu2 in loads]
    want_inv, want_shift = oracles.forward_exponential_full(1.3, 0.2, bundle, draws)
    for want in (*want_z, want_inv, want_shift):
        assert np.isfinite(want[:, SIMULATED]).all()
    for cols in (None, [16], [12, 0, 7], SIMULATED):
        keep = SIMULATED if cols is None else cols
        for (nu1, nu2), want in zip(loads, want_z):
            got = density_path(bundle, nu1, nu2, cols)
            np.testing.assert_array_equal(bits(got), bits(want[:, keep]))
        fields = build_forward_exponential(KERNEL_SPEC, 1.3, 0.2, bundle, cols)
        np.testing.assert_array_equal(bits(fields.inv_gamma), bits(want_inv[:, keep]))
        np.testing.assert_array_equal(bits(fields.a_shift), bits(want_shift[:, keep]))
        assert fields.columns == tuple(keep)


def test_kernels_refuse_unsimulated_columns():
    # a column asked for, or a change point of a load before it, that the
    # bundle did not simulate is refused by name, never interpolated
    bundle = simulate_paths(KERNEL_SPEC, 16, 4, seed=31, columns=[4, 7, 12])
    for cols in ([5], [16, 3, 7]):
        with pytest.raises(ValueError, match=r"grid columns \[\d+\] were not simulated"):
            density_path(bundle, 0.1, 0.2, cols)
        with pytest.raises(ValueError, match=r"grid columns \[\d+\] were not simulated"):
            build_forward_exponential(KERNEL_SPEC, 1.0, 0.0, bundle, cols)
    ramp = np.linspace(-0.4, 0.6, 16)
    with pytest.raises(ValueError, match=r"grid columns \[1, 2, 3\] were not simulated"):
        density_path(bundle, 0.1, ramp, [4])
    # before the first change point no boundary is read
    np.testing.assert_array_equal(density_path(bundle, ramp, 0.0, [0]), 1.0)
    # a model that changes at a column the bundle lacks
    ends = simulate_paths(KERNEL_SPEC, 16, 4, seed=31, columns=[])
    with pytest.raises(ValueError, match=r"grid columns \[4, 12\] were not simulated"):
        build_forward_exponential(KERNEL_SPEC, 1.0, 0.0, ends, [16])
    with pytest.raises(ValueError, match=r"grid columns \[4, 12\] were not simulated"):
        martingale_density(ends, 0.0, [16])


# -- shared B integral, output buffers, shift columns ----------------------


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
def test_shared_b_integral_keeps_each_density_bits(antithetic):
    # the densities on one bundle share its B integral per B-load and
    # columns; each equals, bit for bit, the density built alone on a fresh
    # bundle of the same draws. KERNEL_SPEC is piecewise with delta != 0,
    # so theta - delta is a second B-load, and the ramp changes every step
    ramp = np.linspace(-0.4, 0.6, 16)
    shared = simulate_paths(KERNEL_SPEC, 16, 514, seed=37, antithetic=antithetic)
    b_loads = (shared.theta, shared.theta - shared.delta)
    column_sets = (None, [16], [11, 3, 16, 7])
    for cols in column_sets:
        for nu1 in b_loads:
            for nu2 in (shared.phi, ramp, 0.8):
                fresh = simulate_paths(KERNEL_SPEC, 16, 514, seed=37, antithetic=antithetic)
                want = density_path(fresh, nu1, nu2, cols)
                got = density_path(shared, nu1, nu2, cols)
                np.testing.assert_array_equal(bits(got), bits(want))
    # one integral per distinct (B-load, columns), none per W-load
    assert len(shared.b_integrals) == len(b_loads) * len(column_sets)
    assert not any(i_b.flags.writeable for i_b in shared.b_integrals.values())


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
def test_density_path_writes_into_out(antithetic):
    # a run writes its paths' slice of a larger time-major array, as a
    # Monte Carlo pass holds its densities; nothing else of it is touched
    bundle = simulate_paths(KERNEL_SPEC, 16, 10, seed=41, antithetic=antithetic, stream_offset=3)
    cols = [12, 4, 16]
    want = density_path(bundle, bundle.theta, np.linspace(-0.4, 0.6, 16), cols)
    held = np.full((len(cols), 30), np.nan)
    out = held[:, 6:16].T
    got = density_path(bundle, bundle.theta, np.linspace(-0.4, 0.6, 16), cols, out=out)
    assert got is out
    np.testing.assert_array_equal(bits(held[:, 6:16].T), bits(want))
    assert np.isnan(held[:, :6]).all() and np.isnan(held[:, 16:]).all()
    for bad in (np.empty((10, 2)), np.empty((3, 10)).T[:, :2], np.empty((10, 3), np.float32)):
        with pytest.raises(ValueError, match=r"out must be a float64 array of shape \(10, 3\)"):
            density_path(bundle, 0.1, 0.2, cols, out=bad)


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
def test_density_is_its_drawn_log_density_expanded(antithetic):
    # the two stages of density_path: the drawn log-density, one row per
    # stream, written into a stream slice of a larger time-major array as
    # a Monte Carlo pass holds it, then expanded into path values, into a
    # fresh array or in place of the rows without pairing
    bundle = simulate_paths(KERNEL_SPEC, 16, 10, seed=41, antithetic=antithetic, stream_offset=3)
    n_streams = 5 if antithetic else 10
    cols = [12, 4, 16]
    ramp = np.linspace(-0.4, 0.6, 16)
    want = density_path(bundle, bundle.theta, ramp, cols)
    held = np.full((len(cols), 20), np.nan)
    out = held[:, 4 : 4 + n_streams].T
    drawn = drawn_log_density(bundle, bundle.theta, ramp, cols, out=out)
    assert drawn is out
    assert np.isnan(held[:, :4]).all() and np.isnan(held[:, 4 + n_streams :]).all()
    drift = density_drift(bundle.theta, ramp, bundle.dt)[cols]
    np.testing.assert_array_equal(bits(expand_density(drawn, drift, antithetic)), bits(want))
    if not antithetic:
        assert expand_density(drawn, drift, False, out=drawn) is drawn
        np.testing.assert_array_equal(bits(drawn), bits(want))
    with pytest.raises(ValueError, match=r"out must be a float64 array of shape"):
        drawn_log_density(bundle, 0.1, 0.2, cols, out=np.empty((10 + n_streams, 3)))


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
def test_fields_divide_a_delta_zero_shift_by_inverse_gamma0(antithetic):
    # with delta 0 at every step 1/gamma is 1.0 / gamma0 on every path, so
    # the shift may sit at columns where no 1/gamma is built, none say,
    # with the bits of the full build; with delta != 0 it may not
    spec = CoefficientSpec.constant(1.0, theta=-0.5, phi=0.3, rho=0.1)
    bundle = simulate_paths(spec, 16, 14, seed=31, antithetic=antithetic)
    full = build_forward_exponential(spec, 1.3, 0.2, bundle)
    assert (bits(full.inv_gamma) == bits(np.array(1.0 / 1.3))).all()
    for cols, shift_cols in (([], [16, 4]), ([8], [3, 16]), ([16, 4], [16, 4])):
        fields = build_forward_exponential(spec, 1.3, 0.2, bundle, cols, shift_cols)
        assert fields.inv_gamma.shape == (14, len(cols))
        np.testing.assert_array_equal(bits(fields.a_shift), bits(full.a_shift[:, shift_cols]))
    moved = simulate_paths(KERNEL_SPEC, 16, 14, seed=31, antithetic=antithetic)
    with pytest.raises(ValueError, match=r"shift columns \[4, 16\] are not among the columns \[\]"):
        build_forward_exponential(KERNEL_SPEC, 1.3, 0.2, moved, [], [16, 4])


@pytest.mark.parametrize("shift_cols", [[16, 4], []], ids=["shift", "no-shift"])
@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
def test_fields_write_into_out(antithetic, shift_cols):
    # a run writes its paths' slice of larger time-major arrays, as a Monte
    # Carlo pass holds 1/gamma and the shift: the bits of a fresh call, and
    # nothing else of the arrays is touched
    bundle = simulate_paths(KERNEL_SPEC, 16, 10, seed=41, antithetic=antithetic, stream_offset=3)
    cols = [12, 4, 16]
    want = build_forward_exponential(KERNEL_SPEC, 1.3, 0.2, bundle, cols, shift_cols)
    held = [np.full((len(c), 30), np.nan) for c in (cols, shift_cols)]
    out = tuple(arr[:, 6:16].T for arr in held)
    got = build_forward_exponential(KERNEL_SPEC, 1.3, 0.2, bundle, cols, shift_cols, out=out)
    assert got.inv_gamma is out[0] and got.a_shift is out[1]
    assert (got.columns, got.shift_columns) == (want.columns, want.shift_columns)
    np.testing.assert_array_equal(bits(held[0][:, 6:16].T), bits(want.inv_gamma))
    np.testing.assert_array_equal(bits(held[1][:, 6:16].T), bits(want.a_shift))
    for arr in held:
        assert np.isnan(arr[:, :6]).all() and np.isnan(arr[:, 16:]).all()
    good = np.empty((10, len(shift_cols)))
    for bad in (np.empty((10, 2)), np.empty((3, 10)).T[:, :2], np.empty((10, 3), np.float32)):
        with pytest.raises(ValueError, match=r"out must be a float64 array of shape \(10, 3\)"):
            build_forward_exponential(
                KERNEL_SPEC, 1.3, 0.2, bundle, cols, shift_cols, out=(bad, good)
            )


@pytest.mark.parametrize("antithetic", [True, False], ids=["antithetic", "plain"])
def test_fields_build_the_shift_only_at_its_columns(antithetic):
    # the shift at shift_columns, among the columns, has the bits it has
    # when built at every column; an empty list builds none
    bundle = simulate_paths(KERNEL_SPEC, 16, 14, seed=31, antithetic=antithetic)
    full = build_forward_exponential(KERNEL_SPEC, 1.3, 0.2, bundle)
    cols = [11, 3, 16, 7]
    for shift_cols in ([], [16], [7, 11], [3, 7, 11, 16], cols):
        fields = build_forward_exponential(KERNEL_SPEC, 1.3, 0.2, bundle, cols, shift_cols)
        np.testing.assert_array_equal(bits(fields.inv_gamma), bits(full.inv_gamma[:, cols]))
        assert fields.a_shift.shape == (14, len(shift_cols))
        np.testing.assert_array_equal(bits(fields.a_shift), bits(full.a_shift[:, shift_cols]))
        assert fields.columns == tuple(cols) and fields.shift_columns == tuple(shift_cols)
        assert not fields.a_shift.flags.writeable
    assert full.shift_columns == full.columns == tuple(range(17))
    with pytest.raises(ValueError, match=r"shift columns \[4, 12\] are not among the columns"):
        build_forward_exponential(KERNEL_SPEC, 1.3, 0.2, bundle, cols, [12, 16, 4])


def test_integral_allocates_its_result_and_at_most_one_row():
    # runs are taken in time order: a run that starts on a column asked
    # for reads that column's row, and a start that is not asked for is
    # built in one row of scratch. KERNEL_SPEC's theta changes at columns
    # 4 and 12 of 16
    n = 4096
    bundle = simulate_paths(KERNEL_SPEC, 16, n, seed=7, antithetic=False)
    row = 8 * n
    for cols, scratch in (([2, 3], 0), ([4, 12, 16], 0), ([16], row), ([3, 16, 7], row)):
        cols = np.array(cols)
        tracemalloc.start()
        try:
            x = ito_engine._integral(bundle, bundle.sum_dB, bundle.theta, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes + scratch <= peak <= x.nbytes + scratch + 4096, (cols, peak)


def test_one_interval_sum_has_the_horizon_as_variance():
    # one draw per stream over [0, horizon]: S_B(T) and S_W(T) are
    # N(0, horizon), within four standard errors of the sample mean and
    # of the sample variance
    spec = CoefficientSpec.constant(2.0, theta=0.5)
    bundle = simulate_paths(spec, 64, 40_000, seed=13, antithetic=False, columns=[])
    n = bundle.n_paths
    for sums in (bundle.sum_dB, bundle.sum_dW):
        terminal = sums[:, -1]
        assert abs(terminal.mean()) < 4.0 * math.sqrt(2.0 / n)
        assert abs(terminal.var(ddof=1) - 2.0) < 4.0 * 2.0 * math.sqrt(2.0 / (n - 1))


# -- field paths ---------------------------------------------------------


def test_fields_deterministic_shift_pin():
    # delta = phi = rho = 0, theta = c: the shift grows by c^2 t / 2 exactly
    c = 0.7
    spec = CoefficientSpec.constant(1.0, theta=c)
    bundle = simulate_paths(spec, 16, 6, seed=21)
    fields = build_forward_exponential(spec, 2.0, 0.1, bundle)
    np.testing.assert_array_equal(fields.inv_gamma, np.full((6, 17), 0.5))
    want = 0.1 + 0.5 * c * c * bundle.grid
    np.testing.assert_allclose(fields.a_shift, np.broadcast_to(want, (6, 17)), atol=1e-14)
    # every check of a scenario reads these arrays, so none may write them
    assert not fields.inv_gamma.flags.writeable
    assert not fields.a_shift.flags.writeable


def test_fields_validation():
    bundle = simulate_paths(PIECEWISE, 8, 4, seed=23)
    with pytest.raises(ValueError, match="gamma0"):
        build_forward_exponential(PIECEWISE, 0.0, 0.0, bundle)


def test_forward_weights_exact_identity():
    # gamma_0/gamma_T times the theta-load density equals the density with
    # B-load theta - delta, path by path
    bundle = simulate_paths(PIECEWISE, 8, 32, seed=25)
    gamma0 = 1.3
    fields = build_forward_exponential(PIECEWISE, gamma0, 0.2, bundle)
    for nu in (0.0, 0.3, 0.8):
        w = fields.inv_gamma[:, -1] * gamma0 * martingale_density(bundle, nu)[:, -1]
        direct = density_path(bundle, bundle.theta - bundle.delta, nu)[:, -1]
        np.testing.assert_allclose(w, direct, rtol=1e-12, atol=1e-13)


def forward_drift_target(spec, n_steps, nu2):
    """-(1/2) integral (nu2 - phi)^2 dt, the forward-drift record's target
    less a0, at a constant load nu2."""
    phi = spec.per_step_values(n_steps)["phi"]
    return -0.5 * load_gap_integral(phi, np.full(n_steps, nu2), spec.horizon / n_steps)[-1]


def test_predicted_drift_pins():
    spec = CoefficientSpec.constant(1.0, theta=0.5, phi=0.3)
    assert forward_drift_target(spec, 64, 0.0) == pytest.approx(-0.045, abs=1e-15)
    assert forward_drift_target(spec, 64, 0.7) == pytest.approx(-0.08, abs=1e-15)
    assert forward_drift_target(spec, 64, 0.3) == 0.0


def test_predicted_drift_additivity():
    # load difference 0.4 on [0, 1/2] and 0 afterwards integrates to -0.04
    spec = CoefficientSpec(
        horizon=1.0,
        breakpoints=(0.0, 0.5),
        theta=(0.0, 0.0),
        delta=(0.0, 0.0),
        phi=(0.4, 0.0),
        rho=(0.0, 0.0),
    )
    assert forward_drift_target(spec, 8, 0.0) == pytest.approx(-0.04, abs=1e-15)
    # the forward drift reads the integral the dual targets read, at the
    # horizon: 0.16 per unit time on [0, 1/2], nothing afterwards
    gap = load_gap_integral(spec.per_step_values(8)["phi"], np.zeros(8), 1 / 8)
    assert gap.shape == (9,) and gap[0] == 0.0
    np.testing.assert_allclose(gap, [0.02 * min(k, 4) for k in range(9)], rtol=0, atol=1e-15)
    assert forward_drift_target(spec, 8, 0.0) == -0.5 * gap[-1]


# -- export --------------------------------------------------------------


def test_export_paths_csv(tmp_path):
    bundle = simulate_paths(PIECEWISE, 4, 6, seed=27)
    fields = build_forward_exponential(PIECEWISE, 1.0, 0.0, bundle)
    dens = {"mart": martingale_density(bundle, 0.0)}
    out = tmp_path / "paths.csv"
    tables = ((i, path_table(bundle, fields, dens, i)) for i in (0, 2))
    rows = write_paths_csv(str(out), list(dens), tables)
    assert rows == 10
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["path", "t", "s", "z_mart", "inv_gamma", "a_shift"]
    assert len(table) == 11
    assert table[1][0] == "0"
    assert float(table[1][2]) == 0.0
    s = oracles.price_paths(bundle, oracles.increments(bundle, 27)[0])
    assert float(table[10][2]) == pytest.approx(s[2, -1], rel=1e-11)
    assert float(table[10][3]) == pytest.approx(dens["mart"][2, -1], rel=1e-11)


def test_export_paths_labels_offset_bundle_by_global_path():
    def tables(bundle, paths):
        fields = build_forward_exponential(PIECEWISE, 1.0, 0.0, bundle)
        dens = {"mart": martingale_density(bundle, 0.0)}
        return [path_table(bundle, fields, dens, i) for i in paths]

    whole = simulate_paths(PIECEWISE, 4, 10, seed=27)
    part = simulate_paths(PIECEWISE, 4, 4, seed=27, stream_offset=3)  # paths 6 to 9
    for got, want in zip(tables(part, [7, 6, 9]), tables(whole, [7, 6, 9])):
        np.testing.assert_array_equal(got, want)
    for outside in (5, 10):
        with pytest.raises(ValueError, match="not in this bundle"):
            tables(part, [outside])
