"""Monte Carlo checks for the simulated exponential forward model.

Every check reduces to one two-sided test of the mean of a per-path
statistic against its closed-form mean, inside a normal confidence band
widened by a rounding floor (``mc_mean_test``). Antithetic pairs are
collapsed to pair means first so the samples entering the test are
independent; means and variances are accumulated with the fixed pairwise
reduction from ``kernels`` so results do not depend on chunking.

The dual targets hold for every delta, phi and rho. With dS = theta dt +
dB, the fields solve d(1/gamma) = delta (1/gamma) dS and da = beta dB -
phi dW + (beta (theta - delta) + ((theta - delta)^2 - phi^2) / 2) dt,
beta = gamma (rho - delta integral rho dS). For Z with loads (theta on
B, nu on W), R = eta Z / gamma solves dR = R ((delta - theta) dB - nu
dW), so E[R_t] = eta / gamma0, and Ito's formula on Y = V(t, eta Z) =
R (log R - 1 - a) leaves the drift R (nu - phi)^2 / 2. Bounded piecewise
constant coefficients give R, gamma, 1/gamma and a moments of every
order, so the local martingale part is a true one, and E[Y_t2 - Y_t1] =
(eta / gamma0) integral_t1^t2 (nu - phi)^2 ds / 2.

These integrability facts hold by construction, so no record reports
them: every coefficient and load is a finite float on finitely many
pieces (``CoefficientSpec`` and the scenario parser refuse anything
else), so each is bounded, and the Novikov exponent of every density,
(1/2) integral (nu1^2 + nu2^2) dt, is finite. Each density Z is then a
true martingale, and so is the forward weight w = (gamma0 / gamma_T) Z_T
of a load: E[w] = 1, which is E[Z_T / gamma_T] = 1 / gamma0 in units of
gamma0.

All four checks read one simulation, a ``PathBundle`` from
``simulate_paths``, and build everything else from it: in the Ito
setting the field paths and the densities are explicit functions of the
coefficients, of (gamma0, a0) and of the Brownian paths. Every statistic
is a function of the running sums S_B, S_W at a few grid columns, the
pass's ``simulated_columns``: 0 and the horizon, the time indices, and
every change point of the coefficients and loads the checks integrate.
They depend on the scenario alone, not on the checks requested. Simulate
once, at those columns, and run the checks in one pass::

    mc = MonteCarloPass(spec, n_steps, n_paths, checks, gamma0, a0, antithetic)
    bundle = simulate_paths(
        spec, n_steps, n_paths, seed, antithetic, columns=mc.simulated_columns
    )
    mc.gather(bundle)
    report = mc.reduce()

which is ``run_mc_checks(bundle, gamma0, a0, checks)``. A bundle of more
columns (the full grid, say) is read the same way; one that lacks a
simulated column is refused. The pass plans one density per distinct
pair of loads (nu1 on B, nu2 on W), compared bit for bit, built once at
the union of the columns its readers need (a load's, the optimum's and
the forward check's z~, B-load theta - delta); the densities of a run
share one B integral (``density_path``). It reads 1/gamma at
``mc.columns`` and builds the shift only at ``mc.shift_columns``, where
a requested check reads it (``build_forward_exponential``).

Each mean test has one record, and the family's loads differ at some
step. Every path starts at Z_0 = 1, 1/gamma_0 = 1/gamma0 and a_0 = a0,
so Y_0 = V(0, eta) is one number on every path, and an increment Y_t -
Y_0 is the level Y_t less a constant, tested against the same drift: the
dual checks test each level and the increments between times above 0
alone, and no statistic reads grid index 0. At nu = phi the drift is 0,
so where phi is a load of the family the optimum's tests are that load's
level tests. A 1/gamma column is held once when delta vanishes, so that
1/gamma = 1/gamma0 on every path; the statistics read that constant,
with the kernels' bits. A density is held as its drawn log-density, once
per drawn stream (per antithetic pair with pairing), and ``reduce``
turns it into path values where a check reads it. The bundle is
read-only, so the ``check_*`` wrappers, which run one check each, report
the same bytes on a shared simulation as on a fresh one at the same
columns.

To bound memory, the same pass takes the simulation one stream range at a
time, a run, and keeps only a few columns of each. The pass is told its
whole simulation and owns every array it reads: ``gather`` builds each
run's drawn log-densities straight into the run's stream slice of them,
and its 1/gamma and shift into its path slice (a 1/gamma held once is
not built: the shift divides by 1/gamma0), and keeps nothing of the
bundle, so the runs can share one ``Workspace``, each overwriting the
last.
``cli.run_ito_scenario`` sizes the runs by its draw budget alone; any
split into consecutive ranges gives the same report::

    mc = MonteCarloPass(spec, n_steps, n_paths, checks, gamma0, a0, antithetic)
    work = Workspace()
    per = 2 if antithetic else 1  # paths per stream
    for lo, hi in ranges:  # consecutive stream ranges covering 0 .. n_streams
        bundle = simulate_paths(
            spec, n_steps, per * (hi - lo), seed, antithetic, stream_offset=lo,
            work=work, columns=mc.simulated_columns,
        )
        mc.gather(bundle)
    report = mc.reduce()
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

import numpy as np

from .errors import WealthRangeError
from .fields import conjugate_exponential, entropy_kernel
from .ito_engine import (
    CoefficientSpec,
    PathBundle,
    _per_step,
    build_forward_exponential,
    density_drift,
    drawn_log_density,
    load_gap_integral,
)
from .kernels import Workspace, pairwise_sum
from .report import CheckRecord, VerificationReport

DEFAULT_CONFIDENCE = 0.997

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the algorithm behind scipy.special.ndtri; coefficients
# highest degree first. Evaluated in the same order, so the quantile has
# scipy's bits. Cephes leaves the leading 1 of each Q implicit (p1evl);
# 1.0 * x + c is x + c exactly, so writing it out keeps the bits.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2): central branch above, tails below
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# tails with sqrt(-2 log y) in [2, 8)
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# tails with sqrt(-2 log y) >= 8
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _ndtri(y0: float) -> float:
    """The standard normal quantile at y0 in [0, 1], bit for bit Cephes'."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    y, negate = y0, True
    if y > 1.0 - _EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return -x if negate else x


@functools.cache
def z_critical(confidence: float) -> float:
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    return _ndtri(0.5 * (1.0 + confidence))


def collapse_pairs(values: np.ndarray, antithetic: bool, out=None) -> np.ndarray:
    """Average antithetic partners into one sample each, 0.5 * (even +
    odd), written into ``out`` when given (a float64 array of one entry a
    pair, not overlapping ``values``), else a fresh array. ``values`` holds
    the paths in order (partners 2i, 2i + 1) or, as ``reduce`` builds them,
    as halves: a row of the even partners and a row of the odd ones, added
    as two contiguous rows. Without pairing the values are the samples,
    returned as one vector."""
    values = np.asarray(values, dtype=float)
    if not antithetic:
        return values.reshape(-1)
    if values.ndim == 1:
        if values.shape[0] % 2 != 0:
            raise ValueError("antithetic collapse needs an even number of paths")
        values = values.reshape(-1, 2).T
    out = np.add(values[0], values[1], out=out)
    out *= 0.5
    return out


UNIT_ROUNDOFF = 2.0**-53


def largest_size(values: np.ndarray) -> float:
    """max |v| over ``values``: exact, so it does not depend on the order
    the values come in."""
    return float(max(values.max(), -values.min()))


def mc_mean_test(
    samples: np.ndarray,
    target: float,
    check_tag: str,
    confidence: float = DEFAULT_CONFIDENCE,
    notes: Sequence[str] = (),
    work: Workspace | None = None,
    scale: float | None = None,
    roundings: int = 0,
    deviations: np.ndarray | None = None,
) -> CheckRecord:
    """Two-sided normal test of a sample mean against a target, as its
    check record. Samples must already be independent.

    The band is z se + c u S, the normal band plus a rounding floor, so a
    statistic that the model makes constant, whose standard error can sit
    far below the rounding of its mean, is judged by the rounding it can
    carry. u = 2**-53; S is ``scale``, which bounds the mean size of the
    terms each sample is a difference of (by default the samples' root
    mean square, which needs no pass of its own); c = ``roundings`` +
    ceil(log2 n) + 1. To first order a rounded
    operation moves a value by at most u times the size of what it is
    built from, so a sample built from exact inputs by ``roundings``
    operations is off by at most ``roundings`` u times the size of its
    terms (0 for data taken as given), and the pairwise mean adds each
    sample into at most ceil(log2 n) sums and divides once. With zero
    variance the band is the floor alone, and the z-score, the miss over
    a standard error of 0, is None. The floor is in ``details``.

    The squared deviations are written into ``deviations``, a float64
    array of the samples' shape that does not overlap them, and the
    reduction's scratch is the ``Workspace`` ``work``'s "pairwise" buffer
    (fresh arrays by default).
    """
    samples, target = np.asarray(samples, dtype=float), float(target)
    n = samples.shape[0]
    if n < 100:
        # below this the normal band is not trustworthy
        raise ValueError(f"mean test needs at least 100 samples, got {n}")
    mean = pairwise_sum(samples, work=work) / n
    dev = np.subtract(samples, mean, out=deviations)
    np.square(dev, out=dev)
    var = pairwise_sum(dev, work=work) / (n - 1)
    se = math.sqrt(var / n)
    if scale is None:
        scale = math.sqrt(mean * mean + var * (n - 1) / n)
    floor = (roundings + (n - 1).bit_length() + 1) * UNIT_ROUNDOFF * scale
    zc = z_critical(confidence)
    miss = mean - target
    return CheckRecord(
        check_tag=check_tag,
        verdict=abs(miss) <= zc * se + floor,
        value=mean,
        target=target,
        tolerance=zc * se + floor,
        std_error=se,
        notes=tuple(notes),
        details={"z_score": miss / se if se else None, "n_samples": n, "rounding_floor": floor},
    )


# -- candidate load families --------------------------------------------


def repeated_load(family: dict[str, np.ndarray]) -> tuple[str, str] | None:
    """The labels (earlier, later) of the first two per-step loads of
    ``family`` equal bit for bit, as the density planner compares them."""
    first: dict[bytes, str] = {}
    for label, nu in family.items():
        if (earlier := first.setdefault(nu.tobytes(), label)) != label:
            return earlier, label
    return None


def _nu_family(phi: np.ndarray) -> dict[str, np.ndarray]:
    """The default loads at the per-step ``phi``, each once: a load equal to
    an earlier one at every step ("phi" at phi = 0) is left out."""
    family = {
        "0": np.zeros(phi.shape[0]),
        "phi": phi.copy(),
        "phi+0.4": phi + 0.4,
        "phi-0.4": phi - 0.4,
        "0.8": np.full(phi.shape[0], 0.8),
    }
    while repeated := repeated_load(family):
        del family[repeated[1]]
    return family


def tag_number(x: float) -> str:
    """A number as the record tags print it."""
    return f"{x:g}"


def time_labels(horizon: float, n_steps: int, indices) -> list[str]:
    """The record-tag labels of the grid indices ``indices``: their times on
    the uniform grid of ``n_steps`` steps over [0, horizon]."""
    grid = np.linspace(0.0, horizon, n_steps + 1)
    return [tag_number(grid[i]) for i in indices]


def _time_indices(n_steps: int, time_indices) -> list[int]:
    if time_indices is None:
        time_indices = (0, n_steps // 2, n_steps)
    idx = sorted(set(int(i) for i in time_indices))
    for i in idx:
        if not (0 <= i <= n_steps):
            raise ValueError(f"time index {i} outside the grid")
    return idx


def _change_points(v: np.ndarray) -> set[int]:
    """The grid columns where the per-step values ``v`` change."""
    return set((np.flatnonzero(v[1:] != v[:-1]) + 1).tolist())


def _expand_halves(drawn, drift, antithetic, work):
    """The halves of a density's path values from its time-major drawn
    log-density ``drawn`` and ``drift`` at its columns: with pairing the
    odd partners', exp(-drawn - drift), in the ``work`` buffer
    "odd-density", then exp(drawn - drift) in place of ``drawn``: [even,
    odd], or [every path]. These are ``density_path``'s bits."""
    halves = [drawn]
    if antithetic:
        halves.append(np.negative(drawn, out=work.take("odd-density", drawn.shape)))
    for log_z in halves:
        log_z -= drift[:, None]
        np.exp(log_z, out=log_z)
    return halves


def _dual_path_values(cols, z, eta, idx, work):
    """V(t, eta Z_t) per path at the chosen grid indices, all above 0, as
    halves (a row of even and one of odd partners with pairing), the k-th
    index in the ``work`` buffer ("dual", k); ``z`` maps each index to its
    density column's halves, ``cols`` holds the field columns (1/gamma
    as one entry for every path when it is held once). Each value is
    entropy_kernel(arg) - arg * a with arg = eta * z * (1/gamma), built in
    place in "dual-arg" with that rounding."""
    out = {}
    for k, i in enumerate(idx):
        arg = work.take("dual-arg", (len(z[i]), z[i][0].size))
        for half, z_half in zip(arg, z[i]):
            np.multiply(z_half, eta, out=half)
        arg *= cols["inv_gamma", i]
        vals = out[i] = entropy_kernel(arg, out=work.take(("dual", k), arg.shape))
        arg *= cols["a_shift", i]
        vals -= arg
    return out


def _require_finite(record, samples, gamma0, eta=None):
    """``record``, the mean test of ``samples`` on the field started at
    ``gamma0`` (and, for a dual record, at ``eta``); WealthRangeError when
    its mean, target, band, standard error or z-score is outside the float
    range (gamma0 or eta takes the statistic past it: its values are
    infinite or NaN), or when its variance underflowed: a standard error of
    0 on samples that are not all equal, whose band says nothing."""
    stats = (record.value, record.target, record.tolerance, record.std_error, record.details["z_score"])
    if not all(x is None or math.isfinite(x) for x in stats):
        reason = "its mean, closed-form target or band is outside the float range"
    elif record.std_error == 0.0 and samples.min() != samples.max():
        reason = "its variance underflows on samples that differ"
    else:
        return record
    at = f"gamma0={gamma0:g}" if eta is None else f"gamma0={gamma0:g}, eta={eta:g}"
    raise WealthRangeError(f"{at} at {record.check_tag}: {reason}")


MC_CHECKS = (
    "dual-submartingale",
    "dual-martingale-at-optimum",
    "inverse-gamma-mean",
    "forward-drift",
)
_TERMINAL_NOTE = ("terminal-time consequence of the conditional statement",)
_DUAL_NOTE = ("unconditional mean at grid times; conditional drift not tested",)
_OPTIMUM_NOTE = ("unconditional mean equality at grid times",)
_PHI_NOTE = "nu = phi, the optimum: the dual-martingale-at-optimum test at this eta and t"


class MonteCarloPass:
    """The checks of ``run_mc_checks`` over one simulation that arrives in
    runs of consecutive streams.

    The constructor is told the whole simulation but its seed: the model,
    grid, path count, field start (gamma0, a0) and pairing. It validates
    the request, so a refusal costs no paths; two loads of the family
    equal at every step are refused. ``simulated_columns`` lists the grid
    columns any check can read on this scenario: 0, the horizon,
    ``time_indices`` (by default 0, n_steps // 2 and n_steps, each once),
    and every change point of theta, delta, phi, rho, theta - delta and
    of each load of the family. A run must be simulated at least there
    (``simulate_paths(columns=...)``); the set does not depend on the
    checks requested, so a check reads the same draws alone as in the
    full suite. With a dual check requested, ``idx`` lists the time
    indices above 0, which both dual checks read (module docstring).
    ``columns`` lists the grid indices the requested checks read, ``idx``
    and the horizon; the checks read 1/gamma there. ``shift_columns``
    lists those at which a check reads the shift: ``idx`` for the dual
    checks and the horizon for the forward drift, none for
    ``inverse-gamma-mean`` alone. A dual check with no time index above 0
    would test nothing and is refused.

    Nothing is built or read at index 0. A 1/gamma column is the same on
    every path when delta is 0 at every grid step (``per_path_inv_gamma``
    false), and is then held once, as one entry that ``reduce``
    broadcasts, with the bits the kernels give on every path: 1/gamma is
    the stochastic exponential of delta dS, which the kernels give as
    exp(+-0) / gamma0, exactly 1.0 / gamma0 on every path. ``gather``
    then builds no 1/gamma at all: ``build_forward_exponential`` divides
    the shift by 1.0 / gamma0, with the bits of the division by the built
    column, and is not called when no check reads the shift
    (``inverse-gamma-mean`` alone).

    ``densities`` is the plan: one (nu1, nu2, columns) per distinct pair
    of per-step loads, compared bit for bit, at the union of the columns
    its readers need. The readers are each load of the family at
    ``columns`` (nu1 = theta), the forward check's z~ of each load at the
    horizon (nu1 = theta - delta, which is theta when delta = 0) and the
    optimum load phi at its indices. On the first ``gather`` the pass
    allocates one time-major (len(columns), n_streams) array per planned
    density, n_streams being n_paths // 2 with antithetic pairing and
    n_paths without, and one (len(columns), n_paths) array for the shift
    and, when it varies by path, for 1/gamma. Each run writes its
    streams' drawn log-densities (``drawn_log_density(..., out=)``), the
    first stage of ``density_path``, and its paths' fields
    (``build_forward_exponential(..., out=)``), ``bundle.first_path``
    onwards, into those arrays in place; the bundle can then be dropped or
    overwritten. A paired density so takes half the bytes of its path
    values: a partner's row is the negated one. Being stream ranges, runs
    never split an antithetic pair. ``reduce`` reads each column in place
    in the pass's arrays and runs every mean test once, on exactly the
    samples one whole-simulation run would give, so the report does not
    depend on the runs.

    ``reduce`` expands each density once, with the bits of
    ``density_path``'s second stage and one ``exp`` a column
    (``_expand_halves``): the even partners (every path without pairing)
    in place of the drawn rows, the odd ones into one scratch of n_streams
    entries a column. Every per-path column and statistic is read as the
    same halves, so ``collapse_pairs`` adds two contiguous rows. A
    density's readers are grouped (a load's z, then its z~; the optimum
    with phi's load), so the scratch holds one density at a time; the
    report is keyed, so the order does not show in it.

    The scratch lives in one ``Workspace`` local to the call, and the
    report holds none of it. Buffers are shared by lifetime: "dual-arg"
    takes a dual argument, then its increments, log z~ and the forward
    statistic; ("dual", 0) and ("dual", 1), the dual values at the first
    two indices of ``idx``, then the forward weight and the scale products;
    the squared deviations go to the dead "dual-arg" with pairing, to
    "pairs" without. A buffer is taken where a statistic first writes it,
    so ``inverse-gamma-mean`` alone takes the weight's and the mean test's.

    ``roundings`` bounds the rounded operations that build a sample from
    the running sums, for ``mc_mean_test``'s rounding floor. On m grid
    steps, a cumulative drift is a sequential sum of m step values of at
    most 8 operations each (m + 8), a stochastic integral takes 3 per
    constant run of its coefficient (at most 3m), and every other add,
    product, exp and log counts 1. The longest chain is the forward
    statistic w (a_T - log z~_T): w has two drifts, three integrals and 8
    more; a_T three drifts, three integrals and 8 more (1/gamma's among
    them); log z~_T one drift, two integrals and 4 more; 2 combine them
    and 1 takes the pair mean. That is 6 (m + 8) + 24 m + 23 = 30 m + 71;
    a dual value (5 drifts, 6 integrals, 21 more, and 2 for an increment
    and its pair mean) and the terminal means take fewer. Exp and log
    turn an absolute error of their argument (a log-density,
    log(gamma0 / gamma), a shift) into a relative one, so the count takes
    those arguments at the size of the term they build: of order one for
    coefficients and horizons of order one.
    """

    def __init__(
        self,
        spec: CoefficientSpec,
        n_steps: int,
        n_paths: int,
        checks: Sequence[str],
        gamma0: float,
        a0: float,
        antithetic: bool,
        eta_list: Sequence[float] = (1.0, 2.0),
        nu_family: dict[str, np.ndarray] | None = None,
        time_indices: Sequence[int] | None = None,
        confidence: float = DEFAULT_CONFIDENCE,
    ):
        if operator.index(n_paths) < 1:
            raise ValueError(f"n_paths must be positive, got {n_paths}")
        unknown = set(checks) - set(MC_CHECKS)
        if unknown:
            raise ValueError(f"unknown Monte Carlo checks {sorted(unknown)}")
        self.submartingale = "dual-submartingale" in checks
        self.at_optimum = "dual-martingale-at-optimum" in checks
        self.inverse_gamma = "inverse-gamma-mean" in checks
        self.forward = "forward-drift" in checks
        all_idx = _time_indices(n_steps, time_indices)
        dual = self.submartingale or self.at_optimum
        if dual and not any(all_idx):
            raise ValueError(f"the dual checks need a time index above 0, got {all_idx}")
        # an increment from index 0 restates a level test (module docstring)
        self.idx = [i for i in all_idx if i > 0] if dual else []
        self.columns = sorted(set(self.idx) | {n_steps})
        # the shift is read by the dual values and by the forward drift
        self.shift_columns = sorted(set(self.idx) | ({n_steps} if self.forward else set()))
        coeffs = spec.per_step_values(n_steps)
        # with delta = 0 at every step, 1/gamma is 1/gamma0 on every path
        self.per_path_inv_gamma = bool(coeffs["delta"].any())
        if nu_family is None:
            nu_family = _nu_family(coeffs["phi"])
        loads = {
            label: _per_step(n_steps, nu, f"load {label!r}") for label, nu in nu_family.items()
        }
        if repeated := repeated_load(loads):
            raise ValueError(f"loads {repeated[0]!r} and {repeated[1]!r} are equal at every step")
        shifted = coeffs["theta"] - coeffs["delta"]
        integrated = [*coeffs.values(), shifted, *loads.values()]
        self.simulated_columns = sorted(
            set(all_idx).union({0, n_steps}, *map(_change_points, integrated))
        )
        per_load = self.submartingale or self.inverse_gamma or self.forward
        self.nu_family = nu_family if per_load else {}
        # integral_0^t (nu - phi)^2 per load, at every grid column
        dt = spec.horizon / n_steps
        self.gaps = {
            label: load_gap_integral(coeffs["phi"], nu, dt) for label, nu in loads.items()
        }
        self.roundings = 30 * n_steps + 71
        # one density per distinct pair (nu1 on B, nu2 on W) of per-step
        # loads, compared bit for bit, at the union of its readers' columns
        plans: list[tuple[np.ndarray, np.ndarray, set[int]]] = []
        planned: dict[tuple[bytes, bytes], int] = {}
        self._density_of: dict = {}  # reader -> index into self.densities

        def plan(reader, nu1, nu2, columns):
            key = (nu1.tobytes(), nu2.tobytes())
            if key not in planned:
                planned[key] = len(plans)
                plans.append((nu1, nu2, set()))
            plans[planned[key]][2].update(columns)
            self._density_of[reader] = planned[key]

        for label in self.nu_family:
            plan(("z", label), coeffs["theta"], loads[label], self.columns)
            if self.forward:
                plan(("z_tilde", label), shifted, loads[label], [n_steps])
        if self.at_optimum:
            plan("z_opt", coeffs["theta"], coeffs["phi"], self.idx)
        self.densities = [(nu1, nu2, sorted(cols)) for nu1, nu2, cols in plans]
        # each density's deterministic log part at its columns
        self._drifts = [density_drift(nu1, nu2, dt)[cols] for nu1, nu2, cols in self.densities]
        self.spec, self.n_steps, self.n_paths = spec, n_steps, int(n_paths)
        self.gamma0, self.a0, self.antithetic = float(gamma0), float(a0), bool(antithetic)
        self.eta_list = [float(eta) for eta in eta_list]
        self.confidence = confidence
        self.t_label = dict(zip(self.idx, time_labels(spec.horizon, n_steps, self.idx)))
        # 1/gamma (of no columns when it is held once), the shift and each
        # planned density, one time-major (len(columns), n_paths) array
        # each, and the paths built into them
        self._arrays: list[np.ndarray] | None = None
        self._filled = 0

    # a field start or an eta that takes a statistic out of the float range
    # is refused at its first record (``_require_finite``), without warnings
    @np.errstate(all="ignore")
    def gather(self, bundle: PathBundle) -> None:
        """Build this run's 1/gamma and shift straight into the pass's
        arrays, at its paths' slice, and its drawn log-densities at its
        streams' slice. A run of another spec, grid or
        pairing, not simulated at every one of ``simulated_columns``, or
        that does not start at the next path to fill or would go past
        ``n_paths``, is refused and leaves the pass as it was."""
        if (bundle.spec, bundle.n_steps, bundle.antithetic) != (
            self.spec, self.n_steps, self.antithetic
        ):
            raise ValueError(
                f"chunk simulates another spec, grid or pairing than the pass's "
                f"{self.n_steps} steps with antithetic={self.antithetic}"
            )
        unsimulated = sorted(set(self.simulated_columns) - set(bundle.columns.tolist()))
        if unsimulated:
            raise ValueError(
                f"bundle was not simulated at the grid columns {unsimulated} the checks read"
            )
        lo, hi = bundle.first_path, bundle.first_path + bundle.n_paths
        if lo != self._filled or hi > self.n_paths:
            raise ValueError(
                f"chunk has {bundle.n_paths} paths after the {self._filled} gathered; the pass "
                f"holds {self.n_paths}, and the chunk starts at path {lo}"
            )
        per = 2 if self.antithetic else 1  # paths per stream
        kept = self.columns if self.per_path_inv_gamma else []
        if self._arrays is None:
            n_streams = self.n_paths // per
            fields = [np.empty((len(c), self.n_paths)) for c in (kept, self.shift_columns)]
            draws = [np.empty((len(c), n_streams)) for _, _, c in self.densities]
            self._arrays = fields + draws
        # the run's paths, and its streams, are a slice of each time-major array
        inv_gamma, a_shift = [arr[:, lo:hi].T for arr in self._arrays[:2]]
        draws = [arr[:, lo // per : hi // per].T for arr in self._arrays[2:]]
        if kept or self.shift_columns:
            # with 1/gamma held once the shift divides by 1.0 / gamma0
            build_forward_exponential(
                self.spec, self.gamma0, self.a0, bundle, kept, self.shift_columns,
                out=(inv_gamma, a_shift),
            )
        for (nu1, nu2, columns), drawn in zip(self.densities, draws):
            drawn_log_density(bundle, nu1, nu2, columns, out=drawn)
        self._filled = hi

    @np.errstate(all="ignore")
    def reduce(self) -> VerificationReport:
        """Run every check's mean tests on the pass's arrays, on the pass's
        scratch; the scratch is dropped on return, and the pass is empty
        again. A pass that holds fewer than ``n_paths`` paths is refused."""
        if self._filled < self.n_paths:
            raise ValueError(
                f"the pass gathered {self._filled} paths of the {self.n_paths} it holds"
            )
        (inv_gamma, a_shift, *draws), self._arrays = self._arrays, None
        self._filled = 0
        gamma0, a0, antithetic = self.gamma0, self.a0, self.antithetic
        per = 2 if antithetic else 1
        m = self.n_paths // per  # samples per test
        # each per-path column as halves, (even, odd) partners with pairing
        inv_gamma, a_shift = (f.reshape(len(f), m, per).swapaxes(1, 2) for f in (inv_gamma, a_shift))
        work = Workspace()
        # with delta = 0, 1/gamma is one entry for every path at every
        # column, the kernels' bits there: exp(+-0) / gamma0 = 1.0 / gamma0
        held = np.array([1.0 / gamma0])
        cols = {}
        for k, i in enumerate(self.columns):
            cols["inv_gamma", i] = inv_gamma[k] if self.per_path_inv_gamma else held
        for k, i in enumerate(self.shift_columns):
            cols["a_shift", i] = a_shift[k]
        expanded: dict[int, dict] = {}  # the density read last: its columns' halves

        def density(reader):
            """``reader``'s density by grid index, as halves, until another
            density is read."""
            d = self._density_of[reader]
            if d not in expanded:
                expanded.clear()
                halves = _expand_halves(draws[d], self._drifts[d], antithetic, work)
                expanded[d] = dict(zip(self.densities[d][2], zip(*halves)))
            return expanded[d]

        # the pair means; without pairing, the squared deviations
        pairs = work.take("pairs", (m,))
        idx, terminal = self.idx, self.n_steps
        report = VerificationReport()

        def add_test(tag, samples, target, notes, scale=None, eta=None):
            samples = collapse_pairs(samples, antithetic, out=pairs)
            record = mc_mean_test(
                samples,
                target,
                check_tag=tag,
                confidence=self.confidence,
                notes=notes,
                work=work,
                scale=scale,
                roundings=self.roundings,
                deviations=work.take("dual-arg", (m,)) if antithetic else pairs,
            )
            report.add(_require_finite(record, samples, gamma0, eta))

        def dual_tests(reader, eta, gap, level_tag, level_notes, step_tag=None):
            """Tests of V(t, eta Z_t) on ``reader``'s density against its
            closed-form mean, ``gap`` being the load's integral_0^t (nu -
            phi)^2: the level at each index of ``idx`` (tag ``level_tag(t)``)
            and, with a ``step_tag(t1, t2)``, the increments between them."""
            vals = _dual_path_values(cols, density(reader), eta, idx, work)
            size = {i: largest_size(v) for i, v in vals.items()}
            rate = 0.5 * eta / gamma0
            start = conjugate_exponential(gamma0, a0, eta)
            label = self.t_label
            for pos, i2 in enumerate(idx):
                for i1 in idx[:pos] if step_tag else ():
                    add_test(
                        step_tag(label[i1], label[i2]),
                        np.subtract(vals[i2], vals[i1], out=work.take("dual-arg", vals[i2].shape)),
                        rate * (gap[i2] - gap[i1]), _DUAL_NOTE, size[i1] + size[i2], eta,
                    )
                add_test(
                    level_tag(label[i2]), vals[i2], start + rate * gap[i2], level_notes, size[i2], eta,
                )

        # readers grouped by density, so that each is expanded once: a load's
        # (z, then z~), and the optimum's with the load of its density
        optimum = self._density_of.get("z_opt")
        groups = {self._density_of["z", label]: label for label in self.nu_family}
        # the level tests of phi's load are the optimum's (module docstring)
        phi_label = groups.get(optimum) if self.submartingale else None
        if optimum is not None:
            groups.setdefault(optimum, None)
        for d, label in groups.items():
            for eta in self.eta_list if d == optimum and phi_label is None else ():
                head = f"dual-martingale-at-optimum[eta={tag_number(eta)}"
                dual_tests(
                    "z_opt", eta, np.zeros(terminal + 1), lambda t: f"{head},t={t}]", _OPTIMUM_NOTE
                )
            if label is None:
                continue
            notes = (*_DUAL_NOTE, _PHI_NOTE) if label == phi_label else _DUAL_NOTE
            for eta in self.eta_list if self.submartingale else ():
                head = f"nu={label},eta={tag_number(eta)}"
                dual_tests(
                    ("z", label), eta, self.gaps[label],
                    lambda t: f"dual-above-start[{head},t={t}]", notes,
                    lambda t1, t2: f"dual-submartingale[{head},t1={t1},t2={t2}]",
                )
            if self.inverse_gamma or self.forward:
                # the forward weight ((1/gamma_T) gamma0) z_T, then (a_T -
                # log z~_T) w: the order of operations that fixes the
                # statistics' rounding
                w = work.take(("dual", 0), (per, m))
                np.multiply(cols["inv_gamma", terminal], gamma0, out=w)
                for w_half, z_half in zip(w, density(("z", label))[terminal]):
                    w_half *= z_half
            if self.inverse_gamma:
                # E[Z_T / gamma_T] = 1 / gamma0 in units of gamma0
                add_test(f"inverse-gamma-mean[nu={label}]", w, 1.0, _TERMINAL_NOTE)
            if self.forward:
                a_t = cols["a_shift", terminal]
                drift = work.take("dual-arg", w.shape)
                for log_half, z_half in zip(drift, density(("z_tilde", label))[terminal]):
                    np.log(z_half, out=log_half)
                # the sizes of the terms w a_T and w log z~_T
                scratch = work.take(("dual", 1), w.shape)
                scale = largest_size(np.multiply(a_t, w, out=scratch))
                scale += largest_size(np.multiply(drift, w, out=scratch))
                np.subtract(a_t, drift, out=drift)
                drift *= w
                add_test(
                    f"forward-drift[nu={label}]", drift, a0 - 0.5 * self.gaps[label][terminal],
                    _TERMINAL_NOTE, scale,
                )
        return report


def run_mc_checks(
    bundle: PathBundle,
    gamma0: float,
    a0: float,
    checks: Sequence[str],
    eta_list: Sequence[float] = (1.0, 2.0),
    nu_family: dict[str, np.ndarray] | None = None,
    time_indices: Sequence[int] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Run the named checks of ``MC_CHECKS`` in one pass over the loads,
    the one-run case of ``MonteCarloPass``: each distinct density is built
    once, at the columns the checks read, each check turns them into
    per-path statistics with a target, and one reducer collapses
    antithetic pairs and runs ``mc_mean_test`` on each. The loads of
    ``nu_family`` must differ at some step; the default family leaves out
    a load equal to an earlier one. The checks:

    - ``dual-submartingale``: for each load nu and dual argument eta, the
      mean of V(t, eta Z_t) against V(0, eta) + (1/2)(eta / gamma0)
      integral_0^t (nu - phi)^2 ds at each selected t > 0
      (``dual-above-start`` records), and of V(t2, eta Z_t2) - V(t1, eta
      Z_t1) against (1/2)(eta / gamma0) integral_t1^t2 (nu - phi)^2 ds
      for each pair of them, 0 < t1 < t2 (``dual-submartingale``
      records), for every delta, phi and rho; none from t1 = 0 (module
      docstring), so with only 0 and T selected the check writes
      ``dual-above-start`` records alone.
    - ``dual-martingale-at-optimum``: at nu = phi, E[V(t, eta Z_t)] =
      V(0, eta) at every selected t > 0. With ``dual-submartingale``, on a
      load of the family equal to phi these are that load's
      ``dual-above-start`` tests, written once, with a note naming it.
    - ``inverse-gamma-mean``: E[Z_T / gamma_T] = 1/gamma_0 per load, in
      units of gamma_0: the forward weight w = (gamma_0/gamma_T) Z_T has
      unit mass, E[w] = 1 (module docstring), so the record reads the
      same on every scale of the field.
    - ``forward-drift``: with the same weights w, E[w (a_T - log z~_T)] =
      a_0 - (1/2) integral (nu - phi)^2 dt. Here z~ is the terminal
      density with the shifted price of risk theta - delta; it equals w
      path by path, but comes from ``density_path`` directly, so the
      statistic cross-checks the reweighting identity instead of assuming
      it. When delta = 0, theta - delta is theta bit for bit, and z~ is
      the load's own martingale density Z_T, read from the same column.

    A record whose mean, target, band, standard error or z-score is
    outside the float range, or whose variance underflows to 0 on samples
    that differ, is refused with ``WealthRangeError``, naming the record,
    gamma0 and, for a dual record, eta.

    ``bundle`` is the scenario's whole simulation, from stream 0 (see the
    module docstring): the pass takes its spec, grid, path count and
    pairing, and builds the fields from (gamma0, a0) on it.
    """
    mc = MonteCarloPass(
        bundle.spec, bundle.n_steps, bundle.n_paths, checks, gamma0, a0, bundle.antithetic,
        eta_list, nu_family, time_indices, confidence,
    )
    mc.gather(bundle)
    return mc.reduce()


def check_dual_submartingale(
    bundle: PathBundle,
    gamma0: float,
    a0: float,
    eta_list: Sequence[float] = (1.0, 2.0),
    nu_family: dict[str, np.ndarray] | None = None,
    time_indices: Sequence[int] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Upward drift of the dual process under every candidate measure;
    ``run_mc_checks`` with ``dual-submartingale`` alone."""
    return run_mc_checks(
        bundle, gamma0, a0, ["dual-submartingale"], eta_list, nu_family, time_indices,
        confidence,
    )


def check_dual_martingale_at_optimum(
    bundle: PathBundle,
    gamma0: float,
    a0: float,
    eta_list: Sequence[float] = (1.0, 2.0),
    time_indices: Sequence[int] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Flat dual process at the optimal orthogonal load nu = phi;
    ``run_mc_checks`` with ``dual-martingale-at-optimum`` alone."""
    return run_mc_checks(
        bundle, gamma0, a0, ["dual-martingale-at-optimum"], eta_list,
        time_indices=time_indices, confidence=confidence,
    )


def check_inverse_gamma_mean_mc(
    bundle: PathBundle,
    gamma0: float,
    a0: float,
    nu_family: dict[str, np.ndarray] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Preservation of the mean of 1/gamma by every candidate measure;
    ``run_mc_checks`` with ``inverse-gamma-mean`` alone."""
    return run_mc_checks(
        bundle, gamma0, a0, ["inverse-gamma-mean"], nu_family=nu_family,
        confidence=confidence,
    )


def check_forward_drift_mc(
    bundle: PathBundle,
    gamma0: float,
    a0: float,
    nu_family: dict[str, np.ndarray] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Forward-measure drift of the performance statistic per candidate
    load; ``run_mc_checks`` with ``forward-drift`` alone."""
    return run_mc_checks(
        bundle, gamma0, a0, ["forward-drift"], nu_family=nu_family, confidence=confidence
    )
