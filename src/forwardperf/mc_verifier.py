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
pair of loads (nu1 on B, nu2 on W), compared bit for bit, and builds it
once, at the union of the columns its readers need: the family's loads,
the optimum load phi and the forward check's z~ (B-load theta - delta)
share a density whenever their loads agree, and the densities of a run
share one B integral (``density_path``). It builds 1/gamma at
``mc.columns`` and the shift only at ``mc.shift_columns``, where a
requested check reads it (``build_forward_exponential``). Nothing is
built at grid index 0, where every path is at its start (Z_0 = 1,
1/gamma_0 = 1/gamma0, a_0 = a0); the statistics read those constants
there, with the kernels' bits. The bundle is read-only, so the
``check_*`` wrappers, which run one check each, report the same bytes on
a shared simulation as on a fresh one at the same columns.

To bound memory, the same pass takes the simulation one stream range at a
time, a run, and keeps only a few per-path columns of each. The pass is
told its whole simulation and owns every array it reads: ``gather``
builds each run's densities, 1/gamma and shift straight into the run's
path slice of them and keeps nothing of the bundle, so the runs can share
one ``Workspace``, each overwriting the last. ``cli.run_ito_scenario``
sizes the runs by its draw budget alone; any split into consecutive
ranges gives the same report::

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

``gather`` refuses a run of another spec, grid or pairing than the
pass's, one not simulated at every one of ``simulated_columns``, and one
that does not start at the next path to fill or would go past
``n_paths``; ``reduce`` refuses a pass short of ``n_paths``.
"""

from __future__ import annotations

import dataclasses
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
    density_path,
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
    """Average antithetic partners (paths 2i, 2i+1) into one sample each,
    0.5 * (v[2i] + v[2i+1]), written into ``out`` when given (a float64
    array of half the paths, not overlapping ``values``), else a fresh
    array. Without pairing the values are the samples, returned as they
    are."""
    values = np.asarray(values, dtype=float)
    if not antithetic:
        return values
    if values.shape[0] % 2 != 0:
        raise ValueError("antithetic collapse needs an even number of paths")
    out = np.add(values[0::2], values[1::2], out=out)
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

    The squared deviations and the reduction's scratch are the
    ``Workspace`` ``work``'s "deviations" and "pairwise" buffers (fresh
    arrays by default), so ``samples`` must not be one of them.
    """
    samples, target = np.asarray(samples, dtype=float), float(target)
    n = samples.shape[0]
    if n < 100:
        # below this the normal band is not trustworthy
        raise ValueError(f"mean test needs at least 100 samples, got {n}")
    mean = pairwise_sum(samples, work=work) / n
    dev = None if work is None else work.take("deviations", samples.shape)
    dev = np.subtract(samples, mean, out=dev)
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


def _nu_family(phi: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "0": np.zeros(phi.shape[0]),
        "phi": phi.copy(),
        "phi+0.4": phi + 0.4,
        "phi-0.4": phi - 0.4,
        "0.8": np.full(phi.shape[0], 0.8),
    }


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
        idx = [0, n_steps // 2, n_steps]
    else:
        idx = sorted(set(int(i) for i in time_indices))
    for i in idx:
        if not (0 <= i <= n_steps):
            raise ValueError(f"time index {i} outside the grid")
    return idx


def _change_points(v: np.ndarray) -> set[int]:
    """The grid columns where the per-step values ``v`` change."""
    return set((np.flatnonzero(v[1:] != v[:-1]) + 1).tolist())


def _dual_path_values(cols, z, eta, idx, work):
    """V(t, eta Z_t) per path at the chosen grid indices, the k-th in the
    ``work`` buffer ("dual", k); ``z`` maps each index to its density
    column, ``cols`` holds the field columns (at index 0, one entry that
    holds for every path). Each value is
    entropy_kernel(arg) - arg * a with arg = eta * z * (1/gamma), built in
    place with that rounding."""
    out = {}
    for k, i in enumerate(idx):
        arg = np.multiply(z[i], eta, out=work.take("dual-arg", z[i].shape))
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


class MonteCarloPass:
    """The checks of ``run_mc_checks`` over one simulation that arrives in
    runs of consecutive streams.

    The constructor is told the whole simulation but its seed: the model,
    grid, path count, field start (gamma0, a0) and pairing. It validates
    the request, so a refusal costs no paths. ``simulated_columns``
    lists the grid columns any check can read on this scenario: 0, the
    horizon, ``time_indices`` (by default 0, n_steps // 2 and n_steps),
    and every change point of theta, delta, phi, rho, theta - delta and
    of each load of the family. A run must be simulated at least there
    (``simulate_paths(columns=...)``); the set does not depend on the
    checks requested, so a check reads the same draws alone as in the
    full suite. ``columns`` lists the grid indices above 0 the requested
    checks read: ``time_indices`` and the horizon (the optimum's indices
    are among them); the pass builds 1/gamma there. ``shift_columns``
    lists those at which a check reads the shift: the time indices above
    0 for the dual checks and the horizon for the forward drift, none for
    ``inverse-gamma-mean`` alone. A dual check with no time index above 0
    would test nothing and is refused. Index 0 is never built: every path
    starts at Z_0 = 1, 1/gamma_0 = 1/gamma0 and a_0 = a0 + 0.0, the
    kernels' bits there, and ``reduce`` reads those as one-entry arrays
    that broadcast.

    ``densities`` is the plan: one (nu1, nu2, columns) per distinct pair
    of per-step loads, compared bit for bit, at the union of the columns
    its readers need. The readers are each load of the family at
    ``columns`` (nu1 = theta), the forward check's z~ of each load at the
    horizon (nu1 = theta - delta, which is theta when delta = 0) and the
    optimum load phi at its indices. On the first ``gather`` the pass
    allocates one time-major (len(columns), n_paths) array per planned
    density, for 1/gamma and for the shift, and each run writes its paths,
    ``bundle.first_path`` onwards, into those arrays in place
    (``density_path(..., out=)``, ``build_forward_exponential(..., out=)``);
    the bundle can then be dropped or overwritten. A run that does not
    start at the next path to fill, or that would go past ``n_paths``, is
    refused; being stream ranges, runs never split an antithetic pair.
    ``reduce`` refuses a pass that holds fewer than ``n_paths`` paths,
    reads each column as a contiguous row of the pass's arrays and runs
    every mean test once, on exactly the samples one whole-simulation run
    would give, so the report does not depend on the runs.

    ``reduce`` builds each test's samples, their pair means and squared
    deviations, the dual values and the reductions' buffers in one
    ``Workspace`` local to the call, so the scratch lives for one
    reduction; the report it returns holds plain numbers and none of it.

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
        self.idx = all_idx if dual else []
        self.opt_idx = [i for i in self.idx if i > 0] if self.at_optimum else []
        # reduce reads index 0 as the start values: nothing is built there
        self.columns = sorted((set(self.idx) | {n_steps}) - {0})
        # the shift is read by the dual values and by the forward drift
        self.shift_columns = sorted(
            (set(self.idx) | ({n_steps} if self.forward else set())) - {0}
        )
        coeffs = spec.per_step_values(n_steps)
        if nu_family is None:
            nu_family = _nu_family(coeffs["phi"])
        loads = {
            label: _per_step(n_steps, nu, f"load {label!r}") for label, nu in nu_family.items()
        }
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
            plan("z_opt", coeffs["theta"], coeffs["phi"], self.opt_idx)
        self.densities = [(nu1, nu2, sorted(cols)) for nu1, nu2, cols in plans]
        self.spec, self.n_steps, self.n_paths = spec, n_steps, int(n_paths)
        self.gamma0, self.a0, self.antithetic = float(gamma0), float(a0), bool(antithetic)
        self.eta_list = [float(eta) for eta in eta_list]
        self.confidence = confidence
        self.t_label = dict(zip(all_idx, time_labels(spec.horizon, n_steps, all_idx)))
        # 1/gamma, the shift and each planned density, one time-major
        # (len(columns), n_paths) array each, and the paths built into them
        self._arrays: list[np.ndarray] | None = None
        self._filled = 0

    # a field start or an eta that takes a statistic out of the float range
    # is refused at its first record (``_require_finite``), without warnings
    @np.errstate(all="ignore")
    def gather(self, bundle: PathBundle) -> None:
        """Build this run's 1/gamma, shift and densities straight into the
        pass's arrays, at its paths' slice. A run of another spec, grid or
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
        if self._arrays is None:
            readers = [self.columns, self.shift_columns, *(c for _, _, c in self.densities)]
            self._arrays = [np.empty((len(columns), self.n_paths)) for columns in readers]
        # the run's paths are a slice of each time-major array
        inv_gamma, a_shift, *z_arrays = [arr[:, lo:hi].T for arr in self._arrays]
        build_forward_exponential(
            self.spec, self.gamma0, self.a0, bundle, self.columns, self.shift_columns,
            out=(inv_gamma, a_shift),
        )
        for (nu1, nu2, columns), z in zip(self.densities, z_arrays):
            density_path(bundle, nu1, nu2, columns, out=z)
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
        (inv_gamma, a_shift, *z_arrays), self._arrays = self._arrays, None
        self._filled = 0
        gamma0, a0, antithetic = self.gamma0, self.a0, self.antithetic
        work = Workspace()
        # grid index 0 as one entry for every path, the bits the kernels
        # give there: S_B(0) = S_W(0) = 0, so exp(+-0) = 1 and the shift's
        # partner -0 vanishes in a0 + 0.0
        cols = {("inv_gamma", 0): np.array([1.0 / gamma0]), ("a_shift", 0): np.array([a0 + 0.0])}
        for k, i in enumerate(self.columns):
            cols["inv_gamma", i] = inv_gamma[k]
        for k, i in enumerate(self.shift_columns):
            cols["a_shift", i] = a_shift[k]
        for d, (_, _, columns) in enumerate(self.densities):
            for k, i in enumerate(columns):
                cols["z", d, i] = z_arrays[d][k]
        n = self.n_paths

        def density(reader):
            d = self._density_of[reader]
            return {0: np.ones(1), **{i: cols["z", d, i] for i in self.densities[d][2]}}

        sample, weight = work.take("sample", (n,)), work.take("weight", (n,))
        pairs = work.take("pairs", (n // 2,)) if antithetic else None
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
            )
            report.add(_require_finite(record, samples, gamma0, eta))
            return record

        # (density, eta) -> {index: record of the level test there}
        levels: dict[tuple[int, float], dict[int, CheckRecord]] = {}

        def dual_tests(reader, eta, gap, indices, level_tag, step_tag, notes):
            """Tests of the dual value V(t, eta Z_t) on ``reader``'s density
            against its closed-form mean: its level at each index above 0
            (tag ``level_tag(t)``) and, with a ``step_tag(t1, t2)``, its
            increments between the indices. ``gap`` is the load's
            integral_0^t (nu - phi)^2."""
            vals = _dual_path_values(cols, density(reader), eta, indices, work)
            level = levels[self._density_of[reader], eta] = {}
            size = {i: largest_size(v) for i, v in vals.items()}
            rate = 0.5 * eta / gamma0
            start = conjugate_exponential(gamma0, a0, eta)
            label = self.t_label
            for pos, i2 in enumerate(indices):
                for i1 in indices[:pos] if step_tag else ():
                    add_test(
                        step_tag(label[i1], label[i2]),
                        np.subtract(vals[i2], vals[i1], out=sample),
                        rate * (gap[i2] - gap[i1]), notes, size[i1] + size[i2], eta,
                    )
                if i2 > 0:
                    level[i2] = add_test(
                        level_tag(label[i2]), vals[i2], start + rate * gap[i2], notes, size[i2],
                        eta,
                    )

        for label in self.nu_family:
            z = density(("z", label))
            gap = self.gaps[label]
            if self.submartingale:
                for eta in self.eta_list:
                    head = f"nu={label},eta={tag_number(eta)}"
                    dual_tests(
                        ("z", label), eta, gap, idx,
                        lambda t: f"dual-above-start[{head},t={t}]",
                        lambda t1, t2: f"dual-submartingale[{head},t1={t1},t2={t2}]",
                        _DUAL_NOTE,
                    )
            if self.inverse_gamma or self.forward:
                # the forward weight ((1/gamma_T) gamma0) z_T, then (a_T -
                # log z~_T) w: the order of operations that fixes the
                # statistics' rounding
                w = np.multiply(cols["inv_gamma", terminal], gamma0, out=weight)
                w *= z[terminal]
            if self.inverse_gamma:
                # E[Z_T / gamma_T] = 1 / gamma0 in units of gamma0
                add_test(f"inverse-gamma-mean[nu={label}]", w, 1.0, _TERMINAL_NOTE)
            if self.forward:
                a_t = cols["a_shift", terminal]
                drift = np.log(density(("z_tilde", label))[terminal], out=sample)
                # the sizes of the terms w a_T and w log z~_T
                scratch = work.take("dual-arg", w.shape)
                scale = largest_size(np.multiply(a_t, w, out=scratch))
                scale += largest_size(np.multiply(drift, w, out=scratch))
                np.subtract(a_t, drift, out=drift)
                drift *= w
                add_test(
                    f"forward-drift[nu={label}]", drift, a0 - 0.5 * gap[terminal],
                    _TERMINAL_NOTE, scale,
                )
        if self.at_optimum:
            # nu = phi: the gap is 0 at every column, so on the density of a
            # load of the family the optimum's tests are its level tests
            for eta in self.eta_list:
                head = f"dual-martingale-at-optimum[eta={tag_number(eta)}"
                known = levels.get((self._density_of["z_opt"], eta))
                if known is None:
                    dual_tests(
                        "z_opt", eta, np.zeros(terminal + 1), self.opt_idx,
                        lambda t: f"{head},t={t}]", None, _OPTIMUM_NOTE,
                    )
                    continue
                for i in self.opt_idx:
                    report.add(
                        dataclasses.replace(
                            known[i], check_tag=f"{head},t={self.t_label[i]}]", notes=_OPTIMUM_NOTE
                        )
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
    """Run the named checks of ``MC_CHECKS`` in one pass over the loads.

    Each distinct density is built once, and only at the columns above 0
    the checks read (``time_indices`` and the terminal time); the optimum
    load ``bundle.phi`` reads the family's density when phi is one of its
    loads. The densities share the bundle's B integral of each B-load,
    and the shift is built only at the pass's ``shift_columns``. Every
    check turns those columns into per-path statistics with a target, and
    one reducer collapses antithetic pairs and runs ``mc_mean_test`` on
    each. This is the one-run case of ``MonteCarloPass``. The checks:

    - ``dual-submartingale``: for each load nu and dual argument eta, the
      mean of V(t2, eta Z_t2) - V(t1, eta Z_t1) against (1/2)(eta /
      gamma0) integral_t1^t2 (nu - phi)^2 ds (``dual-submartingale``
      records), and of V(t, eta Z_t) against V(0, eta) + (1/2)(eta /
      gamma0) integral_0^t (nu - phi)^2 ds (``dual-above-start``), for
      every delta, phi and rho (module docstring).
    - ``dual-martingale-at-optimum``: at nu = phi, E[V(t, eta Z_t)] =
      V(0, eta) at every selected t > 0; on the density of a load of the
      family these are that load's ``dual-above-start`` tests.
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
