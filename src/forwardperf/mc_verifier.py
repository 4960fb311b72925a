"""Monte Carlo checks for the simulated exponential forward model.

Every check reduces to testing the mean of a per-path statistic against a
closed-form target inside a normal confidence band. Antithetic pairs are
collapsed to pair means first so the samples entering the test are
independent; means and variances are accumulated with the fixed pairwise
reduction from ``kernels`` so results do not depend on chunking. A
statistic with zero sample variance passes only when it hits its target
exactly.

The dual-process checks consume the analytic regularity classification of
the coefficient spec: a spec classified as failing is refused outright, an
undetermined one runs with an explanatory note, and the equality check at
the optimal load additionally insists on the provable case.

All four checks read the same simulated data: a ``PathBundle`` from
``simulate_paths`` and the ``FieldPaths`` that ``build_forward_exponential``
builds on it. Every statistic is a function of the running sums S_B, S_W
at a few grid columns, the pass's ``simulated_columns``: 0 and the
horizon, the time indices, and every change point of the coefficients
and loads the checks integrate. They depend on the scenario alone, not on
the checks requested. Simulate once, at those columns, and run the checks
in one pass::

    mc = MonteCarloPass(spec, n_steps, checks)
    bundle = simulate_paths(spec, n_steps, n_paths, seed, columns=mc.simulated_columns)
    fields = build_forward_exponential(spec, gamma0, a0, bundle)
    run_mc_checks(bundle, fields, ["dual-submartingale", "inverse-gamma-mean"])

A bundle of more columns (the full grid, say) is read the same way; one
that lacks a simulated column is refused. The pass builds each load's
martingale density once for all the checks that read it. The model spec,
the step count and the antithetic pairing come from the bundle; gamma0
and a0 come from the fields. Both are read-only, so the ``check_*``
wrappers, which run one check each, report the same bytes on a shared
simulation as on a fresh one at the same columns.

To bound memory, the same pass takes the simulation one stream range at a
time and keeps only a few per-path columns of each. What ``gather`` keeps
is its own densities and the chunk's field columns, never the bundle's
sums, so the ranges can share one ``Workspace``, each overwriting the
last; each chunk's fields must be arrays of its own, as
``build_forward_exponential`` makes them. ``cli.run_ito_scenario`` sizes
the ranges by its draw budget alone; any split into consecutive ranges
gives the same report::

    mc = MonteCarloPass(spec, n_steps, checks)
    work = Workspace()
    for lo, hi in ranges:  # consecutive stream ranges covering 0 .. n_streams
        # (hi - lo) streams: twice as many paths when antithetic
        bundle = simulate_paths(
            spec, n_steps, 2 * (hi - lo), seed, stream_offset=lo, work=work,
            columns=mc.simulated_columns,
        )
        mc.gather(bundle, build_forward_exponential(spec, gamma0, a0, bundle, mc.columns))
    report = mc.reduce()

The report is the one ``run_mc_checks`` gives on the whole simulation.
``gather`` refuses a chunk that does not continue the simulation: one
whose streams do not follow the previous chunk's, or whose grid, pairing,
gamma0 or a0 differ from the first chunk's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RegularityError
from .fields import conjugate_exponential, entropy_kernel
from .ito_engine import (
    FAIL_ANALYTIC,
    PASS,
    CoefficientSpec,
    FieldPaths,
    PathBundle,
    density_path,
    martingale_density,
    predicted_forward_drift,
    regularity_class,
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


@dataclass(frozen=True)
class TestResult:
    check_tag: str
    estimate: float
    target: float
    std_error: float
    z_score: float
    confidence: float
    verdict: bool
    n_samples: int
    notes: tuple[str, ...] = ()

    def to_record(self) -> CheckRecord:
        return CheckRecord(
            check_tag=self.check_tag,
            verdict=self.verdict,
            value=self.estimate,
            target=self.target,
            tolerance=z_critical(self.confidence) * self.std_error,
            std_error=self.std_error,
            notes=self.notes,
            details={"z_score": self.z_score, "n_samples": self.n_samples},
        )


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


def mc_mean_test(
    samples: np.ndarray,
    target: float,
    check_tag: str,
    confidence: float = DEFAULT_CONFIDENCE,
    sided: str = "two",
    notes: Sequence[str] = (),
    work: Workspace | None = None,
) -> TestResult:
    """Normal test of a sample mean against a target.

    ``sided``: "two" requires the target inside the band, "lower" tolerates
    estimates above the target (one-sided bound from below). Samples must
    already be independent.

    The squared deviations and the reduction's scratch are the
    ``Workspace`` ``work``'s "deviations" and "pairwise" buffers (fresh
    arrays by default), so ``samples`` must not be one of them.
    """
    if sided not in ("two", "lower"):
        raise ValueError(f"unknown sidedness {sided!r}")
    samples = np.asarray(samples, dtype=float)
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
    notes = tuple(notes)
    if se == 0.0:
        # degenerate statistic: exact or wrong, no band to hide in
        ok = mean == target if sided == "two" else mean >= target
        return TestResult(
            check_tag=check_tag,
            estimate=float(mean),
            target=float(target),
            std_error=0.0,
            z_score=0.0 if ok else math.inf,
            confidence=confidence,
            verdict=bool(ok),
            n_samples=n,
            notes=notes + ("zero sample variance; exact comparison",),
        )
    z = (mean - target) / se
    zc = z_critical(confidence)
    ok = abs(z) <= zc if sided == "two" else z >= -zc
    return TestResult(
        check_tag=check_tag,
        estimate=float(mean),
        target=float(target),
        std_error=se,
        z_score=float(z),
        confidence=confidence,
        verdict=bool(ok),
        n_samples=n,
        notes=notes,
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


def _density_columns(bundle, nu, idx):
    """The martingale density's columns at the grid indices ``idx``; only
    those columns are ever built, each a contiguous row of the time-major
    array ``density_path`` returns the transpose of."""
    z = martingale_density(bundle, nu, idx)
    return {i: z[:, k] for k, i in enumerate(idx)}


def _dual_path_values(cols, z, eta, idx, work):
    """V(t, eta Z_t) per path at the chosen grid indices, the k-th in the
    ``work`` buffer ("dual", k); ``z`` maps each index to its density
    column, ``cols`` holds the field columns. Each value is
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


def require_not_failing(spec):
    """Refuse a spec classified as violating the dual submartingale
    property; return its regularity class otherwise. Callers may run this
    before simulating, so a refused model costs no paths."""
    cls = regularity_class(spec)
    if cls == FAIL_ANALYTIC:
        raise RegularityError(
            "check_dual_submartingale: coefficient spec is classified as "
            "violating the dual submartingale property (risk-aversion "
            "volatility with no compensating shift volatility); refusing to "
            "certify it by MC"
        )
    return cls


def require_provable(spec):
    """Refuse a spec outside the class where the dual is provably flat at
    the optimum (constant risk aversion)."""
    if regularity_class(spec) != PASS:
        raise RegularityError(
            "check_dual_martingale_at_optimum: equality at the optimum is only "
            "asserted for specs with constant risk aversion (delta = 0)"
        )


MC_CHECKS = (
    "dual-submartingale",
    "dual-martingale-at-optimum",
    "inverse-gamma-mean",
    "forward-drift",
)
_TERMINAL_NOTE = ("terminal-time consequence of the conditional statement",)


class MonteCarloPass:
    """The checks of ``run_mc_checks`` over one simulation that arrives in
    chunks of consecutive streams.

    The constructor validates the request and refuses a model the checks
    cannot certify, so a refusal costs no paths. ``simulated_columns``
    lists the grid columns any check can read on this scenario: 0, the
    horizon, ``time_indices`` (by default 0, n_steps // 2 and n_steps),
    and every change point of theta, delta, phi, rho, theta - delta and
    of each load of the family. A chunk must be simulated at least there
    (``simulate_paths(columns=...)``); the set does not depend on the
    checks requested, so a check reads the same draws alone as in the
    full suite. ``columns`` lists the grid indices the requested checks
    read: ``time_indices`` and the horizon (the optimum's indices are
    among them). ``gather`` builds each load's density on one chunk at
    those columns only, and keeps each column as the contiguous row view
    of the array it was built in, and the field columns as views of the
    chunk's fields; the bundle can then be dropped or overwritten.
    ``reduce`` joins the columns in stream order and runs every mean test
    once, on exactly the samples one whole-simulation chunk would give,
    so the report does not depend on the chunking. The antithetic pairing,
    gamma0 and a0 are those of the first chunk; later chunks must continue
    its streams with the same settings. Being stream ranges, chunks never
    split an antithetic pair.

    ``reduce`` builds each test's samples, their pair means and squared
    deviations, the dual values and the reductions' buffers in one
    ``Workspace`` local to the call, so the scratch lives for one
    reduction; the report it returns holds plain numbers and none of it.
    """

    def __init__(
        self,
        spec: CoefficientSpec,
        n_steps: int,
        checks: Sequence[str],
        eta_list: Sequence[float] = (1.0, 2.0),
        nu_family: dict[str, np.ndarray] | None = None,
        time_indices: Sequence[int] | None = None,
        confidence: float = DEFAULT_CONFIDENCE,
    ):
        unknown = set(checks) - set(MC_CHECKS)
        if unknown:
            raise ValueError(f"unknown Monte Carlo checks {sorted(unknown)}")
        self.submartingale = "dual-submartingale" in checks
        self.at_optimum = "dual-martingale-at-optimum" in checks
        self.inverse_gamma = "inverse-gamma-mean" in checks
        self.forward = "forward-drift" in checks
        self.sub_notes = ()
        for name in checks:
            # the first requested check that cannot certify the spec refuses it
            if name == "dual-submartingale":
                self.sub_notes = (
                    "unconditional consequence at grid times; conditional dominance not tested",
                )
                if require_not_failing(spec) != PASS:
                    self.sub_notes += (
                        "regularity undetermined for this spec; statistical evidence only",
                    )
            elif name == "dual-martingale-at-optimum":
                require_provable(spec)
        all_idx = _time_indices(n_steps, time_indices)
        self.idx = all_idx if self.submartingale or self.at_optimum else []
        self.opt_idx = [i for i in self.idx if i > 0] if self.at_optimum else []
        self.columns = sorted(set(self.idx) | {n_steps})
        coeffs = spec.per_step_values(n_steps)
        if nu_family is None:
            nu_family = _nu_family(coeffs["phi"])
        loads = [np.broadcast_to(nu, (n_steps,)) for nu in nu_family.values()]
        integrated = [*coeffs.values(), coeffs["theta"] - coeffs["delta"], *loads]
        self.simulated_columns = sorted(
            set(all_idx).union({0, n_steps}, *map(_change_points, integrated))
        )
        per_load = self.submartingale or self.inverse_gamma or self.forward
        self.nu_family = nu_family if per_load else {}
        self.spec, self.n_steps = spec, n_steps
        self.eta_list = [float(eta) for eta in eta_list]
        self.confidence = confidence
        self.t_label = dict(zip(all_idx, time_labels(spec.horizon, n_steps, all_idx)))
        self._chunks: list[dict] = []
        # (antithetic, gamma0, a0) of the first chunk, and its next stream
        self._layout = None
        self._next_stream = None

    def gather(self, bundle: PathBundle, fields: FieldPaths) -> None:
        """Keep this chunk's per-path columns: each load's density at the
        time indices and the horizon, log z~_T per load for the forward
        check, the optimum load's density, and the field columns. A
        bundle not simulated at every one of ``simulated_columns`` is
        refused."""
        layout = (bundle.antithetic, fields.gamma0, fields.a0)
        last_col = max(fields.columns, default=0)
        if (
            bundle.n_steps != self.n_steps
            or fields.inv_gamma.shape[0] != bundle.n_paths
            or last_col > self.n_steps
        ):
            raise ValueError(
                f"chunk has {bundle.n_steps} steps and fields for "
                f"{fields.inv_gamma.shape[0]} paths up to grid column {last_col}; the pass "
                f"needs {self.n_steps} steps and fields for the chunk's {bundle.n_paths} paths"
            )
        unsimulated = sorted(set(self.simulated_columns) - set(bundle.columns.tolist()))
        if unsimulated:
            raise ValueError(
                f"bundle was not simulated at the grid columns {unsimulated} the checks read"
            )
        field_pos = {c: k for k, c in enumerate(fields.columns)}
        missing = [i for i in self.columns if i not in field_pos]
        if missing:
            raise ValueError(f"fields lack the grid columns {missing} the checks read")
        if self._layout is not None and layout != self._layout:
            raise ValueError(
                f"chunk has (antithetic, gamma0, a0) = {layout}; the first chunk "
                f"had {self._layout}"
            )
        if self._next_stream is not None and bundle.stream_offset != self._next_stream:
            raise ValueError(
                f"chunk starts at stream {bundle.stream_offset}; the pass expects "
                f"stream {self._next_stream}"
            )
        self._layout = layout
        self._next_stream = bundle.stream_offset + bundle.n_paths // (
            2 if bundle.antithetic else 1
        )
        cols = {}
        for label, nu in self.nu_family.items():
            for i, col in _density_columns(bundle, nu, self.columns).items():
                cols["z", label, i] = col
            if self.forward:
                z_tilde = density_path(bundle, bundle.theta - bundle.delta, nu, [self.n_steps])
                z_tilde = z_tilde[:, 0]
                cols["log_z_tilde", label] = np.log(z_tilde, out=z_tilde)
        if self.at_optimum:
            for i, col in _density_columns(bundle, bundle.phi, self.opt_idx).items():
                cols["z_opt", i] = col
        for i in self.columns:
            cols["inv_gamma", i] = fields.inv_gamma[:, field_pos[i]]
            cols["a_shift", i] = fields.a_shift[:, field_pos[i]]
        self._chunks.append(cols)

    def reduce(self) -> VerificationReport:
        """Join the gathered columns in stream order and run every check's
        mean tests on them, on the pass's scratch; the scratch is dropped
        on return."""
        if not self._chunks:
            raise ValueError("no chunk gathered")
        antithetic, gamma0, a0 = self._layout
        chunks, self._chunks = self._chunks, []
        work = Workspace()
        self._layout = self._next_stream = None
        if len(chunks) == 1:
            cols = chunks.pop()
        else:
            cols = {key: np.concatenate([c.pop(key) for c in chunks]) for key in list(chunks[0])}
        n = cols["inv_gamma", self.n_steps].shape[0]
        sample, weight = work.take("sample", (n,)), work.take("weight", (n,))
        pairs = work.take("pairs", (n // 2,)) if antithetic else None
        idx, terminal = self.idx, self.n_steps
        report = VerificationReport()

        def add_test(tag, samples, target, sided, notes):
            res = mc_mean_test(
                collapse_pairs(samples, antithetic, out=pairs),
                target,
                check_tag=tag,
                confidence=self.confidence,
                sided=sided,
                notes=notes,
                work=work,
            )
            report.add(res.to_record())

        for label, nu in self.nu_family.items():
            z = {i: cols["z", label, i] for i in self.columns}
            if self.submartingale:
                for eta in self.eta_list:
                    vals = _dual_path_values(cols, z, eta, idx, work)
                    anchor = conjugate_exponential(gamma0, a0, eta)
                    for pos, i2 in enumerate(idx):
                        t2 = self.t_label[i2]
                        for i1 in idx[:pos]:
                            add_test(
                                f"dual-submartingale[nu={label},eta={tag_number(eta)},"
                                f"t1={self.t_label[i1]},t2={t2}]",
                                np.subtract(vals[i2], vals[i1], out=sample), 0.0, "lower",
                                self.sub_notes,
                            )
                        if i2 > 0:
                            add_test(
                                f"dual-above-start[nu={label},eta={tag_number(eta)},t={t2}]",
                                vals[i2], anchor, "lower", self.sub_notes,
                            )
            if self.inverse_gamma:
                add_test(
                    f"inverse-gamma-mean[nu={label}]",
                    np.multiply(z[terminal], cols["inv_gamma", terminal], out=sample),
                    1.0 / gamma0, "two", _TERMINAL_NOTE,
                )
            if self.forward:
                # ((1/gamma_T) gamma0) z_T, then (a_T - log z~_T) w: the
                # order of operations that fixes the statistics' rounding
                w = np.multiply(cols["inv_gamma", terminal], gamma0, out=weight)
                w *= z[terminal]
                add_test(f"forward-mass[nu={label}]", w, 1.0, "two", _TERMINAL_NOTE)
                drift = np.subtract(
                    cols["a_shift", terminal], cols["log_z_tilde", label], out=sample
                )
                drift *= w
                add_test(
                    f"forward-drift[nu={label}]",
                    drift,
                    a0 + predicted_forward_drift(self.spec, self.n_steps, nu),
                    "two",
                    _TERMINAL_NOTE,
                )
        if self.at_optimum:
            z = {i: cols["z_opt", i] for i in self.opt_idx}
            for eta in self.eta_list:
                vals = _dual_path_values(cols, z, eta, self.opt_idx, work)
                target = conjugate_exponential(gamma0, a0, eta)
                for i in self.opt_idx:
                    add_test(
                        f"dual-martingale-at-optimum[eta={tag_number(eta)},t={self.t_label[i]}]",
                        vals[i], target, "two", ("unconditional mean equality at grid times",),
                    )
        return report


def run_mc_checks(
    bundle: PathBundle,
    fields: FieldPaths,
    checks: Sequence[str],
    eta_list: Sequence[float] = (1.0, 2.0),
    nu_family: dict[str, np.ndarray] | None = None,
    time_indices: Sequence[int] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Run the named checks of ``MC_CHECKS`` in one pass over the loads.

    Each load's martingale density is built once, and only at the columns
    the checks read (``time_indices`` and the terminal time); the optimum
    load ``bundle.phi`` gets a pass of its own. Every check turns
    those columns into per-path statistics with a target, and one reducer
    collapses antithetic pairs and runs ``mc_mean_test`` on each. This is
    the one-chunk case of ``MonteCarloPass``. The checks:

    - ``dual-submartingale``: for each load nu and dual argument eta, the
      mean of V(t2, eta Z_t2) - V(t1, eta Z_t1) must not sit significantly
      below zero, nor V(t, eta Z_t) below the exact conjugate at time 0.
    - ``dual-martingale-at-optimum``: at nu = phi, two-sided equality of
      E[V(t, eta Z_t)] with the starting value at every selected t > 0;
      only for specs in the provable class.
    - ``inverse-gamma-mean``: E[Z_T / gamma_T] = 1/gamma_0 per load,
      whatever the regularity classification.
    - ``forward-drift``: with weights w = (gamma_0/gamma_T) Z_T, first the
      unit mass E[w] = 1, then E[w (a_T - log z~_T)] = a_0 - (1/2)
      integral (nu - phi)^2 dt. Here z~ is the terminal density with the
      shifted price of risk theta - delta; it equals w path by path, but
      comes from ``density_path`` directly, so the statistic cross-checks
      the reweighting identity instead of assuming it. With
      piecewise-constant loads Novikov's condition holds, so E[w] = 1
      exactly: a mass record outside its band is a band miss like any
      other, and the load's drift record is still reported.

    ``bundle`` and ``fields`` are the scenario's shared simulation (see
    the module docstring); the spec is ``bundle.spec``.
    """
    mc = MonteCarloPass(
        bundle.spec, bundle.n_steps, checks, eta_list, nu_family, time_indices, confidence
    )
    mc.gather(bundle, fields)
    return mc.reduce()


def check_dual_submartingale(
    bundle: PathBundle,
    fields: FieldPaths,
    eta_list: Sequence[float] = (1.0, 2.0),
    nu_family: dict[str, np.ndarray] | None = None,
    time_indices: Sequence[int] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Upward drift of the dual process under every candidate measure;
    ``run_mc_checks`` with ``dual-submartingale`` alone."""
    return run_mc_checks(
        bundle, fields, ["dual-submartingale"], eta_list, nu_family, time_indices, confidence
    )


def check_dual_martingale_at_optimum(
    bundle: PathBundle,
    fields: FieldPaths,
    eta_list: Sequence[float] = (1.0, 2.0),
    time_indices: Sequence[int] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Flat dual process at the optimal orthogonal load nu = phi;
    ``run_mc_checks`` with ``dual-martingale-at-optimum`` alone."""
    return run_mc_checks(
        bundle, fields, ["dual-martingale-at-optimum"], eta_list,
        time_indices=time_indices, confidence=confidence,
    )


def check_inverse_gamma_mean_mc(
    bundle: PathBundle,
    fields: FieldPaths,
    nu_family: dict[str, np.ndarray] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Preservation of the mean of 1/gamma by every candidate measure;
    ``run_mc_checks`` with ``inverse-gamma-mean`` alone."""
    return run_mc_checks(
        bundle, fields, ["inverse-gamma-mean"], nu_family=nu_family, confidence=confidence
    )


def check_forward_drift_mc(
    bundle: PathBundle,
    fields: FieldPaths,
    nu_family: dict[str, np.ndarray] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Forward-measure drift of the performance statistic per candidate
    load; ``run_mc_checks`` with ``forward-drift`` alone."""
    return run_mc_checks(
        bundle, fields, ["forward-drift"], nu_family=nu_family, confidence=confidence
    )
