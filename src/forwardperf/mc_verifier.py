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
builds on it. Simulate once and run the checks in one pass::

    bundle = simulate_paths(spec, n_steps, n_paths, seed, n_chunks=n_chunks)
    fields = build_forward_exponential(spec, gamma0, a0, bundle)
    run_mc_checks(bundle, fields, ["dual-submartingale", "inverse-gamma-mean"])

The pass builds each load's martingale density once for all the checks
that read it. The model spec, the step count and the antithetic pairing
come from the bundle; gamma0 and a0 come from the fields. Both are
read-only, so the ``check_*`` wrappers, which run one check each, report
the same bytes on a shared simulation as on a fresh one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .errors import RegularityError
from .fields import conjugate_exponential, entropy_kernel
from .ito_engine import (
    FAIL_ANALYTIC,
    PASS,
    FieldPaths,
    PathBundle,
    density_path,
    martingale_density,
    predicted_forward_drift,
    regularity_class,
)
from .kernels import pairwise_sum
from .report import CheckRecord, VerificationReport

DEFAULT_CONFIDENCE = 0.997


def z_critical(confidence: float) -> float:
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    return float(ndtri(0.5 * (1.0 + confidence)))


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


def collapse_pairs(values: np.ndarray, antithetic: bool) -> np.ndarray:
    """Average antithetic partners (paths 2i, 2i+1) into one sample each."""
    if not antithetic:
        return np.asarray(values, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape[0] % 2 != 0:
        raise ValueError("antithetic collapse needs an even number of paths")
    return 0.5 * (values[0::2] + values[1::2])


def mc_mean_test(
    samples: np.ndarray,
    target: float,
    check_tag: str,
    confidence: float = DEFAULT_CONFIDENCE,
    sided: str = "two",
    notes: Sequence[str] = (),
) -> TestResult:
    """Normal test of a sample mean against a target.

    ``sided``: "two" requires the target inside the band, "lower" tolerates
    estimates above the target (one-sided bound from below), "upper" the
    reverse. Samples must already be independent.
    """
    if sided not in ("two", "lower", "upper"):
        raise ValueError(f"unknown sidedness {sided!r}")
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 100:
        # below this the normal band is not trustworthy
        raise ValueError(f"mean test needs at least 100 samples, got {n}")
    mean = pairwise_sum(samples) / n
    var = pairwise_sum((samples - mean) ** 2) / (n - 1)
    se = math.sqrt(var / n)
    notes = tuple(notes)
    if se == 0.0:
        # degenerate statistic: exact or wrong, no band to hide in
        if sided == "two":
            ok = mean == target
        elif sided == "lower":
            ok = mean >= target
        else:
            ok = mean <= target
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
    if sided == "two":
        ok = abs(z) <= zc
    elif sided == "lower":
        ok = z >= -zc
    else:
        ok = z <= zc
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


def default_nu_family(bundle: PathBundle) -> dict[str, np.ndarray]:
    """Orthogonal loads to probe: zero, the optimizer phi, two offsets of
    it, and a fixed constant."""
    phi = bundle.phi
    return {
        "0": np.zeros(bundle.n_steps),
        "phi": phi.copy(),
        "phi+0.4": phi + 0.4,
        "phi-0.4": phi - 0.4,
        "0.8": np.full(bundle.n_steps, 0.8),
    }


def _time_indices(bundle: PathBundle, time_indices) -> list[int]:
    if time_indices is None:
        mid = bundle.n_steps // 2
        idx = [0, mid, bundle.n_steps]
    else:
        idx = sorted(set(int(i) for i in time_indices))
    for i in idx:
        if not (0 <= i <= bundle.n_steps):
            raise ValueError(f"time index {i} outside the grid")
    return idx


def _density_columns(bundle, nu, idx):
    """Copies of the martingale density's columns at the grid indices
    ``idx``; the full (n_paths, n_steps + 1) matrix is freed on return."""
    z = martingale_density(bundle, nu)
    return {i: z[:, i].copy() for i in idx}


def _dual_path_values(fields, z, eta, idx):
    """V(t, eta Z_t) per path at the chosen grid indices; ``z`` maps each
    index to its density column."""
    out = {}
    for i in idx:
        arg = eta * z[i] * fields.inv_gamma[:, i]
        a_t = fields.a_shift[:, i]
        out[i] = entropy_kernel(arg) - arg * a_t
    return out


def _fmt_t(bundle, i):
    return f"{bundle.grid[i]:g}"


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

    Each load's martingale density is built once and only the columns the
    checks read (``time_indices`` and the terminal time) are kept; the
    optimum load ``bundle.phi`` gets a pass of its own. Every check turns
    those columns into per-path statistics with a target, and one reducer
    collapses antithetic pairs and runs ``mc_mean_test`` on each. The
    checks:

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
      the reweighting identity instead of assuming it. A load whose mass
      test fails cannot define a forward measure: the first such load, in
      ``nu_family`` order, aborts the run.

    ``bundle`` and ``fields`` are the scenario's shared simulation (see
    the module docstring); the spec is ``bundle.spec``.
    """
    unknown = set(checks) - set(MC_CHECKS)
    if unknown:
        raise ValueError(f"unknown Monte Carlo checks {sorted(unknown)}")
    submartingale = "dual-submartingale" in checks
    at_optimum = "dual-martingale-at-optimum" in checks
    inverse_gamma = "inverse-gamma-mean" in checks
    forward = "forward-drift" in checks
    if submartingale:
        sub_notes = ("unconditional consequence at grid times; conditional dominance not tested",)
        if require_not_failing(bundle.spec) != PASS:
            sub_notes += ("regularity undetermined for this spec; statistical evidence only",)
    if at_optimum:
        require_provable(bundle.spec)
    idx = _time_indices(bundle, time_indices) if submartingale or at_optimum else []
    if nu_family is None:
        nu_family = default_nu_family(bundle)
    gamma0, a0 = fields.gamma0, fields.a0
    terminal = bundle.n_steps
    report = VerificationReport()

    def reduce(tag, samples, target, sided, notes):
        res = mc_mean_test(
            collapse_pairs(samples, bundle.antithetic),
            target,
            check_tag=tag,
            confidence=confidence,
            sided=sided,
            notes=notes,
        )
        report.add(res.to_record())
        return res

    per_load = submartingale or inverse_gamma or forward
    for label, nu in nu_family.items() if per_load else ():
        z = _density_columns(bundle, nu, sorted(set(idx) | {terminal}))
        if submartingale:
            for eta in map(float, eta_list):
                vals = _dual_path_values(fields, z, eta, idx)
                anchor = conjugate_exponential(gamma0, a0, eta)
                for pos, i2 in enumerate(idx):
                    t2 = _fmt_t(bundle, i2)
                    for i1 in idx[:pos]:
                        reduce(
                            f"dual-submartingale[nu={label},eta={eta:g},"
                            f"t1={_fmt_t(bundle, i1)},t2={t2}]",
                            vals[i2] - vals[i1], 0.0, "lower", sub_notes,
                        )
                    if i2 > 0:
                        reduce(
                            f"dual-above-start[nu={label},eta={eta:g},t={t2}]",
                            vals[i2], anchor, "lower", sub_notes,
                        )
        if inverse_gamma:
            reduce(
                f"inverse-gamma-mean[nu={label}]",
                z[terminal] * fields.inv_gamma[:, -1], 1.0 / gamma0, "two", _TERMINAL_NOTE,
            )
        if forward:
            w = fields.inv_gamma[:, -1] * gamma0 * z[terminal]
            mass = reduce(f"forward-mass[nu={label}]", w, 1.0, "two", _TERMINAL_NOTE)
            if not mass.verdict:
                raise RegularityError(
                    f"check_forward_drift_mc: reweighted mass for nu={label!r} is "
                    f"{mass.estimate:.6g} (z={mass.z_score:.2f}); not a probability, "
                    "drift target undefined"
                )
            log_z_tilde = np.log(density_path(bundle, bundle.theta - bundle.delta, nu)[:, -1])
            reduce(
                f"forward-drift[nu={label}]",
                w * (fields.a_shift[:, -1] - log_z_tilde),
                a0 + predicted_forward_drift(bundle.spec, bundle.n_steps, nu),
                "two",
                _TERMINAL_NOTE,
            )
    if at_optimum:
        idx = [i for i in idx if i > 0]
        z = _density_columns(bundle, bundle.phi, idx)
        for eta in map(float, eta_list):
            vals = _dual_path_values(fields, z, eta, idx)
            target = conjugate_exponential(gamma0, a0, eta)
            for i in idx:
                reduce(
                    f"dual-martingale-at-optimum[eta={eta:g},t={_fmt_t(bundle, i)}]",
                    vals[i], target, "two", ("unconditional mean equality at grid times",),
                )
    return report


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
