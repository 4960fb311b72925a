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
builds on it. Simulate once and pass both to every check::

    bundle = simulate_paths(spec, n_steps, n_paths, seed, n_chunks=n_chunks)
    fields = build_forward_exponential(spec, gamma0, a0, bundle)
    check_dual_submartingale(bundle, fields)
    check_inverse_gamma_mean_mc(bundle, fields)

The model spec, the step count and the antithetic pairing come from the
bundle; gamma0 and a0 come from the fields. Both are read-only, so the
checks cannot disturb one another and each one reports the same bytes as
it would on a fresh simulation.
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
    forward_weights,
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


def _dual_path_values(bundle, fields, z, eta, idx):
    """V(t, eta Z_t) per path at the chosen grid indices."""
    out = {}
    for i in idx:
        arg = eta * z[:, i] * fields.inv_gamma[:, i]
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


def check_dual_submartingale(
    bundle: PathBundle,
    fields: FieldPaths,
    eta_list: Sequence[float] = (1.0, 2.0),
    nu_family: dict[str, np.ndarray] | None = None,
    time_indices: Sequence[int] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Upward drift of the dual process under every candidate measure.

    For each orthogonal load nu and dual argument eta: the mean of
    V(t2, eta Z_t2) - V(t1, eta Z_t1) must not sit significantly below
    zero, and at t1 = 0 the anchor value is the exact conjugate.
    ``bundle`` and ``fields`` are the scenario's shared simulation (see
    the module docstring); the spec is ``bundle.spec``.
    """
    cls = require_not_failing(bundle.spec)
    base_notes = ("unconditional consequence at grid times; conditional dominance not tested",)
    if cls != PASS:
        base_notes += ("regularity undetermined for this spec; statistical evidence only",)
    gamma0, a0, antithetic = fields.gamma0, fields.a0, bundle.antithetic
    if nu_family is None:
        nu_family = default_nu_family(bundle)
    idx = _time_indices(bundle, time_indices)
    report = VerificationReport()
    for label, nu in nu_family.items():
        z = martingale_density(bundle, nu)
        for eta in eta_list:
            vals = _dual_path_values(bundle, fields, z, float(eta), idx)
            anchor = conjugate_exponential(gamma0, a0, float(eta))
            for pos, i2 in enumerate(idx):
                for i1 in idx[:pos]:
                    diff = collapse_pairs(vals[i2] - vals[i1], antithetic)
                    res = mc_mean_test(
                        diff,
                        0.0,
                        check_tag=(
                            f"dual-submartingale[nu={label},eta={eta:g},"
                            f"t1={_fmt_t(bundle, i1)},t2={_fmt_t(bundle, i2)}]"
                        ),
                        confidence=confidence,
                        sided="lower",
                        notes=base_notes,
                    )
                    report.add(res.to_record())
                if i2 > 0:
                    level = collapse_pairs(vals[i2], antithetic)
                    res = mc_mean_test(
                        level,
                        anchor,
                        check_tag=(
                            f"dual-above-start[nu={label},eta={eta:g},"
                            f"t={_fmt_t(bundle, i2)}]"
                        ),
                        confidence=confidence,
                        sided="lower",
                        notes=base_notes,
                    )
                    report.add(res.to_record())
        del z
    return report


def check_dual_martingale_at_optimum(
    bundle: PathBundle,
    fields: FieldPaths,
    eta_list: Sequence[float] = (1.0, 2.0),
    time_indices: Sequence[int] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Flat dual process at the optimal orthogonal load nu = phi.

    Two-sided test of E[V(t, eta Z_t)] against the exact starting value at
    every selected grid time; only run for specs in the provable class.
    Reads the scenario's shared ``bundle`` and ``fields``.
    """
    require_provable(bundle.spec)
    gamma0, a0, antithetic = fields.gamma0, fields.a0, bundle.antithetic
    z = martingale_density(bundle, bundle.phi)
    idx = [i for i in _time_indices(bundle, time_indices) if i > 0]
    report = VerificationReport()
    for eta in eta_list:
        vals = _dual_path_values(bundle, fields, z, float(eta), idx)
        target = conjugate_exponential(gamma0, a0, float(eta))
        for i in idx:
            level = collapse_pairs(vals[i], antithetic)
            res = mc_mean_test(
                level,
                target,
                check_tag=f"dual-martingale-at-optimum[eta={eta:g},t={_fmt_t(bundle, i)}]",
                confidence=confidence,
                sided="two",
                notes=("unconditional mean equality at grid times",),
            )
            report.add(res.to_record())
    return report


def check_inverse_gamma_mean_mc(
    bundle: PathBundle,
    fields: FieldPaths,
    nu_family: dict[str, np.ndarray] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Preservation of the mean of 1/gamma by every candidate measure:
    E[Z_T / gamma_T] = 1/gamma_0, two-sided per load. Runs regardless of
    the regularity classification. Reads the scenario's shared ``bundle``
    and ``fields``; 1/gamma does not depend on ``fields.a0``."""
    gamma0, antithetic = fields.gamma0, bundle.antithetic
    if nu_family is None:
        nu_family = default_nu_family(bundle)
    report = VerificationReport()
    for label, nu in nu_family.items():
        z = martingale_density(bundle, nu)
        samples = collapse_pairs(z[:, -1] * fields.inv_gamma[:, -1], antithetic)
        res = mc_mean_test(
            samples,
            1.0 / gamma0,
            check_tag=f"inverse-gamma-mean[nu={label}]",
            confidence=confidence,
            sided="two",
            notes=("terminal-time consequence of the conditional statement",),
        )
        report.add(res.to_record())
        del z
    return report


def check_forward_drift_mc(
    bundle: PathBundle,
    fields: FieldPaths,
    nu_family: dict[str, np.ndarray] | None = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> VerificationReport:
    """Forward-measure drift of the performance statistic per candidate load.

    With weights w = (gamma_0/gamma_T) Z_T, the mean of w (a_T - log z~_T)
    must equal a_0 - (1/2) integral (nu - phi)^2 dt, exactly zero drift at
    nu = phi. Here z~ is the terminal density built from the shifted market
    price of risk theta - delta; it equals w path by path, but the two are
    computed through separate routes so the statistic cross-checks the
    reweighting identity instead of assuming it. The unit-mean condition
    for w is retested first for each load; a load failing it cannot define
    a forward measure and aborts the check. Reads the scenario's shared
    ``bundle`` and ``fields``.
    """
    a0, antithetic = fields.a0, bundle.antithetic
    if nu_family is None:
        nu_family = default_nu_family(bundle)
    theta_tilde = bundle.theta - bundle.delta
    report = VerificationReport()
    for label, nu in nu_family.items():
        w = forward_weights(bundle, fields, nu)
        mass = mc_mean_test(
            collapse_pairs(w, antithetic),
            1.0,
            check_tag=f"forward-mass[nu={label}]",
            confidence=confidence,
            sided="two",
            notes=("terminal-time consequence of the conditional statement",),
        )
        if not mass.verdict:
            raise RegularityError(
                f"check_forward_drift_mc: reweighted mass for nu={label!r} is "
                f"{mass.estimate:.6g} (z={mass.z_score:.2f}); not a probability, "
                "drift target undefined"
            )
        report.add(mass.to_record())
        z_tilde = density_path(bundle, theta_tilde, nu)[:, -1]
        f_term = fields.a_shift[:, -1] - np.log(z_tilde)
        target = a0 + predicted_forward_drift(bundle.spec, bundle.n_steps, nu)
        res = mc_mean_test(
            collapse_pairs(w * f_term, antithetic),
            target,
            check_tag=f"forward-drift[nu={label}]",
            confidence=confidence,
            sided="two",
            notes=("terminal-time consequence of the conditional statement",),
        )
        report.add(res.to_record())
        del w, z_tilde
    return report
