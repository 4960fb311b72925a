"""Path simulation for the continuous-time exponential forward model.

The market is a single risky asset dS = theta dt + dB driven by one of two
independent Brownian motions (B, W); all model coefficients are piecewise
constant in time:

    theta  market drift (also the martingale-measure load on B),
    delta  volatility of the inverse risk aversion, d(1/gamma) = delta (1/gamma) dS,
    phi    orthogonal volatility of the additive shift,
    rho    hedgeable volatility of the additive shift.

With piecewise-constant coefficients the inverse risk aversion and the
additive shift have closed forms at grid times, so the simulated field
paths are exact in distribution at the grid (no Euler bias); the only
requirement is that the uniform grid refines the coefficient breakpoints,
which is enforced with an alignment error rather than silent snapping.

Candidate martingale densities load theta on B and a free piecewise
constant nu on W. Reweighting such a density by gamma_0/gamma_T equals,
path by path, the density with B-load theta - delta and the same nu; the
expected drift of (shift - log density) under that reweighting is
-(1/2) integral (nu - phi)^2 dt, zero exactly at nu = phi.

Reproducibility: every Gaussian increment is a fixed function of
(seed, stream index, step index) through the counter-based generator in
``kernels``, and reductions over paths use a fixed pairwise order, so
results are independent of chunking.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AlignmentError
from .kernels import Workspace, gaussian_field
from .report import CheckRecord, VerificationReport

_ALIGN_TOL = 1e-12

# paths per block of the density and field kernels: a block's increments
# and running sums (about 0.26 MB each at 64 steps) stay in L2 cache
BLOCK_ROWS = 512


@dataclass(frozen=True)
class CoefficientSpec:
    """Piecewise-constant model coefficients on [0, horizon].

    ``breakpoints[i]`` is the left endpoint of piece i; the first must be
    0.0 and the pieces must be strictly increasing and end before the
    horizon. Each coefficient array has one value per piece.
    """

    horizon: float
    breakpoints: tuple[float, ...]
    theta: tuple[float, ...]
    delta: tuple[float, ...]
    phi: tuple[float, ...]
    rho: tuple[float, ...]

    def __post_init__(self):
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        bp = self.breakpoints
        if len(bp) == 0 or bp[0] != 0.0:
            raise ValueError("breakpoints must start at 0.0")
        if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[-1] >= self.horizon:
            raise ValueError("last breakpoint must lie before the horizon")
        for name in ("theta", "delta", "phi", "rho"):
            vals = getattr(self, name)
            if len(vals) != len(bp):
                raise ValueError(f"{name} needs one value per piece")
            if any(not math.isfinite(v) for v in vals):
                raise ValueError(f"{name} contains a non-finite value")

    @classmethod
    def constant(cls, horizon, theta=0.0, delta=0.0, phi=0.0, rho=0.0):
        return cls(
            horizon=float(horizon),
            breakpoints=(0.0,),
            theta=(float(theta),),
            delta=(float(delta),),
            phi=(float(phi),),
            rho=(float(rho),),
        )

    def per_step_values(self, n_steps: int) -> dict[str, np.ndarray]:
        """Left-endpoint coefficient per uniform step; the grid must hit
        every breakpoint exactly (to 1e-12) or the request is refused."""
        if n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        dt = self.horizon / n_steps
        for b in self.breakpoints:
            frac = b / dt
            if abs(frac - round(frac)) * dt > _ALIGN_TOL:
                raise AlignmentError(
                    f"breakpoint {b:g} does not lie on the {n_steps}-step grid "
                    f"(step {dt:g}); refine n_steps instead of snapping"
                )
        lefts = np.arange(n_steps) * dt
        idx = np.searchsorted(np.asarray(self.breakpoints), lefts + _ALIGN_TOL) - 1
        out = {}
        for name in ("theta", "delta", "phi", "rho"):
            out[name] = np.asarray(getattr(self, name), dtype=float)[idx]
        return out


@dataclass(frozen=True)
class PathBundle:
    """Simulated increments on a uniform grid, and the price paths they
    drive.

    ``dB``/``dW`` have shape (n_paths, n_steps). The price ``s``, shape
    (n_paths, n_steps + 1) with s[:, 0] = s0, is summed from them each
    time it is read; no check reads it. With antithetic pairing,
    paths 2i and 2i+1 share a Gaussian stream with opposite signs. Row 0
    draws from stream ``stream_offset``, so it is path ``first_path`` of
    the simulation that starts at stream 0.
    """

    spec: CoefficientSpec
    grid: np.ndarray
    dt: float
    dB: np.ndarray
    dW: np.ndarray
    s0: float
    seed: int
    n_paths: int
    antithetic: bool
    theta: np.ndarray
    delta: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    stream_offset: int
    # scratch of the simulation, reused by the density and field kernels
    work: Workspace = field(repr=False, compare=False)

    @property
    def n_steps(self) -> int:
        return self.dB.shape[1]

    @property
    def first_path(self) -> int:
        return self.stream_offset * (2 if self.antithetic else 1)

    @property
    def ds(self) -> np.ndarray:
        return self.theta * self.dt + self.dB

    @property
    def s(self) -> np.ndarray:
        return _price_paths(self.s0, self.ds)


def _price_paths(s0: float, ds: np.ndarray) -> np.ndarray:
    """Read-only running sums of the price increments ``ds`` (one row per
    path) from ``s0`` at column 0."""
    s = np.empty((ds.shape[0], ds.shape[1] + 1))
    s[:, 0] = s0
    np.cumsum(ds, axis=1, out=s[:, 1:])
    s[:, 1:] += s0
    s.setflags(write=False)
    return s


def chunk_bounds(n_streams: int, n_chunks: int) -> list[tuple[int, int]]:
    """Split streams 0 .. n_streams - 1 into ``n_chunks`` consecutive
    ranges ``(lo, hi)`` whose sizes differ by at most one; each range is
    nonempty when 1 <= n_chunks <= n_streams."""
    return [
        (i * n_streams // n_chunks, (i + 1) * n_streams // n_chunks) for i in range(n_chunks)
    ]


def simulate_paths(
    spec: CoefficientSpec,
    n_steps: int,
    n_paths: int,
    seed: int,
    antithetic: bool = True,
    s0: float = 0.0,
    stream_offset: int = 0,
    work: Workspace | None = None,
) -> PathBundle:
    """Simulate the (B, W) increments that drive the price path.

    Draws are a pure function of (seed, stream, step). The bundle holds
    the streams from ``stream_offset`` on (one per path, or one per
    antithetic pair), so its rows equal, bit for bit, the matching rows of
    a simulation that starts at stream 0: a large simulation can be run as
    consecutive stream ranges (see ``chunk_bounds``), one bundle at a time.

    The draws and increments live in the ``Workspace`` ``work`` (a fresh
    one by default). Runs over one workspace allocate them once, and each
    run's bundle holds memory that the next run overwrites: read a bundle
    before simulating the next one on the same workspace.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if antithetic and n_paths % 2 != 0:
        raise ValueError("antithetic pairing needs an even n_paths")
    if work is None:
        work = Workspace()
    coeffs = spec.per_step_values(n_steps)
    dt = spec.horizon / n_steps
    n_streams = n_paths // 2 if antithetic else n_paths
    # the normals land in the even rows of dB and dW (all rows without
    # pairing) and are scaled there; odd rows are their antithetic partners
    per = 2 if antithetic else 1
    dB = work.take("dB", (n_paths, n_steps))
    dW = work.take("dW", (n_paths, n_steps))
    gaussian_field(
        seed, n_streams, n_steps, stream_offset=stream_offset,
        out=(dB[0::per], dW[0::per]), work=work,
    )
    sdt = math.sqrt(dt)
    for d in (dB, dW):
        d[0::per] *= sdt
        if antithetic:
            np.negative(d[0::2], out=d[1::2])

    bundle = PathBundle(
        spec=spec,
        grid=np.linspace(0.0, spec.horizon, n_steps + 1),
        dt=dt,
        dB=dB,
        dW=dW,
        s0=float(s0),
        seed=int(seed),
        n_paths=n_paths,
        antithetic=antithetic,
        theta=coeffs["theta"],
        delta=coeffs["delta"],
        phi=coeffs["phi"],
        rho=coeffs["rho"],
        stream_offset=int(stream_offset),
        work=work,
    )
    for arr in (bundle.grid, bundle.dB, bundle.dW, bundle.theta,
                bundle.delta, bundle.phi, bundle.rho):
        arr.setflags(write=False)
    return bundle


def _per_step(bundle: PathBundle, value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(bundle.n_steps, float(arr))
    if arr.shape != (bundle.n_steps,):
        raise ValueError(f"{name} must be scalar or shape ({bundle.n_steps},)")
    return arr


def _grid_columns(n_steps: int, columns) -> np.ndarray | None:
    """The grid indices 0 .. n_steps a kernel keeps, in the order given;
    None keeps the full grid."""
    if columns is None:
        return None
    cols = np.array([operator.index(c) for c in columns], dtype=np.intp)
    bad = cols[(cols < 0) | (cols > n_steps)]
    if bad.size:
        raise ValueError(f"grid columns must lie in 0..{n_steps}, got {bad.tolist()}")
    return cols


def _running_sums(
    n_paths: int, n_steps: int, cols, n_sums: int, fill, work: Workspace
) -> list[np.ndarray]:
    """Running sums over the grid of ``n_sums`` per-step increment fields,
    built one block of ``BLOCK_ROWS`` paths at a time.

    ``fill(rows, incs)`` writes the increments of the paths in the slice
    ``rows`` into the ``n_sums`` contiguous arrays ``incs``, each
    (rows, n_steps). Each is summed along its rows, from 0 at column 0, by
    the ``np.cumsum`` a whole matrix would get, so every value is the same
    whatever the block. Returns one (n_paths, n_steps + 1) array per sum
    when ``cols`` is None, else one (n_paths, len(cols)) array holding the
    grid columns ``cols`` only. The block buffers come from ``work``.
    """
    keep = slice(None) if cols is None else cols
    width = n_steps + 1 if cols is None else cols.size
    outs = [np.empty((n_paths, width)) for _ in range(n_sums)]
    block = min(BLOCK_ROWS, n_paths)
    incs = [work.take(f"incs{k}", (block, n_steps)) for k in range(n_sums)]
    sums = work.take("sums", (block, n_steps + 1))
    sums[:, 0] = 0.0
    for r0 in range(0, n_paths, BLOCK_ROWS):
        rows = slice(r0, min(r0 + BLOCK_ROWS, n_paths))
        m = rows.stop - r0
        fill(rows, [inc[:m] for inc in incs])
        for inc, out in zip(incs, outs):
            np.cumsum(inc[:m], axis=1, out=sums[:m, 1:])
            out[rows] = sums[:m, keep]
    return outs


def density_path(bundle: PathBundle, nu1, nu2, columns=None) -> np.ndarray:
    """Exponential local-martingale density with loads (nu1 on B, nu2 on W).

    Returns the full path, shape (n_paths, n_steps + 1), column 0 equal
    to 1; with ``columns``, only those grid columns, shape
    (n_paths, len(columns)), bit for bit the same values. Piecewise-constant
    loads make this the exact stochastic exponential at grid times.
    """
    nu1 = _per_step(bundle, nu1, "nu1")
    nu2 = _per_step(bundle, nu2, "nu2")
    cols = _grid_columns(bundle.n_steps, columns)
    neg_nu1 = -nu1
    drift = 0.5 * (nu1**2 + nu2**2) * bundle.dt
    n_paths = bundle.dB.shape[0]
    w_load = bundle.work.take("aux", (min(BLOCK_ROWS, n_paths), bundle.n_steps))

    def fill(rows, incs):
        (incr,) = incs
        w = w_load[: incr.shape[0]]
        # -nu1 dB - nu2 dW - (1/2)(nu1^2 + nu2^2) dt, in that order
        np.multiply(neg_nu1, bundle.dB[rows], out=incr)
        np.multiply(nu2, bundle.dW[rows], out=w)
        incr -= w
        incr -= drift

    (log_z,) = _running_sums(n_paths, bundle.n_steps, cols, 1, fill, bundle.work)
    return np.exp(log_z, out=log_z)


def martingale_density(bundle: PathBundle, nu2, columns=None) -> np.ndarray:
    """Density of the candidate martingale measure with orthogonal load nu2:
    the B-load is pinned to theta so the price is a martingale."""
    return density_path(bundle, bundle.theta, nu2, columns)


@dataclass(frozen=True)
class FieldPaths:
    """Exact grid-time paths of the exponential field parameters at the
    grid indices ``columns``; by default the full grid 0 .. n_steps."""

    gamma0: float
    a0: float
    inv_gamma: np.ndarray  # (n_paths, len(columns))
    a_shift: np.ndarray  # (n_paths, len(columns))
    columns: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.columns is None:
            object.__setattr__(self, "columns", tuple(range(self.inv_gamma.shape[1])))


def build_forward_exponential(
    spec: CoefficientSpec, gamma0: float, a0: float, bundle: PathBundle, columns=None
) -> FieldPaths:
    """Field parameter paths for the self-generating exponential family.

    1/gamma is the stochastic exponential of delta dS; the shift collects
    a deterministic quadratic drift, the hedgeable rho dS part scaled by
    the current gamma, and the orthogonal phi dW martingale part. Both are
    exact at grid times for piecewise-constant coefficients. With
    ``columns``, the paths hold only those grid columns, bit for bit the
    values of the full paths.
    """
    if gamma0 <= 0.0:
        raise ValueError("gamma0 must be positive")
    cols = _grid_columns(bundle.n_steps, columns)
    dt = bundle.dt
    n_paths = bundle.dB.shape[0]
    theta_dt = bundle.theta * dt
    log_inv_drift = 0.5 * bundle.delta**2 * dt
    ds = bundle.work.take("aux", (min(BLOCK_ROWS, n_paths), bundle.n_steps))

    def fill(rows, incs):
        log_inv, rho_s, phi_w = incs
        d = ds[: log_inv.shape[0]]
        np.add(theta_dt, bundle.dB[rows], out=d)  # rows of bundle.ds
        np.multiply(bundle.delta, d, out=log_inv)
        log_inv -= log_inv_drift
        np.multiply(bundle.rho, d, out=rho_s)
        np.multiply(bundle.phi, bundle.dW[rows], out=phi_w)

    inv_gamma, a_shift, phi_w = _running_sums(
        n_paths, bundle.n_steps, cols, 3, fill, bundle.work
    )
    np.exp(inv_gamma, out=inv_gamma)
    inv_gamma /= gamma0

    keep = slice(None) if cols is None else cols
    drift = np.concatenate(
        ([0.0], np.cumsum(0.5 * (bundle.theta - bundle.delta) ** 2 * dt))
    )[keep]
    phi_cost = np.concatenate(([0.0], np.cumsum(0.5 * bundle.phi**2 * dt)))[keep]
    # a0 + drift + rho_s / inv_gamma - phi_cost - phi_w, in place of rho_s
    np.divide(a_shift, inv_gamma, out=a_shift)
    np.add(a0 + drift[None, :], a_shift, out=a_shift)
    a_shift -= phi_cost[None, :]
    a_shift -= phi_w
    inv_gamma.setflags(write=False)
    a_shift.setflags(write=False)
    return FieldPaths(
        gamma0=float(gamma0),
        a0=float(a0),
        inv_gamma=inv_gamma,
        a_shift=a_shift,
        columns=None if cols is None else tuple(cols.tolist()),
    )


def predicted_forward_drift(spec: CoefficientSpec, n_steps: int, nu2) -> float:
    """Closed-form drift of (shift - log density) under the forward
    reweighting: -(1/2) integral (nu2 - phi)^2 dt."""
    coeffs = spec.per_step_values(n_steps)
    dt = spec.horizon / n_steps
    nu2 = np.asarray(nu2, dtype=float)
    if nu2.ndim == 0:
        nu2 = np.full(n_steps, float(nu2))
    if nu2.shape != (n_steps,):
        raise ValueError(f"nu2 must be scalar or shape ({n_steps},)")
    return float(-0.5 * np.sum((nu2 - coeffs["phi"]) ** 2) * dt)


# -- regularity ----------------------------------------------------------

PASS = "pass"
FAIL_ANALYTIC = "fail-analytic"
UNDETERMINED = "undetermined"


def regularity_class(spec: CoefficientSpec) -> str:
    """Classify whether the dual submartingale property is guaranteed.

    The sufficient condition implemented here is a constant risk aversion
    (delta identically zero). With delta active and no shift volatility to
    compensate (phi and rho both zero), the property provably fails; any
    other combination is out of scope for the analytic criterion.
    """
    delta_zero = all(d == 0.0 for d in spec.delta)
    if delta_zero:
        return PASS
    if all(p == 0.0 for p in spec.phi) and all(r == 0.0 for r in spec.rho):
        return FAIL_ANALYTIC
    return UNDETERMINED


def validate_regularity(spec: CoefficientSpec) -> VerificationReport:
    """Report the regularity classification plus the trivially checkable
    integrability facts (bounded coefficients, finite Novikov exponents)."""
    report = VerificationReport()
    cls = regularity_class(spec)
    report.add(
        CheckRecord(
            check_tag="ito-regularity-class",
            verdict=cls != FAIL_ANALYTIC,
            notes=(f"classification: {cls}",),
            details={"classification": cls},
        )
    )
    bound = max(
        max(abs(v) for v in getattr(spec, name)) for name in ("theta", "delta", "phi", "rho")
    )
    report.add(
        CheckRecord(
            check_tag="ito-coefficients-bounded",
            verdict=math.isfinite(bound),
            value=bound,
            notes=("piecewise-constant coefficients are bounded by construction",),
        )
    )
    pieces = np.diff(list(spec.breakpoints) + [spec.horizon])
    novikov = 0.5 * float(np.sum(np.asarray(spec.theta) ** 2 * pieces))
    report.add(
        CheckRecord(
            check_tag="ito-novikov-exponent",
            verdict=math.isfinite(novikov),
            value=novikov,
            notes=("(1/2) integral of theta^2; finiteness gives true densities",),
        )
    )
    return report


# -- export --------------------------------------------------------------


def path_table(
    bundle: PathBundle, fields: FieldPaths, densities: dict[str, np.ndarray], path_index: int
) -> np.ndarray:
    """One path's CSV columns as a (n_steps + 1, 4 + len(densities))
    matrix, one row per grid time: the time, the price, the densities in
    label order, then the field columns. ``path_index`` counts from the
    simulation's stream 0 (see ``PathBundle.first_path``)."""
    i = path_index - bundle.first_path
    if not 0 <= i < bundle.n_paths:
        raise ValueError(
            f"path {path_index} is not in this bundle (paths {bundle.first_path} to "
            f"{bundle.first_path + bundle.n_paths - 1})"
        )
    # the price row alone, summed as the whole matrix ``bundle.s`` sums it
    s = _price_paths(bundle.s0, bundle.theta * bundle.dt + bundle.dB[i : i + 1])
    return np.column_stack(
        [bundle.grid, s[0]]
        + [z[i] for z in densities.values()]
        + [fields.inv_gamma[i], fields.a_shift[i]]
    )


def write_paths_csv(path: str, labels: Sequence[str], tables) -> int:
    """Write ``(path_index, path_table)`` pairs as long-format CSV, in the
    order given, under one header; returns the number of rows written."""
    n = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["path", "t", "s"] + [f"z_{lab}" for lab in labels] + ["inv_gamma", "a_shift"]
        )
        for path_index, table in tables:
            writer.writerows([path_index] + [f"{v:.12g}" for v in row] for row in table.tolist())
            n += table.shape[0]
    return n
