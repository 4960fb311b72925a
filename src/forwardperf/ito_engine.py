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
(seed, stream index, interval index, simulated columns) through the
counter-based generator in ``kernels`` (interval k of the simulated
columns reads step k of the stream), and reductions over paths use a
fixed pairwise order, so results are independent of chunking.

Densities and field paths are read from two running sums per simulation,
S_B and S_W, the sums of dB and dW along each path. A piecewise-constant
coefficient v makes its stochastic integral at a grid column c a fixed
function of the path: V(0) = 0, V(e) = V(s) + v (S(e) - S(s)) over each
constant run [s, e) in time order, and V(s) + v (S(c) - S(s)) at a column c
inside a run. A value at c is therefore the same whichever other columns
are built, and a scenario's loads all share the two sums.

So a simulation need only draw the sums at the grid columns it will read
and at the change points of the coefficients it integrates: its
simulated columns c_0 = 0 < c_1 < ... < c_K = n_steps. Between two of
them the grid increments of a Brownian motion sum to one normal of
variance (c_{k+1} - c_k) dt, so drawing that sum directly is exact in
distribution (Glasserman, Monte Carlo Methods in Financial Engineering,
2003, section 3.1). A value at a column that was not simulated is
refused, never interpolated.
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

_ALIGN_TOL = 1e-12

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
    """The running sums of the simulated Brownian draws at the simulated
    columns of a uniform grid.

    ``columns`` holds the simulated grid columns c_0 = 0 < ... < c_K =
    n_steps (every column 0 .. n_steps for the full grid) and ``grid``
    their times. ``sum_dB``/``sum_dW`` hold S_B and S_W, the running sums
    of the drawn streams' increments, shape (n_streams, K + 1), column k
    at grid column c_k: 0 in column 0, then the sequential sums of the
    increments over [c_j, c_{j+1}), j < k. They are the only stored form
    of the draws, held time-major so a column is contiguous, and the
    density, field and price kernels read every value from them. With
    antithetic pairing, paths 2i and 2i+1 share stream i with opposite
    signs: path 2i+1's sums are the negated sums of row i. The
    coefficients ``theta`` .. ``rho`` stay per grid step, shape
    (n_steps,). Row 0 draws from stream ``stream_offset``, so it is path
    ``first_path`` of the simulation that starts at stream 0.

    ``b_integrals`` is ``density_path``'s memo of the B integrals it has
    built on this bundle, keyed by the bits of the B-load and the columns:
    a scenario's densities all load theta on B, so they share one.
    """

    spec: CoefficientSpec
    n_steps: int
    columns: np.ndarray
    grid: np.ndarray
    dt: float
    n_paths: int
    antithetic: bool
    theta: np.ndarray
    delta: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    stream_offset: int
    sum_dB: np.ndarray
    sum_dW: np.ndarray
    b_integrals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def first_path(self) -> int:
        return self.stream_offset * (2 if self.antithetic else 1)


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
    stream_offset: int = 0,
    work: Workspace | None = None,
    columns: Sequence[int] | None = None,
) -> PathBundle:
    """Simulate the running sums S_B and S_W of the (B, W) draws that
    drive the price path, which starts at 0.

    ``columns`` lists the grid columns to simulate at; 0 and n_steps are
    always among them, and None is the full grid 0 .. n_steps. With the
    sorted columns c_0 < ... < c_K, the increment over [c_k, c_{k+1}) is
    sqrt((c_{k+1} - c_k) dt) times step k of ``gaussian_field``, exact in
    distribution. On the full grid every length is 1 and
    sqrt(1 * dt) == sqrt(dt), so those are the full-grid draws bit for
    bit. The normals are written straight into rows 1 .. K of the
    time-major sums, scaled there, and summed in place one interval at a
    time, row k + 1 taking row k plus itself: the sequential sums
    np.cumsum gives, since IEEE addition commutes. Only the simulated
    columns can be read from the bundle (see ``_integral``).

    Draws are a pure function of (seed, stream, interval index). The bundle
    holds the streams from ``stream_offset`` on (one per path, or one per
    antithetic pair), so its rows equal, bit for bit, the matching rows of
    a simulation at the same columns that starts at stream 0: a large
    simulation can be run as consecutive stream ranges of any sizes, one
    bundle at a time, and gives the same rows whatever the split.
    ``ito-verify`` and ``export-paths`` size the ranges by the draw budget
    ``cli.DRAW_BUDGET`` alone.

    The two sums and the draws' tiles live in the ``Workspace`` ``work``
    (a fresh one by default). Runs over one workspace allocate them once,
    and each run's bundle holds memory that the next run overwrites: read
    a bundle before simulating the next one on the same workspace.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if antithetic and n_paths % 2 != 0:
        raise ValueError("antithetic pairing needs an even n_paths")
    if work is None:
        work = Workspace()
    coeffs = spec.per_step_values(n_steps)
    dt = spec.horizon / n_steps
    cols = np.array(sorted({0, n_steps, *_grid_columns(n_steps, columns).tolist()}))
    n_int = cols.size - 1
    n_streams = n_paths // 2 if antithetic else n_paths
    sums = [work.take(name, (n_int + 1, n_streams)) for name in ("sum_dB", "sum_dW")]
    gaussian_field(
        seed, n_streams, n_int, stream_offset=stream_offset,
        out=tuple(s[1:].T for s in sums), work=work,
    )
    scale = np.sqrt(np.diff(cols) * dt)[:, None]
    for s in sums:
        s[0] = 0.0
        s[1:] *= scale
        for k in range(1, n_int):
            np.add(s[k], s[k + 1], out=s[k + 1])

    bundle = PathBundle(
        spec=spec,
        n_steps=n_steps,
        columns=cols,
        grid=np.linspace(0.0, spec.horizon, n_steps + 1)[cols],
        dt=dt,
        n_paths=n_paths,
        antithetic=antithetic,
        theta=coeffs["theta"],
        delta=coeffs["delta"],
        phi=coeffs["phi"],
        rho=coeffs["rho"],
        stream_offset=int(stream_offset),
        sum_dB=sums[0].T,
        sum_dW=sums[1].T,
    )
    for arr in (bundle.columns, bundle.grid, bundle.sum_dB, bundle.sum_dW,
                bundle.theta, bundle.delta, bundle.phi, bundle.rho):
        arr.setflags(write=False)
    return bundle


def _per_step(n_steps: int, value, name: str) -> np.ndarray:
    """A load's value per grid step: a scalar holds at every step, an array
    must have one value per step."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n_steps, float(arr))
    if arr.shape != (n_steps,):
        raise ValueError(f"{name} must be scalar or shape ({n_steps},)")
    return arr


def _grid_columns(n_steps: int, columns) -> np.ndarray:
    """The grid indices 0 .. n_steps a kernel keeps, in the order given;
    None is the full grid."""
    if columns is None:
        return np.arange(n_steps + 1)
    cols = np.array([operator.index(c) for c in columns], dtype=np.intp)
    bad = cols[(cols < 0) | (cols > n_steps)]
    if bad.size:
        raise ValueError(f"grid columns must lie in 0..{n_steps}, got {bad.tolist()}")
    return cols


def _bundle_columns(bundle: PathBundle, columns) -> np.ndarray:
    """The grid columns a kernel builds on ``bundle``, in the order given;
    None is every simulated column."""
    return bundle.columns if columns is None else _grid_columns(bundle.n_steps, columns)


def _sum_rows(bundle: PathBundle, cols: np.ndarray) -> np.ndarray:
    """The rows of the bundle's running sums at the grid columns ``cols``;
    a column that was not simulated is refused, never interpolated."""
    rows = np.searchsorted(bundle.columns, cols)
    held = bundle.columns[np.minimum(rows, bundle.columns.size - 1)] == cols
    if not held.all():
        raise ValueError(
            f"grid columns {sorted(set(cols[~held].tolist()))} were not simulated; "
            "pass them to simulate_paths(columns=...)"
        )
    return rows


def _cumulative(per_step: np.ndarray) -> np.ndarray:
    """Deterministic running sum over the grid, 0 at column 0."""
    return np.concatenate(([0.0], np.cumsum(per_step)))


def _integral(bundle: PathBundle, sums: np.ndarray, v: np.ndarray, cols: np.ndarray, out=None):
    """Integral of the per-step coefficients ``v`` against the increments
    whose running sums are ``sums`` (``bundle.sum_dB`` or ``sum_dW``), at
    the grid columns ``cols``: a time-major (len(cols), n_streams) array,
    one value per drawn stream, written into ``out`` (a float64 array of
    that shape) when given, else into a fresh array.

    ``v`` is split into maximal constant runs [s, e). The value at each run
    boundary is fixed in time order, V(0) = 0 and
    V(e) = V(s) + v_run (S(e) - S(s)), and a column c of the run with
    s < c <= e (column 0 in the first run) reads
    V(s) + v_run (S(c) - S(s)). So the value at c is the same whatever
    other columns are asked for, and the work is a few vector operations
    per run boundary and per column, each column's written in place into
    its row of the result. Every column asked for, and every run
    boundary before the last of them, must be a simulated column
    (``_sum_rows``).

    Runs are taken in time order. The first starts at the scalar 0.0, whose
    add turns a -0.0 into +0.0 as a zero row would. A later run starts at
    a requested column's row when one sits on its boundary; otherwise its
    start is built in place in one row of scratch, the only array the call
    allocates besides its result.
    """
    sums = sums.T  # time-major: a simulated column is a contiguous row
    starts = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1))
    run = np.searchsorted(starts[1:], cols)
    rows = _sum_rows(bundle, cols)
    last = run.max(initial=0)
    # the rows at the starts of the runs up to the last one read; each run
    # ends where the next starts
    bounds = _sum_rows(bundle, starts[: last + 1])
    x = np.empty((cols.size, sums.shape[1])) if out is None else out
    at_start, scratch = 0.0, None
    for j in range(last + 1):
        for k in np.flatnonzero(run == j):
            np.subtract(sums[rows[k]], sums[bounds[j]], out=x[k])
            x[k] *= v[starts[j]]
            x[k] += at_start
        if j == last:
            break
        on_bound = np.flatnonzero(cols == starts[j + 1])
        if on_bound.size:
            # V(e) of run j is that column's value, bit for bit
            at_start = x[on_bound[0]]
            continue
        if scratch is None:
            scratch = np.empty(sums.shape[1])
        # V(s) + v_run (S(e) - S(s)); when V(s) is in the scratch, the
        # product goes to a row of the last run, written after this
        step = x[np.flatnonzero(run == last)[0]] if at_start is scratch else scratch
        np.subtract(sums[bounds[j + 1]], sums[bounds[j]], out=step)
        step *= v[starts[j]]
        at_start = np.add(step, at_start, out=scratch)
    return x


def _b_integral(bundle: PathBundle, nu1: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """integral(-nu1 dB) per drawn stream at ``cols``, read-only, built once
    per bundle for each B-load and columns (``PathBundle.b_integrals``)."""
    key = (nu1.tobytes(), tuple(cols.tolist()))
    i_b = bundle.b_integrals.get(key)
    if i_b is None:
        i_b = bundle.b_integrals[key] = _integral(bundle, bundle.sum_dB, -nu1, cols)
        i_b.setflags(write=False)
    return i_b


def _out(out, shape) -> np.ndarray:
    """``out``, refused unless a float64 array of ``shape``; when None, a
    fresh path-major view of a time-major array of that shape."""
    if out is None:
        return np.empty(shape[::-1]).T
    if out.shape != shape or out.dtype != np.float64:
        raise ValueError(
            f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}"
        )
    return out


def density_path(bundle: PathBundle, nu1, nu2, columns=None, out=None) -> np.ndarray:
    """Exponential local-martingale density with loads (nu1 on B, nu2 on W).

    Returns the path at every simulated column, shape
    (n_paths, len(bundle.columns)), column 0 equal to 1; with ``columns``,
    only those grid columns, shape (n_paths, len(columns)), bit for bit
    the same values. With ``out``, a float64 array of that shape, the
    density is written there and ``out`` is returned; a fresh one
    otherwise. Piecewise-constant
    loads make this the exact stochastic exponential at grid times:
    log z = integral(-nu1 dB) + integral(-nu2 dW) - (1/2) integral
    (nu1^2 + nu2^2) dt, each stochastic integral read from the bundle's
    running sums (see ``_integral``). The B integral is built once per
    bundle for each B-load and columns and shared by the densities that
    load the same (``PathBundle.b_integrals``); each density adds its own
    W integral to it, I_W + I_B being I_B + I_W bit for bit.

    The integrals are built per drawn stream, in the even paths with
    antithetic pairing, and negated into the odd paths: being odd in the
    sums, that is what the partners' own sums would give, bit for bit,
    since rounding is symmetric under negation.
    ``build_forward_exponential`` pairs its integrals the same way.
    """
    nu1 = _per_step(bundle.n_steps, nu1, "nu1")
    nu2 = _per_step(bundle.n_steps, nu2, "nu2")
    cols = _bundle_columns(bundle, columns)
    out = _out(out, (bundle.n_paths, cols.size))
    log_z = out.T  # time-major
    drift = _cumulative(0.5 * (nu1**2 + nu2**2) * bundle.dt)
    drawn = log_z[:, 0::2] if bundle.antithetic else log_z
    _integral(bundle, bundle.sum_dW, -nu2, cols, out=drawn)
    drawn += _b_integral(bundle, nu1, cols)
    if bundle.antithetic:
        np.negative(drawn, out=log_z[:, 1::2])
    log_z -= drift[cols][:, None]
    np.exp(log_z, out=log_z)
    return out


def martingale_density(bundle: PathBundle, nu2, columns=None) -> np.ndarray:
    """Density of the candidate martingale measure with orthogonal load nu2:
    the B-load is pinned to theta so the price is a martingale."""
    return density_path(bundle, bundle.theta, nu2, columns)


@dataclass(frozen=True)
class FieldPaths:
    """Exact grid-time paths of the exponential field parameters: 1/gamma at
    the grid indices ``columns`` and the shift at ``shift_columns``."""

    inv_gamma: np.ndarray  # (n_paths, len(columns))
    a_shift: np.ndarray  # (n_paths, len(shift_columns))
    columns: tuple[int, ...]
    shift_columns: tuple[int, ...]


def build_forward_exponential(
    spec: CoefficientSpec,
    gamma0: float,
    a0: float,
    bundle: PathBundle,
    columns=None,
    shift_columns=None,
    out=None,
) -> FieldPaths:
    """Field parameter paths for the self-generating exponential family.

    1/gamma is the stochastic exponential of delta dS; the shift collects
    a deterministic quadratic drift, the hedgeable rho dS part scaled by
    the current gamma, and the orthogonal phi dW martingale part. Both are
    exact at grid times for piecewise-constant coefficients. 1/gamma holds
    every simulated column of ``bundle``; with ``columns``, only those
    grid columns, bit for bit the same values. The shift holds the grid
    columns ``shift_columns``, which must be among those (by default the
    same columns); an empty list builds no shift.

    With ``out``, a pair of float64 arrays of the shapes of ``inv_gamma``
    and ``a_shift``, (n_paths, len(columns)) and
    (n_paths, len(shift_columns)), the paths are written there, with the
    same bits, as ``density_path(..., out=)`` writes a density, and the
    fields hold them; fresh read-only arrays otherwise.
    """
    if gamma0 <= 0.0:
        raise ValueError("gamma0 must be positive")
    cols = _bundle_columns(bundle, columns)
    shift_cols = cols if shift_columns is None else _grid_columns(bundle.n_steps, shift_columns)
    pos = {c: k for k, c in enumerate(cols.tolist())}
    outside = sorted(set(shift_cols.tolist()) - set(pos))
    if outside:
        raise ValueError(f"shift columns {outside} are not among the columns {cols.tolist()}")
    out_inv, out_shift = (None, None) if out is None else out
    out_inv = _out(out_inv, (bundle.n_paths, cols.size))
    out_shift = _out(out_shift, (bundle.n_paths, shift_cols.size))
    inv_gamma, a_shift = out_inv.T, out_shift.T  # time-major
    # the rows of 1/gamma the shift divides by: all of them, as a view, when
    # the columns agree
    same = np.array_equal(shift_cols, cols)
    shift_rows = slice(None) if same else [pos[c] for c in shift_cols.tolist()]
    dt = bundle.dt
    theta, delta, phi, rho = bundle.theta, bundle.delta, bundle.phi, bundle.rho
    # log(1/gamma) = integral delta dS - (1/2) integral delta^2 dt; each
    # integral is paired as in density_path
    drawn = inv_gamma[:, 0::2] if bundle.antithetic else inv_gamma
    _integral(bundle, bundle.sum_dB, delta, cols, out=drawn)
    if bundle.antithetic:
        np.negative(drawn, out=inv_gamma[:, 1::2])
    inv_gamma += _cumulative(delta * theta * dt - 0.5 * delta**2 * dt)[cols][:, None]
    np.exp(inv_gamma, out=inv_gamma)
    inv_gamma /= gamma0
    if shift_cols.size:
        # integral rho dS / inv_gamma, then the deterministic drift
        # a0 + (1/2) integral ((theta - delta)^2 - phi^2) dt, then - integral phi dW
        drawn = a_shift[:, 0::2] if bundle.antithetic else a_shift
        _integral(bundle, bundle.sum_dB, rho, shift_cols, out=drawn)
        if bundle.antithetic:
            np.negative(drawn, out=a_shift[:, 1::2])
        a_shift += _cumulative(rho * theta * dt)[shift_cols][:, None]
        a_shift /= inv_gamma[shift_rows]
        drift = a0 + _cumulative(0.5 * (theta - delta) ** 2 * dt - 0.5 * phi**2 * dt)
        a_shift += drift[shift_cols][:, None]
        # - integral phi dW in place on each path's row; a partner's integral is
        # the negated one, and x - (-y) is x + y exactly
        phi_dw = _integral(bundle, bundle.sum_dW, phi, shift_cols)
        if bundle.antithetic:
            a_shift[:, 0::2] -= phi_dw
            a_shift[:, 1::2] += phi_dw
        else:
            a_shift -= phi_dw
    if out is None:
        out_inv.setflags(write=False)
        out_shift.setflags(write=False)
    return FieldPaths(
        inv_gamma=out_inv,
        a_shift=out_shift,
        columns=tuple(cols.tolist()),
        shift_columns=tuple(shift_cols.tolist()),
    )


def load_gap_integral(phi: np.ndarray, nu2: np.ndarray, dt: float) -> np.ndarray:
    """integral_0^t (nu2 - phi)^2 ds at every column of a uniform grid of
    step dt, 0 at column 0, from the per-step values of the load nu2 and
    of phi: the one integral behind the forward drift and the dual drift
    of the load (``mc_verifier``)."""
    return _cumulative((nu2 - phi) ** 2 * dt)


# -- export --------------------------------------------------------------


def path_table(
    bundle: PathBundle, fields: FieldPaths, densities: dict[str, np.ndarray], path_index: int
) -> np.ndarray:
    """One path's CSV columns as a (len(bundle.columns), 4 + len(densities))
    matrix, one row per simulated column (every grid time for the full
    grid): the time, the price, the densities in label order, then the
    field columns, all built at those columns. ``path_index`` counts from
    the simulation's stream 0 (see ``PathBundle.first_path``)."""
    i = path_index - bundle.first_path
    if not 0 <= i < bundle.n_paths:
        raise ValueError(
            f"path {path_index} is not in this bundle (paths {bundle.first_path} to "
            f"{bundle.first_path + bundle.n_paths - 1})"
        )
    # the price theta t + B(t) at the simulated columns
    stream, odd = divmod(i, 2) if bundle.antithetic else (i, 0)
    drift = _cumulative(bundle.theta * bundle.dt)[bundle.columns]
    s = drift - bundle.sum_dB[stream] if odd else drift + bundle.sum_dB[stream]
    return np.column_stack(
        [bundle.grid, s]
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
