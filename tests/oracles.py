"""Independent oracles for cross-checking the package's solvers.

Nothing here imports the package's DP, vertex-recursion or conjugacy
code paths: values come from closed forms, scipy one-dimensional
minimization, a direct joint optimization over all node portfolios, brute
force over every product measure of a window, (for the dual value at
each eta) the per-eta dual program the package solved before it read
every eta from one eta = 1 program, solved one program at a time by the
barrier solver as it was before it took stacks of programs, (for
conjugacy) a one-dimensional
search over that per-eta program and the joint program over unnormalised
leaf masses the package solved per wealth before it read the infimum from
the eta = 1 program, (for primal
self-generation) a fresh ``primal_value`` solve per wealth -- the package's
own program, so it checks only that the gap read once per window, with no
wealth, is the one every wealth gives -- (for the tree checks' reads) the
reads one start and one eta at a time, in 0-d numpy calls and Python
max, as the checks made them before each window's reads became one array
expression -- (for the per-scenario context of the tree engine) each
window's primal and dual programs rebuilt by a fresh call, (for the
conditional entropy and the martingale
property of a tree measure) sums over leaves and nodes from their
definitions, (for the random kernels) the Philox rounds and the reduction
tree computed from their definitions, with the replaced two-normal
Gaussian kernel and zero-padded pairwise sum kept beside them as they
were, (for the entropy kernel) the replaced ``np.where`` form, (for the
factor solve and the one-step vertices, which the window programs' interior
points and the product-measure count also read here) the replaced forms on
numpy arrays, (for the forward check's tables per window end) the walk per
window and start over the charged nodes and the drift at the minimiser read
from its leaf masses, as the package ran them before, (for the forward
check's equality at the minimiser) the drift recursion over a sweep's
one-step minimisers, which the package ran beside each program before it
read the sweep's implied shift in its place, (for the forward
check's worst drift) the drift step's largest value over a node's one-step
vertices, as the package took it before it read the factor recursion, and
nested golden-section searches over each node's whole one-step polytope,
with no exp-sum solve, (for the inverse-gamma records) the range of the
conditional mean of 1/gamma over a window's product vertices, by that walk,
as the package took it before it read one-step gaps, and each node's
one-step gap over its numpy vertices, (for the density and field paths)
one whole-matrix numpy expression per quantity, over increments drawn
here rather than read from the simulation, (for the path export)
the CSV written row by row from the whole simulation's matrices, or (for
the closed-form conjugate of an exponential utility) bracketing and
bisection on the marginal of a utility given only as callables, or (for
the event tree's layout) the stack walks from each node and the cached
walk up to the root that the tree ran before one walk from the root laid
it out in DFS ranges, or (for the factor recursion's table per window
end) the recursion run per window on fresh tables, as the package ran it
before the sweep to T carried it, or (for the dual increments from time
0) the mean test of Y_t - Y_0 on the full-matrix density and field
paths, with numpy's mean and variance and scipy's normal quantile, as
the package ran it before its dual checks read only the times above 0.
Deliberate duplication -- an oracle that shares code with the
implementation checks nothing.
"""

import csv
import math
from dataclasses import dataclass, field as dc_field, replace
from typing import Callable

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ndtri

from forwardperf import kernels, solvers
from forwardperf.errors import ArbitrageError, ConvergenceError, ReplicationError
from forwardperf.fields import ExponentialFieldParams
from forwardperf.report import CheckRecord, VerificationReport
from forwardperf.tree_market import (
    density_process,
    enumerate_product_measures,
    measure_from_leaf_masses,
)
from forwardperf.tree_verifier import _conjugate_read, dual_value, primal_value


def cond_prob(tree, ancestor, nid):
    """Reference-measure probability of reaching nid from its ancestor,
    the product of the branch probabilities on the path between them."""
    path = tree.path_from_root(nid)
    if ancestor not in path:
        raise ValueError(f"{ancestor!r} is not an ancestor of {nid!r}")
    p = 1.0
    for child in path[path.index(ancestor) + 1 :]:
        p *= tree.branch_to(child).prob
    return p


def h(y):
    """y log y - y with h(0) = 0, re-derived here on purpose."""
    if y == 0.0:
        return 0.0
    return y * math.log(y) - y


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, a: float, b: float, tol: float = 1e-12, max_iter: int = 200):
    """Minimize a unimodal f on [a, b]; returns (x, f(x))."""
    if not b >= a:
        raise ValueError("golden_section_min: need a <= b")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol * (1.0 + abs(a) + abs(b)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd


@dataclass(frozen=True)
class UtilitySlice:
    """One dated utility function with its marginal, both plain callables,
    so that conjugation sees nothing but evaluations."""

    value: Callable[[float], float]
    deriv: Callable[[float], float]
    label: str = ""


def exponential_slice(gamma: float, a: float, label: str = "") -> UtilitySlice:
    """U(x) = -exp(-gamma x + a) as a UtilitySlice."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    g, s = float(gamma), float(a)
    return UtilitySlice(
        value=lambda x: -math.exp(-g * x + s),
        deriv=lambda x: g * math.exp(-g * x + s),
        label=label or f"exp(gamma={g:g}, a={s:g})",
    )


class InadaViolation(Exception):
    """The marginal utility never sweeps past the requested level within
    the bracket cap, so the slice has no conjugate maximiser there."""


def conjugate_numeric(
    u: UtilitySlice,
    y: float,
    tol: float = 1e-10,
    max_width: float = 1e6,
) -> tuple[float, float]:
    """Evaluate V(y) = sup_x (U(x) - x y) by solving deriv(x*) = y.

    Geometric bracket expansion from [-1, 1] (the marginal is decreasing,
    so a sign change brackets the root), then bisection to width ``tol``.
    Returns (V(y), x*). The value error is second order in ``tol`` because
    the objective is stationary at x*.

    Raises InadaViolation when no bracket is found within ``max_width``,
    and ValueError for y <= 0.
    """
    if y <= 0.0:
        raise ValueError(f"conjugate_numeric: y must be positive, got {y}")
    if tol <= 0.0:
        raise ValueError("conjugate_numeric: tol must be positive")

    def g(x):
        return u.deriv(x) - y

    lo, hi = -1.0, 1.0
    glo, ghi = g(lo), g(hi)
    # deriv decreasing: need g(lo) >= 0 >= g(hi)
    while glo < 0.0:
        lo *= 2.0
        if -lo > max_width:
            raise InadaViolation(f"marginal utility never reaches {y:g} on [{lo:g}, 0]")
        glo = g(lo)
    while ghi > 0.0:
        hi *= 2.0
        if hi > max_width:
            raise InadaViolation(f"marginal utility never falls below {y:g} on [0, {hi:g}]")
        ghi = g(hi)
    if glo == 0.0:
        x_star = lo
    elif ghi == 0.0:
        x_star = hi
    else:
        for _ in range(200):
            if hi - lo < tol:
                break
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm > 0.0:
                lo = mid
            elif gm < 0.0:
                hi = mid
            else:
                lo = hi = mid
        x_star = 0.5 * (lo + hi)
    return u.value(x_star) - x_star * y, x_star


def one_step_factor(probs, dprices, gammas, a_children):
    """inf over pi of sum_c p_c exp(a_c) exp(-gamma_c pi d_c) via scipy.

    Returns (pi_star, factor).
    """
    p = np.asarray(probs, float)
    d = np.asarray(dprices, float)
    g = np.asarray(gammas, float)
    a = np.asarray(a_children, float)

    def f(pi):
        return float(np.sum(p * np.exp(a - g * pi * d)))

    res = minimize_scalar(f, bracket=(-1.0, 0.0, 1.0), method="brent",
                          options={"xtol": 1e-13})
    return float(res.x), float(res.fun)


def binomial_factor_closed_form(p_up, gamma=1.0):
    """Symmetric-increment binomial (d = +-1), terminal a = 0.

    FOC exp(2 gamma pi) = p_up/p_dn gives factor 2 sqrt(p_up p_dn),
    independent of gamma.
    """
    return 2.0 * math.sqrt(p_up * (1.0 - p_up))


def trinomial_factor_closed_form(probs):
    """d = (1, 0, -1), gamma = 1, terminal a = 0: p_m + 2 sqrt(p_u p_d)."""
    pu, pm, pd = probs
    return pm + 2.0 * math.sqrt(pu * pd)


def symmetric_trinomial_kl_min(probs):
    """Classical relative entropy minimum over {q = (b, 1-2b, b)}.

    d = (1, 0, -1) makes the martingale constraint q_u = q_d, so the
    polytope is the segment b in [0, 1/2]. Golden-ratio style bisection via
    scipy bounded minimization. Returns (b_star, KL_min).
    """
    pu, pm, pd = probs

    def kl(b):
        total = 0.0
        for q, p in ((b, pu), (1.0 - 2.0 * b, pm), (b, pd)):
            if q > 0.0:
                total += q * math.log(q / p)
        return total

    res = minimize_scalar(kl, bounds=(1e-12, 0.5 - 1e-12), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x), float(res.fun)


def symmetric_trinomial_dual_min(probs, a_leaves=(0.0, 0.0, 0.0), gamma=1.0):
    """min over the segment of E^P[h(zeta/gamma) - (zeta/gamma) a], gamma const."""
    pu, pm, pd = probs
    au, am, ad = a_leaves

    def obj(b):
        total = 0.0
        for q, p, a in ((b, pu, au), (1.0 - 2.0 * b, pm, am), (b, pd, ad)):
            z = q / p
            total += p * (h(z / gamma) - (z / gamma) * a)
        return total

    res = minimize_scalar(obj, bounds=(1e-12, 0.5 - 1e-12), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x), float(res.fun)


def joint_primal(tree, gamma, a_shift, xi, T=None):
    """Direct joint optimization over every interior node's portfolio.

    Wealth at a terminal node w is xi plus the sum of pi_n dS over the path;
    the objective is E[-exp(-gamma_w X_w + a_w)] maximized with BFGS using
    the analytic gradient. Independent of the package's recursion: one flat
    nonlinear solve over all portfolios at once.
    """
    if T is None:
        T = tree.horizon
    interior = [
        n
        for n in tree._dfs_order
        if not tree.is_leaf(n) and tree.time_of(n) < T
    ]
    index = {n: i for i, n in enumerate(interior)}
    leaves = tree.descendants_at(tree.root, T)
    # per leaf: probability, gamma, a, and (node index, increment) steps
    legs = []
    for w in leaves:
        path = tree.path_from_root(w)
        steps = []
        for child in path[1:]:
            par = tree.parent[child]
            if par in index:
                steps.append((index[par], tree.branch_to(child).dprice))
        legs.append((cond_prob(tree, tree.root, w), gamma[w], a_shift[w], steps))

    def value_and_grad(pi):
        val = 0.0
        grad = np.zeros(len(interior))
        for prob, g, a, steps in legs:
            x = xi + sum(pi[i] * d for i, d in steps)
            term = prob * math.exp(-g * x + a)
            val += term
            for i, d in steps:
                grad[i] += term * (-g * d)
        return val, grad

    res = minimize(
        lambda p: value_and_grad(p)[0],
        np.zeros(len(interior)),
        jac=lambda p: value_and_grad(p)[1],
        method="BFGS",
        options={"gtol": 1e-12, "maxiter": 500},
    )
    return -float(res.fun), {n: float(res.x[index[n]]) for n in interior}


def _search_positive(f, pts, tol, max_expand=120):
    """Min of f over eta > 0 seeded by the sorted grid pts: golden-section
    between the argmin's neighbours, first walking downhill past a boundary
    argmin (halving toward zero below the grid, doubling steps above it).
    Returns (min, argmin)."""
    vals = [f(p) for p in pts]
    i = int(np.argmin(vals))
    if 0 < i < len(pts) - 1:
        lo, hi = pts[i - 1], pts[i + 1]
    else:
        if i == len(pts) - 1:
            inner = pts[i - 1] if len(pts) > 1 else pts[i] - 1.0
            step = max(pts[i] - inner, 1.0)
            advance = lambda x, s: (x + s, s * 2.0)
        else:
            inner = pts[1] if len(pts) > 1 else 2.0 * pts[0]
            advance = lambda x, s: (x / 2.0, s)
            step = 0.0
        a, b, fb = inner, pts[i], vals[i]
        c, step = advance(b, step)
        fc = f(c)
        for _ in range(max_expand):
            if fc > fb:
                break
            a, b, fb = b, c, fc
            c, step = advance(c, step)
            fc = f(c)
        else:
            raise ConvergenceError("eta search found no bracket")
        lo, hi = min(a, c), max(a, c)
    x_best, f_best = golden_section_min(f, lo, hi, tol=tol * (1.0 + abs(lo) + abs(hi)))
    if vals[i] < f_best:
        return vals[i], pts[i]
    return f_best, x_best


# -- the factor solve and one-step vertices on numpy arrays ------------------


def numpy_minimize_exp_sum(weights, slopes):
    """``solvers.minimize_exp_sum`` as the package ran it on numpy arrays,
    before its steps moved to Python floats: the same bracket, safeguarded
    Newton steps, errors and their order, with each sum by ``ndarray.sum``."""
    w = np.asarray(weights, dtype=float)
    s = np.asarray(slopes, dtype=float)
    if w.shape != s.shape or w.ndim != 1 or w.size == 0:
        raise ValueError("minimize_exp_sum: need matching nonempty 1-D arrays")
    if (w <= 0.0).any():
        raise ValueError("minimize_exp_sum: weights must be positive")
    nz = s != 0.0
    if not nz.any():
        return 0.0, float(w.sum())
    if (s[nz] > 0.0).all() or (s[nz] < 0.0).all():
        raise ValueError(
            "minimize_exp_sum: slopes are one-sided, infimum not attained "
            "(martingale-measure constraint violated upstream)"
        )
    with np.errstate(over="ignore"):

        def val_grad(p):
            e = w * np.exp(s * p)
            return float(e.sum()), float((e * s).sum())

        lo = hi = 0.0
        _, g0 = val_grad(0.0)
        if g0 > 0.0:
            step = 1.0
            while True:
                lo = lo - step
                _, glo = val_grad(lo)
                if glo <= 0.0:
                    break
                step *= 2.0
                if step > 2.0**60:
                    raise ConvergenceError("minimize_exp_sum: bracket expansion failed")
        elif g0 < 0.0:
            step = 1.0
            while True:
                hi = hi + step
                _, ghi = val_grad(hi)
                if ghi >= 0.0:
                    break
                step *= 2.0
                if step > 2.0**60:
                    raise ConvergenceError("minimize_exp_sum: bracket expansion failed")
        else:
            return 0.0, float(w.sum())

        p = 0.5 * (lo + hi)
        for _ in range(solvers._EXP_SUM_MAX_ITER):
            if hi - lo < solvers._EXP_SUM_TOL * (1.0 + abs(lo) + abs(hi)):
                break
            e = w * np.exp(s * p)
            g = float((e * s).sum())
            h = float((e * s * s).sum())
            if g > 0.0:
                hi = p
            elif g < 0.0:
                lo = p
            else:
                break
            p_newton = p - g / h if h > 0.0 and math.isfinite(g) and math.isfinite(h) else math.nan
            if math.isfinite(p_newton) and lo < p_newton < hi:
                p = p_newton
            else:
                p = 0.5 * (lo + hi)
        value, _ = val_grad(p)
    return float(p), value


def numpy_one_step_vertices(dprices):
    """``tree_market.one_step_vertices`` as the package built it on numpy
    arrays: singletons at zero increments, then pairs of opposite sign,
    each row dropped when within 1e-12 of an earlier one in every entry."""
    d = np.asarray(dprices, dtype=float)
    m = d.size
    verts = []

    def _push(v):
        for seen in verts:
            if np.max(np.abs(seen - v)) <= 1e-12:
                return
        verts.append(v)

    for j in range(m):
        if d[j] == 0.0:
            v = np.zeros(m)
            v[j] = 1.0
            _push(v)
    for i in range(m):
        for j in range(i + 1, m):
            den = d[j] - d[i]
            if den == 0.0:
                continue
            qi = d[j] / den
            qj = -d[i] / den
            if qi < 0.0 or qj < 0.0:
                continue
            v = np.zeros(m)
            v[i] = qi
            v[j] = qj
            _push(v)
    if not verts:
        return np.empty((0, m))
    return np.vstack(verts)


# -- the factor recursion, per window -----------------------------------------


def exponential_factors(tree, field, t, T):
    """(log C, policy) of the factor recursion over the window [t, T]: log
    C at levels t..T and the one-step base policy at levels t..T-1, solved
    from log C = a at time T up, level by level in tree order, on tables of
    its own. As ``tree_verifier`` ran it before the sweep to T kept one
    table per window end, with the same refusals."""
    log_c = {w: float(field.a_shift[w]) for w in tree.nodes_at(T)}
    policy = {}
    for nid in (n for s in range(T - 1, t - 1, -1) for n in tree.nodes_at(s)):
        branches = tree.branches_of(nid)
        log_weights = [math.log(br.prob) + log_c[br.child] for br in branches]
        slopes = [-field.gamma[br.child] * br.dprice for br in branches]
        try:
            policy[nid], log_c[nid] = solvers.minimize_exp_sum(log_weights, slopes)
        except ValueError as exc:
            raise ArbitrageError(f"node {nid!r}: {exc}") from exc
        except ConvergenceError as exc:
            raise ConvergenceError(f"factor recursion at node {nid!r} on [{t}, {T}]: {exc}") from exc
    return log_c, policy


# -- the barrier solver, one program at a time ------------------------------


def scalar_barrier_minimize(phi, A, b, r0):
    """``solvers.barrier_minimize`` for one program, as the package solved
    each (window, start) before it solved a window's programs as one stack:
    ``A`` (k, m), ``b`` (k,), ``r0`` (m,), and ``phi(r)`` on one iterate.
    The same damped Newton steps at mu = gap tol / m, line search, stop
    test and failures, raised here, with the solver's module constants
    read at the call. Returns (r, multipliers, info) with a scalar
    ``eq_residual`` and the program's ``newton_iterations``."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    r = np.asarray(r0, dtype=float).copy()
    m = r.size
    if (r <= 0.0).any():
        raise ValueError("barrier_minimize: start must be strictly positive")
    if A.ndim != 2 or A.shape[1] != m or A.shape[0] != b.size:
        raise ValueError("barrier_minimize: constraint shape mismatch")
    keep = (A != 0.0).any(axis=1)
    if not keep.all():
        if (np.abs(b[~keep]) > 1e-12).any():
            raise ValueError("barrier_minimize: infeasible zero row")
        A = A[keep]
        b = b[keep]
    k = A.shape[0]
    lam = np.zeros(k)
    mu = solvers._BARRIER_GAP_TOL / m
    max_newton = solvers._BARRIER_MAX_NEWTON

    def barrier_val(rv, v):
        return float(v.sum()) - mu * float(np.log(rv).sum())

    for newton_used in range(1, max_newton + 1):
        v, grad, hess = phi(r)
        f_cur = barrier_val(r, v)
        if newton_used == 1 and not math.isfinite(f_cur):
            raise ConvergenceError(
                f"barrier_minimize: the objective is not finite at the start "
                f"(barrier objective {f_cur!r})"
            )
        g = grad - mu / r
        h = hess + mu / (r * r)
        hinv = 1.0 / h
        S = (A * hinv) @ A.T
        rhs = -(A * hinv) @ g
        try:
            lam = np.linalg.solve(S, rhs)
        except np.linalg.LinAlgError:
            lam = np.linalg.lstsq(S, rhs, rcond=None)[0]
        dr = -hinv * (g + A.T @ lam)
        if not (np.isfinite(lam).all() and np.isfinite(dr).all()):
            raise ConvergenceError(
                f"barrier_minimize: Newton step {newton_used} is not finite "
                f"(barrier objective {f_cur!r})"
            )
        slope = float((g + A.T @ lam) @ dr)
        if -slope < 1e-13 * (1.0 + abs(f_cur)):
            break
        neg = dr < 0.0
        alpha = 1.0
        if neg.any():
            alpha = min(1.0, 0.99 * float((-r[neg] / dr[neg]).min()))
        while alpha > 1e-14:
            r_new = r + alpha * dr
            if (r_new > 0.0).all() and barrier_val(r_new, phi(r_new)[0]) <= f_cur + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        if alpha <= 1e-14:
            break
        r = r + alpha * dr
    else:
        raise ConvergenceError(
            f"barrier_minimize: {max_newton} Newton iterations exhausted "
            f"at gap bound {m * mu:.3e}"
        )
    eq_residual = float(np.abs(A @ r - b).max()) if k else 0.0
    info = {
        "gap_bound": m * mu,
        "newton_iterations": newton_used,
        "eq_residual": eq_residual,
    }
    return r, lam, info


@dataclass
class DualSolve:
    """Per start: the value of one per-eta dual program, its minimiser's
    leaf masses and the solver's evidence, under the names ``DualResult``
    uses."""

    values: dict = dc_field(default_factory=dict)
    leaf_masses: dict = dc_field(default_factory=dict)
    kkt_residual: dict = dc_field(default_factory=dict)
    near_boundary: dict = dc_field(default_factory=dict)
    newton_iterations: dict = dc_field(default_factory=dict)


def _window_program(tree, start, T):
    """The constraint data of the window [time(start), T] below one start:
    its leaves, their reference masses given the start, one homogeneous
    martingale row per interior node (the price move of each branch, on
    every leaf below it), and the product of the one-step vertex centroids
    as leaf masses, a strictly positive feasible point."""
    leaves = tree.descendants_at(start, T)
    index = {w: i for i, w in enumerate(leaves)}
    p = np.array([cond_prob(tree, start, w) for w in leaves])
    interior = tree.window_interior(start, T)
    rows = np.zeros((len(interior), len(leaves)))
    mass = {start: 1.0}
    for row, m in zip(rows, interior):
        for br in tree.branches_of(m):
            for w in tree.descendants_at(br.child, T):
                row[index[w]] = br.dprice
        center = numpy_one_step_vertices([br.dprice for br in tree.branches_of(m)]).mean(axis=0)
        for j, child in enumerate(tree.children(m)):
            mass[child] = mass[m] * float(center[j])
    return leaves, p, rows, np.array([mass[w] for w in leaves])


def dual_by_eta(tree, field, eta, t, T):
    """The dual value on [t, T] at one eta > 0, solved at that eta: per
    time-t start, ``scalar_barrier_minimize`` on the leaf objective
    p h(eta r / (p gamma)) - eta r a / gamma over the window's leaf masses
    r, with the unit-mass row and one martingale row per interior node,
    from the product of the one-step vertex centroids. This is how the
    package solved every (window, eta) before it read every eta from one
    eta = 1 program, and every window before it composed that program from
    one-step programs: the joint program its composed values are tested
    against. Returns a ``DualSolve``."""
    if not eta > 0.0:
        raise ValueError(f"dual_by_eta: eta must be positive, got {eta}")
    out = DualSolve()
    for start in tree.nodes_at(t):
        leaves, p, rows, interior = _window_program(tree, start, T)
        A = np.vstack([np.ones(len(leaves)), rows])
        b = np.zeros(A.shape[0])
        b[0] = 1.0
        gam = np.array([field.gamma[w] for w in leaves])
        ash = np.array([field.a_shift[w] for w in leaves])
        kappa = eta / (p * gam)
        lin = eta * ash / gam
        slope = eta / gam

        def phi(r):
            y = kappa * r
            log_y = np.log(y)
            v = p * np.where(y > 0.0, y * log_y - y, 0.0) - lin * r
            return v, slope * log_y - lin, eta / (gam * r)

        r, _, info = scalar_barrier_minimize(phi, A, b, interior)
        out.values[start] = float(np.sum(phi(r)[0]))
        out.leaf_masses[start] = {w: float(ri) for w, ri in zip(leaves, r)}
        out.kkt_residual[start] = float(info["gap_bound"] + info["eq_residual"])
        out.near_boundary[start] = bool(np.min(r) < 1e-7)
        out.newton_iterations[start] = info["newton_iterations"]
    return out


def _ray_scale(phi, s):
    """The c > 0 minimising sum(phi(c s)), for a sum of entropy kernels plus
    linear terms: along the ray g(c s) = g(s) + log(c) h(s) s, so
    log c = -(s . g) / (s . h s). Overflows to inf and underflows to 0."""
    _, g, h = phi(s)
    try:
        return math.exp(-float(s @ g) / float(s @ (h * s)))
    except OverflowError:
        return math.inf


def conjugate_primal_joint(tree, field, t, T, xi_grid):
    """u(xi) = inf over eta > 0 of v(eta) + xi eta as one barrier program
    per start and xi, with no eta and no read of an eta = 1 program.

    In the unnormalised leaf masses s = eta r the two minimisations merge:
    the unit-mass row drops out, the martingale rows stay homogeneous, and
    the leaf objective is p h(s / (p gamma)) - s a / gamma + xi s. u is the
    optimal value; the attaining eta is sum(s) times the ray scale at the
    optimum, since the Newton stop leaves sum(s) off to first order along
    the flat scaling direction. Each solve starts from the previous optimum
    (the first from the product of the one-step vertex centroids) moved to
    the best point of its ray. This is how the package's conjugacy check
    solved each wealth before it read the infimum from the window's eta = 1
    program. Returns, per time-t node, one (u, eta_hat) per xi; raises
    ConvergenceError when a start, or the objective there, leaves the
    float range.
    """
    out = {}
    for start in tree.nodes_at(t):
        leaves, p, rows, s = _window_program(tree, start, T)
        b = np.zeros(rows.shape[0])
        gam = np.array([field.gamma[w] for w in leaves])
        ash = np.array([field.a_shift[w] for w in leaves])
        kappa = 1.0 / (p * gam)
        lin = ash / gam
        slope = 1.0 / gam
        solves = []
        for x in xi_grid:

            def phi(s, x=float(x)):
                y = kappa * s
                log_y = np.log(y)
                v = p * np.where(y > 0.0, y * log_y - y, 0.0) - lin * s + x * s
                return v, slope * log_y - lin + x, 1.0 / (gam * s)

            with np.errstate(over="ignore", invalid="ignore"):
                s0 = s * _ray_scale(phi, s)
                representable = np.all(s0 > 0.0) and all(np.all(np.isfinite(a)) for a in phi(s0))
            if not representable:
                raise ConvergenceError(f"conjugate_primal_joint: xi = {x:g} is outside the float range")
            s, _, _ = scalar_barrier_minimize(phi, rows, b, s0)
            solves.append((float(np.sum(phi(s)[0])), float(np.sum(s)) * _ray_scale(phi, s)))
        out[start] = solves
    return out


def conjugate_primal_by_eta_search(tree, field, t, T, xi_grid, eta_grid, tol=1e-6):
    """u(xi) = inf over eta > 0 of v(eta) + xi eta, by a search over eta.

    Every probe is a full per-eta solve (``dual_by_eta``, cached per eta),
    refined from the eta grid by golden-section with span tolerance tol,
    so the attaining eta is only known to about tol relative. This is the
    route ``check_value_conjugacy`` took before its joint program. Returns,
    per time-t node, one (u, eta_hat) per xi.
    """
    eta_grid = sorted(float(e) for e in eta_grid)
    cache = {}

    def v(n, e):
        if e not in cache:
            cache[e] = dual_by_eta(tree, field, e, t, T)
        return cache[e].values[n]

    return {
        n: [
            _search_positive(lambda e: v(n, e) + float(x) * e, eta_grid, tol)
            for x in xi_grid
        ]
        for n in tree.nodes_at(t)
    }


def self_generation_primal_per_wealth(tree, field, time_pairs, xi_grid, tol=1e-6):
    """``check_self_generation_primal``'s records from a fresh
    ``primal_value`` solve at each wealth of the grid, per window: each
    start's gap is the largest |log C - a| over the solves, which the
    check reads once, with no wealth. A record names its worst node only
    when it fails. Returns the report."""
    report = VerificationReport()
    overall_gap = 0.0
    overall_node = None
    for (t, T) in time_pairs:
        gaps = dict.fromkeys(tree.nodes_at(t), 0.0)
        for x in xi_grid:
            res = primal_value(tree, field, float(x), t, T)
            for n in gaps:
                gaps[n] = max(gaps[n], abs(res.log_factor[n] - field.a_shift[n]))
        worst_node = max(gaps, key=gaps.get)
        worst = gaps[worst_node]
        if worst > overall_gap:
            overall_gap, overall_node = worst, worst_node
        report.add(
            CheckRecord(
                check_tag=f"primal-self-generation[t={t},T={T}]",
                verdict=worst <= tol,
                value=worst,
                target=0.0,
                tolerance=tol,
                worst_node=worst_node if worst > tol else None,
            )
        )
    report.add(
        CheckRecord(
            check_tag="primal-self-generation",
            verdict=overall_gap <= tol,
            value=overall_gap,
            target=0.0,
            tolerance=tol,
            worst_node=overall_node if overall_gap > tol else None,
        )
    )
    return report


# -- the entropy kernel ------------------------------------------------------


def entropy_kernel(y):
    """The package's entropy kernel as it was: y log y - y through
    ``np.where``, with the log taken of 1 where y is 0; refuses y < 0."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("entropy_kernel: argument must be nonnegative")
    safe = np.where(arr > 0.0, arr, 1.0)
    out = np.where(arr > 0.0, arr * np.log(safe) - arr, 0.0)
    if np.ndim(y) == 0:
        return float(out)
    return out


# -- the tree checks' grid reads, one start and one grid point at a time --
#
# How the package's checks read their eta and wealth grids before each
# read became one array expression per window: 0-d numpy calls for the
# entropy kernel (np.log, not math.log), math.log for eta log eta, and
# Python's max, under which a NaN never replaces the running maximum. The
# eta = 1 programs and the primal reads are the package's own; only the
# grid arithmetic and the reductions are redone here. The shift a window's
# eta = 1 value implies is read as the package read it before its dual
# sweep carried shifts: gamma (h(1/gamma) - v(1)), from the value
# (``_implied_shift_0d``), where the package reads the sweep's shift.


def _conjugate_0d(g, a, e):
    ratio = np.asarray(e, dtype=float) / np.asarray(g, dtype=float)
    return float(entropy_kernel(ratio) - ratio * np.asarray(a, dtype=float))


def _implied_shift_0d(g, e, v):
    """The shift a whose exponential slice at risk aversion ``g`` has the
    dual value ``v`` at ``e`` > 0: v = h(e/g) - (e/g) a solved for a."""
    return (g / e) * (entropy_kernel(e / g) - v)


def _read_0d(unit, n, e):
    """v(e) at start n from the eta = 1 program ``unit``."""
    e_log_e = e * math.log(e) if e > 0.0 else 0.0
    return e * unit.entropy[n] + e_log_e * unit.inverse_gamma_mean[n]


def _scalar_gap_record(tag, gaps, tol, **extra):
    worst = max(gaps.values())
    passed = worst <= tol
    node = None if passed else next(n for n, g in gaps.items() if g == worst)
    return CheckRecord(
        tag, verdict=passed, value=worst, target=0.0, tolerance=tol, worst_node=node, **extra
    )


def _scalar_overall(tag, records, tol):
    if not records:
        return CheckRecord(tag, verdict=True, value=0.0, target=0.0, tolerance=tol)
    return replace(max(records, key=lambda r: r.value), check_tag=tag, details={})


def entropy_shift_per_node(tree, gamma, terminal_a, duals):
    """``solve_entropy_shift``'s levels node by node, each shift read from
    the eta = 1 value of its window to the horizon in ``duals``;
    ``terminal_a`` maps each leaf to its shift."""
    a_out = {w: float(terminal_a[w]) for w in tree.leaves()}
    terminal = ExponentialFieldParams(gamma, {n: a_out.get(n, 0.0) for n in gamma})
    for t in range(tree.horizon - 1, -1, -1):
        ent = dual_value(tree, terminal, 1.0, t, tree.horizon, duals=duals)
        for nid in tree.nodes_at(t):
            a_out[nid] = _implied_shift_0d(gamma[nid], 1.0, ent.values[nid])
    return a_out


def self_generation_dual_per_point(tree, field, time_pairs, duals, tol=1e-6):
    """``check_self_generation_dual``'s records, with the eta = 1 read and
    the shift it implies taken per start."""
    windows = []
    for (t, T) in time_pairs:
        unit = dual_value(tree, field, 1.0, t, T, duals=duals)
        gaps = {
            n: abs(_implied_shift_0d(field.gamma[n], 1.0, _read_0d(unit, n, 1.0)) - field.a_shift[n])
            for n in tree.nodes_at(t)
        }
        m = unit.inverse_gamma_mean
        windows.append(
            _scalar_gap_record(
                f"dual-self-generation[t={t},T={T}]",
                gaps,
                tol,
                details={
                    "read_certificate": max(abs(m[n] - 1.0 / field.gamma[n]) for n in m),
                    "newton_iterations": unit.newton_iterations,
                    "kkt_residual": unit.kkt_residual,
                    "near_boundary": unit.near_boundary,
                },
            )
        )
    return VerificationReport(windows + [_scalar_overall("dual-self-generation", windows, tol)])


def value_conjugacy_per_point(tree, field, t, T, xi_grid, eta_grid, duals, tol=1e-6):
    """``check_value_conjugacy``'s records, with each gap taken per (wealth,
    start) and per (eta, start). The conjugate read and the primal read at
    each wealth are the package's (``_conjugate_read``, ``PrimalResult.at``)."""
    def scaled_gap(value, target):
        return abs(value - target) / max(1.0, abs(target))

    xi_grid = [float(x) for x in xi_grid]
    eta_grid = sorted(float(e) for e in eta_grid)
    starts = tree.nodes_at(t)
    base = primal_value(tree, field, 0.0, t, T, duals=duals)
    unit = dual_value(tree, field, 1.0, t, T, duals=duals)
    conjugates = [{n: _conjugate_read(unit, n, x) for n in starts} for x in xi_grid]
    primals = [base.at(x).values for x in xi_grid]
    primal_gaps = {
        n: max(scaled_gap(conjugate[n][0], u[n]) for conjugate, u in zip(conjugates, primals))
        for n in starts
    }
    dual_gaps = {
        n: max(
            scaled_gap(_read_0d(unit, n, e), _conjugate_0d(field.gamma[n], base.log_factor[n], e))
            for e in eta_grid
        )
        for n in starts
    }
    return VerificationReport(
        [
            _scalar_gap_record(
                f"conjugacy-primal-from-dual[t={t},T={T}]",
                primal_gaps,
                tol,
                details={
                    "eta_hat": {n: eta_hat for n, (_, eta_hat) in conjugates[0].items()},
                    "newton_iterations": unit.newton_iterations,
                    "kkt_residual": unit.kkt_residual,
                    "near_boundary": unit.near_boundary,
                },
            ),
            _scalar_gap_record(f"conjugacy-dual-from-primal[t={t},T={T}]", dual_gaps, tol),
        ]
    )


def implied_shift_per_start(tree, field, t, T, duals):
    """{start: the shift a} that the window's eta = 1 value implies at each
    time-t start, read per start from ``dual_value``."""
    unit = dual_value(tree, field, 1.0, t, T, duals=duals)
    return {n: _implied_shift_0d(field.gamma[n], 1.0, unit.values[n]) for n in tree.nodes_at(t)}


def entropy_identity_per_node(tree, gamma, a_shift, time_pairs, duals, tol=1e-6):
    """``check_exponential_conditions``' entropy-identity roll-up: the first
    window with the largest gap, the gap taken per start from the shift the
    eta = 1 value implies (``implied_shift_per_start``)."""
    field = ExponentialFieldParams(gamma, a_shift)
    windows = []
    for (t, T) in time_pairs:
        implied = implied_shift_per_start(tree, field, t, T, duals)
        windows.append(_scalar_gap_record("", {n: abs(s - a_shift[n]) for n, s in implied.items()}, tol))
    return _scalar_overall("exp-condition-entropy-identity", windows, tol)


def window_programs_rebuilt(tree, field, windows, eta_grid):
    """Every window's programs as they were solved before one context per
    scenario shared them: per (t, T) the log factors of a fresh
    ``primal_value`` at xi = 0, and per (t, T, eta) a per-eta dual solve
    (``dual_by_eta``), each building its own node data, factor recursion and
    window data. Returns ({(t, T): log_factor}, {(t, T, eta): DualSolve})."""
    log_factor = {(t, T): primal_value(tree, field, 0.0, t, T).log_factor for t, T in windows}
    duals = {(t, T, e): dual_by_eta(tree, field, e, t, T) for t, T in windows for e in eta_grid}
    return log_factor, duals


# -- brute force over the product measures of a window --------------------
#
# Each function lists every product of one-step vertices on [t, T] and
# evaluates the measures one at a time. Exponential in the window depth, so
# only for small trees (enumerate_product_measures refuses large ones).


def inverse_gamma_gap_by_enumeration(tree, gamma, t, T):
    """Largest |E^Q[1/gamma_T | n] - 1/gamma_n|, in units of 1/gamma_n, over
    product measures Q and time-t nodes n, with the first node reaching it.
    Returns (gap, node)."""
    gap_b, node_b = 0.0, None
    for q in enumerate_product_measures(tree, t, T):
        for n in tree.nodes_at(t):
            mean = 0.0
            for w in tree.descendants_at(n, T):
                mean += q.node_mass(tree, w, start=n) / gamma[w]
            gap = gamma[n] * abs(mean - 1.0 / gamma[n])
            if gap > gap_b:
                gap_b, node_b = gap, n
    return gap_b, node_b


def forward_precondition_by_enumeration(tree, gamma, t, T, tol=1e-9):
    """Raise ReplicationError at the first window node that some product
    measure charges and whose conditional mean of 1/gamma_T misses 1/gamma
    by more than tol under that measure."""
    for q in enumerate_product_measures(tree, t, T):
        for start in tree.nodes_at(t):
            for m in tree.window_interior(start, T):
                if q.node_mass(tree, m, start=start) <= 0.0 and m != start:
                    continue
                mean = sum(
                    q.node_mass(tree, w, start=m) / gamma[w]
                    for w in tree.descendants_at(m, T)
                )
                if abs(mean - 1.0 / gamma[m]) > tol:
                    raise ReplicationError(
                        f"inverse-gamma conditional mean fails at node {m!r}; "
                        "forward measures are not probabilities"
                    )


def forward_gaps_by_density(tree, gamma, a_shift, q, start, T):
    """E^{Q_g}[a_T - log Z_T | m] - (a_m - log Z_m) per node m of start's
    window that Q_g reaches, start first, in DFS order: Q_g is the
    window-local reweighting of the measure q by gamma_start / gamma_T, Z
    its density process over the whole tree, and every conditional mass a
    product along the path. This is how the package read the forward
    equality at the entropy minimiser before it ran the drift recursion at
    that one measure."""
    fw_masses = {
        w: q.node_mass(tree, w, start=start) * gamma[start] / gamma[w]
        for w in tree.descendants_at(start, T)
    }
    qg = measure_from_leaf_masses(tree, start, T, fw_masses)
    zg = density_process(tree, qg)
    z_start = zg.at(start)
    gaps = {}
    for m in tree.window_interior(start, T):
        if m != start and qg.node_mass(tree, m, start=start) <= 0.0:
            continue
        zeta_m = zg.at(m) / z_start
        f_m = a_shift[m] - math.log(zeta_m)
        exp_ft = 0.0
        for w in tree.descendants_at(m, T):
            mw = qg.node_mass(tree, w, start=m)
            if mw > 0.0:
                exp_ft += mw * (a_shift[w] - math.log(zg.at(w) / z_start))
        gaps[m] = exp_ft - f_m
    return gaps


def worst_forward_drift_by_enumeration(tree, gamma, a_shift, t, T):
    """Largest E^{Q_g}[a_T - log Z_T | m] - (a_m - log Z_m) over product
    measures Q, with Q_g the window-local reweighting of Q by
    gamma_start / gamma_T, and over the window nodes Q_g charges
    (``forward_gaps_by_density``). Returns (gap, node). Assumes the forward
    precondition holds."""
    worst, worst_node = -math.inf, None
    for q in enumerate_product_measures(tree, t, T):
        for start in tree.nodes_at(t):
            for m, gap in forward_gaps_by_density(tree, gamma, a_shift, q, start, T).items():
                if gap > worst:
                    worst, worst_node = gap, m
    return worst, worst_node


# -- the forward check's walks per window and start -------------------------
#
# As the package ran them before it kept one table per window end: the
# Bellman walk over the charged nodes below each start, the worst drift
# step over a node's one-step vertices, and the drift at the entropy
# minimiser from its reweighted leaf masses.


def vertex_recursion(tree, t, T, terminal, local, vertices):
    """{start: {node: value}} over the charged nodes before T below each
    time-t start, start first, in DFS order (just the start's terminal
    value when t == T): the start, and every child that the vertex table
    ``vertices`` (``_window_vertices(tree, T)``) gives a charged node.
    ``local(node, kids, verts, kid_values)`` gives a node's value from its
    charged children's, ``terminal(node)`` a time-T node's. ArbitrageError
    when a start admits no martingale measure."""
    out = {}
    for start in tree.nodes_at(t):
        if t == T:
            out[start] = {start: terminal(start)}
            continue
        if start not in vertices:
            raise ArbitrageError(f"no martingale measure below node {start!r}")
        steps = {}
        stack = [start]
        while stack:
            nid = stack.pop()
            steps[nid] = vertices[nid]
            stack.extend(c for c in reversed(steps[nid][0]) if tree.time_of(c) < T)
        values = {}
        for nid in reversed(steps):
            kids, rows = steps[nid]
            kid_values = [values[c] if c in steps else terminal(c) for c in kids]
            values[nid] = local(nid, kids, rows, kid_values)
        out[start] = {nid: values[nid] for nid in steps}
    return out


def _drift_step(weights, probs, kid_values):
    """sum_c q~_c (D(c) - log(q~_c / p_c)) over the children of positive
    weight, q~ the weights normalised."""
    total = sum(weights)
    value = 0.0
    for w, p, d in zip(weights, probs, kid_values):
        if w > 0.0:
            q = w / total
            value += q * (d - math.log(q / p))
    return value


def worst_vertex_drift_step(tree, gamma):
    """The forward check's worst-case step as the package ran it before it
    read the factor recursion: the largest drift step over a node's
    one-step vertices v, at weights v_c / gamma_c, as
    ``local(node, kids, verts, kid_values)`` for ``vertex_recursion``. It is
    the largest over the product vertices only; the step is concave along
    a polytope that is not one point, so the maximum over every measure can
    lie inside it (``worst_forward_drift_by_golden_section``)."""

    def step(_nid, kids, verts, kid_values):
        probs = [tree.branch_to(c).prob for c in kids]
        return max(_drift_step([v / gamma[c] for v, c in zip(vert, kids)], probs, kid_values) for vert in verts)

    return step


def inverse_gamma_step(_nid, _kids, verts, kid_values):
    """The inverse-gamma range's step as the package ran it before it read
    one-step gaps, as ``local(node, kids, verts, kid_values)`` for
    ``vertex_recursion`` with terminal values (1/gamma_w, 1/gamma_w): the
    (max, min) over the vertices of the conditional means of the children's
    (max, min) ranges."""
    hi = max(sum(v * c_hi for v, (c_hi, _) in zip(vert, kid_values)) for vert in verts)
    lo = min(sum(v * c_lo for v, (_, c_lo) in zip(vert, kid_values)) for vert in verts)
    return hi, lo


def one_step_inverse_gamma_gaps(tree, gamma):
    """{node: gamma_n max |sum_c v_c / gamma_c - 1/gamma_n|} over the
    vertices v of each node's one-step polytope, built by
    ``numpy_one_step_vertices``, per node before the horizon that has any."""
    gaps = {}
    for n in tree._dfs_order:
        if tree.is_leaf(n):
            continue
        branches = tree.branches_of(n)
        verts = numpy_one_step_vertices([br.dprice for br in branches])
        if len(verts):
            means = verts @ np.array([1.0 / gamma[br.child] for br in branches])
            gaps[n] = float(gamma[n] * np.max(np.abs(means - 1.0 / gamma[n])))
    return gaps


def _segment_vertices(dprices):
    """The vertices of {q >= 0, sum q = 1, sum q dS = 0}: the unit mass on a
    child that does not move the price, and the two-child measure on each
    pair of opposite moves."""
    n = len(dprices)
    verts = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n) if dprices[i] == 0.0]
    for i in range(n):
        for j in range(i + 1, n):
            di, dj = dprices[i], dprices[j]
            if di * dj < 0.0:
                v = [0.0] * n
                v[i], v[j] = dj / (dj - di), -di / (dj - di)
                verts.append(v)
    return verts


def _hull_max(f, verts):
    """max of a concave f over the convex hull of ``verts``, by nested
    golden-section searches: over the hull of v0 and the hull of the rest,
    max over lam in [0, 1] of the max at (1 - lam) v0 + lam x. The inner
    maximum is concave in lam, so each search is unimodal."""
    if len(verts) == 1:
        return f(verts[0])
    v0, rest = verts[0], verts[1:]

    def inner(lam):
        def g(x):
            return f([(1.0 - lam) * a + lam * b for a, b in zip(v0, x)])

        return -_hull_max(g, rest)

    return -golden_section_min(inner, 0.0, 1.0)[1]


def worst_forward_drift_by_golden_section(tree, gamma, a_shift, T):
    """{node: largest forward drift D to T} over every martingale measure,
    per node before T: D = a at time T, and at a node the largest drift
    step, at weights q_c / gamma_c, over its whole one-step polytope, by
    nested golden-section searches over the polytope's vertices. For trees
    of at most 3 children per node, where that polytope is a point, a
    segment or, when no price moves, a triangle."""
    drift = {w: a_shift[w] for w in tree.nodes_at(T)}
    for s in range(T - 1, -1, -1):
        for n in tree.nodes_at(s):
            branches = tree.branches_of(n)
            if len(branches) > 3:
                raise ValueError(f"node {n!r} has more than 3 children")
            probs = [br.prob for br in branches]
            kid_values = [drift[br.child] for br in branches]
            inv = [1.0 / gamma[br.child] for br in branches]
            verts = _segment_vertices([br.dprice for br in branches])
            drift[n] = _hull_max(lambda q: _drift_step([x * i for x, i in zip(q, inv)], probs, kid_values), verts)
    return drift


def sweep_drift(tree, sweep):
    """{node: D} over the nodes a sweep to T has solved and its time-T
    nodes: the forward drift recursion at the entropy minimiser, D = a at
    time T and at a solved node the drift step at weights q_k m_k, q the
    sweep's one-step minimiser and m its ``inverse_gamma_mean``, level by
    level from T - 1 down. This is how the package ran it beside each
    one-step program before it read the drift as the implied shift."""
    drift = {w: sweep.shift[w] for w in tree.nodes_at(sweep.T)}
    for s in range(sweep.T - 1, sweep.level - 1, -1):
        for n in tree.nodes_at(s):
            pairs = sweep.q[n]
            weights = [x * sweep.inverse_gamma_mean[k] for k, x in pairs]
            probs = [tree.branch_to(k).prob for k, _ in pairs]
            drift[n] = _drift_step(weights, probs, [drift[k] for k, _ in pairs])
    return drift


def optimum_gaps(tree, gamma, a_shift, start, T, masses):
    """|D(m) - a_m| per window node m that the minimiser with leaf masses
    ``masses`` reaches, start first, in DFS order: D the forward drift
    recursion at that one measure reweighted by gamma_start / gamma_w, its
    conditionals read from subtree sums of the reweighted leaf masses."""
    weight = {w: masses[w] * gamma[start] / gamma[w] for w in masses}
    drift = {}
    interior = tree.window_interior(start, T)
    for m in reversed(interior):
        branches = tree.branches_of(m)
        weights = [weight[br.child] for br in branches]
        weight[m] = sum(weights)
        kid_values = [drift[br.child] if br.child in drift else a_shift[br.child] for br in branches]
        drift[m] = _drift_step(weights, [br.prob for br in branches], kid_values)
    return {m: abs(drift[m] - a_shift[m]) for m in interior if m == start or weight[m] > 0.0}


def measures_below(tree, nid, T):
    """Number of product measures on [time(nid), T] below one node.

    Mirrors the expansion of enumerate_product_measures: a node before T
    contributes the sum over its vertices, restricted to the children that
    admit a measure, of the product of its charged children's counts. A
    child admits a measure exactly when its own count is positive, so
    feasibility is decided here, not read from the package.
    """
    if tree.time_of(nid) >= T:
        return 1
    children = tree.children(nid)
    kids = {c: n for c in children if (n := measures_below(tree, c, T)) > 0}
    total = 0
    allowed = [c for c in children if c in kids]
    for v in numpy_one_step_vertices([tree.branch_to(c).dprice for c in allowed]):
        n = 1
        for x, c in zip(v, allowed):
            if x > 1e-12:
                n *= kids[c]
        total += n
    return total


# -- the event tree's layout, by walks -------------------------------------


def dfs_order(tree):
    """The tree's nodes in DFS order, by a stack walk from the root over
    ``nodes`` alone."""
    order, stack = [], [tree.root]
    while stack:
        nid = stack.pop()
        order.append(nid)
        stack.extend(br.child for br in reversed(tree.nodes[nid].branches))
    return tuple(order)


def nodes_at(tree, t):
    """The nodes at time t, in ``dfs_order``."""
    return tuple(n for n in dfs_order(tree) if tree.nodes[n].time == t)


def descendants_at(tree, nid, t):
    """Descendants of nid at time t, DFS order, by a stack walk that
    stops at time t."""
    if tree.nodes[nid].time > t:
        raise ValueError(f"node {nid!r} is later than time {t}")
    out = []
    stack = [nid]
    while stack:
        cur = stack.pop()
        if tree.nodes[cur].time == t:
            out.append(cur)
            continue
        for br in reversed(tree.nodes[cur].branches):
            stack.append(br.child)
    return tuple(out)


def window_interior(tree, nid, T):
    """Nodes strictly inside [time(nid), T) below nid, DFS order, nid
    first, by a stack walk that stops at time T."""
    out = []
    stack = [nid]
    while stack:
        cur = stack.pop()
        if tree.nodes[cur].time >= T:
            continue
        out.append(cur)
        for br in reversed(tree.nodes[cur].branches):
            stack.append(br.child)
    return tuple(out)


def window_nodes(tree, t, T):
    """The nodes of levels t..T-1, start by start: the per-start
    comprehension the checks built for each window."""
    return tuple(m for start in nodes_at(tree, t) for m in window_interior(tree, start, T))


def path_from_root(tree, nid, cache):
    """The path root..nid up ``parent``, memoised in ``cache``."""
    cached = cache.get(nid)
    if cached is not None:
        return cached
    path = [nid]
    cur = nid
    while cur != tree.root:
        cur = tree.parent[cur]
        path.append(cur)
    out = tuple(reversed(path))
    cache[nid] = out
    return out


# -- tree measures --------------------------------------------------------


def entropy(tree, gamma, a_shift, q, t=0, T=None):
    """Conditional entropy of the measure q over [t, T] given each time-t
    node, as a dict by node: the sum over the window's leaves w of
    p_w (h(zeta_w / gamma_w) - zeta_w a_w / gamma_w), with p_w the reference
    probability of w from its start and zeta_w = q_w / p_w, the product of
    q_edge / p_edge along the path."""
    if T is None:
        T = tree.horizon
    values = {}
    for start in tree.nodes_at(t):
        total = 0.0
        for w in tree.descendants_at(start, T):
            path = tree.path_from_root(w)
            zeta = 1.0
            for par, child in zip(path[t:], path[t + 1 :]):
                idx = tree.children(par).index(child)
                zeta = zeta * (q.cond[par][idx] / tree.branches_of(par)[idx].prob)
            total += cond_prob(tree, start, w) * (
                h(zeta / gamma[w]) - zeta * a_shift[w] / gamma[w]
            )
        values[start] = total
    return values


def martingale_residual(tree, q, nodes):
    """Worst |sum_c q_c dS_c| over the given nodes that q reaches from the
    root (the root always counts)."""
    worst = 0.0
    for nid in nodes:
        if nid != tree.root and q.node_mass(tree, nid) <= 0.0:
            continue
        dprices = [br.dprice for br in tree.branches_of(nid)]
        worst = max(worst, abs(sum(qc * d for qc, d in zip(q.cond[nid], dprices))))
    return worst


# -- counter-based kernels -------------------------------------------------
#
# The package draws its Philox blocks from numpy.random.Philox; this oracle
# computes the rounds itself, with 32-bit limbs, at any counter.

PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
PHILOX_M1 = np.uint64(0xCA5A826395121157)
WEYL0 = np.uint64(0x9E3779B97F4A7C15)
WEYL1 = np.uint64(0xBB67AE8584CAA73B)

_MASK32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a, b):
    # high and low 64 bits of the 128-bit product, via 32-bit limbs
    lo = a * b
    ah, al = a >> _S32, a & _MASK32
    bh, bl = b >> _S32, b & _MASK32
    t = ah * bl + ((al * bl) >> _S32)
    u = al * bh + (t & _MASK32)
    hi = ah * bh + (t >> _S32) + (u >> _S32)
    return hi, lo


def philox4x64(key0, key1, c0, c1):
    """Philox-4x64-10 blocks for counters (c0[i], c1[i], 0, 0).

    Returns an (n, 4) uint64 array, one block per counter pair.
    """
    c0 = np.ascontiguousarray(c0, dtype=np.uint64)
    c1 = np.ascontiguousarray(c1, dtype=np.uint64)
    if c0.shape != c1.shape or c0.ndim != 1:
        raise ValueError("counter arrays must be equal-length 1-D")
    n = c0.shape[0]
    with np.errstate(over="ignore"):
        k0 = np.uint64(key0)
        k1 = np.uint64(key1)
        x0 = c0.copy()
        x1 = c1.copy()
        x2 = np.zeros(n, dtype=np.uint64)
        x3 = np.zeros(n, dtype=np.uint64)
        for _ in range(10):
            hi0, lo0 = _mulhilo(PHILOX_M0, x0)
            hi1, lo1 = _mulhilo(PHILOX_M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
            k0 = k0 + WEYL0
            k1 = k1 + WEYL1
    return np.stack([x0, x1, x2, x3], axis=1)


def philox_field_blocks(seed, n_streams, n_steps, stream_offset=0, step_offset=0):
    """The blocks the Gaussian field reads: counter (stream, step), key
    (seed, 0), one row per (step, stream) in step-major order, the streams
    from ``stream_offset`` and the steps from ``step_offset`` on."""
    streams = np.arange(n_streams, dtype=np.uint64) + np.uint64(stream_offset)
    steps = np.arange(n_steps, dtype=np.uint64) + np.uint64(step_offset)
    c0 = np.tile(streams, n_steps)
    c1 = np.repeat(steps, n_streams)
    return philox4x64(seed, 0, c0, c1)


def gaussian_field_whole(seed, n_streams, n_steps, stream_offset=0):
    """Full Box-Muller on the oracle's blocks, over whole arrays and out of
    place: the formula the tiled, in-place kernel must match bit for bit.
    The block at step j serves steps 2j (r cos) and 2j + 1 (r sin); an odd
    last step keeps only the cos legs."""
    n_pairs = (n_steps + 1) // 2
    blocks = philox_field_blocks(seed, n_streams, n_pairs, stream_offset)
    u = ((blocks >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    fields = []
    for w in (0, 2):
        r = np.sqrt(-2.0 * np.log(u[:, w]))
        angle = (2.0 * np.pi) * u[:, w + 1]
        legs = np.stack([r * np.cos(angle), r * np.sin(angle)])
        # (pair, leg, stream) -> step 2 * pair + leg
        steps = legs.reshape(2, n_pairs, n_streams).transpose(1, 0, 2)
        fields.append(steps.reshape(2 * n_pairs, n_streams)[:n_steps].T)
    return tuple(fields)


def gaussian_field_two_normals(seed, n_streams, n_steps, stream_offset=0, out=None, work=None):
    """The replaced kernel, kept as it was: one block per (stream, step) at
    counter (stream, step, 0, 0), turned into two normals by the cos legs
    of Box-Muller alone, tiled and in place. Field 1 reads words 0 and 1,
    field 2 words 2 and 3, so its step k equals step 2k of
    ``gaussian_field``. ``benchmarks/bench_kernels.py`` times
    ``gaussian_field`` against it."""
    if out is None:
        out = (np.empty((n_streams, n_steps)), np.empty((n_streams, n_steps)))
    if work is None:
        work = kernels.Workspace()
    width = max(1, min(n_streams, kernels.TILE_BLOCKS))
    depth = max(1, kernels.TILE_BLOCKS // width)
    for i0 in range(0, n_streams, width):
        i1 = min(i0 + width, n_streams)
        m = i1 - i0
        for k0 in range(0, n_steps, depth):
            k1 = min(k0 + depth, n_steps)
            nk = k1 - k0
            blocks = kernels.philox4x64(
                seed, m, nk, int(stream_offset) + i0, k0,
                out=work.take("blocks", (nk * m, 4), np.uint64),
            )
            u = kernels.uniform_open(blocks.T, out=work.take("uniforms", (4, nk * m)))
            u = u.reshape(4, nk, m)
            for z, (r, a) in zip(out, (u[:2], u[2:])):
                np.log(r, out=r)
                r *= -2.0
                np.sqrt(r, out=r)
                a *= 2.0 * np.pi
                np.cos(a, out=a)
                np.multiply(r, a, out=z[i0:i1, k0:k1].T)
    return out


def pairwise_sum_padded(x):
    """The package's pairwise sum as it was: the input copied into zeros of
    the next power-of-two length, then halved level by level, each level a
    fresh array."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        return 0.0
    m = 1
    while m < n:
        m <<= 1
    buf = np.zeros(m, dtype=np.float64)
    buf[:n] = x
    while m > 1:
        m >>= 1
        buf = buf[0 : 2 * m : 2] + buf[1 : 2 * m : 2]
    return float(buf[0])


def pairwise_sum(x):
    """The canonical reduction tree stated recursively: zero-pad to the next
    power of two, then sum each half and add the two."""
    x = [float(v) for v in np.ravel(x)]
    m = 1
    while m < len(x):
        m <<= 1

    def tree(lo, size):
        if size == 1:
            return x[lo] if lo < len(x) else 0.0
        half = size // 2
        return tree(lo, half) + tree(lo + half, half)

    return tree(0, m) if x else 0.0


# -- density and field paths -------------------------------------------------
#
# The package keeps only the running sums of the drawn streams and reads
# every value from them, one vector operation per constant run of a
# coefficient and per grid column asked for. The oracles draw the
# increments themselves, one row per path with the antithetic partners
# negated, and state that construction over whole matrices, column by
# column, for the bit-for-bit comparison; the ``*_per_step`` oracles are
# the earlier formulas, one cumsum of per-step increments per quantity,
# which agree with it to rounding.


def increments(bundle, seed):
    """(dB, dW), each (n_paths, len(bundle.columns) - 1): the increment of
    path i over [c_k, c_{k+1}) is sqrt((c_{k+1} - c_k) dt) times step k of
    its stream's ``kernels.gaussian_field``, negated on the odd paths with
    antithetic pairing. Reads only the bundle's layout (columns, dt, path
    count, pairing and first stream), none of its sums."""
    per = 2 if bundle.antithetic else 1
    normals = kernels.gaussian_field(
        seed, bundle.n_paths // per, bundle.columns.size - 1,
        stream_offset=bundle.stream_offset,
    )
    scale = np.sqrt(np.diff(bundle.columns) * bundle.dt)
    draws = []
    for z in normals:
        d = np.repeat(z * scale, per, axis=0)
        if bundle.antithetic:
            d[1::2] *= -1.0
        draws.append(d)
    return tuple(draws)


def running_sums(d):
    """(n_paths, n_steps + 1) running sums of the increments ``d`` along each
    row, 0 in column 0."""
    out = np.zeros((d.shape[0], d.shape[1] + 1))
    np.cumsum(d, axis=1, out=out[:, 1:])
    return out


def grid_sums(bundle, d):
    """(n_paths, n_steps + 1) running sums of the increments ``d`` at the
    bundle's simulated columns, NaN at every other grid column: a value
    computed from them at a simulated column is finite only if it read no
    other column. On the full grid, ``running_sums(d)``."""
    out = np.full((d.shape[0], bundle.n_steps + 1), np.nan)
    out[:, bundle.columns] = running_sums(d)
    return out


def _cumulative(per_step):
    return np.concatenate(([0.0], np.cumsum(per_step)))


def integral_from_sums(sums, v):
    """Every grid column of the integral of the per-step coefficients ``v``
    against the increments whose running sums are ``sums``.

    A constant run of ``v`` that starts at step s carries the value at
    column s forward: column c of that run is V(s) + v[s] (S(c) - S(s)),
    with V(0) = 0.
    """
    v = np.broadcast_to(np.asarray(v, dtype=float), (sums.shape[1] - 1,))
    out = np.zeros(sums.shape)
    s = 0
    for c in range(1, sums.shape[1]):
        if v[c - 1] != v[s]:
            s = c - 1
        out[:, c] = out[:, s] + v[s] * (sums[:, c] - sums[:, s])
    return out


def price_paths(bundle, dB):
    """(n_paths, len(bundle.columns)) price theta t + B(t) at the simulated
    columns, from 0 at column 0: the deterministic drift summed over the
    grid plus the running sums of ``dB``."""
    drift = _cumulative(bundle.theta * bundle.dt)[bundle.columns]
    return drift[None, :] + running_sums(dB)


def density_path_full(bundle, draws, nu1, nu2):
    """Full (n_paths, n_steps + 1) exponential density with loads nu1 on B
    and nu2 on W (scalars or one value per step), column 0 equal to 1, from
    the increments ``draws`` = (dB, dW); NaN at the grid columns the bundle
    did not simulate."""
    dB, dW = draws
    nu1 = np.broadcast_to(np.asarray(nu1, dtype=float), (bundle.n_steps,))
    nu2 = np.broadcast_to(np.asarray(nu2, dtype=float), (bundle.n_steps,))
    log_z = (
        integral_from_sums(grid_sums(bundle, dB), -nu1)
        + integral_from_sums(grid_sums(bundle, dW), -nu2)
        - _cumulative(0.5 * (nu1**2 + nu2**2) * bundle.dt)[None, :]
    )
    return np.exp(log_z)


def forward_exponential_full(gamma0, a0, bundle, draws):
    """Full (n_paths, n_steps + 1) paths of 1/gamma and the shift from the
    increments ``draws`` = (dB, dW); NaN at the grid columns the bundle did
    not simulate."""
    dB, dW = draws
    dt = bundle.dt
    theta, delta, phi, rho = bundle.theta, bundle.delta, bundle.phi, bundle.rho
    sum_db = grid_sums(bundle, dB)
    log_inv = integral_from_sums(sum_db, delta) + _cumulative(
        delta * theta * dt - 0.5 * delta**2 * dt
    )[None, :]
    inv_gamma = np.exp(log_inv) / gamma0
    rho_s = integral_from_sums(sum_db, rho) + _cumulative(rho * theta * dt)[None, :]
    drift = a0 + _cumulative(0.5 * (theta - delta) ** 2 * dt - 0.5 * phi**2 * dt)
    phi_w = integral_from_sums(grid_sums(bundle, dW), phi)
    a_shift = rho_s / inv_gamma + drift[None, :] - phi_w
    return inv_gamma, a_shift


def density_path_per_step(bundle, draws, nu1, nu2):
    """``density_path_full`` on the full grid by one cumsum of the per-step
    log increments."""
    dB, dW = draws
    nu1 = np.broadcast_to(np.asarray(nu1, dtype=float), (bundle.n_steps,))
    nu2 = np.broadcast_to(np.asarray(nu2, dtype=float), (bundle.n_steps,))
    incr = -nu1 * dB - nu2 * dW - 0.5 * (nu1**2 + nu2**2) * bundle.dt
    return np.exp(running_sums(incr))


def forward_exponential_per_step(gamma0, a0, bundle, draws):
    """``forward_exponential_full`` on the full grid by one cumsum per
    stochastic quantity."""
    dB, dW = draws
    dt = bundle.dt
    ds = bundle.theta * dt + dB
    inv_gamma = np.exp(running_sums(bundle.delta * ds - 0.5 * bundle.delta**2 * dt)) / gamma0
    drift = _cumulative(0.5 * (bundle.theta - bundle.delta) ** 2 * dt)
    phi_cost = _cumulative(0.5 * bundle.phi**2 * dt)
    rho_s = running_sums(bundle.rho * ds)
    phi_w = running_sums(bundle.phi * dW)
    a_shift = a0 + drift[None, :] + rho_s / inv_gamma - phi_cost[None, :] - phi_w
    return inv_gamma, a_shift


def export_paths(bundle, dB, fields, densities, path, path_indices):
    """The export CSV of the paths ``path_indices`` of the whole simulation
    ``bundle``, written row by row from its full matrices (the price from
    the increments ``dB``, and every density and field matrix). Returns
    the number of rows."""
    labels = list(densities)
    s = price_paths(bundle, dB)
    n = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["path", "t", "s"] + [f"z_{lab}" for lab in labels] + ["inv_gamma", "a_shift"]
        )
        for i in path_indices:
            k = i - bundle.first_path
            columns = (
                [bundle.grid, s[k]]
                + [densities[lab][k] for lab in labels]
                + [fields.inv_gamma[k], fields.a_shift[k]]
            )
            for row in zip(*columns):
                writer.writerow([i] + [f"{float(v):.12g}" for v in row])
                n += 1
    return n


# -- the dual increments from time 0 -----------------------------------------


def dual_increment_from_start(bundle, seed, gamma0, a0, label, nu, eta, t_index, confidence=0.997):
    """The record ``dual-submartingale[nu=label,eta=eta,t1=0,t2=t]`` the
    package wrote before its dual checks read only the time indices above
    0: the two-sided test of the mean of Y_t - Y_0, Y = V(t, eta Z) =
    R log R - R - R a with R = eta Z / gamma, against (1/2)(eta / gamma0)
    integral_0^t (nu - phi)^2 ds.

    Y is built on the whole simulation ``bundle``, drawn from ``seed``,
    from the full-matrix density (theta on B, the per-step load ``nu`` on
    W) and field paths, and Y_0 is read at their column 0, path by path.
    Antithetic partners are averaged into one sample. The band is z se
    plus the package's rounding floor, (30 n_steps + 71 + ceil(log2 n) +
    1) u (max |Y_0| + max |Y_t|), u = 2**-53."""
    draws = increments(bundle, seed)
    cols = [0, t_index]
    z = density_path_full(bundle, draws, bundle.theta, nu)[:, cols]
    inv_gamma, a_shift = (f[:, cols] for f in forward_exponential_full(gamma0, a0, bundle, draws))
    r = eta * z * inv_gamma
    y = entropy_kernel(r) - r * a_shift
    samples = y[:, 1] - y[:, 0]
    if bundle.antithetic:
        samples = 0.5 * (samples[0::2] + samples[1::2])
    n = samples.size
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1)) / math.sqrt(n)
    gap = np.sum((np.asarray(nu, dtype=float) - bundle.phi)[:t_index] ** 2) * bundle.dt
    target = 0.5 * eta / gamma0 * float(gap)
    scale = float(np.max(np.abs(y[:, 0])) + np.max(np.abs(y[:, 1])))
    floor = (30 * bundle.n_steps + 71 + (n - 1).bit_length() + 1) * 2.0**-53 * scale
    band = float(ndtri(0.5 * (1.0 + confidence))) * se + floor
    t = t_index * bundle.spec.horizon / bundle.n_steps
    return CheckRecord(
        check_tag=f"dual-submartingale[nu={label},eta={eta:g},t1=0,t2={t:g}]",
        verdict=abs(mean - target) <= band,
        value=mean,
        target=target,
        tolerance=band,
        std_error=se,
        details={"n_samples": n, "rounding_floor": floor},
    )
