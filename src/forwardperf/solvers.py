"""Small deterministic solvers used by the exact verification paths.

Everything here is dense, derivative-driven, and iteration-capped: failures
raise, or are reported per program of a stack, instead of returning a
silently degraded answer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

# minimize_exp_sum: relative width of the final bracket, or of the last
# Newton step, in the scaled variable, and the cap on its safeguarded Newton
# steps (a solve that reaches it fails)
_EXP_SUM_TOL = 1e-13
_EXP_SUM_MAX_ITER = 200
# barrier_minimize: the duality-gap bound of its one barrier parameter, and
# the cap on its Newton steps (a program that reaches it fails)
_BARRIER_GAP_TOL = 1e-10
_BARRIER_MAX_NEWTON = 200
_UNIT_ROUNDOFF = 2.0**-53


def minimize_exp_sum(log_weights, slopes):
    """Minimize g(p) = sum_i exp(l_i + s_i p) over p, for finite log
    weights l_i and slopes s_i; returns (p*, log g(p*)).

    Strictly convex whenever some s_i != 0; coercive iff the nonzero slopes
    take both signs. One-sided slopes mean the infimum is only approached at
    infinity; that configuration signals an arbitrage upstream, so it raises.
    The solve owns the problem's scale, so a constant added to every l_i
    or a common factor of the slopes changes the answer only by rounding:
    it runs in y = p max|s|, on Python floats, with each sum taken relative
    to its largest term. A solve still unconverged after
    ``_EXP_SUM_MAX_ITER`` Newton steps raises ``ConvergenceError``.
    """
    lw = np.asarray(log_weights, dtype=float)
    s = np.asarray(slopes, dtype=float)
    if lw.shape != s.shape or lw.ndim != 1 or lw.size == 0:
        raise ValueError("minimize_exp_sum: need matching nonempty 1-D arrays")
    if not (np.isfinite(lw).all() and np.isfinite(s).all()):
        raise ValueError("minimize_exp_sum: log weights and slopes must be finite")
    nz = s[s != 0.0]
    if nz.size and ((nz > 0.0).all() or (nz < 0.0).all()):
        raise ValueError(
            "minimize_exp_sum: slopes are one-sided, infimum not attained "
            "(martingale-measure constraint violated upstream)"
        )
    scale = float(np.abs(s).max()) or 1.0
    ll, sl = lw.tolist(), (s / scale).tolist()

    def sums(y):  # g, g' and g'' in y, each over g's largest term, and its log
        e = [x + sv * y for x, sv in zip(ll, sl)]
        top = max(e)
        v = g = h = 0.0
        for x, sv in zip(e, sl):
            x = math.exp(x - top)
            v += x
            x *= sv
            g += x
            h += x * sv
        return v, g, h, top

    # expand to a sign-changing derivative bracket, downhill from 0
    lo = hi = 0.0
    g0 = sums(0.0)[1]
    if g0 != 0.0:
        down, edge, step = 1.0 if g0 > 0.0 else -1.0, 0.0, 1.0
        while down * (g := sums(edge := edge - down * step)[1]) > 0.0:
            step *= 2.0
        # past the float range the derivative is NaN, or 0 on a slope
        # that scaling rounded to 0, and the loop ends on no sign change
        if not (math.isfinite(edge) and math.isfinite(g)):
            raise ConvergenceError("minimize_exp_sum: bracket expansion failed")
        lo, hi = (edge, 0.0) if down > 0.0 else (0.0, edge)

    # Newton on the derivative of log g, safeguarded by the bracket: a step
    # that leaves it, or is not half as long as the one before, bisects
    y, steps, last = 0.5 * (lo + hi), 0, hi - lo
    while hi - lo >= _EXP_SUM_TOL * (1.0 + abs(lo) + abs(hi)):
        if steps == _EXP_SUM_MAX_ITER:
            raise ConvergenceError(
                f"minimize_exp_sum: {_EXP_SUM_MAX_ITER} iterations exhausted at bracket width {hi - lo:.3e}"
            )
        steps += 1
        v, g, h, _ = sums(y)
        if g == 0.0:
            break
        lo, hi = (lo, y) if g > 0.0 else (y, hi)
        # the slope of (log g)' is the variance of s under the tilt
        curvature = h * v - g * g
        y_newton = y - g * v / curvature if curvature > 0.0 else math.nan
        step = abs(y_newton - y)
        if step <= _EXP_SUM_TOL * (1.0 + abs(y)):
            break
        if lo < y_newton < hi and step < 0.5 * last:
            y, last = y_newton, step
        else:
            y, last = 0.5 * (lo + hi), 0.5 * (hi - lo)
    v, _, _, top = sums(y)
    return y / scale, top + math.log(v)


def barrier_minimize(phi, r0, price=None):
    """Minimize sum_i phi_i(r_i) over {r > 0, sum_i r_i = 1, sum_i d_i r_i = 0}
    by a log-barrier method, for a stack of programs of one shape at once.

    Program j of the stack minimises over its own r_j, from the strictly
    positive feasible start r0[j], with ``r0`` (B, m). Its price row d is
    ``price[j]``, a (B, m) array, or, when ``price`` is None, it has the
    unit-mass row alone. ``phi(rows)`` returns the objective of the
    programs ``rows`` (an index array into the stack): a function from
    their iterates, a (len(rows), m) array, to their (values, gradients,
    second derivatives) in that shape, each phi_i convex, computed row by
    row. Damped Newton steps, kept strictly inside the positive orthant by
    the line search, solve the equality-constrained barrier problem at the
    single barrier parameter mu = _BARRIER_GAP_TOL / m. The duality-gap
    bound m*mu holds at the central point for any mu, so no continuation
    over a decreasing mu is needed (Boyd & Vandenberghe, Convex
    Optimization, 11.2.2).

    A start is feasible up to rounding when its residuals are at most m
    (m + 1) u, u = 2^-53, times the sizes of their terms: |sum r0 - 1| <=
    m (m + 1) u sum r0 and |sum d r0| <= m (m + 1) u sum |d r0|. To first
    order that bounds the residuals, as summed here, of a start whose
    entries are each within m^2 u, relative, of a feasible point: m^2 u
    covers the residual itself and m u the sum that evaluates it. The tree
    engine's start, a node's vertex centroid, is one: each of its V <=
    max(m, m^2 / 4) vertices has entries from two roundings (a difference
    and a quotient), and their mean adds V, so its entries are within (V +
    2) u <= m^2 u of their exact values for m >= 2 (a one-child node's
    one vertex is exact). The Newton steps keep a start's residuals, so
    from a start past either bound they would solve another program: it is
    refused with ValueError, and so is the stack.

    Each Newton step solves the Schur system of the two rows, of matrix
    [[sum 1/h, sum d/h], [sum d/h, sum d^2/h]] (h the barrier Hessian, the
    sums along the program's row), by formula: eliminating the unit-mass
    multiplier leaves sum 1/h times the 1/h-weighted variance of d, a sum
    of squares about the weighted mean. That is the Cauchy-Binet
    determinant sum over i < j of (d_i - d_j)^2 / (h_i h_j), over sum 1/h,
    so it cannot cancel where one child's 1/h dominates. Every operation
    is elementwise or a sum along a program's row, in an order numpy's
    source fixes: there is no BLAS or LAPACK call, whose kernel the CPU
    would pick.

    Each program takes the iterates, line-search halvings, stop and
    iteration count it takes alone, bit for bit, and leaves the stack when
    it stops or fails: at a start where its objective is not finite, at a
    Newton step that is not finite (an all-zero price row, whose Schur
    system is singular, gives one), or at the iteration cap,
    ``_BARRIER_MAX_NEWTON``. Returns (r, multipliers, info): r (B, m)
    holds each program's iterate when it left and the multipliers (B, k)
    those of its k rows, unit mass first; info carries the gap bound,
    ``newton_iterations`` (the stack's total, an int) and per program
    ``iterations`` (0 for a failure at the start), ``eq_residual`` (the
    max equality residual), ``value`` (the objective's sum at r) and
    ``failure`` (None, or why it failed).
    """
    r = np.array(r0, dtype=float)
    d = None if price is None else np.asarray(price, dtype=float)
    if r.ndim != 2 or (d is not None and d.shape != r.shape):
        raise ValueError("barrier_minimize: constraint shape mismatch")
    n, m = r.shape
    if not r.size:
        raise ValueError("barrier_minimize: need a nonempty stack of nonempty programs")
    if (r <= 0.0).any():
        raise ValueError("barrier_minimize: start must be strictly positive")
    allowed = m * (m + 1) * _UNIT_ROUNDOFF
    mass = r.sum(axis=1)
    feasible = np.abs(mass - 1.0) <= allowed * mass
    if d is not None:
        moved = d * r
        feasible &= np.abs(moved.sum(axis=1)) <= allowed * np.abs(moved).sum(axis=1)
    if not feasible.all():
        j = int(np.flatnonzero(~feasible)[0])
        raise ValueError(
            f"barrier_minimize: the start of program {j} is not feasible: its residuals pass "
            f"{m * (m + 1)} u times the sizes of their terms"
        )
    k = 1 if d is None else 2
    lam, iterations, value = np.zeros((n, k)), np.zeros(n, dtype=np.int64), np.zeros(n)
    mu = _BARRIER_GAP_TOL / m

    def barrier_val(rv, v):
        return v.sum(axis=1) - mu * np.log(rv).sum(axis=1)

    # the programs still iterating: their indices, objective and price rows,
    # and (iterate, gradient, curvature, barrier value, objective values)
    # at their current iterate and at their next
    rows = np.arange(n)
    f, price_rows = phi(rows), d
    v, grad, hess = f(r)
    here = ahead = (r, grad, hess, barrier_val(r, v), v)
    go = np.isfinite(here[3]).tolist()
    failure = [
        None if ok else f"barrier_minimize: the objective is not finite at the start (barrier objective {x!r})"
        for ok, x in zip(go, here[3].tolist())
    ]
    lr = lam  # the iterating programs' multipliers, 0 before any step
    newton_used = 0
    while True:
        # programs whose outcome is decided leave, at their current iterate
        if not all(go):
            if len(rows) == n and not any(go):  # the whole stack leaves at once
                iterations[:], r, lam, value = newton_used, here[0], lr, here[4].sum(axis=1)
                break
            keep = np.array(go)
            out = ~keep
            done = rows[out]
            iterations[done] = newton_used
            r[done], lam[done] = here[0][out], lr[out]
            value[done] = here[4][out].sum(axis=1)
            rows = rows[keep]
            if not rows.size:
                break
            f, price_rows = phi(rows), None if d is None else price_rows[keep]
            ahead = tuple(x[keep] for x in ahead)
        here = ahead
        rr, grad, hess, f_cur, _ = here
        newton_used += 1
        g = grad - mu / rr
        h = hess + mu / (rr * rr)
        hinv = 1.0 / h
        # the Schur system by formula: the unit-mass multiplier is minus the
        # h^-1-weighted mean of g + lam_d d, and the price multiplier lam_d
        # minus the weighted covariance of d and g over the variance of d
        weight = hinv.sum(axis=1)[:, None]
        g_mean = (hinv * g).sum(axis=1)[:, None] / weight
        q = g - g_mean
        if d is None:
            lr = -g_mean
        else:
            d_mean = (hinv * price_rows).sum(axis=1)[:, None] / weight
            dc = price_rows - d_mean
            hd = hinv * dc
            lam_d = -(hd * q).sum(axis=1)[:, None] / (hd * dc).sum(axis=1)[:, None]
            q += lam_d * dc
            lr = np.hstack((-(g_mean + lam_d * d_mean), lam_d))
        dr = -hinv * q
        # Newton decrement squared = dr' H dr = -q' dr. Each
        # program's stop test and step length in Python floats, as alone
        f_row = f_cur.tolist()
        slope = (q * dr).sum(axis=1).tolist()
        searching = [j for j, (fc, s) in enumerate(zip(f_row, slope)) if not -s < 1e-13 * (1.0 + abs(fc))]
        # no line search repairs a step that is not finite; its slope, a
        # sum of -q_i^2 / h_i, is not finite either
        if not all(map(math.isfinite, slope)):
            finite = np.isfinite(dr).all(axis=1)
            for j in np.flatnonzero(~finite).tolist():
                failure[rows[j]] = (
                    f"barrier_minimize: Newton step {newton_used} is not finite (barrier objective {f_row[j]!r})"
                )
            searching = [j for j in searching if finite[j]]
        if searching:
            # keep strictly inside the positive orthant
            alpha = [
                min([1.0] + [0.99 * (-x / dx) for x, dx in zip(xs, ds) if dx < 0.0])
                for xs, ds in zip(rr.tolist(), dr.tolist())
            ]
            searching = [j for j in searching if alpha[j] > 1e-14]
        # each program's backtracking line search, one halving of all at a
        # time; a program not searching is evaluated at its iterate, and
        # ignored. The point a program accepts is its next iterate, so the
        # evaluation there serves its next Newton step; a program that
        # accepts none stops, at its stop test or the line-search floor.
        go = [False] * len(rows)
        while searching:
            r_new = rr + np.array(alpha)[:, None] * dr
            inside = (r_new > 0.0).all(axis=1).tolist()
            trial = [j for j in searching if inside[j]]
            if len(trial) < len(rows):
                hold = np.ones(len(rows), dtype=bool)
                hold[trial] = False
                r_new[hold] = rr[hold]
            v, g_new, h_new = f(r_new)
            val = barrier_val(r_new, v)
            val_row = val.tolist()
            took = np.zeros(len(rows), dtype=bool)
            left = []
            for j in searching:
                if inside[j] and val_row[j] <= f_row[j] + 1e-4 * alpha[j] * slope[j]:
                    go[j] = took[j] = True
                    continue
                alpha[j] *= 0.5
                if alpha[j] > 1e-14:
                    left.append(j)
            point = (r_new, g_new, h_new, val, v)
            if ahead is here:
                ahead = point
            elif took.any():
                ahead = tuple(np.where(took[:, None] if x.ndim == 2 else took, x, y) for x, y in zip(point, ahead))
            searching = left
        if newton_used == _BARRIER_MAX_NEWTON:
            for j in rows[go].tolist():
                failure[j] = (
                    f"barrier_minimize: {_BARRIER_MAX_NEWTON} Newton iterations exhausted "
                    f"at gap bound {m * mu:.3e}"
                )
            go = [False] * len(rows)
    residual = np.abs(r.sum(axis=1) - 1.0)
    if d is not None:
        residual = np.maximum(residual, np.abs((d * r).sum(axis=1)))
    info = {
        "gap_bound": m * mu,
        "newton_iterations": int(iterations.sum()),
        "iterations": iterations,
        "eq_residual": residual,
        "value": value,
        "failure": failure,
    }
    return r, lam, info
