"""Small deterministic solvers used by the exact verification paths.

Everything here is dense, derivative-driven, and iteration-capped: failures
raise instead of returning a silently degraded answer.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

# minimize_exp_sum: relative width of the final derivative bracket, and the
# cap on its safeguarded Newton steps (the loop ends there, without error)
_EXP_SUM_TOL = 1e-13
_EXP_SUM_MAX_ITER = 200
# barrier_minimize: the duality-gap bound of its one barrier parameter, and
# the cap on its Newton steps (reaching it raises)
_BARRIER_GAP_TOL = 1e-10
_BARRIER_MAX_NEWTON = 200


def minimize_exp_sum(weights, slopes):
    """Minimize g(p) = sum_i w_i exp(s_i p) for w_i > 0; returns (p*, g(p*)).

    Strictly convex whenever some s_i != 0; coercive iff the nonzero slopes
    take both signs. One-sided slopes mean the infimum is only approached at
    infinity; that configuration signals an arbitrage upstream, so it raises.
    """
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

    # exp(s p) may overflow to inf on a bracket end; the bracket and the
    # Newton safeguard handle it, so the warning is silenced for the call
    with np.errstate(over="ignore"):

        def val_grad(p):
            e = w * np.exp(s * p)
            return float(e.sum()), float((e * s).sum())

        # expand to a sign-changing derivative bracket
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

        # safeguarded Newton on the derivative
        p = 0.5 * (lo + hi)
        for _ in range(_EXP_SUM_MAX_ITER):
            if hi - lo < _EXP_SUM_TOL * (1.0 + abs(lo) + abs(hi)):
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


def barrier_minimize(phi, A, b, r0):
    """Minimize sum_i phi_i(r_i) over {r > 0, A r = b} by a log-barrier method.

    ``phi(r)`` must return (values, gradients, second derivatives) as arrays
    for a positive vector r, each phi_i convex. ``r0`` must be strictly
    positive and feasible. Damped Newton steps, kept strictly inside the
    positive orthant by the line search, solve the equality-constrained
    barrier problem through the Schur complement at the single barrier
    parameter mu = _BARRIER_GAP_TOL / m. The duality-gap bound m*mu holds at the
    central point for any mu, so no continuation over a decreasing mu is
    needed (Boyd & Vandenberghe, Convex Optimization, 11.2.2).

    Returns (r, multipliers, info) where info carries the gap bound, the
    Newton iteration count, and the max equality residual. Raises
    ConvergenceError at the iteration cap, ``_BARRIER_MAX_NEWTON``, and
    when a Newton step or its multipliers are not finite (an objective
    whose derivatives leave the float range, say).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    r = np.asarray(r0, dtype=float).copy()
    m = r.size
    if (r <= 0.0).any():
        raise ValueError("barrier_minimize: start must be strictly positive")
    if A.ndim != 2 or A.shape[1] != m or A.shape[0] != b.size:
        raise ValueError("barrier_minimize: constraint shape mismatch")
    # drop all-zero rows (vacuous constraints) once, keeping determinism
    keep = (A != 0.0).any(axis=1)
    if not keep.all():
        if (np.abs(b[~keep]) > 1e-12).any():
            raise ValueError("barrier_minimize: infeasible zero row")
        A = A[keep]
        b = b[keep]
    k = A.shape[0]
    lam = np.zeros(k)
    mu = _BARRIER_GAP_TOL / m

    def barrier_val(rv, v):
        return float(v.sum()) - mu * float(np.log(rv).sum())

    for newton_used in range(1, _BARRIER_MAX_NEWTON + 1):
        v, grad, hess = phi(r)
        f_cur = barrier_val(r, v)
        g = grad - mu / r
        h = hess + mu / (r * r)
        hinv = 1.0 / h
        # Schur system for the equality multipliers
        S = (A * hinv) @ A.T
        rhs = -(A * hinv) @ g
        try:
            lam = np.linalg.solve(S, rhs)
        except np.linalg.LinAlgError:
            lam = np.linalg.lstsq(S, rhs, rcond=None)[0]
        dr = -hinv * (g + A.T @ lam)
        if not (np.isfinite(lam).all() and np.isfinite(dr).all()):
            # no line search can repair a NaN or infinite direction
            raise ConvergenceError(
                f"barrier_minimize: Newton step {newton_used} is not finite "
                f"(barrier objective {f_cur!r})"
            )
        # Newton decrement squared = dr' H dr = -(g + A'lam)' dr
        slope = float((g + A.T @ lam) @ dr)
        if -slope < 1e-13 * (1.0 + abs(f_cur)):
            break
        # keep strictly inside the positive orthant
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
            f"barrier_minimize: {_BARRIER_MAX_NEWTON} Newton iterations exhausted "
            f"at gap bound {m * mu:.3e}"
        )
    eq_residual = float(np.abs(A @ r - b).max()) if k else 0.0
    info = {
        "gap_bound": m * mu,
        "newton_iterations": newton_used,
        "eq_residual": eq_residual,
    }
    return r, lam, info
