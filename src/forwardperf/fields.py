"""Exponential utility fields and their closed-form Fenchel-Legendre conjugate.

A utility slice is one dated utility function x -> U(x): strictly
increasing, strictly concave, C1, with marginal utility sweeping all of
(0, inf). Its convex dual is

    V(y) = sup_x (U(x) - x y),   y > 0,

with the adjoined value V(0) = sup_x U(x) when finite.

The exponential family used throughout is

    U(x) = -exp(-gamma x + a),   gamma > 0,

whose dual is available in closed form:

    V(y) = entropy_kernel(y / gamma) - (y / gamma) a,

where entropy_kernel(y) = y log y - y, extended by 0 at y = 0. The closed
form gives V(0) = 0, matching sup_x U(x) = 0.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np


def entropy_kernel(y):
    """y log y - y, extended by 0 at y = 0. Scalar or array; requires y >= 0."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("entropy_kernel: argument must be nonnegative")
    safe = np.where(arr > 0.0, arr, 1.0)
    out = np.where(arr > 0.0, arr * np.log(safe) - arr, 0.0)
    if np.ndim(y) == 0:
        return float(out)
    return out


def conjugate_exponential(gamma_t, a_t, y):
    """V(y) = entropy_kernel(y/gamma) - (y/gamma) a, vectorized over all three.

    Accepts scalars or arrays (broadcast together); y = 0 gives exactly 0.
    """
    g = np.asarray(gamma_t, dtype=float)
    if np.any(g <= 0.0):
        raise ValueError("conjugate_exponential: gamma must be positive")
    yv = np.asarray(y, dtype=float)
    if np.any(yv < 0.0):
        raise ValueError("conjugate_exponential: y must be nonnegative")
    ratio = yv / g
    out = entropy_kernel(ratio) - ratio * np.asarray(a_t, dtype=float)
    if np.ndim(out) == 0:
        return float(out)
    return out


class ExponentialFieldParams:
    """Exponential field on an event tree: per-node (gamma, a) pairs.

    ``gamma`` and ``a_shift`` map node ids to the risk aversion and additive
    shift of U(node, x) = -exp(-gamma x + a). Adaptedness is automatic since
    values attach to nodes. Lookups at unknown nodes raise KeyError.
    """

    def __init__(self, gamma: Mapping[str, float], a_shift: Mapping[str, float]):
        self.gamma = dict(gamma)
        self.a_shift = dict(a_shift)
        for node, g in self.gamma.items():
            if not (g > 0.0) or not math.isfinite(g):
                raise ValueError(f"gamma must be positive and finite at node {node!r}, got {g}")
        for node, a in self.a_shift.items():
            if not math.isfinite(a):
                raise ValueError(f"a_shift must be finite at node {node!r}, got {a}")

    def defined_at(self, node: str) -> bool:
        return node in self.gamma and node in self.a_shift

    def __repr__(self):
        return f"ExponentialFieldParams(nodes={len(self.gamma)})"

