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


def entropy_kernel(y, out=None):
    """y log y - y, extended by 0 at y = 0. Scalar or array; requires
    y >= 0, and refuses NaN, which no order comparison would catch.

    A scalar gives a float; an array gives an array of its shape, written
    into ``out`` when given (a float64 array of that shape that does not
    overlap ``y``), else a fresh one. The log is taken only where y > 0,
    into zeros (with no mask when every y is positive), then multiplied by
    y and y subtracted in place: y log y - y with the rounding of that
    expression, and +0.0 at y = 0.
    """
    arr = np.asarray(y, dtype=float)
    low = arr.min(initial=math.inf)  # NaN if any entry is
    if not low >= 0.0:
        raise ValueError("entropy_kernel: argument must be nonnegative, not NaN")
    if out is None:
        out = np.empty(arr.shape)
    if low > 0.0:
        np.log(arr, out=out)
    else:
        out.fill(0.0)
        np.log(arr, where=arr > 0.0, out=out)
    out *= arr
    out -= arr
    if np.ndim(y) == 0:
        return float(out)
    return out


def conjugate_exponential(gamma_t, a_t, y):
    """V(y) = entropy_kernel(y/gamma) - (y/gamma) a, vectorized over all three.

    Accepts scalars or arrays (broadcast together); y = 0 gives exactly 0.
    A gamma that is not positive, a negative y, or a NaN in either is
    refused.
    """
    g = np.asarray(gamma_t, dtype=float)
    if not (g > 0.0).all():
        raise ValueError("conjugate_exponential: gamma must be positive, not NaN")
    yv = np.asarray(y, dtype=float)
    if not (yv >= 0.0).all():
        raise ValueError("conjugate_exponential: y must be nonnegative, not NaN")
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
            if not math.isfinite(1.0 / float(g)):
                raise ValueError(f"1/gamma must be finite at node {node!r}, got gamma {g}")
        for node, a in self.a_shift.items():
            if not math.isfinite(a):
                raise ValueError(f"a_shift must be finite at node {node!r}, got {a}")

    def defined_at(self, node: str) -> bool:
        return node in self.gamma and node in self.a_shift

    def __repr__(self):
        return f"ExponentialFieldParams(nodes={len(self.gamma)})"

