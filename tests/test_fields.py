"""The entropy kernel, exponential fields, and the closed-form conjugate
against the numeric one of ``oracles``."""

import math

import numpy as np
import pytest

from forwardperf.fields import ExponentialFieldParams, conjugate_exponential, entropy_kernel
import oracles
from oracles import (
    InadaViolation,
    UtilitySlice,
    conjugate_numeric,
    exponential_slice,
    golden_section_min,
)
from treegen import with_offsets


# -- entropy kernel ------------------------------------------------------


def test_entropy_kernel_pins():
    assert entropy_kernel(1.0) == -1.0
    assert entropy_kernel(0.0) == 0.0
    assert entropy_kernel(math.e) == pytest.approx(0.0, abs=1e-15)


def test_entropy_kernel_array():
    out = entropy_kernel(np.array([0.0, 1.0, math.e]))
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[1] == -1.0


def test_entropy_kernel_negative_rejected():
    with pytest.raises(ValueError):
        entropy_kernel(-0.5)
    with pytest.raises(ValueError):
        entropy_kernel(np.array([0.5, -1e-12]))


def test_entropy_kernel_refuses_nan():
    # no order comparison catches NaN, so the kernel checks y >= 0 itself
    with pytest.raises(ValueError, match="not NaN"):
        entropy_kernel(math.nan)
    with pytest.raises(ValueError, match="not NaN"):
        entropy_kernel(np.array([0.5, math.nan, 0.0]))


def test_conjugate_exponential_refuses_nan():
    with pytest.raises(ValueError, match="gamma must be positive, not NaN"):
        conjugate_exponential(math.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match="gamma must be positive, not NaN"):
        conjugate_exponential(np.array([1.0, math.nan]), 0.0, 1.0)
    with pytest.raises(ValueError, match="y must be nonnegative, not NaN"):
        conjugate_exponential(1.0, 0.0, math.nan)
    with pytest.raises(ValueError, match="y must be nonnegative, not NaN"):
        conjugate_exponential(2.0, 0.0, np.array([0.0, math.nan]))


@pytest.mark.parametrize(
    "y",
    [
        np.array([0.0, 1.0, math.e, 0.0, 1e-300, 5e-324, 3.7, 1e300, -0.0]),
        np.random.default_rng(3).exponential(size=(4, 25)) * (np.arange(25) % 3 > 0),
        np.random.default_rng(4).exponential(size=1000) + 5e-324,
        np.array(0.0),
        np.array(-0.0),
        np.array(0.37),
        0.0,
        -0.0,
        2.5,
        1e-310,
    ],
)
def test_entropy_kernel_bits_match_the_replaced_kernel(y):
    # log into zeros where y > 0 (everywhere, unmasked, when all y > 0),
    # then *= y and -= y in place: the bits of the replaced np.where form,
    # +0.0 at y = +-0 included
    want = oracles.entropy_kernel(y)
    got = entropy_kernel(y)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    if isinstance(y, np.ndarray) and y.ndim:
        out = np.full(y.shape, np.nan)
        assert entropy_kernel(y, out=out) is out
        assert out.tobytes() == want.tobytes()


def test_entropy_kernel_convex_min_at_one():
    ys = np.linspace(1e-6, 5.0, 301)
    vals = entropy_kernel(ys)
    assert vals.min() >= -1.0
    assert np.all(np.diff(vals, 2) > -1e-12)


# -- exponential slices --------------------------------------------------


def test_eval_exponential_pin():
    field = ExponentialFieldParams(gamma={"n": 2.0}, a_shift={"n": 1.0})
    u = exponential_slice(field.gamma["n"], field.a_shift["n"])
    assert u.value(0.0) == pytest.approx(-math.e, rel=1e-15)
    assert not field.defined_at("missing")
    with pytest.raises(KeyError):
        field.gamma["missing"]


def test_exponential_slice_is_valid_utility():
    # increasing and concave, with a positive decreasing marginal that
    # grows towards -inf and vanishes towards +inf
    u = exponential_slice(1.3, 0.4)
    grid = np.linspace(-5.0, 5.0, 41)
    vals = np.array([u.value(x) for x in grid])
    ders = np.array([u.deriv(x) for x in grid])
    assert np.all(np.diff(vals) > 0) and np.all(np.diff(vals, 2) < 0)
    assert np.all(ders > 0) and np.all(np.diff(ders) < 0)
    assert u.deriv(-64.0) > 4.0 * u.deriv(0.0) and u.deriv(64.0) < u.deriv(0.0) / 4.0


def test_validate_catches_broken_slice():
    # a convex "utility" has an increasing marginal: no bracket, refused
    convex = UtilitySlice(value=lambda x: x * x, deriv=lambda x: 2 * x)
    with pytest.raises(InadaViolation):
        conjugate_numeric(convex, 1.0)


def test_field_params_validation():
    with pytest.raises(ValueError):
        ExponentialFieldParams(gamma={"n": -1.0}, a_shift={"n": 0.0})
    with pytest.raises(ValueError):
        ExponentialFieldParams(gamma={"n": 1.0}, a_shift={"n": math.inf})


def test_with_offsets():
    # the tests' helper; the field class has no such method
    field = ExponentialFieldParams(gamma={"n": 1.0}, a_shift={"n": 0.5})
    shifted = with_offsets(field, {"n": 0.1})
    assert shifted.a_shift["n"] == pytest.approx(0.6)
    assert field.a_shift["n"] == 0.5
    assert not hasattr(ExponentialFieldParams, "with_offsets")


# -- conjugation pins ----------------------------------------------------


def test_conjugate_numeric_pins():
    v, x = conjugate_numeric(exponential_slice(1.0, 0.0), 1.0)
    assert v == pytest.approx(-1.0, abs=1e-10)
    assert x == pytest.approx(0.0, abs=1e-9)
    v, x = conjugate_numeric(exponential_slice(1.0, 0.0), math.e)
    assert v == pytest.approx(0.0, abs=1e-10)
    assert x == pytest.approx(-1.0, abs=1e-9)
    v, x = conjugate_numeric(exponential_slice(2.0, 0.0), 2.0)
    assert v == pytest.approx(-1.0, abs=1e-10)
    assert x == pytest.approx(0.0, abs=1e-9)


def test_conjugate_exponential_pins():
    assert conjugate_exponential(1.0, 0.0, 1.0) == -1.0
    assert conjugate_exponential(1.0, 0.0, 0.0) == 0.0
    # closed dual of -exp(-x) at y = e: h(e) = 0
    assert conjugate_exponential(1.0, 0.0, math.e) == pytest.approx(0.0, abs=1e-15)


def test_conjugate_exponential_broadcast():
    out = conjugate_exponential(np.array([1.0, 2.0]), 0.0, np.array([1.0, 2.0]))
    assert out.shape == (2,)
    assert out[0] == out[1] == -1.0
    with pytest.raises(ValueError):
        conjugate_exponential(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        conjugate_exponential(1.0, 0.0, -1.0)


def test_conjugate_numeric_rejects_bad_args():
    u = exponential_slice(1.0, 0.0)
    with pytest.raises(ValueError):
        conjugate_numeric(u, 0.0)
    with pytest.raises(ValueError):
        conjugate_numeric(u, -1.0)
    with pytest.raises(ValueError):
        conjugate_numeric(u, 1.0, tol=0.0)


def test_conjugate_numeric_inada_violation():
    # marginal bounded below by 1: no maximizer for y < 1
    flat = UtilitySlice(
        value=lambda x: x - math.exp(-x),
        deriv=lambda x: 1.0 + math.exp(-x),
    )
    with pytest.raises(InadaViolation):
        conjugate_numeric(flat, 0.5)


# -- agreement between the two conjugation routes ------------------------


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
def test_numeric_matches_closed_form(gamma, a):
    u = exponential_slice(gamma, a)
    for y in np.logspace(-3, 3, 20):
        num, _ = conjugate_numeric(u, float(y))
        assert abs(num - conjugate_exponential(gamma, a, float(y))) <= 1e-8


def test_fenchel_identity_along_marginal():
    # V(U'(x)) = U(x) - x U'(x) at 50 wealth probes
    gamma, a = 1.3, 0.4
    u = exponential_slice(gamma, a)
    for x in np.linspace(-5.0, 5.0, 50):
        y = u.deriv(float(x))
        num, _ = conjugate_numeric(u, y)
        assert abs(num - (u.value(float(x)) - float(x) * y)) <= 1e-8


def test_bidual_recovers_utility():
    # U(x) = min over y > 0 of (V(y) + x y) for the closed-form dual V
    gamma, a = 0.8, -0.3
    u = exponential_slice(gamma, a)

    def bidual_at(x):
        def f(log_y):
            y = math.exp(log_y)
            return conjugate_exponential(gamma, a, y) + x * y

        return golden_section_min(f, math.log(1e-4), math.log(1e4), tol=1e-12)[1]

    for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert abs(bidual_at(x) - u.value(x)) <= 1e-6


def test_dual_slice_midpoint_convexity():
    u = exponential_slice(1.7, 0.6)

    def v(y):
        return conjugate_numeric(u, y)[0]

    ys = np.logspace(-2, 2, 25)
    for y1 in ys[::4]:
        for y2 in ys[::4]:
            mid = v(0.5 * (y1 + y2))
            defect = 0.5 * (v(y1) + v(y2)) - mid
            assert defect >= -1e-10


def test_dual_argmax_consistency():
    # the numeric argmax agrees with the closed form (a - log(y / gamma)) / gamma
    gamma, a = 2.0, 1.0
    u = exponential_slice(gamma, a)
    for y in (0.3, 1.0, 4.0):
        assert conjugate_numeric(u, y)[1] == pytest.approx(
            (a - math.log(y / gamma)) / gamma, abs=1e-8
        )
