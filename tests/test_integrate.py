"""Quadrature, step integrals, weak-integral and commutation contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from sumkit.integrate import (
    MEASURE_COUNTING,
    QuadratureConfig,
    QuadratureError,
    SUBSTITUTION_LOG_BOUNDARY,
    StepFunction,
    StepPiece,
    adaptive_quadrature,
    operator_commutation_check,
    norm_integral,
    quad_scalar,
    step_integral,
    weak_integral_check,
)
from sumkit.vspace import SpaceDescriptor, VectorValue, coordinate_functionals, zero

SPACE2 = SpaceDescriptor(2, "l2")
SPACE4 = SpaceDescriptor(4, "l2")


# ---------------------------------------------------------------------------
# step integrals


def test_step_integral_single_piece():
    x = VectorValue([2, -1j], SPACE2)
    s = StepFunction((StepPiece(((0.0, 0.5),), x),))
    assert step_integral(s) == 0.5 * x


def test_step_integral_refinement_invariance():
    x = VectorValue([1, 3], SPACE2)
    whole = StepFunction((StepPiece(((0.0, 1.0),), x),))
    # binary-representable cut: the piece measures add exactly
    split = StepFunction((StepPiece(((0.0, 0.25),), x), StepPiece(((0.25, 1.0),), x)))
    assert step_integral(whole) == step_integral(split)
    # generic cut: identical up to one rounding of the measures
    generic = StepFunction((StepPiece(((0.0, 0.3),), x), StepPiece(((0.3, 1.0),), x)))
    assert (step_integral(whole) - step_integral(generic)).norm() <= 1e-15 * x.norm()


@settings(max_examples=60, deadline=None)
@given(cut=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       re=st.floats(-5, 5), im=st.floats(-5, 5))
def test_step_integral_refinement_invariance_random_cut(cut, re, im):
    x = VectorValue([complex(re, im)], SpaceDescriptor(1, "l2"))
    whole = step_integral(StepFunction((StepPiece(((0.0, 1.0),), x),)))
    split = step_integral(StepFunction((StepPiece(((0.0, cut),), x),
                                        StepPiece(((cut, 1.0),), x))))
    assert (whole - split).norm() <= 1e-15 * (1 + whole.norm())


def test_step_integral_cancellation():
    x = VectorValue([1, 2], SPACE2)
    s = StepFunction((StepPiece(((0.0, 1.0),), x), StepPiece(((2.0, 3.0),), -1 * x)))
    assert step_integral(s) == zero(SPACE2)


def test_step_integral_counting_measure():
    x = VectorValue([1.0], SpaceDescriptor(1, "l2"))
    s = StepFunction((StepPiece(((0, 4),), x),), measure=MEASURE_COUNTING)
    assert step_integral(s).coords[0] == 5  # indices 0..4


def test_step_integral_rejects_overlap_and_infinite():
    x = VectorValue([1], SpaceDescriptor(1, "l2"))
    with pytest.raises(ValueError):
        StepFunction((StepPiece(((0.0, 1.0),), x), StepPiece(((0.5, 2.0),), x)))
    with pytest.raises(ValueError):
        StepFunction((StepPiece(((0.0, math.inf),), x),))


# ---------------------------------------------------------------------------
# adaptive quadrature


def test_constant_is_exact():
    c = VectorValue([2, 3 - 1j], SPACE2)
    res = adaptive_quadrature(lambda t: c, (0.0, 1.0))
    assert (res.value - c).norm() <= 1e-15 * c.norm()  # one rounding of the weights
    assert res.err_estimate <= 1e-15 * c.norm()


def test_linear_monomial():
    res = adaptive_quadrature(lambda t: VectorValue([t], SpaceDescriptor(1, "l2")), (0.0, 1.0))
    assert res.value.coords[0] == pytest.approx(0.5, abs=1e-14)


def test_polynomial_exactness_rounding_level():
    # degree <= 13 is integrated by a single panel pair up to rounding
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(14)
    exact = sum(c / (k + 1) for k, c in enumerate(coeffs))

    def f(t):
        return VectorValue([np.polynomial.polynomial.polyval(t, coeffs)], SpaceDescriptor(1, "l2"))

    res = adaptive_quadrature(f, (0.0, 1.0))
    assert res.err_estimate <= 1e-13
    assert res.value.coords[0] == pytest.approx(exact, rel=1e-13)


def test_log_boundary_substitution_near_singularity():
    cfg = QuadratureConfig(substitution=SUBSTITUTION_LOG_BOUNDARY)
    val, err, _ = quad_scalar(lambda t: 1.0 / (1.0 - t), (0.0, 0.9), cfg)
    assert val.real == pytest.approx(-math.log(0.1), rel=1e-12)
    assert err <= cfg.tol


def test_norm_integral_honours_the_log_boundary_substitution():
    # without the substitution the 1/(1-t) blow-up at the right end forces
    # deep bisection; with it the integrand is flat and a few panels suffice
    cfg = QuadratureConfig(substitution=SUBSTITUTION_LOG_BOUNDARY)
    calls = []

    def f(t):
        calls.append(t)
        if len(calls) > 1000:
            raise RuntimeError("evaluation budget exhausted")
        return VectorValue([1.0 / (1.0 - t), 0.0], SPACE2)

    value = norm_integral(f, (0.0, 1.0 - 2.0**-20), cfg)
    assert value == pytest.approx(20.0 * math.log(2.0), abs=1e-9)


def test_against_scipy_oracle():
    for f, a, b in [
        (lambda t: math.exp(t) * math.cos(3 * t), 0.0, 2.0),
        (lambda t: 1.0 / (1.0 + t * t), -1.0, 4.0),
        (lambda t: t**0.5 * math.sin(t), 0.0, 3.0),
    ]:
        expected, _ = scipy_quad(f, a, b, epsabs=1e-12, epsrel=1e-12)
        got, err, _ = quad_scalar(lambda t: complex(f(t)), (a, b), QuadratureConfig(tol=1e-10))
        assert got.real == pytest.approx(expected, abs=1e-9)


def test_max_depth_raises_quadrature_error():
    cfg = QuadratureConfig(tol=1e-12, max_depth=2)

    def nasty(t):
        return VectorValue([abs(t - 0.123456) ** -0.5 if t != 0.123456 else 1e8],
                           SpaceDescriptor(1, "l2"))

    with pytest.raises(QuadratureError) as err:
        adaptive_quadrature(nasty, (0.0, 1.0), cfg)
    assert err.value.worst_interval is not None


def test_norm_bound_property_on_random_polynomials():
    # ||integral f|| <= integral ||f|| on vector polynomial integrands
    rng = np.random.default_rng(17)
    for _ in range(50):
        coeffs = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))

        def f(t):
            return VectorValue(np.polynomial.polynomial.polyval(t, coeffs.T), SPACE4)

        lhs = adaptive_quadrature(f, (0.0, 1.0)).value.norm()
        rhs = norm_integral(f, (0.0, 1.0))
        assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_scalar_times_fixed_vector_commutes_exactly():
    # integral of g(t) x must equal (integral g) x; exact for binary-scaled x
    x = VectorValue([1.0, -2.0, 0.5, 1j], SPACE4)

    def g(t):
        return math.sin(t) + 2.0

    def f(t):
        return g(t) * x

    vec = adaptive_quadrature(f, (0.0, 1.5)).value
    scalar, _, _ = quad_scalar(lambda t: complex(g(t)), (0.0, 1.5))
    assert np.array_equal(vec.coords, scalar * x.coords)


# ---------------------------------------------------------------------------
# weak integral


def test_weak_integral_constant_passes_exactly():
    x = VectorValue([1, 2, 3, 4], SPACE4)
    candidate = 0.75 * x
    checks = weak_integral_check(lambda t: x, (0.0, 0.75), candidate,
                                 coordinate_functionals(SPACE4))
    assert all(c.passed for c in checks)
    assert max(c.difference for c in checks) <= 1e-14


def test_weak_integral_detects_injected_perturbation():
    x = VectorValue([1, 2, 3, 4], SPACE4)
    candidate = VectorValue(x.coords * 0.75 + np.array([1e-3, 0, 0, 0]), SPACE4)
    cfg = QuadratureConfig(tol=1e-6)
    checks = weak_integral_check(lambda t: x, (0.0, 0.75), candidate,
                                 coordinate_functionals(SPACE4), cfg)
    assert not checks[0].passed
    assert all(c.passed for c in checks[1:])


def test_weak_integral_moments():
    space = SpaceDescriptor(2, "l2")

    def f(t):
        return VectorValue([t, t * t], space)

    candidate = VectorValue([0.5, 1.0 / 3.0], space)
    checks = weak_integral_check(f, (0.0, 1.0), candidate, coordinate_functionals(space))
    assert all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# operator commutation


def test_commute_identity_trivial():
    def f(t):
        return VectorValue([t, math.exp(t)], SPACE2)

    check = operator_commutation_check(np.eye(2), f, (0.0, 1.0))
    assert check.passed
    assert check.deviation <= 1e-12


def test_commute_projection_picks_half():
    P = np.array([[1.0, 0.0], [0.0, 0.0]])

    def f(t):
        return VectorValue([t, math.exp(t)], SPACE2)

    check = operator_commutation_check(P, f, (0.0, 1.0))
    assert check.passed
    assert check.lhs.coords[0] == pytest.approx(0.5, abs=1e-12)
    assert check.lhs.coords[1] == 0.0


def test_commute_random_operator_polynomial():
    rng = np.random.default_rng(23)
    for _ in range(20):
        T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        coeffs = rng.standard_normal((4, 4))

        def f(t):
            return VectorValue(np.polynomial.polynomial.polyval(t, coeffs.T), SPACE4)

        check = operator_commutation_check(T, f, (0.0, 1.0), QuadratureConfig(tol=1e-10))
        assert check.passed
