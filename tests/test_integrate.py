"""Quadrature, step integrals, weak-integral and commutation contracts."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import roots_legendre

import sumkit
from sumkit import integrate
from sumkit.integrate import (
    MEASURE_COUNTING,
    MEASURE_LEBESGUE,
    QuadratureConfig,
    QuadratureError,
    SUBSTITUTION_LOG_BOUNDARY,
    StepFunction,
    StepPiece,
    _adaptive,
    _adaptive_family,
    _log_boundary_ends,
    _log_boundary_integrand,
    adaptive_quadrature,
    adaptive_quadrature_family,
    operator_commutation_check,
    norm_integral,
    quad_scalar,
    step_integral,
    weak_integral_check,
)
from sumkit.methods import logarithmic_method
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
    for supports, measure in [
        ((((0.0, 1.0),), ((0.5, 2.0),)), MEASURE_LEBESGUE),
        ((((0.0, math.inf),),), MEASURE_LEBESGUE),
        ((((0.0, math.nan),),), MEASURE_LEBESGUE),
        ((((math.nan, 1.0),),), MEASURE_COUNTING),
        # closed index ranges that share the integer 1 would count it twice
        ((((0, 1),), ((1, 2),)), MEASURE_COUNTING),
        ((((1, 1),), ((1, 1),)), MEASURE_COUNTING),
    ]:
        with pytest.raises(ValueError):
            StepFunction(tuple(StepPiece(support, x) for support in supports), measure)
    # Lebesgue pieces may touch, and counting pieces may touch off the integers
    StepFunction((StepPiece(((0.0, 1.0),), x), StepPiece(((1.0, 2.0),), x)))
    whole = step_integral(StepFunction((StepPiece(((0, 3),), x),), MEASURE_COUNTING))
    for split in [(((0, 1),), ((2, 3),)), (((0, 1.5),), ((1.5, 3),))]:
        pieces = tuple(StepPiece(support, x) for support in split)
        assert step_integral(StepFunction(pieces, MEASURE_COUNTING)) == whole  # n = 0..3


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


def test_a_pointwise_integrand_is_read_at_the_nodes_alone():
    # (t^(-1/2), 1) is integrable on [0, 1] but cannot be read at t = 0
    nodes = []

    def f(t):
        nodes.append(t)
        return VectorValue([t**-0.5, 1.0], SPACE2)

    value = adaptive_quadrature(f, (0.0, 1.0)).value
    assert value.space == SPACE2
    assert np.allclose(value.coords, [2.0, 1.0], rtol=0, atol=1e-8)
    assert 0.0 < min(nodes) and max(nodes) < 1.0
    # ||f(t)|| = sqrt(1/t + 1), whose integral is sqrt(2) + asinh(1)
    assert norm_integral(f, (0.0, 1.0)) == pytest.approx(math.sqrt(2) + math.asinh(1), abs=1e-8)
    T = np.array([[1.0, 2.0], [0.0, 1j]])
    check = operator_commutation_check(T, f, (0.0, 1.0))
    assert check.passed
    assert np.allclose(check.lhs.coords, T @ [2.0, 1.0], rtol=0, atol=1e-8)
    with pytest.raises(ValueError, match="operator shape"):
        operator_commutation_check(np.eye(3), f, (0.0, 1.0))


def test_an_empty_interval_is_read_at_no_node():
    calls = []

    def fbatch(ts):
        calls.append(len(ts))
        return np.zeros((len(ts), 3), dtype=complex)

    value, err, evaluations = _adaptive(fbatch, 0.5, 0.5, 1e-10)
    assert calls == [0]
    assert np.array_equal(value, np.zeros(3)) and (err, evaluations) == (0.0, 0)
    assert quad_scalar(lambda t: 1 / t, (0.0, 0.0)) == (0j, 0.0, 0)


@pytest.mark.parametrize("interval", [(0.0, math.inf), (0.0, math.nan), (-math.inf, 0.0)],
                         ids=["right-inf", "right-nan", "left-inf"])
def test_a_non_finite_interval_end_is_rejected_before_any_node_is_read(interval):
    nodes = []

    def g(t):
        nodes.append(t)
        return math.exp(-t)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite interval end"):
            quad_scalar(g, interval)
        with pytest.raises(ValueError, match="non-finite interval end"):
            adaptive_quadrature_family(lambda ts, owner: nodes.extend(ts),
                                       [(0.0, 1.0), interval], QuadratureConfig())
    assert nodes == []


def test_against_scipy_oracle():
    for f, a, b in [
        (lambda t: math.exp(t) * math.cos(3 * t), 0.0, 2.0),
        (lambda t: 1.0 / (1.0 + t * t), -1.0, 4.0),
        (lambda t: t**0.5 * math.sin(t), 0.0, 3.0),
    ]:
        expected, _ = scipy_quad(f, a, b, epsabs=1e-12, epsrel=1e-12)
        got, err, _ = quad_scalar(lambda t: complex(f(t)), (a, b), QuadratureConfig(tol=1e-10))
        assert got.real == pytest.approx(expected, abs=1e-9)


def _cusp_at(c, weight=1.0):
    return lambda ts: weight * np.abs(ts - c) ** 0.5 + 0j


def test_width_floor_ends_refinement_at_level_50():
    calls = []

    def cusp(ts):
        calls.append(len(ts))
        return _cusp_at(0.3)(ts)[:, None]

    value, err, evaluations = _adaptive(cusp, 0.0, 1.0, 1e-14)
    # one call per level 0..50: a level-50 panel, 2^-50 wide, is under the 1e-15 floor
    assert len(calls) == 51
    assert value[0] == 0.49998585721693506
    assert evaluations == 21049


def test_evaluation_budget_raises_with_the_worst_failed_panel():
    nodes = []
    # a weak cusp at 1000.123456 and a strong one at 1000.7; near 1e3 the floats
    # are too coarse for the width floor, so only the budget ends refinement
    weak, strong = _cusp_at(1000.123456), _cusp_at(1000.7, 1e3)

    def cusps(ts):
        nodes.extend(ts)
        return (weak(ts) + strong(ts))[:, None]

    with pytest.raises(QuadratureError) as err:
        _adaptive(cusps, 1e3, 1e3 + 1.0, 1e-14)
    assert f"evaluation budget {integrate._MAX_EVALUATIONS} exhausted" in str(err.value)
    # the named panel failed at the last evaluated level with the largest
    # error there, which is the strong cusp's
    lo, hi = err.value.worst_interval
    assert lo <= 1000.7 <= hi and hi - lo < 1e-3
    assert err.value.estimate > 0
    # the level that would pass the budget is never evaluated
    assert len(nodes) <= integrate._MAX_EVALUATIONS


# ---------------------------------------------------------------------------
# level-synchronous refinement against depth-first refinement

_GL_X, _GL_W = roots_legendre(7)


def _depth_first_panel(fbatch, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = fbatch(mid + half * _GL_X)
    return half * (_GL_W @ vals)


def _depth_first_adaptive(fbatch, a, b, tol):
    """Reference: depth-first refinement, one panel per integrand call."""
    total_len = b - a
    stack = [(a, b, _depth_first_panel(fbatch, a, b))]
    evaluations = 7
    acc = None
    err_total = 0.0
    while stack:
        lo, hi, coarse = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _depth_first_panel(fbatch, lo, mid)
        right = _depth_first_panel(fbatch, mid, hi)
        evaluations += 14
        fine = left + right
        err = float(np.max(np.abs(fine - coarse))) if fine.size else 0.0
        budget = tol * (hi - lo) / total_len
        if err <= budget or (hi - lo) <= 1e-15 * total_len:
            acc = fine if acc is None else acc + fine
            err_total += err
        else:
            stack.append((mid, hi, right))
            stack.append((lo, mid, left))
    return acc, err_total, evaluations


def _log_kernel_substituted(r):
    kernel = logarithmic_method().kernel_batch
    return (_log_boundary_integrand(lambda ts: kernel(r, ts)[:, None]),
            *_log_boundary_ends(0.0, r))


_SQRT_NODES = []


def _sqrt_recording(ts):
    _SQRT_NODES.extend(ts)
    return np.sqrt(ts)[:, None]


@pytest.mark.parametrize("fbatch, a, b, tol", [
    (lambda ts: (np.exp(ts) * np.cos(3.0 * ts))[:, None], 0.0, 2.0, 1e-12),
    (lambda ts: np.column_stack([np.sin(ts), np.exp(1j * ts), 1.0 / (1.0 + ts * ts),
                                 np.abs(ts - 0.4) ** 1.5 * (1 - 2j)]), -1.0, 4.0, 1e-10),
    (*_log_kernel_substituted(1.0 - 2.0**-20), 1e-10),
    (_sqrt_recording, 0.0, 1.0, 1e-12),
], ids=["smooth-scalar", "C4-valued", "log-kernel-r=1-2^-20", "sqrt-deep"])
def test_level_synchronous_refinement_is_bit_identical_to_depth_first(fbatch, a, b, tol):
    _SQRT_NODES.clear()
    value, err, evaluations = _adaptive(fbatch, a, b, tol)
    # sqrt's cusp at 0 drives the left-most panel to depth >= 10
    assert fbatch is not _sqrt_recording or min(_SQRT_NODES) < 2.0**-10
    expected = _depth_first_adaptive(fbatch, a, b, tol)
    assert np.array_equal(value, expected[0])
    assert value.dtype == expected[0].dtype
    assert err == expected[1]
    assert evaluations == expected[2]


def test_gauss_legendre_literals_are_scipys_rule():
    assert np.array_equal(integrate._GL_X, _GL_X)
    assert np.array_equal(integrate._GL_W, _GL_W)


def test_import_loads_no_scipy():
    code = "import sys, sumkit; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    path = os.pathsep.join([str(Path(sumkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# one engine over a family of integrals


def _family(funcs):
    """A family integrand dispatching each owner's nodes to funcs[owner]; logs every call."""
    calls = []

    def fbatch(ts, owner):
        calls.append(owner)
        out = np.empty((len(ts), 1), dtype=complex)
        for k in np.unique(owner):
            out[owner == k, 0] = funcs[k](ts[owner == k])
        return out

    return fbatch, calls


def _lone(f):
    return lambda ts: f(ts)[:, None]


def test_family_integrals_equal_lone_runs_while_some_fail():
    tol = 1e-13
    cases = [  # (integrand, a, b, how its lone run ends)
        (lambda ts: np.exp(ts) * np.cos(3.0 * ts) + 0j, 0.0, 2.0, "value"),
        (_cusp_at(1000.3), 1e3, 1e3 + 1.0, "budget"),
        (_cusp_at(0.3), 0.0, 1.0, "value"),
        (lambda ts: np.cos(ts) + 0j, 0.5, 0.5, "value"),  # a point: no mass
        (lambda ts: 1.0 / (1.0 + ts * ts) + 0j, -1.0, 4.0, "value"),
    ]
    fbatch, calls = _family([f for f, _, _, _ in cases])
    outs = _adaptive_family(fbatch, [a for _, a, _, _ in cases], [b for _, _, b, _ in cases], tol)
    assert all((np.diff(owner) >= 0).all() for owner in calls)
    levels = []
    for (f, a, b, ends), out in zip(cases, outs):
        lone_calls = []
        lone = lambda ts, f=f: lone_calls.append(len(ts)) or _lone(f)(ts)
        if ends == "value":
            expected = _adaptive(lone, a, b, tol)
            assert np.array_equal(out[0], expected[0]) and out[1:] == expected[1:]
            if a < b:
                expected = _depth_first_adaptive(_lone(f), a, b, tol)
                assert np.array_equal(out[0], expected[0])
                assert out[1:] == expected[1:]
        else:
            assert isinstance(out, QuadratureError) and ends in str(out)
            with pytest.raises(QuadratureError) as expected:
                _adaptive(lone, a, b, tol)
            assert str(out) == str(expected.value)
            assert out.worst_interval == expected.value.worst_interval
            assert out.estimate == expected.value.estimate
        levels.append(len(lone_calls))
    # one call for the point, then one per level of the longest run
    assert len(calls) == 1 + max(levels)


def test_no_integrand_call_exceeds_the_node_cap():
    # ten fast oscillations: a level of the family holds more than the cap
    funcs = [lambda ts, w=w: np.sin(w * ts) + 0j for w in range(2000, 2010)]
    fbatch, calls = _family(funcs)
    outs = _adaptive_family(fbatch, [0.0] * 10, [1.0] * 10, 1e-12)
    levels = []
    for f, out in zip(funcs, outs):
        lone_calls = []
        value, err, evaluations = _adaptive(
            lambda ts, f=f: lone_calls.append(len(ts)) or _lone(f)(ts), 0.0, 1.0, 1e-12)
        assert np.array_equal(out[0], value) and out[1:] == (err, evaluations)
        levels.append(len(lone_calls))
    assert max(len(owner) for owner in calls) <= integrate._MAX_EVALUATIONS
    assert len(calls) > max(levels)  # some level was split into consecutive calls


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
