"""Vector-valued integration: step functions, adaptive quadrature, weak checks.

The adaptive engine bisects panels and estimates each panel's error from the
difference between a 7-point Gauss-Legendre value on the panel and the sum of
the same rule on its two halves (polynomial exactness degree 13).  Panels are
accepted against a length-proportional share of the global tolerance, so the
total error estimate is <= cfg.tol.

Integrands with the 1/(1-t) boundary blow-up are handled by the log-boundary
substitution u = -log(1-t), which makes the transformed integrand bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import roots_legendre

from .vspace import SCALAR, LinearFunctional, SpaceDescriptor, VectorValue, space_norm

SUBSTITUTION_NONE = "none"
SUBSTITUTION_LOG_BOUNDARY = "log_boundary"

_GL_ORDER = 7
_GL_X, _GL_W = roots_legendre(_GL_ORDER)


class QuadratureError(RuntimeError):
    """Adaptive refinement failed; carries the worst panel seen."""

    def __init__(self, message, worst_interval=None, estimate=None):
        super().__init__(message)
        self.worst_interval = worst_interval
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10
    max_depth: int = 50
    substitution: str = SUBSTITUTION_NONE

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.substitution not in (SUBSTITUTION_NONE, SUBSTITUTION_LOG_BOUNDARY):
            raise ValueError(f"unknown substitution {self.substitution!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: VectorValue
    err_estimate: float
    evaluations: int


def _panel(fbatch, a: float, b: float) -> np.ndarray:
    """7-point Gauss-Legendre value of a batch integrand on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = fbatch(mid + half * _GL_X)  # shape (7, d)
    return half * (_GL_W @ vals)


def _adaptive(fbatch, a: float, b: float, tol: float, max_depth: int):
    """Adaptive bisection; returns (value array, err_estimate, evaluations)."""
    total_len = b - a
    if total_len == 0.0:
        probe = fbatch(np.asarray([a]))
        return np.zeros(probe.shape[1], dtype=complex), 0.0, 1
    # Stack entries: (a, b, depth, coarse value for the panel).
    stack = [(a, b, 0, _panel(fbatch, a, b))]
    evaluations = _GL_ORDER
    acc = None
    err_total = 0.0
    while stack:
        lo, hi, depth, coarse = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(fbatch, lo, mid)
        right = _panel(fbatch, mid, hi)
        evaluations += 2 * _GL_ORDER
        fine = left + right
        err = float(np.max(np.abs(fine - coarse))) if fine.size else 0.0
        budget = tol * (hi - lo) / total_len
        if err <= budget or (hi - lo) <= 1e-15 * total_len:
            acc = fine if acc is None else acc + fine
            err_total += err
        elif depth >= max_depth:
            raise QuadratureError(
                f"max depth {max_depth} exceeded on [{lo}, {hi}] (estimate {err:.3e})",
                worst_interval=(lo, hi),
                estimate=err,
            )
        else:
            stack.append((mid, hi, depth + 1, right))
            stack.append((lo, mid, depth + 1, left))
    return acc, err_total, evaluations


def _log_boundary_wrap(fbatch, a: float, b: float):
    """Map [a, b] in [0, 1) to u-space via u = -log(1-t)."""
    if not (0.0 <= a <= b < 1.0):
        raise ValueError("log-boundary substitution needs [a, b] inside [0, 1)")
    ua = -math.log1p(-a)
    ub = -math.log1p(-b)

    def gbatch(us: np.ndarray) -> np.ndarray:
        eu = np.exp(-us)
        ts = 1.0 - eu
        return fbatch(ts) * eu[:, None]

    return gbatch, ua, ub


def adaptive_quadrature_batch(
    fbatch: Callable[[np.ndarray], np.ndarray],
    interval,
    cfg: QuadratureConfig,
    space: SpaceDescriptor,
) -> QuadratureResult:
    """Integrate a batch integrand ts -> (len(ts), dim) array componentwise."""
    a, b = float(interval[0]), float(interval[1])
    if b < a:
        raise ValueError(f"empty interval [{a}, {b}]")
    if cfg.substitution == SUBSTITUTION_LOG_BOUNDARY:
        fbatch, a, b = _log_boundary_wrap(fbatch, a, b)
    arr, err, n = _adaptive(fbatch, a, b, cfg.tol, cfg.max_depth)
    return QuadratureResult(VectorValue(arr, space), err, n)


def _batch_from_pointwise(f: Callable[[float], VectorValue]):
    def fbatch(ts: np.ndarray) -> np.ndarray:
        return np.stack([f(float(t)).coords for t in ts])

    return fbatch


def adaptive_quadrature(
    f: Callable[[float], VectorValue],
    interval,
    cfg: QuadratureConfig = QuadratureConfig(),
    space: SpaceDescriptor | None = None,
) -> QuadratureResult:
    """Componentwise adaptive quadrature of a vector-valued integrand."""
    if space is None:
        space = f(float(interval[0])).space
    return adaptive_quadrature_batch(_batch_from_pointwise(f), interval, cfg, space)


def quad_scalar(g: Callable[[float], complex], interval, cfg: QuadratureConfig = QuadratureConfig()):
    """Adaptive quadrature of a complex scalar integrand; returns (value, err, evals)."""

    def fbatch(ts: np.ndarray) -> np.ndarray:
        return np.asarray([complex(g(float(t))) for t in ts], dtype=complex)[:, None]

    res = adaptive_quadrature_batch(fbatch, interval, cfg, SCALAR)
    return complex(res.value.coords[0]), res.err_estimate, res.evaluations


# ---------------------------------------------------------------------------
# Step functions

MEASURE_LEBESGUE = "lebesgue"
MEASURE_COUNTING = "counting"


@dataclass(frozen=True)
class StepPiece:
    """A value on a finite union of disjoint intervals (or index ranges)."""

    support: tuple  # tuple of (lo, hi) pairs
    value: VectorValue


@dataclass(frozen=True)
class StepFunction:
    pieces: tuple
    measure: str = MEASURE_LEBESGUE

    def __post_init__(self):
        intervals = []
        for piece in self.pieces:
            for lo, hi in piece.support:
                if hi < lo:
                    raise ValueError(f"backwards interval ({lo}, {hi})")
                if math.isinf(lo) or math.isinf(hi):
                    raise ValueError("infinite-measure piece rejected")
                intervals.append((float(lo), float(hi)))
        intervals.sort()
        for (a0, b0), (a1, _) in zip(intervals, intervals[1:]):
            if a1 < b0:
                raise ValueError(f"overlapping supports near ({a1}, {b0})")


def _piece_measure(piece: StepPiece, measure: str) -> float:
    total = 0.0
    for lo, hi in piece.support:
        if measure == MEASURE_COUNTING:
            total += math.floor(hi) - math.ceil(lo) + 1  # integer points in [lo, hi]
        else:
            total += hi - lo
    return total


def step_integral(s: StepFunction) -> VectorValue:
    """Exact integral sum_j mu(E_j) x_j; independent of the representation."""
    if not s.pieces:
        raise ValueError("step function with no pieces")
    space = s.pieces[0].value.space
    acc = np.zeros(space.dim, dtype=complex)
    for piece in s.pieces:
        if piece.value.space != space:
            raise ValueError("mixed spaces in step function")
        acc = acc + _piece_measure(piece, s.measure) * piece.value.coords
    return VectorValue(acc, space)


# ---------------------------------------------------------------------------
# Weak-integral and operator-commutation checks


@dataclass(frozen=True)
class FunctionalCheck:
    index: int
    integral: complex   # quadrature of phi o f
    pairing: complex    # phi(candidate)
    difference: float
    passed: bool


def weak_integral_check(
    f: Callable[[float], VectorValue],
    interval,
    candidate: VectorValue,
    functionals: Sequence[LinearFunctional],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> list[FunctionalCheck]:
    """Compare quad(phi o f) with phi(candidate) for each functional.

    PASS iff |difference| <= cfg.tol * (1 + |phi(candidate)|).
    """
    fbatch = _batch_from_pointwise(f)
    reports = []
    for idx, phi in enumerate(functionals):
        if phi.dim != candidate.dim:
            raise ValueError("functional dimension mismatch")

        def gbatch(ts: np.ndarray, _phi=phi) -> np.ndarray:
            vals = fbatch(ts)
            return (vals @ _phi.weights)[:, None]

        lhs = complex(adaptive_quadrature_batch(gbatch, interval, cfg, SCALAR).value.coords[0])
        rhs = phi(candidate)
        diff = abs(lhs - rhs)
        reports.append(FunctionalCheck(idx, lhs, rhs, diff, diff <= cfg.tol * (1.0 + abs(rhs))))
    return reports


@dataclass(frozen=True)
class CommuteCheck:
    passed: bool
    lhs: VectorValue    # T(integral of f)
    rhs: VectorValue    # integral of T o f
    deviation: float


def operator_commutation_check(
    T: np.ndarray,
    f: Callable[[float], VectorValue],
    interval,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> CommuteCheck:
    """Verify T(integral f) = integral (T o f) within cfg.tol."""
    T = np.asarray(T, dtype=complex)
    probe = f(float(interval[0]))
    space = probe.space
    if T.shape != (space.dim, space.dim):
        raise ValueError(f"operator shape {T.shape} incompatible with dim {space.dim}")

    integral = adaptive_quadrature(f, interval, cfg, space)
    lhs = VectorValue(T @ integral.value.coords, space)

    def tf(t: float) -> VectorValue:
        return VectorValue(T @ f(t).coords, space)

    rhs = adaptive_quadrature(tf, interval, cfg, space)
    deviation = (lhs - rhs.value).norm()
    passed = deviation <= cfg.tol * (1.0 + lhs.norm())
    return CommuteCheck(passed, lhs, rhs.value, deviation)


def norm_integral(
    f: Callable[[float], VectorValue],
    interval,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Quadrature of t -> ||f(t)||; used for the norm-bound contract."""
    probe = f(float(interval[0]))
    tag = probe.space.norm_tag

    def fbatch(ts: np.ndarray) -> np.ndarray:
        return np.asarray(
            [space_norm(f(float(t)).coords, tag) for t in ts], dtype=complex
        )[:, None]

    return float(adaptive_quadrature_batch(fbatch, interval, cfg, SCALAR).value.coords[0].real)
