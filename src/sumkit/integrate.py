"""Vector-valued integration: step functions, adaptive quadrature, weak checks.

The adaptive engine bisects panels and estimates each panel's error from the
difference between a 7-point Gauss-Legendre value on the panel and the sum of
the same rule on its two halves (polynomial exactness degree 13).  Panels are
accepted against a length-proportional share of the global tolerance, so the
total error estimate is <= cfg.tol.  Refinement is level-synchronous: every
panel still pending at one bisection depth is evaluated in a single integrand
call, and accepted panels are summed left to right, so the result equals a
depth-first refinement of the same panel tree bit for bit.  A budget of
_MAX_EVALUATIONS integrand evaluations bounds the work (and so the memory of a
level), as QUADPACK's subinterval ``limit`` does: a level that would exceed it
raises QuadratureError naming the failed panel with the largest error at the
last evaluated level, whose halves were pending.

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
# about 200x the largest count any shipped config, test or benchmark round uses
_MAX_EVALUATIONS = 100_000


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
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.substitution not in (SUBSTITUTION_NONE, SUBSTITUTION_LOG_BOUNDARY):
            raise ValueError(f"unknown substitution {self.substitution!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: VectorValue
    err_estimate: float
    evaluations: int


def _panels(fbatch, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """7-point Gauss-Legendre values of a batch integrand on the panels [lo_i, hi_i].

    One integrand call on all 7 n nodes; ``matmul`` reduces each panel's 7
    rows exactly as ``_GL_W @ vals`` does for that panel alone, so row i does
    not depend on which other panels share the call.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = fbatch((mid[:, None] + half[:, None] * _GL_X).ravel())  # shape (7 n, d)
    return half[:, None] * np.matmul(_GL_W, vals.reshape(len(lo), _GL_ORDER, vals.shape[1]))


def _adaptive(fbatch, a: float, b: float, tol: float, max_depth: int,
              max_evaluations: int = _MAX_EVALUATIONS):
    """Adaptive bisection; returns (value array, err_estimate, evaluations).

    Level-synchronous: each level bisects every pending panel and evaluates
    all the halves in one integrand call (the first call also evaluates the
    root panel itself).  Accepted panels are summed in order of increasing
    left endpoint, which is the order a depth-first search of the same panel
    tree accepts them in, so value, error and evaluation count do not depend
    on the traversal.  A level that would take the count past
    ``max_evaluations`` is not evaluated: the error names the failed panel
    with the largest error at the last evaluated level, whose halves were
    pending (the root, with no estimate, if the first call does not fit).
    """
    total_len = b - a
    if total_len == 0.0:
        probe = fbatch(np.asarray([a]))
        return np.zeros(probe.shape[1], dtype=complex), 0.0, 1
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    evaluations = 0
    worst = (a, b), None  # worst failed panel of the last level (none yet: the root)
    accepted = []  # (left endpoints, panel values, errors), one triple per level
    for depth in range(max_depth + 1):
        cost = _GL_ORDER * (2 * len(lo) + (depth == 0))
        if evaluations + cost > max_evaluations:
            (wlo, whi), west = worst
            raise QuadratureError(
                f"evaluation budget {max_evaluations} exhausted with {len(lo)} panels "
                f"pending; worst failed panel [{wlo}, {whi}]"
                + ("" if west is None else f" (estimate {west:.3e})"),
                worst_interval=(wlo, whi),
                estimate=west,
            )
        ends = np.array((lo, 0.5 * (lo + hi), hi)).T  # row i: lo, mid, hi of panel i
        panels_lo, panels_hi = ends[:, :2].ravel(), ends[:, 1:].ravel()
        if depth == 0:  # the root's own value comes from the same call
            panels_lo, panels_hi = np.concatenate((lo, panels_lo)), np.concatenate((hi, panels_hi))
        vals = _panels(fbatch, panels_lo, panels_hi)
        evaluations += cost
        if depth == 0:
            coarse, vals = vals[:1], vals[1:]
        halves = vals.reshape(len(lo), 2, -1)
        fine = halves[:, 0] + halves[:, 1]
        err = np.abs(fine - coarse).max(axis=1, initial=0.0)
        width = hi - lo
        ok = (err <= tol * width / total_len) | (width <= 1e-15 * total_len)
        bad = (~ok).nonzero()[0]
        if not bad.size and depth == 0:  # the root panel is accepted
            return fine[0], float(err[0]), evaluations
        accepted.append((lo[ok], fine[ok], err[ok]))
        if not bad.size:
            break
        if depth >= max_depth:
            i = bad[0]  # left-most, as a depth-first search would meet it
            raise QuadratureError(
                f"max depth {max_depth} exceeded on [{lo[i]}, {hi[i]}] (estimate {err[i]:.3e})",
                worst_interval=(float(lo[i]), float(hi[i])),
                estimate=float(err[i]),
            )
        i = bad[np.argmax(err[bad])]
        worst = (float(lo[i]), float(hi[i])), float(err[i])
        lo, hi = ends[bad, :2].ravel(), ends[bad, 1:].ravel()
        coarse = halves[bad].reshape(2 * bad.size, -1)
    starts, values, errs = (np.concatenate(parts) for parts in zip(*accepted))
    order = starts.argsort(kind="stable")
    # cumsum folds left to right, one addition at a time
    return values[order].cumsum(axis=0)[-1], float(errs[order].cumsum()[-1]), evaluations


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
