"""Index domains with compact exhaustions, and limit detection at infinity.

Two domain shapes are supported: the discrete naturals, and half-open
intervals [0, R) with R finite or infinite.  Both come with a canonical
increasing exhaustion by compact windows and a geometric grid of sample
points marching toward the boundary / infinity.

An exact limit at infinity is not computable from finitely many samples, so
the estimator reports three-valued outcomes (converged / diverged /
inconclusive) from a Cauchy-window heuristic, with a residual and an
oscillation flag as diagnostics.  ``decay_verdict`` is the one grid judge
of whether a path tends to 0, for the regularity and Taylor verdicts alike.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .vspace import VectorValue, space_norm

CONVERGED = "converged"
DIVERGED = "diverged"
INCONCLUSIVE = "inconclusive"  # the one undecided verdict of every module


@dataclass(frozen=True)
class DiscreteNat:
    """The index set {0, 1, 2, ...} with the discrete topology."""

    def __repr__(self) -> str:
        return "DiscreteNat()"


@dataclass(frozen=True)
class HalfOpenInterval:
    """The interval [0, right) with 0 < right <= inf."""

    right: float = 1.0

    def __post_init__(self):
        if not self.right > 0:
            raise ValueError(f"right end must be positive, got {self.right}")


IndexDomain = Union[DiscreteNat, HalfOpenInterval]

NAT = DiscreteNat()
UNIT_INTERVAL = HalfOpenInterval(1.0)
HALF_LINE = HalfOpenInterval(math.inf)


@dataclass(frozen=True)
class CompactWindow:
    """For DiscreteNat: indices {0,...,hi}; for intervals: [0, hi]."""

    domain: IndexDomain
    hi: float

    def contains(self, t) -> bool:
        return 0 <= t <= self.hi


def exhaustion(domain: IndexDomain, n: int) -> CompactWindow:
    """n-th window of the canonical compact exhaustion (strictly increasing)."""
    if n < 0:
        raise ValueError("exhaustion index must be >= 0")
    if isinstance(domain, DiscreteNat):
        return CompactWindow(domain, n)
    if math.isinf(domain.right):
        return CompactWindow(domain, 2.0**n)
    return CompactWindow(domain, domain.right * (1.0 - 2.0 ** -(n + 1)))


def _deepest(domain: IndexDomain) -> float:
    """The deepest grid depth whose last point is still inside the domain (inf on the naturals)."""
    if isinstance(domain, DiscreteNat):
        return math.inf
    if math.isinf(domain.right):
        return sys.float_info.max_exp - 1  # 2^1023: 2.0**1024 overflows
    k = 1  # R(1 - 2^-k) rounds to R from some k on, 54 on [0, 1)
    while domain.right * (1.0 - 2.0 ** -(k + 1)) < domain.right:
        k += 1
    return k


def check_depth(domain: IndexDomain, depth: int):
    """Raise ValueError unless depth >= 1 and every point of the grid to depth is inside domain."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    deepest = _deepest(domain)
    if depth > deepest:
        raise ValueError(f"depth {depth} puts the grid's last point outside [0, "
                         f"{domain.right:g}); the deepest depth inside is {deepest}")


def parameter_grid(domain: IndexDomain, depth: int) -> list:
    """Geometric sample points approaching infinity / the right boundary.

    DiscreteNat: 2^k; [0, R) finite: R(1 - 2^-k); [0, inf): 2^k; k = 1..depth.
    Raises ValueError as ``check_depth`` does.
    """
    check_depth(domain, depth)
    if isinstance(domain, DiscreteNat):
        return [2**k for k in range(1, depth + 1)]
    if math.isinf(domain.right):
        return [2.0**k for k in range(1, depth + 1)]
    return [domain.right * (1.0 - 2.0**-k) for k in range(1, depth + 1)]


def sample_grid(domain: IndexDomain, depth: int) -> list:
    """``parameter_grid`` with each discrete point 2^k followed by its successor 2^k + 1.

    A powers-of-two grid alone would take a period-two oscillation for convergence.
    """
    grid = parameter_grid(domain, depth)
    if isinstance(domain, DiscreteNat):
        return [p for m in grid for p in (m, m + 1)]
    return grid


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Outcome of limit detection on a finite sample path.

    ``residual`` is the diameter of the final window; ``value`` is present
    iff status is converged (and then residual <= tol).  ``stalled`` records
    oscillation evidence: the window diameters stayed large and did not
    shrink over the sampled tail, so the path looks non-Cauchy rather than
    merely slow.  ``failed_points`` lists grid parameters where the
    underlying transform was undefined.
    """

    status: str
    value: Optional[VectorValue]
    residual: float
    samples_used: int
    window: int
    tol: float
    stalled: bool = False
    failed_points: tuple = field(default_factory=tuple)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    @property
    def complex_value(self) -> Optional[complex]:
        """The limit as a complex number; None unless it is present and one-dimensional."""
        if self.value is None or self.value.dim != 1:
            return None
        return complex(self.value.coords[0])


# samples in the trailing estimation window
_WINDOW = 4


def estimate_limit_at_infinity(
    samples: Sequence[VectorValue],
    *,
    tol: float = 1e-6,
    failed_points: tuple = (),
) -> ConvergenceEstimate:
    """Classify a sample path ordered toward infinity.

    Converged: the final ``_WINDOW`` samples have pairwise diameter <= tol
    (value = last sample).  Diverged: tail norms grow monotonically beyond
    ten times the initial scale.  Otherwise inconclusive, with ``stalled``
    set when the trailing window diameters stay large without shrinking; a
    lone sample is inconclusive with residual inf, since it has no window.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("empty sample list")
    space = samples[0].space
    if any(s.space != space for s in samples):
        raise ValueError("space mismatch among the samples")
    if n < 2:
        return ConvergenceEstimate(INCONCLUSIVE, None, math.inf, n, _WINDOW, tol,
                                   failed_points=failed_points)
    w = min(_WINDOW, n)
    mid_end = max(w, (n + w) // 2)

    # one norm call: each sample, then the pairwise differences within the
    # trailing window and within the one that ends at mid_end
    coords = np.stack([s.coords for s in samples])
    first, second = np.triu_indices(w, 1)
    diffs = [coords[lo:lo + w][first] - coords[lo:lo + w][second] for lo in (n - w, mid_end - w)]
    norms = space_norm(np.concatenate([coords, *diffs]), space.norm_tag).tolist()
    pairs = len(first)
    tail_diam, mid_diam = max(norms[n:n + pairs]), max(norms[n + pairs:])
    if tail_diam <= tol:
        return ConvergenceEstimate(CONVERGED, samples[-1], tail_diam, n, w, tol,
                                   failed_points=failed_points)

    initial_scale = max(max(norms[:w]), 1e-300)
    tail_norms = norms[n - w:n]
    growing = all(tail_norms[i] < tail_norms[i + 1] for i in range(w - 1))
    if growing and tail_norms[-1] > 10.0 * initial_scale:
        return ConvergenceEstimate(DIVERGED, None, tail_diam, n, w, tol,
                                   failed_points=failed_points)

    # Oscillation evidence: compare the trailing window diameter with the
    # one from the middle of the path; no shrink and far above tol = stalled.
    stalled = tail_diam > 10.0 * tol and tail_diam > 0.5 * mid_diam
    return ConvergenceEstimate(INCONCLUSIVE, None, tail_diam, n, w, tol,
                               stalled=stalled, failed_points=failed_points)


@lru_cache(maxsize=None)
def _slope_design(n: int) -> tuple:
    """``np.polyfit``'s degree-1 least-squares set-up at x = log 1 .. log n: (lhs, scale, rcond).

    The Vandermonde matrix with its columns scaled to unit norm, the column
    scale and polyfit's default rcond; made once per path length and shared
    read-only.
    """
    xs = np.log(np.arange(1, n + 1, dtype=float))
    lhs = np.vander(xs, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    lhs.flags.writeable = scale.flags.writeable = False
    return lhs, scale, n * np.finfo(float).eps


def loglog_slope(values: Sequence[float]) -> float:
    """Slope of log(value) against log(position) over the given values.

    The least-squares solve of ``np.polyfit(xs, ys, 1)`` on the cached
    design of ``_slope_design``, so the slope has polyfit's bits.
    """
    if len(values) < 2:
        return 0.0
    ys = np.log(np.maximum(np.abs(np.asarray(values, dtype=float)), 1e-300))
    lhs, scale, rcond = _slope_design(len(values))
    return float(np.linalg.lstsq(lhs, ys, rcond)[0][0] / scale[0])


# a log-log slope above TREND_SLOPE is growth, one below -TREND_SLOPE is decay
TREND_SLOPE = 0.05

ZERO = "zero"  # decay_verdict outcomes, with INCONCLUSIVE
NOT_ZERO = "not_zero"


def decay_verdict(values: Sequence[float], tol: float) -> tuple:
    """Whether a grid path of nonnegative values tends to 0: (outcome, route, slope).

    ``slope`` is the log-log slope of the last half of the path.  ZERO by
    route "tol" when the last ``_WINDOW`` values are all <= tol, or by route
    "decay-trend" when the last half is non-increasing (up to rounding
    slack) with slope <= -TREND_SLOPE.  NOT_ZERO when the last half holds
    ``_WINDOW`` values or more, all above tol, the last above 10 * tol and
    the slope above -0.01: mass across the tail yet not decaying.
    Otherwise INCONCLUSIVE; both have route "".
    """
    half = values[len(values) // 2:]
    slope = loglog_slope(half)
    if all(v <= tol for v in values[-_WINDOW:]):
        return ZERO, "tol", slope
    non_increasing = all(b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(half, half[1:]))
    if non_increasing and slope <= -TREND_SLOPE:
        return ZERO, "decay-trend", slope
    if len(half) >= _WINDOW and min(half) > tol and values[-1] > 10.0 * tol and slope > -0.01:
        return NOT_ZERO, "", slope
    return INCONCLUSIVE, "", slope
