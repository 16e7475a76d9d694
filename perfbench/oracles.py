"""Independent references for every benchmark operation.

Nothing here imports sumkit: the references are closed forms, the seeded
inputs the benchmark built itself, and scipy zeta values.  ``judge``
turns one engine result into a verdict:

* ``certified``: the engine certified (converged / pass) and the value
  matches the reference within the reference tolerance;
* ``inconclusive``: the engine gave up where the reference has a value;
* ``failed``: the engine raised, or certified a value outside the
  reference tolerance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import zeta

CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"
FAILED = "failed"

#: Limit of the partial sums 1, 0, 1, 0, ... of Grandi's series.
ALTERNATING_LIMIT = 0.5
#: Limit of 1 + 1/(n+1).
SLOW_LIMIT = 1.0
#: Summation tolerance of the deep-sum, quad-taylor and ladder limit calls.
LIMIT_TOL = 1e-3
#: Absolute tolerance of a Taylor distance against its closed form.  The
#: multipliers come from quadratures at tol 1e-10 and the norm tail is
#: certified at 1e-14, so a correct distance sits well inside this.
DISTANCE_TOL = 1e-8
#: The log kernel has total mass exactly 1; checked at the quadrature's
#: own tolerance.
KERNEL_MASS_TOL = 1e-10
#: Relative tolerance of a power-law norm against its zeta value.
ZETA_RTOL = 1e-12


def judge(status: str, value, reference, tol: float) -> str:
    """Verdict of one certified-or-not result against a reference value.

    ``status`` is the engine's own verdict; ``converged`` and ``pass``
    certify ``value``.  ``value`` and ``reference`` may be scalars or
    coordinate arrays; the distance is the l2 norm of the difference.
    """
    if status in ("converged", "pass"):
        dist = float(np.linalg.norm(np.atleast_1d(np.asarray(value, dtype=complex))
                                    - np.atleast_1d(np.asarray(reference, dtype=complex))))
        return CERTIFIED if dist <= tol else FAILED
    if status == "inconclusive":
        return INCONCLUSIVE
    return FAILED


def log_mean_multipliers(r: float, upto: int) -> np.ndarray:
    """lambda_k(r) = (sum_{j>k} r^j / j) / (-log(1-r)) for k = 0..upto.

    Closed form of the logarithmic-mean multiplier (Hardy, Divergent
    Series); lambda_0 = 1.
    """
    big = -math.log1p(-r)
    js = np.arange(1, upto + 1, dtype=float)
    head = np.cumsum(np.exp(js * math.log(r)) / js)
    return np.concatenate(([1.0], (big - head) / big))


def _geometric_terms(c: float, rho: float) -> int:
    """Index past which c * rho^k is below 1e-18 relative to c."""
    return int(math.ceil(math.log(1e-18) / math.log(rho))) + 1


def log_mean_distance(space: str, c: float, rho: float, r: float) -> float:
    """||L_r f - f|| for f = sum c rho^k z^k in the given coefficient space.

    The coefficients (lambda_k - 1) c rho^k all have one sign, so the
    boundary-grid max modulus is reached at z = 1 and equals the l1 norm.
    """
    upto = _geometric_terms(c, rho)
    ks = np.arange(upto + 1, dtype=float)
    diffs = (1.0 - log_mean_multipliers(r, upto)) * c * np.exp(ks * math.log(rho))
    if space == "h2":
        return float(math.sqrt(math.fsum(diffs * diffs)))
    return float(math.fsum(np.abs(diffs)))


def partial_sum_distance_h2(c: float, rho: float, n: int) -> float:
    """||S_n f - f||_2 for geometric coefficients: c rho^(n+1) / sqrt(1 - rho^2)."""
    return c * rho ** (n + 1) / math.sqrt(1.0 - rho * rho)


def dilate_distance_h2(c: float, rho: float, r: float) -> float:
    """||A_r f - f||_2 for geometric coefficients, summed term by term."""
    upto = _geometric_terms(c, rho)
    ks = np.arange(upto + 1, dtype=float)
    diffs = -np.expm1(ks * math.log(r)) * c * np.exp(ks * math.log(rho))
    return float(math.sqrt(math.fsum(diffs * diffs)))


def power_norm(space: str, c: float, alpha: float) -> float:
    """Norm of sum c (k+1)^-alpha z^k: sqrt(zeta(2 alpha)) in h2, zeta(alpha) in wiener."""
    if space == "h2":
        return abs(c) * math.sqrt(float(zeta(2 * alpha)))
    return abs(c) * float(zeta(alpha))


def relative_match(value: float, reference: float, rtol: float) -> bool:
    return abs(value - reference) <= rtol * abs(reference)
