"""Taylor-series summability in coefficient-normed spaces of power series.

A power series f(z) = sum a_k z^k is represented lazily by its coefficient
function together with a declared decay class (finitely supported, geometric,
or power law) that certifies truncation tails.  Three norms are implemented:

* h2        -- l2 norm of the coefficients;
* wiener    -- l1 norm of the coefficients;
* disk_grid -- max modulus over the N-th roots of unity (N = BOUNDARY_POINTS),
               evaluated exactly as one DFT of the coefficients folded mod N
               (up to N coefficients are transformed unfolded), over the half
               spectrum of a real FFT when the coefficients are real.
               This approximates the true sup norm from below; the dropped
               coefficient tail bounds the additional error, and reports
               carry that bound.

Every chain step is a counting method a(p, n) applied to the partial sums
S_n f, by one rule: sum_n a(p, n) S_n f multiplies coefficient k by its
row mass lambda_k(p) = sum_{n>=k} a(p, n), the spec's signed tail at
N = k - 1, one tail block per coefficient block (Hardy, Divergent Series).
The identity's row m gives the partial sum S_m f.  Abel's method gives the
radial dilate r^k, which ``dilate_dual_deviation`` checks with the
package's one certified vector-valued sum, ``methods.transform_at``, on
the coefficients of many functions stacked into one vector of C^D.  The
discrete logarithmic kernel r^(n+1) / ((n+1) L), L = -log(1-r), gives the
logarithmic mean lambda_k(r) = (-1/log(1-r)) integral_0^r t^k/(1-t) dt in
its closed form (L - sum_{j<=k} r^j/j) / L, one cumulative sum per block;
lambda_0 = 1 exactly.

Monomials have norm one in h2 and wiener, so the k-th root of ||z^k|| stays
bounded by one and the dilate is a bounded operator on all built-in spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import methods
from .domains import INCONCLUSIVE, NOT_ZERO, ZERO, decay_verdict, parameter_grid
# Unused here; perfbench/layers.py wraps ``holo._adaptive`` by name.
from .integrate import _adaptive  # noqa: F401
from .methods import NonSummableError
from .vspace import SpaceDescriptor

H2 = "h2"
WIENER = "wiener"
DISK_GRID = "disk_grid"

SPACE_TAGS = (H2, WIENER, DISK_GRID)

# N, the number of boundary points (N-th roots of unity) of the disk-grid norm
BOUNDARY_POINTS = 4096


@dataclass(frozen=True)
class SeriesSpace:
    tag: str = H2

    def __post_init__(self):
        if self.tag not in SPACE_TAGS:
            raise ValueError(f"unknown space tag {self.tag!r}")


# ---------------------------------------------------------------------------
# Decay classes: certified coefficient bounds and tail sums


@dataclass(frozen=True)
class FinitelySupported:
    degree: int
    peak: float = 1.0

    def coeff_bound(self, k: int) -> float:
        return self.peak if k <= self.degree else 0.0

    def tail_l1(self, n: int) -> float:
        return 0.0 if n >= self.degree else self.peak * (self.degree - n)

    def tail_sq(self, n: int) -> float:
        return 0.0 if n >= self.degree else self.peak**2 * (self.degree - n)


@dataclass(frozen=True)
class Geometric:
    c: float
    rho: float

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("geometric decay needs 0 < rho < 1")

    def coeff_bound(self, k: int) -> float:
        return self.c * self.rho**k

    def tail_l1(self, n: int) -> float:
        return self.c * self.rho ** (n + 1) / (1.0 - self.rho)

    def tail_sq(self, n: int) -> float:
        return self.c**2 * self.rho ** (2 * (n + 1)) / (1.0 - self.rho**2)


@dataclass(frozen=True)
class PowerLaw:
    c: float
    alpha: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError("power-law decay needs alpha > 1")

    def coeff_bound(self, k: int) -> float:
        return self.c * (k + 1.0) ** (-self.alpha)

    def tail_l1(self, n: int) -> float:
        # sum_{k>n} (k+1)^-alpha <= integral_{n+1}^inf x^-alpha dx
        return self.c * (n + 1.0) ** (1.0 - self.alpha) / (self.alpha - 1.0)

    def tail_sq(self, n: int) -> float:
        return self.c**2 * (n + 1.0) ** (1.0 - 2.0 * self.alpha) / (2.0 * self.alpha - 1.0)


@dataclass(frozen=True)
class CappedDecay:
    """Decay of a partial sum: the base bound up to ``degree``, zero beyond."""

    base: object
    degree: int

    def coeff_bound(self, k: int) -> float:
        return self.base.coeff_bound(k) if k <= self.degree else 0.0

    def tail_l1(self, n: int) -> float:
        return 0.0 if n >= self.degree else self.base.tail_l1(n)

    def tail_sq(self, n: int) -> float:
        return 0.0 if n >= self.degree else self.base.tail_sq(n)


@dataclass(frozen=True)
class SumDecay:
    left: object
    right: object

    def coeff_bound(self, k: int) -> float:
        return self.left.coeff_bound(k) + self.right.coeff_bound(k)

    def tail_l1(self, n: int) -> float:
        return self.left.tail_l1(n) + self.right.tail_l1(n)

    def tail_sq(self, n: int) -> float:
        return (math.sqrt(self.left.tail_sq(n)) + math.sqrt(self.right.tail_sq(n))) ** 2


# ---------------------------------------------------------------------------
# Taylor functions


class TaylorFunction:
    """Lazy coefficient stream with a declared decay class and a home space.

    ``block(lo, hi)`` returns the coefficients a_lo .. a_{hi-1}; the scalar
    and dense accessors are derived from it.
    """

    __slots__ = ("_block", "decay", "space", "name")

    def __init__(self, block, decay=None, space: SeriesSpace = SeriesSpace(), name: str = ""):
        if decay is None:
            raise ValueError("experiments refuse undeclared-decay coefficient streams")
        self._block = block
        self.decay = decay
        self.space = space
        self.name = name

    def block(self, lo: int, hi: int) -> np.ndarray:
        return np.asarray(self._block(lo, hi), dtype=complex)

    def coeff(self, k: int) -> complex:
        return complex(self._block(k, k + 1)[0])

    def coeff_array(self, upto: int) -> np.ndarray:
        """Coefficients a_0 .. a_upto as a dense array."""
        return self.block(0, upto + 1)

    def in_space(self, space: SeriesSpace) -> "TaylorFunction":
        return TaylorFunction(self._block, self.decay, space, self.name)


def taylor_from_coefficients(coeffs: Sequence[complex], space: SeriesSpace = SeriesSpace(),
                             name: str = "") -> TaylorFunction:
    arr = np.asarray(list(coeffs), dtype=complex)
    if arr.size == 0:
        arr = np.zeros(1, dtype=complex)
    peak = float(np.max(np.abs(arr)))
    degree = arr.size - 1

    def block(lo, hi):
        out = np.zeros(hi - lo, dtype=complex)
        take = max(0, min(hi, degree + 1) - lo)
        if take > 0:
            out[:take] = arr[lo:lo + take]
        return out

    return TaylorFunction(block=block, decay=FinitelySupported(degree, peak),
                          space=space, name=name or "polynomial")


def geometric_taylor(c: float, rho: float, space: SeriesSpace = SeriesSpace()) -> TaylorFunction:
    def block(lo, hi):
        ks = np.arange(lo, hi, dtype=float)
        return c * np.exp(ks * math.log(rho)) + 0j

    return TaylorFunction(block=block, decay=Geometric(abs(c), rho), space=space,
                          name=f"geometric({c:g},{rho:g})")


def power_taylor(c: float, alpha: float, space: SeriesSpace = SeriesSpace()) -> TaylorFunction:
    def block(lo, hi):
        ks = np.arange(lo, hi, dtype=float)
        return c * (ks + 1.0) ** (-alpha) + 0j

    return TaylorFunction(block=block, decay=PowerLaw(abs(c), alpha), space=space,
                          name=f"power({c:g},{alpha:g})")


def monomial_taylor(k: int, space: SeriesSpace = SeriesSpace()) -> TaylorFunction:
    def block(lo, hi):
        return (np.arange(lo, hi) == k).astype(complex)

    return TaylorFunction(block=block, decay=FinitelySupported(k, 1.0), space=space,
                          name=f"monomial({k})")


def taylor_sub(f: TaylorFunction, g: TaylorFunction) -> TaylorFunction:
    if f.space != g.space:
        raise ValueError("space mismatch")
    return TaylorFunction(
        block=lambda lo, hi: f.block(lo, hi) - g.block(lo, hi),
        decay=SumDecay(f.decay, g.decay),
        space=f.space,
        name=f"{f.name}-{g.name}",
    )


# ---------------------------------------------------------------------------
# Norms with certified truncation


def _truncation_for(decay, tag: str) -> int:
    """Smallest N = 8 * 2^j with certified norm tail <= methods._TAIL_TOL.

    N stays within methods._MAX_TERMS, the certified sums' term budget.
    """
    tail_tol, max_terms = methods._TAIL_TOL, methods._MAX_TERMS
    tail = (lambda n: math.sqrt(decay.tail_sq(n))) if tag == H2 else decay.tail_l1
    n = 8
    while n <= max_terms:
        if tail(n) <= tail_tol:
            return n
        n *= 2
    raise NonSummableError(
        f"decay class {decay!r} cannot certify a {tag} tail of {tail_tol:g} "
        f"within {max_terms} coefficients")


def series_norm(f: TaylorFunction) -> float:
    """Norm of f in its space, with certified truncation error <= methods._TAIL_TOL."""
    tag = f.space.tag
    n = _truncation_for(f.decay, tag)
    coeffs = f.coeff_array(n)
    if tag == H2:
        return float(np.sqrt(np.sum(np.abs(coeffs) ** 2)))
    if tag == WIENER:
        return float(np.sum(np.abs(coeffs)))
    # disk_grid: max modulus over the N-th roots of unity of the truncated
    # series; underestimates the sup norm by at most the l1 tail (<= _TAIL_TOL).
    # z^k and z^(k mod N) agree on the grid, so p(w^j) = sum_k folded_k w^(jk)
    # is an unnormalised inverse DFT of the coefficients folded mod N; up to
    # N coefficients are one row, transformed as they are.  Real coefficients
    # give |p(conj w)| = |p(w)|, so the half spectrum of a real FFT holds the
    # maximum.
    folded = coeffs
    if coeffs.size > BOUNDARY_POINTS:
        folded = np.pad(coeffs, (0, -coeffs.size % BOUNDARY_POINTS))
        folded = folded.reshape(-1, BOUNDARY_POINTS).sum(axis=0)
    if folded.imag.any():
        return float(np.max(np.abs(np.fft.ifft(folded, BOUNDARY_POINTS, norm="forward"))))
    return float(np.max(np.abs(np.fft.rfft(folded.real, BOUNDARY_POINTS))))


def disk_grid_error_bound(f: TaylorFunction) -> float:
    """Approximation bound carried by disk-grid norm reports."""
    n = _truncation_for(f.decay, DISK_GRID)
    return float(f.decay.tail_l1(n))


# ---------------------------------------------------------------------------
# Partial sums, dilates, logarithmic means


def _summed(spec: methods.KernelSpec, f: TaylorFunction, param, name: str = "") -> TaylorFunction:
    """The counting method ``spec`` at ``param`` on the partial sums of f: the one multiplier rule.

    Coefficient k is multiplied by the signed tail at N = k - 1 of the
    spec's row at param (``methods._row``), one tail block per coefficient
    block.  A row with a support end m caps the decay at m; any other keeps
    f's, as every step's multipliers lie in [0, 1].  Raises ValueError for
    a parameter outside the spec's F.
    """
    row = methods._row(spec, param)
    return TaylorFunction(block=lambda lo, hi: row.tail_sum(row.p, lo - 1, hi - 1)
                          * f.block(lo, hi),
                          decay=f.decay if row.hi is None else CappedDecay(f.decay, row.hi),
                          space=f.space, name=name or f"{spec.name}_{param:g}({f.name})")


def _log_mean_method() -> methods.SeqToFuncSpec:
    """The discrete logarithmic kernel a_n(r) = r^(n+1) / ((n+1) L), L = -log(1-r), 0 < r < 1.

    Its tail past N is (L - S_{N+1}) / L, S_k = sum_{j<=k} r^j/j from one
    cumulative sum from j = 1, so the tail at N = -1 is 1 exactly.  Like
    every counting kernel, both take r as a scalar or as an array that
    broadcasts against the indices, with each logarithm by ``math``.
    """
    def kernel_batch(r, ns):
        ns = np.asarray(ns, dtype=float) + 1.0
        return (np.exp(ns * methods._per_parameter(math.log, r))
                / (ns * -methods._per_parameter(math.log1p, -r)))

    def tail(r, lo, hi):
        inside = (0.0 < r) & (r < 1.0)
        if not (inside.all() if isinstance(inside, np.ndarray) else inside):
            raise ValueError("logarithmic mean needs 0 < r < 1")
        big = -methods._per_parameter(math.log1p, -r)
        js = np.arange(1, hi + 1, dtype=float)
        terms = np.exp(js * methods._per_parameter(math.log, r)) / js
        head = np.concatenate((np.zeros(terms.shape[:-1] + (1,)), np.cumsum(terms, axis=-1)),
                              axis=-1)
        return (big - head[..., lo + 1:hi + 1]) / big

    return methods.SeqToFuncSpec(name="log_mean", kernel_batch=kernel_batch, tail_sum=tail)


PARTIAL_SUMS = "partial_sums"
ABEL_DILATE = "abel_dilate"
LOG_MEAN = "log_mean"

# chain step -> the counting method it applies to the partial sums of g
_CHAIN = {
    PARTIAL_SUMS: methods.identity_method(),
    ABEL_DILATE: methods.abel_method(),
    LOG_MEAN: _log_mean_method(),
}
CHAIN_STEPS = tuple(_CHAIN)


def partial_sum(f: TaylorFunction, n: int) -> TaylorFunction:
    """Truncation to coefficients 0..n, the identity's row n; a projection (idempotent exactly)."""
    return _summed(_CHAIN[PARTIAL_SUMS], f, n, f"S_{n}({f.name})")


def abel_dilate(f: TaylorFunction, r: float) -> TaylorFunction:
    """Radial dilate: coefficient multiplier a_k -> a_k r^k.

    It equals Abel's method on the partial sums, (1 - r) sum_m r^m S_m f,
    the identity ``dilate_dual_deviation`` checks.
    """
    return _summed(_CHAIN[ABEL_DILATE], f, r, f"A_{r:g}({f.name})")


def _abel_of_partial_sums(fs: Sequence[TaylorFunction], r: float) -> list:
    """(1 - r) sum_m r^m S_m f of every f in fs, coefficients 0 .. its wiener truncation.

    The coefficients of every f, each up to its certified wiener truncation,
    are stacked into one vector of C^D, in which coordinate k of an f holds
    a_k in S_m once m >= k.  ``methods.transform_at`` sums that one sequence
    with Abel's method at r, and the sum is split back into one array per f.
    Raises NonSummableError when a truncation or the sum is not certified
    within ``methods._MAX_TERMS``.
    """
    blocks = [f.coeff_array(_truncation_for(f.decay, WIENER)) for f in fs]
    coeffs = np.concatenate(blocks)
    ks = np.concatenate([np.arange(b.size) for b in blocks])
    orbit = methods.vector_sequence(lambda ns: np.where(ks <= ns[:, None], coeffs, 0),
                                    SpaceDescriptor(coeffs.size))
    total = methods.transform_at(_CHAIN[ABEL_DILATE], orbit, r).coords
    return np.split(total, np.cumsum([b.size for b in blocks])[:-1])


def dilate_dual_deviation(fs: Sequence[TaylorFunction], r: float) -> float:
    """Largest coefficientwise gap between Abel's method on the partial sums and ``abel_dilate``.

    Over every f in fs and every coefficient up to f's wiener truncation;
    ValueError when that Abel sum is not certified (see
    ``_abel_of_partial_sums``).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("dilate needs 0 <= r < 1")
    try:
        sums = _abel_of_partial_sums(fs, r)
    except NonSummableError as exc:
        raise ValueError(f"Abel sum of the partial sums at r={r} not certified: {exc}") from exc
    return max(float(np.max(np.abs(abel_dilate(f, r).coeff_array(s.size - 1) - s)))
               for f, s in zip(fs, sums))


def log_mean_multiplier(k: int, r: float) -> float:
    """lambda_k(r) = (-1/log(1-r)) integral_0^r t^k/(1-t) dt; lambda_0 = 1 exactly."""
    return float(_CHAIN[LOG_MEAN].tail_sum(r, k - 1, k)[0])


def log_taylor_mean(f: TaylorFunction, r: float) -> TaylorFunction:
    """Logarithmic mean: coefficient k gets the multiplier lambda_k(r)."""
    return _summed(_CHAIN[LOG_MEAN], f, r, f"L_{r:g}({f.name})")


# ---------------------------------------------------------------------------
# Summability experiments

CONVERGED_TO_ZERO = "converged_to_zero"
NOT_CONVERGED = "not_converged"


@dataclass(frozen=True)
class TaylorConvergenceReport:
    function: str
    space: str
    chain: tuple
    cells: tuple           # (grid_param, distance) pairs
    status: str
    route: str             # "tol" | "decay-trend" | ""
    residual: float
    notes: tuple = field(default=())

    def rows(self) -> list:
        out = [("distance", p, d, "") for p, d in self.cells]
        out.append(("overall", "", self.residual, self.status))
        return out

    def to_jsonable(self) -> dict:
        return {
            "function": self.function,
            "space": self.space,
            "chain": list(self.chain),
            "cells": [[str(p), d] for p, d in self.cells],
            "verdict": self.status,
            "route": self.route,
            "residual": self.residual,
            "notes": list(self.notes),
        }


def chain_domain(chain: Sequence[str]):
    """The one parameter domain of a non-empty chain of known steps, else ValueError."""
    if not chain:
        raise ValueError("empty chain")
    for step in chain:
        if step not in CHAIN_STEPS:  # a tuple, so an unhashable step is unknown too
            raise ValueError(f"unknown chain step {step!r}")
    domains = {_CHAIN[step].F for step in chain}
    if len(domains) > 1:
        raise ValueError("chain mixes discrete and continuous parameters")
    return domains.pop()


def taylor_summability_experiment(f: TaylorFunction, space: SeriesSpace, chain: Sequence[str],
                                  depth: int = 20, tol: float = 1e-4) -> TaylorConvergenceReport:
    """Distance ||chain_param(f) - f|| along the parameter grid, judged against 0.

    The verdict is ``domains.decay_verdict``, the rule the kernel regularity
    checks use, in Taylor words, and its route ("tol" or "decay-trend") is
    reported: reaching tol, or a clean monotone decay trend, counts as
    convergence-to-zero evidence (logarithmic means approach f only
    logarithmically, so a fixed threshold alone would reject them on any
    finite grid).
    """
    chain = tuple(chain)
    domain = chain_domain(chain)

    fx = f.in_space(space)
    grid = parameter_grid(domain, depth)
    distances = []
    for param in grid:
        g = fx
        for step in chain:
            g = _summed(_CHAIN[step], g, param)
        distances.append(series_norm(taylor_sub(g, fx)))
    outcome, route, _ = decay_verdict(distances, tol)
    status = {ZERO: CONVERGED_TO_ZERO, NOT_ZERO: NOT_CONVERGED}.get(outcome, INCONCLUSIVE)
    notes = ()
    if space.tag == DISK_GRID:
        notes = (f"disk-grid norm underestimates the sup norm by at most "
                 f"{disk_grid_error_bound(fx):.3e}",)
    return TaylorConvergenceReport(f.name, space.tag, chain, tuple(zip(grid, distances)),
                                   status, route, distances[-1], notes)
