"""Vector-valued integration: step functions, adaptive quadrature, weak checks.

The adaptive engine bisects panels and estimates each panel's error from the
difference between a 7-point Gauss-Legendre value on the panel and the sum of
the same rule on its two halves (polynomial exactness degree 13).  Panels are
accepted against a length-proportional share of the global tolerance, so the
total error estimate is <= cfg.tol.

It is one engine over a family of K integrals (``_adaptive_family``); a lone
integral is the family with K = 1.  Refinement is level-synchronous: every
panel still pending at one bisection depth, whichever integral it belongs
to, is evaluated in a single integrand call, which is told the integral of
each node.  Each integral is judged on its own: its own tolerance share,
accepted-panel sum and budget of _MAX_EVALUATIONS integrand evaluations, the
engine's one cap, as QUADPACK's subinterval ``limit`` is.  A panel at most
1e-15 of its interval wide is accepted whatever its error, which ends
refinement by level 50 unless rounding stalls the bisection; the budget ends
it then.  An integral whose next level would exceed its budget ends with a
QuadratureError naming its failed panel with the largest error at its last
evaluated level, whose halves were pending; the others go on.  Accepted
panels are summed left to right, so each integral equals a depth-first
refinement of its own panel tree bit for bit, whatever else shares its
levels.  No integrand call gets more than _MAX_EVALUATIONS nodes: a larger
level is split into consecutive calls, which leaves the bits unchanged.

Integrands with the 1/(1-t) boundary blow-up are handled by the log-boundary
substitution u = -log(1-t), which makes the transformed integrand bounded.

An integrand is read at the nodes alone, so it may blow up at an end, as
t^(-1/2) does on [0, 1]; an empty interval is read at none.  A pointwise f has
one reader, ``_batch_from_pointwise``; its space, unless given, is read once
at the interval's midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .vspace import SCALAR, LinearFunctional, SpaceDescriptor, VectorValue

SUBSTITUTION_NONE = "none"
SUBSTITUTION_LOG_BOUNDARY = "log_boundary"
SUBSTITUTIONS = (SUBSTITUTION_NONE, SUBSTITUTION_LOG_BOUNDARY)

_GL_ORDER = 7
# nodes and weights of the 7-point Gauss-Legendre rule on [-1, 1], the exact
# float64 values scipy.special.roots_legendre(7) returns (importing scipy
# here would load scipy.linalg with every ``import sumkit``)
_GL_X = np.array([-0.9491079123427584, -0.7415311855993945, -0.4058451513773972, 0.0,
                  0.4058451513773972, 0.7415311855993945, 0.9491079123427584])
_GL_W = np.array([0.12948496616886992, 0.2797053914892766, 0.38183005050511876,
                  0.4179591836734691, 0.38183005050511876, 0.2797053914892766,
                  0.12948496616886992])
# about 200x the largest count any shipped config, test or benchmark round uses
_MAX_EVALUATIONS = 100_000


class QuadratureError(RuntimeError):
    """Adaptive refinement ran out of budget; carries the worst failed panel and its error."""

    def __init__(self, message, worst_interval, estimate):
        super().__init__(message)
        self.worst_interval = worst_interval
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-10
    substitution: str = SUBSTITUTION_NONE

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.substitution not in SUBSTITUTIONS:
            raise ValueError(f"unknown substitution {self.substitution!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: VectorValue
    err_estimate: float
    evaluations: int


def _panels(fbatch, lo: np.ndarray, hi: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """7-point Gauss-Legendre values of a family integrand on the panels [lo_i, hi_i].

    ``owner[i]`` is the integral panel i belongs to, and the integrand gets
    each node's owner with the nodes.  One integrand call takes at most
    _MAX_EVALUATIONS nodes; more panels go to consecutive calls.  ``matmul``
    reduces each panel's 7 rows exactly as ``_GL_W @ vals`` does for that
    panel alone, so row i does not depend on which other panels share the
    call.
    """
    step = _MAX_EVALUATIONS // _GL_ORDER
    out = []
    for s in range(0, len(lo), step):
        mid = 0.5 * (lo[s:s + step] + hi[s:s + step])
        half = 0.5 * (hi[s:s + step] - lo[s:s + step])
        vals = fbatch((mid[:, None] + half[:, None] * _GL_X).ravel(),
                      np.repeat(owner[s:s + step], _GL_ORDER))  # shape (7 n, d)
        out.append(half[:, None] * np.matmul(_GL_W, vals.reshape(len(mid), _GL_ORDER,
                                                                 vals.shape[1])))
    return np.concatenate(out)


def _adaptive_family(fbatch, a, b, tol: float) -> list:
    """Adaptive bisection of K integrals over [a_k, b_k] in lockstep.

    ``fbatch(ts, owner)`` returns the (len(ts), d) integrand values at the
    nodes ts, where owner[i] is the index k of the integral node i belongs
    to; owners come in nondecreasing order.  Returns, per integral, its
    (value array, err_estimate, evaluations) or its QuadratureError.

    Level-synchronous: each level bisects every pending panel of every
    integral and evaluates all the halves in one integrand call (the first
    call also evaluates each root panel itself).  An integral's accepted
    panels are summed in order of increasing left endpoint, which is the
    order a depth-first search of its panel tree accepts them in, so its
    value, error and evaluation count depend neither on the traversal nor on
    the other integrals.  A panel at most 1e-15 of its integral's interval
    wide is accepted, so refinement ends by level 50 unless rounding stalls
    the bisection.  A level that would take an integral's count past
    _MAX_EVALUATIONS, its one cap, is not evaluated for it: its error names
    its failed panel with the largest error at its last evaluated level,
    whose halves were pending.  Every level costs a live integral at least
    14 evaluations, so the budget ends every integral, and a root's first
    level, 21 evaluations, always fits.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    total_len = b - a
    out = [None] * a.size
    evaluations = np.zeros(a.size, dtype=int)
    empty = np.flatnonzero(total_len == 0.0)
    if empty.size:  # no mass on a point; a call on zero nodes gives the dimension
        dim = fbatch(a[:0], empty[:0]).shape[1]
        for k in empty:
            out[k] = np.zeros(dim, dtype=complex), 0.0, 0
    owner = np.flatnonzero(total_len != 0.0)
    lo, hi, coarse = a[owner], b[owner], None
    accepted = []  # (owners, left endpoints, panel values, errors), one tuple per level
    while True:
        first = coarse is None
        pending = np.bincount(owner, minlength=a.size)
        cost = _GL_ORDER * (2 * pending + first)
        live = pending > 0
        over = np.flatnonzero(live & (evaluations + cost > _MAX_EVALUATIONS))
        if over.size:  # never at the first level, so the last level left failed panels
            failed_lo, failed_hi, failed_err, failed_owner = failed
            for k in over:
                mine = np.flatnonzero(failed_owner == k)
                i = mine[np.argmax(failed_err[mine])]
                wlo, whi, west = float(failed_lo[i]), float(failed_hi[i]), float(failed_err[i])
                out[k] = QuadratureError(
                    f"evaluation budget {_MAX_EVALUATIONS} exhausted with {pending[k]} panels "
                    f"pending; worst failed panel [{wlo}, {whi}] (estimate {west:.3e})",
                    worst_interval=(wlo, whi),
                    estimate=west,
                )
            live[over] = False
            keep = live[owner]
            lo, hi, owner, coarse = lo[keep], hi[keep], owner[keep], coarse[keep]
        if not owner.size:
            break
        evaluations[live] += cost[live]
        ends = np.array((lo, 0.5 * (lo + hi), hi)).T  # row i: lo, mid, hi of panel i
        panels_lo, panels_hi = ends[:, :2], ends[:, 1:]
        if first:  # the roots' own values come from the same call
            panels_lo, panels_hi = np.column_stack((lo, panels_lo)), np.column_stack((hi, panels_hi))
        per = panels_lo.shape[1]
        vals = _panels(fbatch, panels_lo.ravel(), panels_hi.ravel(), np.repeat(owner, per))
        vals = vals.reshape(len(lo), per, vals.shape[1])
        if first:
            coarse, vals = vals[:, 0], vals[:, 1:]
        fine = vals[:, 0] + vals[:, 1]
        err = np.abs(fine - coarse).max(axis=1, initial=0.0)
        width, span = hi - lo, total_len[owner]
        ok = (err <= tol * width / span) | (width <= 1e-15 * span)
        accepted.append((owner[ok], lo[ok], fine[ok], err[ok]))
        bad = (~ok).nonzero()[0]
        failed = lo[bad], hi[bad], err[bad], owner[bad]
        lo, hi = ends[bad, :2].ravel(), ends[bad, 1:].ravel()
        owner = np.repeat(owner[bad], 2)
        coarse = vals[bad].reshape(2 * bad.size, vals.shape[2])
    if accepted:
        owners, starts, values, errs = (np.concatenate(parts) for parts in zip(*accepted))
        order = np.lexsort((starts, owners))  # stable: by integral, then left endpoint
        owners, values, errs = owners[order], values[order], errs[order]
        # row k of a padded table holds integral k's panels in that order, then
        # zeros; cumsum folds each row left to right, one addition at a time,
        # so entry counts[k] - 1 is the sum whatever the padding after it
        counts = np.bincount(owners, minlength=a.size)
        rank = np.arange(owners.size) - np.repeat(np.cumsum(counts) - counts, counts)
        table = np.zeros((a.size, counts.max(), values.shape[1]), dtype=values.dtype)
        err_table = np.zeros(table.shape[:2])
        table[owners, rank], err_table[owners, rank] = values, errs
        done = np.flatnonzero(counts)
        sums = np.cumsum(table, axis=1, out=table)[done, counts[done] - 1]
        err_sums = np.cumsum(err_table, axis=1, out=err_table)[done, counts[done] - 1]
        for k, value, err in zip(done, sums, err_sums):
            if out[k] is None:
                out[k] = value, float(err), int(evaluations[k])
    return out


def _adaptive(fbatch, a: float, b: float, tol: float):
    """One integral, K = 1 of ``_adaptive_family``: (value array, err_estimate, evaluations).

    ``fbatch(ts)`` takes the nodes alone.  Raises the integral's
    QuadratureError.
    """
    (out,) = _adaptive_family(lambda ts, owner: fbatch(ts), [a], [b], tol)
    if isinstance(out, QuadratureError):
        raise out
    return out


def _log_boundary_ends(a: float, b: float) -> tuple:
    """The ends in u-space, u = -log(1-t), of [a, b] in [0, 1)."""
    if not (0.0 <= a <= b < 1.0):
        raise ValueError("log-boundary substitution needs [a, b] inside [0, 1)")
    return -math.log1p(-a), -math.log1p(-b)


def _log_boundary_integrand(fbatch):
    """fbatch in u-space: f(1 - e^-u) e^-u; further arguments (a family's owners) pass through."""

    def gbatch(us: np.ndarray, *owner) -> np.ndarray:
        eu = np.exp(-us)
        ts = 1.0 - eu
        return fbatch(ts, *owner) * eu[:, None]

    return gbatch


def adaptive_quadrature_family(fbatch, intervals, cfg: QuadratureConfig) -> list:
    """Integrate a family integrand over each of ``intervals`` in one engine call.

    ``fbatch(ts, owner)`` is as for ``_adaptive_family``, with owner k for
    the k-th interval.  Each interval is checked and mapped by
    cfg.substitution as a lone ``adaptive_quadrature_batch`` call maps it,
    and an invalid one (backwards, or with a non-finite end) raises
    ValueError for the whole family before any node is read.  Returns,
    per interval, (value array, err_estimate, evaluations) or the
    QuadratureError the lone call would raise.
    """
    ends = []
    for interval in intervals:
        a, b = float(interval[0]), float(interval[1])
        if b < a:
            raise ValueError(f"empty interval [{a}, {b}]")
        if cfg.substitution == SUBSTITUTION_LOG_BOUNDARY:
            a, b = _log_boundary_ends(a, b)
        ends.append((a, b))
    ends = np.array(ends, dtype=float).reshape(-1, 2)
    if not np.isfinite(ends).all():
        a, b = ends[~np.isfinite(ends).all(axis=1)][0]
        raise ValueError(f"non-finite interval end in [{a}, {b}]")
    a, b = ends.T
    if cfg.substitution == SUBSTITUTION_LOG_BOUNDARY:
        fbatch = _log_boundary_integrand(fbatch)
    return _adaptive_family(fbatch, a, b, cfg.tol)


def adaptive_quadrature_batch(
    fbatch: Callable[[np.ndarray], np.ndarray],
    interval,
    cfg: QuadratureConfig,
    space: SpaceDescriptor,
) -> QuadratureResult:
    """Integrate a batch integrand ts -> (len(ts), dim) array componentwise."""
    (out,) = adaptive_quadrature_family(lambda ts, owner: fbatch(ts), [interval], cfg)
    if isinstance(out, QuadratureError):
        raise out
    arr, err, n = out
    return QuadratureResult(VectorValue(arr, space), err, n)


def _batch_from_pointwise(f: Callable[[float], VectorValue], space: SpaceDescriptor):
    """The batch integrand of a pointwise f: f at each node, as a (len(ts), space.dim) array."""

    def fbatch(ts: np.ndarray) -> np.ndarray:
        values = [f(float(t)).coords for t in ts]
        return np.array(values, dtype=complex).reshape(len(ts), space.dim)

    return fbatch


def adaptive_quadrature(
    f: Callable[[float], VectorValue],
    interval,
    cfg: QuadratureConfig = QuadratureConfig(),
    space: SpaceDescriptor | None = None,
) -> QuadratureResult:
    """Componentwise adaptive quadrature of f; its space, unless given, is f's at the midpoint."""
    if space is None:
        space = f(0.5 * (float(interval[0]) + float(interval[1]))).space
    return adaptive_quadrature_batch(_batch_from_pointwise(f, space), interval, cfg, space)


def quad_scalar(g: Callable[[float], complex], interval, cfg: QuadratureConfig = QuadratureConfig()):
    """Adaptive quadrature of a complex scalar integrand; returns (value, err, evals)."""
    res = adaptive_quadrature(lambda t: VectorValue([g(t)], SCALAR), interval, cfg, SCALAR)
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
                if not (math.isfinite(lo) and math.isfinite(hi)):
                    raise ValueError("non-finite piece end rejected")
                intervals.append((float(lo), float(hi)))
        intervals.sort()
        for (a0, b0), (a1, _) in zip(intervals, intervals[1:]):
            # counting pieces are closed: touching at an integer shares a point
            shared = self.measure == MEASURE_COUNTING and a1 == b0 and b0.is_integer()
            if a1 < b0 or shared:
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
    fbatch = _batch_from_pointwise(f, candidate.space)
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
    integral = adaptive_quadrature(f, interval, cfg)
    space = integral.value.space
    if T.shape != (space.dim, space.dim):
        raise ValueError(f"operator shape {T.shape} incompatible with dim {space.dim}")
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
    return quad_scalar(lambda t: f(t).norm(), interval, cfg)[0].real
