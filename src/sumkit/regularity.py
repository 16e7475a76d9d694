"""Numerical regularity diagnostics for summability methods.

Matrix form: (1) row absolute sums bounded, (2) columns vanishing, (3) row
sums tending to 1.  Kernel form: (1) integrability of |a(r, .)| at each r,
(2) boundedness of those integrals over r, (3) escape of mass from every
compact window, (4) total mass tending to 1.  The kernel form reads any
spec, its measure deciding between quadrature and a sum over the row that
``methods._row`` reads; the matrix form is its counting-measure case on the
naturals, taken by a spec declared a ``MatrixSpec``.  A check asks once for
the integrals it needs, one table (``_kernel_integrals``), which a Lebesgue
kernel takes in two lockstep engine calls.  Both are judged by the same
three grid rules: boundedness (c1, k2), vanishing (columns, windows) and
tending to 1 (c3, k4).

Finite computation can falsify these quantified conditions or accumulate
evidence, never prove them, so verdicts are three-valued: "pass" (evidence),
"fail" (with a concrete witness), "inconclusive".  A path tends to 0 by
``domains.decay_verdict`` and is unbounded when its log-log slope exceeds
``domains.TREND_SLOPE``.  Report notes record the finite-sample caveats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .domains import (_WINDOW, INCONCLUSIVE, NAT, NOT_ZERO, TREND_SLOPE, ZERO, decay_verdict,
                      exhaustion, loglog_slope, parameter_grid)
from .integrate import MEASURE_COUNTING, QuadratureError
# Unused here; perfbench/layers.py wraps ``regularity.adaptive_quadrature_batch`` by name.
from .integrate import adaptive_quadrature_batch  # noqa: F401
from .methods import (
    KernelSpec,
    MatrixSpec,
    NonSummableError,
    SequenceSource,
    _certified_sum,
    _kernel_quadratures,
    _kernel_support,
    _row,
)

PASS = "pass"  # the one pass and fail verdicts of every module
FAIL = "fail"
UNDECIDED = INCONCLUSIVE

REGULAR_EVIDENCE = "RegularEvidence"
NOT_REGULAR = "NotRegular"
INCONCLUSIVE_OVERALL = "Inconclusive"

_FOOTER_NOTES = (
    "verdicts are finite-sample evidence or falsification, not proofs",
    "boundedness is tested on the sampled grid only; behaviour on null sets is out of numeric reach",
)

DEFAULT_M_GRID = tuple(parameter_grid(NAT, 14))


@dataclass(frozen=True)
class ConditionCheck:
    """One regularity condition: per-cell values plus an overall verdict."""

    condition: str
    verdict: str
    cells: tuple = ()  # (grid_param, value, cell_verdict) triples
    witness: str = ""
    note: str = ""


def _fmt(x) -> str:
    return f"{x:.6g}"


class _RegularityReport:
    """CSV rows, JSON form and overall verdict shared by both report kinds.

    Subclasses are frozen dataclasses with ``method`` and ``notes`` fields
    that yield their condition checks, in report order, from conditions().
    """

    @property
    def overall(self) -> str:
        verdicts = {c.verdict for c in self.conditions()}
        if FAIL in verdicts:
            return NOT_REGULAR
        return INCONCLUSIVE_OVERALL if UNDECIDED in verdicts else REGULAR_EVIDENCE

    @property
    def witness(self) -> str:
        """Witness of the first failing condition, or ""."""
        return next((c.witness for c in self.conditions() if c.verdict == FAIL), "")

    def rows(self) -> list:
        out = []
        for check in self.conditions():
            for param, value, verdict in check.cells:
                out.append((check.condition, param, value, verdict))
            out.append((check.condition, "", "", check.verdict))
        out.append(("overall", "", "", self.overall))
        return out

    def to_jsonable(self) -> dict:
        return {
            "method": self.method,
            "overall": self.overall,
            "witness": self.witness,
            "conditions": [
                {
                    "condition": c.condition,
                    "verdict": c.verdict,
                    "witness": c.witness,
                    "note": c.note,
                    "cells": [[str(p), repr(v), verd] for p, v, verd in c.cells],
                }
                for c in self.conditions()
            ],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# Grid rules shared by the matrix and kernel forms


def _scan(grid, outcomes) -> tuple:
    """The cells of a grid path, one outcome per grid point: (cells, values, undecided).

    A point whose outcome is the QuadratureError or NonSummableError of its
    integral or certified sum is a (p, nan, UNDECIDED) cell and sets
    ``undecided``; the others are (p, value, "") cells, and ``values`` lists
    their values in grid order.
    """
    cells = tuple((p, math.nan, UNDECIDED) if isinstance(v, (QuadratureError, NonSummableError))
                  else (p, v, "") for p, v in zip(grid, outcomes))
    values = [value for _, value, verdict in cells if verdict != UNDECIDED]
    return cells, values, len(values) < len(cells)


def _bounded(name: str, cells: tuple, values: list, half: int, undecided: bool,
             witness: str) -> ConditionCheck:
    """Bounded: the last half's log-log slope is at most TREND_SLOPE; witness takes slope, last."""
    slope = loglog_slope(values[half:])
    if slope > TREND_SLOPE:
        return ConditionCheck(name, FAIL, cells,
                              witness=witness.format(slope=slope, last=_fmt(values[-1])))
    return ConditionCheck(name, UNDECIDED if undecided else PASS, cells,
                          note=f"sup {_fmt(max(values))}, trend slope {slope:.3g}")


def _vanishing(name: str, scan: tuple, tol: float, witness: str) -> ConditionCheck:
    """A grid path that must tend to 0: ``domains.decay_verdict`` in pass/fail words."""
    cells, values, undecided = scan
    if undecided:
        return ConditionCheck(name, UNDECIDED, cells)
    outcome, route, slope = decay_verdict(values, tol)
    if outcome == ZERO:
        return ConditionCheck(name, PASS, cells, note=f"within tol at the last {_WINDOW} grid "
                              "points" if route == "tol" else f"decaying trend (slope {slope:.3g})")
    if outcome == NOT_ZERO:
        return ConditionCheck(name, FAIL, cells, witness=f"{witness}stuck at "
                              f"{_fmt(values[-1])} (slope {slope:.3g})")
    return ConditionCheck(name, UNDECIDED, cells, note=f"trend unclear (slope {slope:.3g})")


def _tends_to_one(name: str, scan: tuple, half: int, tol: float, witness: str,
                  note: str = "") -> ConditionCheck:
    """Each cell on the last half of the grid is within tol of 1; witness takes the first miss."""
    cells, _, undecided = scan
    cells = tuple((p, v, verdict if verdict == UNDECIDED or i < half
                   else PASS if abs(v - 1.0) <= tol else FAIL)
                  for i, (p, v, verdict) in enumerate(cells))
    miss = next(((p, v) for p, v, verdict in cells if verdict == FAIL), None)
    if undecided:
        return ConditionCheck(name, UNDECIDED, cells, note=note)
    if miss is not None:
        return ConditionCheck(name, FAIL, cells, witness=witness.format(*miss))
    return ConditionCheck(name, PASS, cells)


_ONES = SequenceSource(block=lambda lo, hi: np.ones((hi - lo, 1), dtype=complex))

# a signed sum over a finite support of at most this many terms is exact fsum
_EXACT_TERMS = 2_000_000


def _kernel_integrals(spec: KernelSpec, grid, windows=()) -> list:
    """The integral table of a(p, .) on the grid: [absolute, *per_window, signed].

    Each row holds one integral per grid point p: of |a(p, .)| over its
    support, then over the support cut to [0, c] for each c in ``windows``,
    then of a(p, .) over its support.  A Lebesgue kernel takes the absolute
    integrals in one lockstep engine call and the signed ones in another
    (``methods._kernel_quadratures``: each distinct interval once, an empty
    one not at all).  A counting kernel (a matrix row m, coefficients
    a_n(r), any other) is read by ``methods._row``, one point at a time,
    and each sum is that row, ``_replace``d, summed against ones by the
    certified sum: the mass is the row without a box weight, the absolute
    mass that row with coefficients |a| and ``tail_abs`` for both tails,
    and a window's mass the absolute row with its end cut to the window
    and no tails.  A signed sum over a finite support is summed exactly
    with math.fsum instead.  Absolute integrals are floats, signed ones
    complex; a failed one is its QuadratureError or NonSummableError.
    """
    def total(row):
        try:
            return complex(_certified_sum(row, _ONES)[0])
        except NonSummableError as exc:
            return exc

    def column(p):  # a counting kernel's integrals at p, all complex
        mass = _row(spec, p)._replace(weight=None)
        moduli = mass._replace(coeffs=lambda a, b: np.abs(mass.coeffs(a, b)),
                               tail_sum=mass.tail_abs)
        windowed = moduli._replace(tail_abs=None, tail_sum=None)
        out = [total(moduli)] + [total(windowed._replace(
            hi=int(c if mass.hi is None else min(mass.hi, c)))) for c in windows]
        if mass.hi is not None and mass.hi - mass.lo <= _EXACT_TERMS:
            entries = np.asarray(mass.coeffs(mass.lo, mass.hi + 1), dtype=complex)
            return out + [complex(math.fsum(entries.real), math.fsum(entries.imag))]
        return out + [total(mass)]

    if spec.measure == MEASURE_COUNTING:
        table = [list(row) for row in zip(*(column(p) for p in grid))]
    else:
        supports = [_kernel_support(spec, r) for r in grid]
        cuts = [(lo, max(lo, min(hi, c))) for c in (math.inf, *windows) for lo, hi in supports]
        outs = _kernel_quadratures(spec, list(grid) * (1 + len(windows)), cuts,
                                   lambda kernel, ts: np.abs(kernel)[:, None] + 0j)
        outs += _kernel_quadratures(spec, grid, cuts[:len(grid)],
                                    lambda kernel, ts: kernel[:, None])
        outs = [out if isinstance(out, QuadratureError) else complex(out[0][0]) for out in outs]
        table = [outs[i:i + len(grid)] for i in range(0, len(outs), len(grid))]
    *absolute, signed = table
    return [[v if isinstance(v, Exception) else v.real for v in row] for row in absolute] + [signed]


_NO_ROW_CERTIFICATE = "tail certificate unavailable for some rows"


# ---------------------------------------------------------------------------
# Matrix form: the counting-measure case


@dataclass(frozen=True)
class MatrixRegularityReport(_RegularityReport):
    method: str
    c1: ConditionCheck
    c2: tuple  # one ConditionCheck per tracked column
    c3: ConditionCheck
    notes: tuple = field(default=_FOOTER_NOTES)

    def conditions(self):
        yield self.c1
        yield from self.c2
        yield self.c3


def check_matrix_st(spec: MatrixSpec, m_grid: Sequence[int] = DEFAULT_M_GRID,
                    n_max: int = 32, tol: float = 1e-6) -> MatrixRegularityReport:
    """Three-condition regularity check for a matrix method on a row grid.

    Column checks cover n <= n_max and are judged on the last half of the
    grid, so n_max must stay well below the smallest row index trusted
    there.  Rows whose absolute sum achieves no tail certificate mark the
    condition inconclusive, never failed.
    """
    m_grid = sorted(int(m) for m in m_grid)
    half = len(m_grid) // 2

    absolute, signed = _kernel_integrals(spec, m_grid)

    # condition 1: row absolute sums bounded
    cells, values, undecided = _scan(m_grid, absolute)
    if undecided:
        c1 = ConditionCheck("c1_row_abs_sum", UNDECIDED, cells, note=_NO_ROW_CERTIFICATE)
    else:
        c1 = _bounded("c1_row_abs_sum", cells, values, half, False,
                      "row absolute sums grow without bound "
                      "(log-log slope {slope:.3g}, last {last})")

    # condition 2: each column tends to 0 along the row grid; one block per row,
    # 0 off the row's support
    def head(m):
        row = _row(spec, m)
        out = np.zeros(n_max + 1, dtype=complex)
        top = max(row.lo, n_max + 1 if row.hi is None else min(row.hi, n_max) + 1)
        out[row.lo:top] = row.coeffs(row.lo, top)
        return out

    heads = {m: head(m) for m in m_grid}
    c2 = tuple(_vanishing(f"c2_column_{n}", _scan(m_grid, [abs(complex(heads[m][n])) for m in m_grid]),
                          tol, f"column {n} ")
               for n in range(n_max + 1))

    # condition 3: row sums tend to 1 on the tail grid
    c3 = _tends_to_one("c3_row_sum", _scan(m_grid, signed), half, tol,
                       "row sum at m={} is {:.6g}, not 1", note=_NO_ROW_CERTIFICATE)
    return MatrixRegularityReport(spec.name, c1, c2, c3)


# ---------------------------------------------------------------------------
# Kernel form


@dataclass(frozen=True)
class KernelRegularityReport(_RegularityReport):
    method: str
    k1: ConditionCheck
    k2: ConditionCheck
    k3: tuple  # one ConditionCheck per compact window
    k4: ConditionCheck
    notes: tuple = field(default=_FOOTER_NOTES)

    def conditions(self):
        yield self.k1
        yield self.k2
        yield from self.k3
        yield self.k4


def check_kernel_st(spec: KernelSpec, r_depth: int = 20, exhaust_depth: int = 12,
                    tol: float = 1e-6) -> KernelRegularityReport:
    """Four-condition regularity check for a kernel method.

    Condition 3 accepts a window when ``domains.decay_verdict`` says its
    mass tends to 0: within tol at the last ``domains._WINDOW`` parameters,
    or a clear decaying trend, since escape of mass from a compact set can
    be arbitrarily slow (logarithmic kernels decay like 1/k in the grid
    index).  It fails a window only if it cuts the support at ``_WINDOW``
    grid points or more: holding a whole support, it holds the full mass.
    """
    r_grid = parameter_grid(spec.F, r_depth)
    half = len(r_grid) // 2
    windows = [exhaustion(spec.E, j).hi for j in range(exhaust_depth + 1)]
    absolute, *masses, signed = _kernel_integrals(spec, r_grid, windows)

    # conditions 1 and 2: the integrals of |a(r, .)| over all of E
    cells, values, undecided = _scan(r_grid, absolute)
    k1 = ConditionCheck(
        "k1_abs_integral", UNDECIDED if undecided else PASS,
        tuple((r, value, verdict or PASS) for r, value, verdict in cells),
        note="" if not undecided else "integral undefined at some grid parameters")
    if len(values) >= 2:
        k2 = _bounded("k2_abs_sup", tuple(c for c in cells if c[2] != UNDECIDED), values, half,
                      undecided, "integrals of |a| grow (slope {slope:.3g})")
    else:
        k2 = ConditionCheck("k2_abs_sup", UNDECIDED, ())

    # condition 3: mass escapes every compact window; a support end of None has no end
    ends = [_kernel_support(spec, r)[1] for r in r_grid]
    k3 = []
    for j, (c, mass) in enumerate(zip(windows, masses)):
        check = _vanishing(f"k3_window_{j}", _scan(r_grid, mass), tol, f"window {j}: mass ")
        cut = sum(end is None or end > c for end in ends)
        if check.verdict == FAIL and cut < _WINDOW:
            check = replace(check, verdict=UNDECIDED, witness="", note=f"the window cuts the "
                            f"support at {cut} of {len(r_grid)} grid points, fewer than {_WINDOW}")
        k3.append(check)

    # condition 4: total mass tends to 1
    k4 = _tends_to_one("k4_total_mass", _scan(r_grid, signed), half, tol,
                       "total mass at r={:.6g} is {:.6g}, not 1")
    return KernelRegularityReport(spec.name, k1, k2, tuple(k3), k4)


# ---------------------------------------------------------------------------
# Group norm


@dataclass(frozen=True)
class GroupNormValue:
    value: float
    truncation: int


def group_norm_scalar_row(coeffs, N: int) -> GroupNormValue:
    """Group norm of a scalar operator row: the l1 partial sum of |a_k|.

    For rows T_k = a_k I the group norm collapses to the l1 norm of the
    scalars, so the partial sums are exact and monotone in the truncation.
    """
    if N < 0:
        raise ValueError("truncation must be >= 0")
    total = math.fsum(abs(complex(coeffs(k))) for k in range(N + 1))
    return GroupNormValue(total, N)
