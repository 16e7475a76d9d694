"""Numerical regularity diagnostics for summability methods.

Matrix form: (1) row absolute sums bounded, (2) columns vanishing, (3) row
sums tending to 1.  Kernel form: (1) integrability of |a(r, .)| at each r,
(2) boundedness of those integrals over r, (3) escape of mass from every
compact window, (4) total mass tending to 1.

Finite computation can falsify these quantified conditions or accumulate
evidence, never prove them, so verdicts are three-valued: "pass" (evidence),
"fail" (with a concrete witness), "inconclusive".  Trend detection fits the
slope of log-values against the log of the grid index; slopes beyond +/-0.05
count as growth/decay.  Report notes record the finite-sample caveats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domains import exhaustion, loglog_slope, non_increasing, parameter_grid
from .integrate import QuadratureConfig, QuadratureError, adaptive_quadrature_batch
from .methods import (
    DEFAULT_TRUNCATION,
    KernelSpec,
    MatrixSpec,
    NonSummableError,
    SequenceSource,
    TruncationPolicy,
    _at,
    _certified_sum,
    _kernel_support,
)
from .vspace import SCALAR

PASS = "pass"
FAIL = "fail"
UNDECIDED = "inconclusive"

REGULAR_EVIDENCE = "RegularEvidence"
NOT_REGULAR = "NotRegular"
INCONCLUSIVE_OVERALL = "Inconclusive"

GROWTH_SLOPE = 0.05

_FOOTER_NOTES = (
    "verdicts are finite-sample evidence or falsification, not proofs",
    "boundedness is tested on the sampled grid only; behaviour on null sets is out of numeric reach",
)

DEFAULT_M_GRID = tuple(2**k for k in range(1, 15))


@dataclass(frozen=True)
class ConditionCheck:
    """One regularity condition: per-cell values plus an overall verdict."""

    condition: str
    verdict: str
    cells: tuple = ()  # (grid_param, value, cell_verdict) triples
    witness: str = ""
    note: str = ""


def _decay_verdict(values: Sequence[float], tol: float) -> tuple:
    """Evidence that a grid path of nonnegative values tends to 0.

    Reaching tol at the largest grid point, or a clean monotone decay trend
    over the tail, counts as evidence; values stuck above 10*tol falsify.
    Returns (verdict, witness_detail, note).
    """
    tail = values[len(values) // 2:]
    slope = loglog_slope(tail)
    if values[-1] <= tol:
        return PASS, "", "reached tol at the largest grid point"
    if non_increasing(tail) and slope <= -GROWTH_SLOPE:
        return PASS, "", f"decaying trend (slope {slope:.3g})"
    # falsified only when mass is present across the whole tail yet not decaying;
    # a path that just became nonzero at the end is undecided, not failed
    if min(tail) > tol and values[-1] > 10.0 * tol and slope > -0.01:
        return FAIL, f"stuck at {_fmt(values[-1])} (slope {slope:.3g})", ""
    return UNDECIDED, "", f"trend unclear (slope {slope:.3g})"


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
# Matrix form


_ONES = SequenceSource(block=lambda lo, hi: np.ones((hi - lo, 1), dtype=complex))


def _row_abs_sum(spec: MatrixSpec, m: int, trunc: TruncationPolicy) -> float:
    tail = _at(spec.row_tail_abs, m)
    coords, _, _ = _certified_sum(
        lambda a, b: np.abs(spec.row_block(m, a, b)) + 0j, _ONES, trunc, spec.row_support(m),
        tail_abs=tail, tail_sum=tail, label=f"{spec.name} |row| {m}")
    return float(coords[0].real)


def _row_sum(spec: MatrixSpec, m: int, trunc: TruncationPolicy) -> complex:
    lo, end = spec.row_support(m)
    if end is not None and end - lo <= 2_000_000:
        # finite row: exact compensated summation, no tolerance involved
        entries = np.asarray(spec.row_block(m, lo, end + 1), dtype=complex)
        return complex(math.fsum(entries.real), math.fsum(entries.imag))
    coords, _, _ = _certified_sum(
        lambda a, b: spec.row_block(m, a, b), _ONES, trunc, (lo, end),
        tail_abs=_at(spec.row_tail_abs, m), tail_sum=_at(spec.row_tail_sum, m),
        label=f"{spec.name} row sum {m}")
    return complex(coords[0])


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
                    n_max: int = 32, tol: float = 1e-6,
                    trunc: TruncationPolicy = DEFAULT_TRUNCATION) -> MatrixRegularityReport:
    """Three-condition regularity check for a matrix method on a row grid.

    Column checks cover n <= n_max and are judged on the last half of the
    grid, so n_max must stay well below the smallest row index trusted
    there.  Rows whose absolute sum achieves no tail certificate mark the
    condition inconclusive, never failed.
    """
    m_grid = sorted(int(m) for m in m_grid)
    half = len(m_grid) // 2
    tail_grid = m_grid[half:]

    # condition 1: row absolute sums bounded
    c1_cells = []
    c1_values = []
    c1_undecided = False
    for m in m_grid:
        try:
            s = _row_abs_sum(spec, m, trunc)
            c1_cells.append((m, s, ""))
            c1_values.append(s)
        except NonSummableError as exc:
            c1_cells.append((m, math.nan, UNDECIDED))
            c1_undecided = True
    if c1_undecided:
        c1 = ConditionCheck("c1_row_abs_sum", UNDECIDED, tuple(c1_cells),
                            note="tail certificate unavailable for some rows")
    else:
        slope = loglog_slope(c1_values[half:])
        if slope > GROWTH_SLOPE:
            c1 = ConditionCheck(
                "c1_row_abs_sum", FAIL, tuple(c1_cells),
                witness=f"row absolute sums grow without bound "
                        f"(log-log slope {slope:.3g}, last {_fmt(c1_values[-1])})")
        else:
            c1 = ConditionCheck("c1_row_abs_sum", PASS, tuple(c1_cells),
                                note=f"sup {_fmt(max(c1_values))}, trend slope {slope:.3g}")

    # condition 2: each column tends to 0 along the row grid
    c2_checks = []
    for n in range(n_max + 1):
        col_vals = [(m, abs(complex(spec.entry(m, n)))) for m in m_grid]
        verdict, detail, note = _decay_verdict([v for _, v in col_vals], tol)
        cells = tuple((m, v, "") for m, v in col_vals)
        c2_checks.append(ConditionCheck(
            f"c2_column_{n}", verdict, cells,
            witness="" if verdict != FAIL else f"column {n} {detail}",
            note=note))

    # condition 3: row sums tend to 1 on the tail grid
    c3_cells = []
    c3_bad = None
    c3_undecided = False
    for m in m_grid:
        try:
            s = _row_sum(spec, m, trunc)
        except NonSummableError:
            c3_cells.append((m, math.nan, UNDECIDED))
            c3_undecided = True
            continue
        dist = abs(s - 1.0)
        if m in tail_grid:
            verdict = PASS if dist <= tol else FAIL
            if verdict == FAIL and c3_bad is None:
                c3_bad = (m, s)
        else:
            verdict = ""
        c3_cells.append((m, s, verdict))
    if c3_undecided:
        c3 = ConditionCheck("c3_row_sum", UNDECIDED, tuple(c3_cells),
                            note="tail certificate unavailable for some rows")
    elif c3_bad is not None:
        c3 = ConditionCheck("c3_row_sum", FAIL, tuple(c3_cells),
                            witness=f"row sum at m={c3_bad[0]} is {c3_bad[1]:.6g}, not 1")
    else:
        c3 = ConditionCheck("c3_row_sum", PASS, tuple(c3_cells))

    return MatrixRegularityReport(spec.name, c1, tuple(c2_checks), c3)


# ---------------------------------------------------------------------------
# Kernel form


def _kernel_integral(spec: KernelSpec, r, quad: QuadratureConfig, trunc: TruncationPolicy,
                     upto=None, absolute: bool = False):
    """Integral of a(r, .) -- of |a(r, .)| when ``absolute`` -- over its support.

    ``upto`` cuts the support to the compact window [0, upto].  Absolute
    integrals are returned as floats.
    """
    lo, hi, cfg = _kernel_support(spec, r, quad)
    if upto is not None:
        hi = min(hi, upto) if hi is not None else upto

    def weights(ts):
        a = spec.kernel_batch(r, ts)
        return np.abs(a) + 0j if absolute else a

    if spec.measure == "counting":
        tail_abs = tail_sum = None
        if upto is None:
            tail_abs = _at(spec.tail_abs, r)
            tail_sum = tail_abs if absolute else _at(spec.tail_sum, r)
        coords, _, _ = _certified_sum(
            lambda a, b: weights(np.arange(a, b)), _ONES, trunc,
            (lo, None if hi is None else int(hi)), tail_abs, tail_sum,
            label=f"{spec.name} {'|kernel|' if absolute else 'kernel sum'} r={r}")
        value = complex(coords[0])
    elif hi <= lo:
        value = 0.0
    else:
        res = adaptive_quadrature_batch(lambda ts: weights(ts)[:, None], (lo, hi), cfg, SCALAR)
        value = complex(res.value.coords[0])
    return float(value.real) if absolute else value


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
                    quad: QuadratureConfig = QuadratureConfig(), tol: float = 1e-6,
                    trunc: TruncationPolicy = DEFAULT_TRUNCATION) -> KernelRegularityReport:
    """Four-condition regularity check for a kernel method.

    Condition 3 accepts a window when its mass either reaches tol at the
    largest parameter or decays with a clear negative trend: escape of mass
    from a compact set can be arbitrarily slow (logarithmic kernels decay
    like 1/k in the grid index), so an absolute threshold alone would
    falsely reject regular kernels.
    """
    r_grid = parameter_grid(spec.F, r_depth)
    half = len(r_grid) // 2

    # conditions 1 and 2 share the integrals of |a(r, .)| over all of E
    k1_cells = []
    abs_values = {}
    k1_undecided = False
    for r in r_grid:
        try:
            val = _kernel_integral(spec, r, quad, trunc, absolute=True)
            abs_values[r] = val
            k1_cells.append((r, val, PASS))
        except (QuadratureError, NonSummableError) as exc:
            k1_cells.append((r, math.nan, UNDECIDED))
            k1_undecided = True
    k1 = ConditionCheck(
        "k1_abs_integral", UNDECIDED if k1_undecided else PASS, tuple(k1_cells),
        note="" if not k1_undecided else "integral undefined at some grid parameters")

    vals = [abs_values[r] for r in r_grid if r in abs_values]
    if len(vals) >= 2:
        slope = loglog_slope(vals[half:])
        if slope > GROWTH_SLOPE:
            k2 = ConditionCheck("k2_abs_sup", FAIL,
                                tuple((r, v, "") for r, v in abs_values.items()),
                                witness=f"integrals of |a| grow (slope {slope:.3g})")
        else:
            k2 = ConditionCheck("k2_abs_sup", PASS if not k1_undecided else UNDECIDED,
                                tuple((r, v, "") for r, v in abs_values.items()),
                                note=f"sup {_fmt(max(vals))}, trend slope {slope:.3g}")
    else:
        k2 = ConditionCheck("k2_abs_sup", UNDECIDED, ())

    # condition 3: mass escapes every compact window
    k3_checks = []
    for j in range(exhaust_depth + 1):
        upto = exhaustion(spec.E, j).hi
        cells = []
        values = []
        undecided = False
        for r in r_grid:
            try:
                val = _kernel_integral(spec, r, quad, trunc, upto, absolute=True)
                cells.append((r, val, ""))
                values.append(val)
            except (QuadratureError, NonSummableError):
                cells.append((r, math.nan, UNDECIDED))
                undecided = True
        name = f"k3_window_{j}"
        if undecided:
            k3_checks.append(ConditionCheck(name, UNDECIDED, tuple(cells)))
            continue
        verdict, detail, note = _decay_verdict(values, tol)
        witness = "" if verdict != FAIL else f"window {j}: mass {detail}"
        k3_checks.append(ConditionCheck(name, verdict, tuple(cells), witness=witness, note=note))

    # condition 4: total mass tends to 1
    k4_cells = []
    k4_bad = None
    k4_undecided = False
    for r in r_grid:
        try:
            s = _kernel_integral(spec, r, quad, trunc)
        except (QuadratureError, NonSummableError):
            k4_cells.append((r, math.nan, UNDECIDED))
            k4_undecided = True
            continue
        dist = abs(s - 1.0)
        in_tail = r_grid.index(r) >= half
        verdict = "" if not in_tail else (PASS if dist <= tol else FAIL)
        if verdict == FAIL and k4_bad is None:
            k4_bad = (r, s)
        k4_cells.append((r, s, verdict))
    if k4_undecided:
        k4 = ConditionCheck("k4_total_mass", UNDECIDED, tuple(k4_cells))
    elif k4_bad is not None:
        k4 = ConditionCheck("k4_total_mass", FAIL, tuple(k4_cells),
                            witness=f"total mass at r={k4_bad[0]:.6g} is {k4_bad[1]:.6g}, not 1")
    else:
        k4 = ConditionCheck("k4_total_mass", PASS, tuple(k4_cells))

    return KernelRegularityReport(spec.name, k1, k2, tuple(k3_checks), k4)


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
