"""Regularity checkers: builtin verdicts, analytic oracles, group norm."""

import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumkit import methods, regularity
from sumkit.cli import build_method
from sumkit.domains import HALF_LINE, INCONCLUSIVE, NAT, UNIT_INTERVAL, exhaustion, parameter_grid
from sumkit.inclusion import regularity_evidence
from sumkit.integrate import QuadratureError
from sumkit.methods import (
    KernelSpec,
    abel_method,
    as_kernel,
    cesaro_method,
    identity_method,
    logarithmic_method,
    scaled_method,
    series_summation_method,
)
from sumkit.regularity import (
    DEFAULT_M_GRID,
    FAIL,
    NOT_REGULAR,
    INCONCLUSIVE_OVERALL,
    KernelRegularityReport,
    MatrixRegularityReport,
    PASS,
    REGULAR_EVIDENCE,
    _kernel_integrals,
    check_kernel_st,
    check_matrix_st,
    group_norm_scalar_row,
)


def _kernel_integral(spec, r, upto=None, absolute=False):
    """One cell of the ``_kernel_integrals`` table at the one point r.

    The integral of |a(r, .)| (``absolute``) over the support cut to [0, upto],
    or of a(r, .) over all of it; raises the error of a failed integral.
    """
    assert absolute or upto is None, "the table cuts only absolute integrals to a window"
    whole, *windows, signed = _kernel_integrals(spec, [r], () if upto is None else (upto,))
    (value,) = windows[0] if windows else whole if absolute else signed
    if isinstance(value, (QuadratureError, methods.NonSummableError)):
        raise value
    return value


# ---------------------------------------------------------------------------
# matrix form


def test_cesaro_regular_evidence():
    report = check_matrix_st(cesaro_method())
    assert report.overall == REGULAR_EVIDENCE
    # row sums are exactly one on the grid
    for m, value, _ in report.c3.cells:
        assert value == 1.0
    # columns decay like 1/(m+1)
    assert all(c.verdict == PASS for c in report.c2)


def test_identity_regular_evidence():
    report = check_matrix_st(identity_method())
    assert report.overall == REGULAR_EVIDENCE


def test_series_summation_not_regular_with_row_sum_witness():
    report = check_matrix_st(series_summation_method())
    assert report.overall == NOT_REGULAR
    assert report.c1.verdict == FAIL
    assert "row absolute sums" in report.witness
    # the witness quotes the unbounded growth, values are m + 1
    for m, value, _ in report.c1.cells:
        assert value == pytest.approx(m + 1.0, rel=1e-12)


@pytest.mark.parametrize("spec", [
    identity_method(), cesaro_method(), series_summation_method(),
    build_method({"kind": "matrix",
                  "entries": "exp(-n / (m + 1)) * log(m + 2) / pow(m + 1, 1.5) + 0.5j * pow(0.9, n)"}),
], ids=lambda spec: spec.name)
def test_column_cells_equal_the_scalar_entries(spec):
    # condition 2 reads one row block per grid row; each cell is still |a_{m, n}|
    report = check_matrix_st(spec)
    assert len(report.c2) == 33
    for n, check in enumerate(report.c2):
        assert [m for m, _, _ in check.cells] == list(DEFAULT_M_GRID)
        for m, value, _ in check.cells:
            assert value == abs(spec.entry(m, n)), (m, n)


def test_matrix_report_serializes():
    report = check_matrix_st(cesaro_method(), m_grid=[2, 4, 8, 16], n_max=2)
    rows = report.rows()
    assert ("overall", "", "", REGULAR_EVIDENCE) in rows
    payload = json.dumps(report.to_jsonable())
    assert "c1_row_abs_sum" in payload


# ---------------------------------------------------------------------------
# kernel form


def test_logarithmic_kernel_regular_with_analytic_k3_k4():
    report = check_kernel_st(logarithmic_method(), r_depth=20, exhaust_depth=12)
    assert report.overall == REGULAR_EVIDENCE

    # k4: total mass equals 1 within 1e-8 at every grid r
    for r, value, _ in report.k4.cells:
        assert abs(value - 1.0) <= 1e-8

    # k3: window masses match log(1 - min(r, c_j)) / log(1 - r) within 1e-8
    for j, check in enumerate(report.k3):
        c_j = exhaustion(UNIT_INTERVAL, j).hi
        for r, value, _ in check.cells:
            expected = math.log1p(-min(r, c_j)) / math.log1p(-r)
            assert value == pytest.approx(expected, abs=1e-8)


def test_noisy_log_kernel_integral_stops_at_the_evaluation_budget():
    # at r = 1 - 2^-28 the substituted |a| integrand is rounding noise near
    # the boundary, so bisection never settles; the default budget ends it
    r = 1.0 - 2.0**-28
    start = time.perf_counter()
    with pytest.raises(QuadratureError) as err:
        _kernel_integral(logarithmic_method(), r, absolute=True)
    assert time.perf_counter() - start < 2.0
    assert "budget" in str(err.value)

    report = check_kernel_st(logarithmic_method(), r_depth=28)
    assert report.overall == INCONCLUSIVE_OVERALL
    assert report.k1.verdict == INCONCLUSIVE
    cell_r, value, verdict = report.k1.cells[-1]
    assert cell_r == r and math.isnan(value) and verdict == INCONCLUSIVE


def test_lockstep_kernel_cells_equal_per_cell_integrals():
    # every scan of check_kernel_st integrates its whole r-grid at once;
    # each cell must equal the integral taken alone, failures included
    spec = logarithmic_method()
    report = check_kernel_st(spec, r_depth=30)
    scans = [(report.k1, None, True), (report.k4, None, False)]
    scans += [(check, exhaustion(spec.E, j).hi, True) for j, check in enumerate(report.k3)]
    for check, upto, absolute in scans:
        for r, value, verdict in check.cells:
            try:
                lone = _kernel_integral(spec, r, upto, absolute)
            except QuadratureError:
                assert math.isnan(value) and verdict == INCONCLUSIVE
            else:
                assert value == lone and type(value) is type(lone)
    undecided = [r for r, _, verdict in report.k1.cells if verdict == INCONCLUSIVE]
    assert undecided == [1.0 - 2.0**-k for k in (28, 29, 30)]


def test_windows_that_cut_nothing_take_the_whole_integral(monkeypatch):
    # on logarithmic-st window j cuts nothing away at r = 1 - 2^-k for k <= j + 1:
    # those 91 of the 260 window cells take their k1 integral, so the scans
    # hand the engine 20 (k1) + 169 (k3) + 20 (k4) intervals, not 300
    handed = []
    family = methods.adaptive_quadrature_family

    def counting(fbatch, intervals, cfg):
        handed.extend(intervals)
        return family(fbatch, intervals, cfg)

    monkeypatch.setattr(methods, "adaptive_quadrature_family", counting)
    spec = logarithmic_method()
    report = check_kernel_st(spec, r_depth=20, exhaust_depth=12)
    assert len(handed) == 209
    reused = 0
    for j, check in enumerate(report.k3):
        upto = exhaustion(spec.E, j).hi
        for (r, value, _), (_, whole, _) in zip(check.cells, report.k1.cells):
            assert value == _kernel_integral(spec, r, upto, absolute=True)
            if r <= upto:
                assert value == whole
                reused += 1
    assert reused == 91


def test_a_lebesgue_check_takes_its_integral_table_in_two_engine_calls(monkeypatch):
    # every absolute integral (k1 and the 13 windows) in one call, the signed
    # ones (k4) in the other
    calls = []
    family = methods.adaptive_quadrature_family

    def counting(fbatch, intervals, cfg):
        calls.append(len(intervals))
        return family(fbatch, intervals, cfg)

    monkeypatch.setattr(methods, "adaptive_quadrature_family", counting)
    check_kernel_st(logarithmic_method(), r_depth=20, exhaust_depth=12)
    assert calls == [189, 20]


@pytest.mark.parametrize("spec", [as_kernel(abel_method()), as_kernel(cesaro_method())])
def test_counting_kernel_table_equals_its_per_point_sums(spec):
    grid = parameter_grid(spec.F, 8)
    windows = [exhaustion(spec.E, j).hi for j in range(5)]
    table = _kernel_integrals(spec, grid, windows)
    assert len(table) == len(windows) + 2
    for k, p in enumerate(grid):
        alone = [value for (value,) in _kernel_integrals(spec, [p], windows)]
        column = [row[k] for row in table]
        assert column == alone
        assert all(type(v) is float for v in column[:-1]) and type(column[-1]) is complex
    if spec.F == NAT:  # finite rows: the absolute sums over each cut, the exact signed sum
        for k, m in enumerate(grid):
            entries = np.abs(spec.kernel_batch(m, np.arange(m + 1)))
            for row, end in zip(table, [m, *windows]):
                assert row[k] == pytest.approx(math.fsum(entries[:int(end) + 1]), rel=1e-15)
            assert table[-1][k] == math.fsum(entries)


# ---------------------------------------------------------------------------
# counting tables in lockstep: each cell has the bits of its own certified sum

# the hypothesis profiles are registered in conftest.py
PROFILE = settings.get_profile(os.environ.get("SUMKIT_CLOSED_FORMS_PROFILE", "closed-forms"))


def _per_cell_table(spec, grid, windows):
    """``_kernel_integrals`` of a counting kernel, each cell summed alone.

    Every certified sum is one row, ``_certified_sum([row], _ONES)``, and a
    finite signed row is the math.fsum of the real and of the imaginary
    parts of its entries cast to complex.
    """
    def total(row):
        (out,) = methods._certified_sum([row], regularity._ONES)
        return out if isinstance(out, methods.NonSummableError) else complex(out[0])

    modulus = lambda q, ns: np.abs(spec.kernel_batch(q, ns))
    columns = []
    for p in grid:
        mass = methods._row(spec, p)._replace(weight=None)
        moduli = mass._replace(kernel=modulus, tail_sum=mass.tail_abs)
        windowed = moduli._replace(tail_abs=None, tail_sum=None)
        column = [total(moduli)] + [total(windowed._replace(
            hi=int(c if mass.hi is None else min(mass.hi, c)))) for c in windows]
        if mass.hi is None:
            column.append(total(mass))
        else:
            entries = np.asarray(mass.coeffs(mass.lo, mass.hi + 1), dtype=complex)
            column.append(complex(math.fsum(entries.real), math.fsum(entries.imag)))
        columns.append(column)
    *absolute, signed = [list(row) for row in zip(*columns)]
    return [[v if isinstance(v, Exception) else v.real for v in row] for row in absolute] + [signed]


def _cell_bits(value):
    """A cell's type and repr, or its failure's type, message, terms and partial sum's bytes."""
    if isinstance(value, Exception):
        partial = None if value.partial is None else value.partial.coords.tobytes()
        return type(value).__name__, str(value), value.terms, partial
    return type(value).__name__, repr(value)


def _finite_kernel(scale, start, end, dtype):
    """a(m, n) on n = m // start .. scale * m + end as an int, a float or a complex block.

    The ints are -1, 0, 1 by n + m mod 3, the floats (n + 1)^-1/2 / (m + 1),
    and the complex values those floats turned by e^(i n).
    """
    def kernel_batch(m, ns):
        m, ns = np.asarray(m), np.asarray(ns)
        if dtype == "int":
            return (ns + m) % 3 - 1
        out = 1.0 / np.sqrt(ns + 1.0) / (m + 1.0)
        return out * np.exp(1j * ns) if dtype == "complex" else out

    return KernelSpec(name="finite", kernel_batch=kernel_batch, E=NAT, F=NAT,
                      support=lambda m: (m // start, scale * m + end))


def _phase_kernel(theta, poison):
    """(1 - r) r^n e^(i theta n) with tail_abs r^(N+1) and no tail_sum; nan at n = poison, r >= 1/2."""
    def kernel_batch(r, ns):
        ns = np.asarray(ns, dtype=float)
        out = (1.0 - r) * r ** ns * np.exp(1j * theta * ns)
        return out if poison is None else np.where((ns == poison) & (r >= 0.5), np.nan, out)

    return KernelSpec(name="phase", kernel_batch=kernel_batch, E=NAT, F=UNIT_INTERVAL,
                      tail_abs=lambda r, lo, hi: r ** np.arange(lo + 1, hi + 1, dtype=float))


_UNIT_PARAMS = st.lists(st.one_of(st.sampled_from(parameter_grid(UNIT_INTERVAL, 10)),
                                  st.floats(0.05, 1.0 - 2.0**-10)), min_size=1, max_size=10)


@st.composite
def counting_tables(draw):
    """(spec, grid, windows): a generated counting kernel on a grid of its F."""
    kind = draw(st.sampled_from(["scaled_abel", "abel_as_kernel", "config", "finite", "phase"]))
    if kind == "scaled_abel":
        factor = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([2 - 1j, 0.5j])))
        spec = scaled_method(abel_method(), factor)
    elif kind == "abel_as_kernel":
        spec = as_kernel(abel_method())
    elif kind == "config":
        spec = build_method({"kind": "seq_to_func", "coeff": draw(st.sampled_from(
            ["(1 - r) * r**n", "(1 - r)**2 * (n + 1) * r**n"]))})
    elif kind == "finite":
        spec = _finite_kernel(draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                              draw(st.integers(0, 3)),
                              draw(st.sampled_from(["int", "float", "complex"])))
    else:
        spec = _phase_kernel(draw(st.floats(0.0, 2.0 * math.pi)),
                             draw(st.sampled_from([None, 0, 70, 3_000])))
    if spec.F == NAT:
        grid = draw(st.lists(st.integers(0, 16), min_size=1, max_size=12))
    else:
        grid = draw(_UNIT_PARAMS)
    windows = [exhaustion(spec.E, j).hi for j in range(draw(st.integers(0, 12)))]
    return spec, grid, windows


@PROFILE
@given(table=counting_tables())
# windows that cut the supports of some rows only, and rows that fail on a nan
@example(table=(_finite_kernel(3, 2, 0, "complex"), [0, 1, 2, 3, 5, 8, 13, 8], list(range(8))))
@example(table=(_phase_kernel(1.0, 70), parameter_grid(UNIT_INTERVAL, 8), list(range(4))))
def test_a_counting_table_has_the_bits_of_its_cells_summed_alone(table):
    spec, grid, windows = table
    lockstep = _kernel_integrals(spec, grid, windows)
    alone = _per_cell_table(spec, grid, windows)
    assert len(lockstep) == len(alone) == len(windows) + 2
    for got, want in zip(lockstep, alone):
        assert [_cell_bits(v) for v in got] == [_cell_bits(v) for v in want], spec.name


def test_a_counting_check_sums_each_family_in_one_certified_sum_per_start_and_end(monkeypatch):
    # Abel's rows all run from 0 with no end: the absolute masses, each of the
    # 9 windows and the signed masses are one lockstep sum each, not 16 * 11
    calls = []
    certified_sum = regularity._certified_sum

    def counting(rows, source, *args):
        calls.append(len(rows))
        return certified_sum(rows, source, *args)

    monkeypatch.setattr(regularity, "_certified_sum", counting)
    check_kernel_st(as_kernel(abel_method()), r_depth=16, exhaust_depth=8)
    assert calls == [16] * 11


def test_a_grid_too_short_for_a_trend_does_not_fail_a_regular_method():
    # one value in the last half of a path has slope 0 by default, not "stuck"
    cesaro = check_matrix_st(cesaro_method(), m_grid=parameter_grid(NAT, 2))
    assert cesaro.overall == INCONCLUSIVE_OVERALL and cesaro.witness == ""
    assert [c.verdict for c in cesaro.c2[:5]] == [INCONCLUSIVE] * 5  # columns past 4 are 0
    abel = check_kernel_st(as_kernel(abel_method()), r_depth=2, exhaust_depth=1)
    assert abel.overall == INCONCLUSIVE_OVERALL and abel.witness == ""
    assert [c.verdict for c in abel.k3] == [INCONCLUSIVE, INCONCLUSIVE]


@pytest.mark.parametrize("r_depth, exhaust_depth, stuck", [(8, 8, [7, 8]), (20, 19, [18, 19])])
def test_a_window_the_grid_barely_passes_does_not_fail(r_depth, exhaust_depth, stuck):
    # window j = 1 - 2^-(j+1) cuts the support [0, r] only at r = 1 - 2^-k, k > j + 1;
    # where it holds the whole support its mass is 1 by construction
    report = check_kernel_st(logarithmic_method(), r_depth=r_depth, exhaust_depth=exhaust_depth)
    assert report.overall == INCONCLUSIVE_OVERALL and report.witness == ""
    assert all(c.verdict != FAIL for c in report.conditions())
    for j in stuck:
        check = report.k3[j]
        cut = max(0, r_depth - j - 1)
        assert check.verdict == INCONCLUSIVE
        assert check.note == (f"the window cuts the support at {cut} of {r_depth} grid points, "
                              f"fewer than 4")
        assert [value for _, value, _ in check.cells][:r_depth - cut] == \
            [value for _, value, _ in report.k1.cells][:r_depth - cut]


def test_a_counting_kernel_with_no_finite_row_is_inconclusive_everywhere():
    # Abel's coefficients on [0, 1) with a nan at n = 0 for r >= 1/2, so every
    # row of the grid 1 - 2^-k fails its certified sum: no condition has a
    # value to judge, and none fails
    spec = KernelSpec(name="nan_head", E=NAT, F=UNIT_INTERVAL,
                      kernel_batch=lambda r, ns: np.where((ns == 0) & (r >= 0.5), np.nan,
                                                          (1.0 - r) * r ** ns))
    report = check_kernel_st(spec, r_depth=6, exhaust_depth=2)
    assert report.overall == INCONCLUSIVE_OVERALL and report.witness == ""
    for check in (report.k1, *report.k3, report.k4):
        assert check.verdict == INCONCLUSIVE
        assert len(check.cells) == 6
        assert all(math.isnan(value) and verdict == INCONCLUSIVE for _, value, verdict in check.cells)
    assert len(report.k3) == 3
    assert (report.k2.verdict, report.k2.cells) == (INCONCLUSIVE, ())


def test_scaled_logarithmic_flips_only_condition_four():
    base = check_kernel_st(logarithmic_method(), r_depth=12, exhaust_depth=6)
    doubled = check_kernel_st(scaled_method(logarithmic_method(), 2.0),
                              r_depth=12, exhaust_depth=6)
    assert doubled.overall == NOT_REGULAR
    assert doubled.k4.verdict == FAIL
    assert "2" in doubled.witness
    assert doubled.k1.verdict == base.k1.verdict
    assert doubled.k2.verdict == base.k2.verdict
    assert [c.verdict for c in doubled.k3] == [c.verdict for c in base.k3]
    assert base.k4.verdict == PASS


def test_translation_kernel_mass_escapes_every_window():
    # a(r, t) = chi_[r, r+1](t) on E = F = [0, inf): unit mass marching out
    def kernel_batch(r, ts):
        ts = np.asarray(ts, dtype=float)
        return ((ts >= r) & (ts <= r + 1.0)).astype(complex)

    spec = KernelSpec(
        name="translation",
        E=HALF_LINE,
        F=HALF_LINE,
        kernel_batch=kernel_batch,
        support=lambda r: (r, r + 1.0),
    )
    report = check_kernel_st(spec, r_depth=14, exhaust_depth=8)
    assert report.overall == REGULAR_EVIDENCE
    # oracle: window mass is max(0, min(c_j, r+1) - r)
    for j, check in enumerate(report.k3):
        c_j = exhaustion(HALF_LINE, j).hi
        for r, value, _ in check.cells:
            expected = max(0.0, min(c_j, r + 1.0) - r)
            assert value == pytest.approx(expected, abs=1e-10)


def test_counting_kernel_mass_starts_at_the_support_start():
    # a(r, n) = 1/2 for n in {r, r + 1}: total mass 1, not the (r + 2)/2
    # that summing from n = 0 would give
    spec = KernelSpec(
        name="half_pair",
        kernel_batch=lambda r, ts: np.full(len(ts), 0.5, dtype=complex),
        E=NAT,
        F=NAT,
        support=lambda r: (r, r + 1),
    )
    report = check_kernel_st(spec, r_depth=10, exhaust_depth=4)
    assert [value for _, value, _ in report.k4.cells] == [1.0] * 10
    assert [value for _, value, _ in report.k1.cells] == [1.0] * 10
    assert report.overall == REGULAR_EVIDENCE


def test_abel_coefficients_as_kernel_regular_k4_exact():
    report = check_kernel_st(as_kernel(abel_method()), r_depth=16, exhaust_depth=8)
    assert report.overall == REGULAR_EVIDENCE
    for r, value, _ in report.k4.cells:
        assert abs(value - 1.0) <= 1e-12  # geometric identity after tail closure


def test_abel_method_is_read_by_the_kernel_form_as_its_counting_kernel():
    # a sequence-to-function spec is a counting kernel: no as_kernel needed
    direct = check_kernel_st(abel_method())
    via_kernel = check_kernel_st(as_kernel(abel_method()))
    assert direct.method == "abel" and via_kernel.method == "abel_as_kernel"
    assert direct.rows() == via_kernel.rows()
    assert direct.overall == REGULAR_EVIDENCE


def test_regularity_evidence_takes_the_matrix_form_for_a_declared_matrix_only():
    for spec in (cesaro_method(), scaled_method(identity_method(), 2),
                 build_method({"kind": "matrix", "entries": "1"})):
        assert isinstance(regularity_evidence(spec)[1], MatrixRegularityReport)
    # as_kernel is the way to the kernel form of a matrix
    for spec in (as_kernel(identity_method()), abel_method(), logarithmic_method()):
        assert isinstance(regularity_evidence(spec)[1], KernelRegularityReport)


def test_supported_counting_kernel_on_the_naturals_same_verdict_in_both_forms():
    # 1/2 at n = m and m + 1, nothing else: regular, and every column vanishes
    # only if the matrix form reads the kernel on its support alone
    spec = build_method({"kind": "kernel", "kernel": "0.5", "E": "nat", "F": "nat",
                         "support": "unit_window"})
    assert spec.kernel(3, 0) == 0.5  # the formula alone does not vanish off the support
    matrix_report = check_matrix_st(spec)
    kernel_report = check_kernel_st(spec, r_depth=10, exhaust_depth=6)
    assert all(c.verdict == PASS for c in matrix_report.c2)
    assert matrix_report.overall == kernel_report.overall == REGULAR_EVIDENCE


def test_matrix_and_kernel_checkers_agree_on_builtins():
    for spec in (cesaro_method(), identity_method(), series_summation_method()):
        matrix_report = check_matrix_st(spec)
        kernel_report = check_kernel_st(as_kernel(spec), r_depth=10, exhaust_depth=6)
        assert matrix_report.overall == kernel_report.overall

        # on the same grid the row sums are the counting kernel's masses
        same_grid = check_matrix_st(spec, m_grid=parameter_grid(NAT, 10))
        kernel_report = check_kernel_st(as_kernel(spec), r_depth=10)
        assert [v for _, v, _ in same_grid.c1.cells] == [v for _, v, _ in kernel_report.k1.cells]
        assert [v for _, v, _ in same_grid.c3.cells] == [v for _, v, _ in kernel_report.k4.cells]


def test_finite_counting_kernel_mass_is_the_exact_sum_of_its_entries():
    # a(r, n) = 1/(3r + 1) on n = 0..3r: a blockwise float sum of the
    # entries can miss 1 by an ulp (0.9999999999999998 at r = 2); the
    # kernel broadcasts over a column of parameters, as a counting kernel must
    spec = KernelSpec(
        name="flat_3r",
        kernel_batch=lambda r, ts: np.full(np.broadcast_shapes(np.shape(r), np.shape(ts)),
                                           1.0 / (3 * r + 1), dtype=complex),
        E=NAT,
        F=NAT,
        support=lambda r: (0, 3 * r),
    )
    report = check_kernel_st(spec, r_depth=10, exhaust_depth=2)
    for r, value, _ in report.k4.cells:
        entries = spec.kernel_batch(r, np.arange(3 * r + 1))
        assert value == math.fsum(entries.real)
    assert report.k4.verdict == PASS


def test_a_counting_kernel_that_cannot_take_a_column_names_the_contract():
    # the windows of a table sum every row they cut to the same end in
    # lockstep, reading the kernel at a column of parameters
    spec = KernelSpec(
        name="flat_3r_scalar_only",
        kernel_batch=lambda r, ts: np.full(len(ts), 1.0 / (3 * r + 1), dtype=complex),
        E=NAT,
        F=NAT,
        support=lambda r: (0, 3 * r),
    )
    with pytest.raises(ValueError, match="a counting kernel and its tails must be elementwise"):
        check_kernel_st(spec, r_depth=10, exhaust_depth=2)


def test_kernel_scaling_law_on_abel_kernel():
    spec = as_kernel(abel_method())
    base = check_kernel_st(spec, r_depth=10, exhaust_depth=5)
    scaled = check_kernel_st(scaled_method(spec, 3.0), r_depth=10, exhaust_depth=5)
    assert scaled.k4.verdict == FAIL
    assert base.k4.verdict == PASS
    assert scaled.k1.verdict == base.k1.verdict
    assert scaled.k2.verdict == base.k2.verdict
    assert [c.verdict for c in scaled.k3] == [c.verdict for c in base.k3]


def test_kernel_report_serializes():
    report = check_kernel_st(logarithmic_method(), r_depth=6, exhaust_depth=3)
    rows = report.rows()
    assert any(row[0] == "k4_total_mass" for row in rows)
    json.dumps(report.to_jsonable())


# ---------------------------------------------------------------------------
# group norm


def test_group_norm_cesaro_row_exactly_one():
    spec = cesaro_method()
    for m in [4] + [2**k for k in range(1, 15)]:
        gn = group_norm_scalar_row(lambda k, m=m: spec.entry(m, k), m)
        assert gn.value == 1.0
        assert gn.truncation == m


def test_group_norm_geometric_alternating():
    coeffs = lambda k: (-1.0) ** k / 2.0**k
    values = [group_norm_scalar_row(coeffs, N).value for N in range(40)]
    # monotone, partial sums 2 - 2^-N, limit 2
    assert all(a <= b for a, b in zip(values, values[1:]))
    for N, v in enumerate(values):
        assert v == pytest.approx(2.0 - 2.0**-N, rel=1e-14)
    assert values[-1] == pytest.approx(2.0, abs=1e-11)


def test_group_norm_zero_row():
    assert group_norm_scalar_row(lambda k: 0.0, 17).value == 0.0


def test_group_norm_matches_l1_partial_sum_exactly():
    rng = np.random.default_rng(41)
    weights = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    for N in (0, 5, 29):
        expected = math.fsum(abs(weights[k]) for k in range(N + 1))
        assert group_norm_scalar_row(lambda k: weights[k], N).value == expected
