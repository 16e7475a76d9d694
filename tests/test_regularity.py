"""Regularity checkers: builtin verdicts, analytic oracles, group norm."""

import json
import math
import time

import numpy as np
import pytest

from sumkit.domains import HALF_LINE, NAT, UNIT_INTERVAL, exhaustion, parameter_grid
from sumkit.integrate import QuadratureConfig, QuadratureError
from sumkit.methods import (
    DEFAULT_TRUNCATION,
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
    FAIL,
    NOT_REGULAR,
    INCONCLUSIVE_OVERALL,
    PASS,
    REGULAR_EVIDENCE,
    UNDECIDED,
    _kernel_integral,
    check_kernel_st,
    check_matrix_st,
    group_norm_scalar_row,
)


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
        _kernel_integral(logarithmic_method(), r, QuadratureConfig(), DEFAULT_TRUNCATION,
                         absolute=True)
    assert time.perf_counter() - start < 2.0
    assert "budget" in str(err.value)

    report = check_kernel_st(logarithmic_method(), r_depth=28)
    assert report.overall == INCONCLUSIVE_OVERALL
    assert report.k1.verdict == UNDECIDED
    cell_r, value, verdict = report.k1.cells[-1]
    assert cell_r == r and math.isnan(value) and verdict == UNDECIDED


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
        measure="lebesgue",
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
        measure="counting",
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


def test_matrix_and_kernel_checkers_agree_on_builtins():
    for spec in (cesaro_method(), identity_method(), series_summation_method()):
        matrix_report = check_matrix_st(spec)
        kernel_report = check_kernel_st(as_kernel(spec), r_depth=10, exhaust_depth=6)
        assert matrix_report.overall == kernel_report.overall


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
