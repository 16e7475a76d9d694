"""Taylor functions: partial sums, dilates, logarithmic means, norms."""

import math

import mpmath
import numpy as np
import pytest

from sumkit.domains import UNIT_INTERVAL, parameter_grid
from sumkit import holo
from sumkit.holo import (
    ABEL_DILATE,
    CONVERGED_TO_ZERO,
    LOG_MEAN,
    PARTIAL_SUMS,
    SeriesSpace,
    NonSummableError,
    abel_dilate,
    series_norm,
    dilate_dual_deviation,
    geometric_taylor,
    log_mean_multiplier,
    log_taylor_mean,
    monomial_taylor,
    partial_sum,
    power_taylor,
    taylor_from_coefficients,
    taylor_sub,
    taylor_summability_experiment,
)
from sumkit.integrate import QuadratureConfig, _adaptive

H2 = SeriesSpace("h2")
WIENER = SeriesSpace("wiener")
DISK = SeriesSpace("disk_grid")


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sum_of_low_degree_polynomial_unchanged():
    p = taylor_from_coefficients([1, 2, 3, 4], H2)
    s = partial_sum(p, 5)
    assert np.array_equal(s.coeff_array(6), p.coeff_array(6))
    # capping a degree-3 decay at 5 changes no bound, so no truncation or norm
    for k in range(10):
        assert s.decay.coeff_bound(k) == p.decay.coeff_bound(k)
        assert s.decay.tail_l1(k) == p.decay.tail_l1(k)
        assert s.decay.tail_sq(k) == p.decay.tail_sq(k)
    for space in (H2, WIENER, DISK):
        assert series_norm(s.in_space(space)) == series_norm(p.in_space(space))


def test_partial_sum_truncates_geometric():
    f = geometric_taylor(1.0, 0.5, H2)
    s = partial_sum(f, 1)
    assert np.allclose(s.coeff_array(4), [1.0, 0.5, 0.0, 0.0, 0.0])


def test_partial_sum_zero_keeps_constant_only():
    p = taylor_from_coefficients([7, 8, 9], H2)
    assert np.array_equal(partial_sum(p, 0).coeff_array(2), [7, 0, 0])


def test_partial_sum_is_projection_exactly():
    f = geometric_taylor(2.0, 0.7, H2)
    once = partial_sum(f, 6)
    twice = partial_sum(once, 6)
    assert np.array_equal(once.coeff_array(10), twice.coeff_array(10))


# ---------------------------------------------------------------------------
# dilates


def test_dilate_at_zero_keeps_constant_term():
    p = taylor_from_coefficients([3, 1, 4, 1, 5], H2)
    d = abel_dilate(p, 0.0)
    assert np.array_equal(d.coeff_array(4), [3, 0, 0, 0, 0])


def test_dilate_flat_coefficients():
    p = taylor_from_coefficients([1, 1, 1], H2)
    d = abel_dilate(p, 0.5)
    assert np.allclose(d.coeff_array(2), [1.0, 0.5, 0.25], atol=1e-14)


def test_dilate_of_monomial_has_norm_r_to_k():
    for k in (0, 3, 7):
        for r in (0.25, 0.9):
            d = abel_dilate(monomial_taylor(k, H2), r)
            assert series_norm(d) == pytest.approx(r**k, rel=1e-12)


def test_dilate_dual_forms_agree_on_random_polynomials():
    rng = np.random.default_rng(64)
    for _ in range(20):
        deg = int(rng.integers(0, 65))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = taylor_from_coefficients(coeffs, H2)
        for r in (0.25, 0.5, 0.9):
            assert dilate_dual_deviation([f], r) <= 1e-12


def test_dilate_dual_deviation_refuses_an_uncertified_truncation():
    # power(1, 2) has no certified wiener truncation within methods._MAX_TERMS
    with pytest.raises(ValueError, match="not certified"):
        dilate_dual_deviation([power_taylor(1.0, 2.0)], 0.5)


def _dilate_double_sum_by_loop(f, r, upto, m_terms):
    """(1 - r) sum_{m <= m_terms} r^m S_m(f), coefficients 0..upto, one row m at a time."""
    coeffs = f.coeff_array(upto)
    acc = np.zeros(upto + 1, dtype=complex)
    for m in range(m_terms + 1):
        w = (1.0 - r) * r**m
        end = min(m, upto)
        acc[: end + 1] += w * coeffs[: end + 1]
    return acc


def test_abel_of_partial_sums_matches_the_loop_over_m():
    # the rows m > m_terms weigh at most r^(m_terms + 1) sum_k |a_k| < 1e-16
    rng = np.random.default_rng(11)
    fs = [taylor_from_coefficients(rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1))
          for deg in rng.integers(0, 65, size=40)]
    for r in (0.25, 0.5, 0.9):
        m_terms = 64 + math.ceil(math.log(1e-20) / math.log(r))
        for f, got in zip(fs, holo._abel_of_partial_sums(fs, r)):
            ref = _dilate_double_sum_by_loop(f, r, got.size - 1, m_terms)
            assert np.max(np.abs(got - ref)) <= 1e-13
    # a long polynomial alone, at r close to 1
    f = taylor_from_coefficients(rng.standard_normal(2001) + 1j * rng.standard_normal(2001))
    (got,) = holo._abel_of_partial_sums([f], 0.99)
    assert got.size == 2049  # coefficients up to the wiener truncation 2048, zero past 2000
    assert np.max(np.abs(got - _dilate_double_sum_by_loop(f, 0.99, 2048, 2048 + 4600))) <= 1e-13


def test_dilate_contractive_in_h2():
    rng = np.random.default_rng(11)
    for _ in range(20):
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        f = taylor_from_coefficients(coeffs, H2)
        for r in (0.3, 0.8, 0.99):
            assert series_norm(abel_dilate(f, r)) <= series_norm(f) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# logarithmic means


def test_log_multiplier_zero_is_exactly_one():
    assert log_mean_multiplier(0, 0.3) == 1.0
    assert log_mean_multiplier(0, 0.999999) == 1.0


def test_log_multiplier_one_analytic():
    # lambda_1(r) = 1 + r/log(1-r); at r = 1 - 1/e it equals 1/e
    r = 1.0 - math.exp(-1.0)
    assert log_mean_multiplier(1, r) == pytest.approx(math.exp(-1.0), abs=1e-11)
    for r in (0.3, 0.7, 0.95):
        expected = 1.0 + r / math.log1p(-r)
        assert log_mean_multiplier(1, r) == pytest.approx(expected, abs=1e-11)


def test_log_multipliers_in_unit_interval_and_monotone_to_one():
    rs = [1.0 - 2.0**-j for j in range(1, 21)]
    for k in range(0, 33, 4):
        values = [log_mean_multiplier(k, r) for r in rs]
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] > values[0] or k == 0


def _mp_log_multiplier(k, r):
    """lambda_k(r) from its integral, r^(k+1)/(k+1) 2F1(1, k+1; k+2; r) / L, in mpmath."""
    if k == 0:
        return mpmath.mpf(1)
    r = mpmath.mpf(r)
    return r ** (k + 1) / (k + 1) * mpmath.hyp2f1(1, k + 1, k + 2, r) / -mpmath.log1p(-r)


@pytest.mark.parametrize("r", [0.5, 0.99, 1.0 - 2.0**-20, 1.0 - 2.0**-40])
def test_log_multiplier_matches_mpmath_integral(r):
    with mpmath.workdps(30):
        for k in (0, 1, 2, 7, 64, 255, 1024, 4096):
            ref = _mp_log_multiplier(k, r)
            assert abs(log_mean_multiplier(k, r) - ref) <= 1e-13, (k, r)


@pytest.mark.parametrize("r", [0.5, 0.99, 1.0 - 2.0**-20])
def test_log_multiplier_matches_adaptive_quadrature(r):
    # the substituted integral u = -log(1-t): (1/L) integral_0^L (1-e^-u)^k du
    tol = QuadratureConfig().tol
    big_u = -math.log1p(-r)
    for k in (1, 2, 7, 64, 255):
        arr, _, _ = _adaptive(lambda us: ((-np.expm1(-us)) ** k).astype(complex)[:, None],
                              0.0, big_u, tol)
        assert abs(log_mean_multiplier(k, r) - arr[0].real / big_u) <= 1e-12, (k, r)


def test_log_mean_h2_distances_match_mpmath_on_shipped_grid():
    # ||L_r f - f||_2 for f = sum (z/2)^k: sqrt(sum_k ((1 - lambda_k) 2^-k)^2),
    # with 1 - lambda_k = (sum_{j<=k} r^j/j) / L summed at 30 digits
    f = geometric_taylor(1.0, 0.5, H2)
    with mpmath.workdps(30):
        for r in parameter_grid(UNIT_INTERVAL, 20):
            rm = mpmath.mpf(r)
            big = -mpmath.log1p(-rm)
            head, total = mpmath.mpf(0), mpmath.mpf(0)
            for k in range(1, 120):
                head += rm**k / k
                total += (head / big * mpmath.mpf(2) ** -k) ** 2
            dist = series_norm(taylor_sub(log_taylor_mean(f, r), f))
            assert abs(dist - mpmath.sqrt(total)) <= 1e-14, r


def test_log_mean_keeps_constants():
    p = taylor_from_coefficients([5.0], H2)
    m = log_taylor_mean(p, 0.7)
    assert m.coeff(0) == 5.0


# ---------------------------------------------------------------------------
# norms


def test_monomial_norm_one_in_h2_and_wiener():
    for k in (0, 1, 5, 31):
        assert series_norm(monomial_taylor(k, H2)) == 1.0
        assert series_norm(monomial_taylor(k, WIENER)) == 1.0
        assert series_norm(monomial_taylor(k, DISK)) == pytest.approx(1.0, rel=1e-12)


def test_geometric_norms_closed_form():
    f = geometric_taylor(1.0, 0.5, H2)
    assert series_norm(f) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)
    assert series_norm(f.in_space(WIENER)) == pytest.approx(2.0, rel=1e-12)
    # boundary max of sum (z/2)^k is at z = 1: value 2
    assert series_norm(f.in_space(DISK)) == pytest.approx(2.0, rel=1e-9)


def test_power_law_h2_norm_is_the_root_of_zeta_of_twice_alpha():
    # sum_k (k + 1)^-6 = zeta(6); the PowerLaw tail bound decides where it is cut
    with mpmath.workdps(30):
        want = float(mpmath.sqrt(mpmath.zeta(6)))
    assert abs(series_norm(power_taylor(1.0, 3.0, H2)) - want) <= 1e-15


def test_power_law_norm_certificate_failure():
    f = power_taylor(1.0, 1.01, WIENER)
    with pytest.raises(NonSummableError):
        series_norm(f)


def test_disk_grid_is_max_modulus_on_grid():
    # f(z) = z^2 + 1: max over |z| = 1 is 2 (attained at z = +/- 1)
    f = taylor_from_coefficients([1, 0, 1], DISK)
    assert series_norm(f) == pytest.approx(2.0, rel=1e-10)


def _polyval_grid_max(coeffs, points):
    grid = np.exp(2j * math.pi * np.arange(points) / points)
    return float(np.max(np.abs(np.polynomial.polynomial.polyval(grid, coeffs))))


@pytest.mark.parametrize("points,degree", [(8, 5), (8, 20), (64, 200), (4096, 100), (4096, 5000)])
def test_disk_grid_dft_matches_polyval_on_the_grid(points, degree, monkeypatch):
    # degree >= points exercises the folding of coefficients mod the grid size
    monkeypatch.setattr(holo, "BOUNDARY_POINTS", points)
    rng = np.random.default_rng(points + degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    f = taylor_from_coefficients(coeffs, DISK)
    ref = _polyval_grid_max(coeffs, points)
    assert series_norm(f) == pytest.approx(ref, rel=1e-12)


def _recording(log, name, fn):
    def wrapped(*args, **kwargs):
        log.append(name)
        return fn(*args, **kwargs)
    return wrapped


@pytest.mark.parametrize("degree", [100, 5000], ids=["one-row", "folded"])
def test_disk_grid_half_spectrum_of_real_coefficients_matches_polyval(degree, monkeypatch):
    # |p(conj w)| = |p(w)| for real coefficients, so the rfft half spectrum holds the max
    coeffs = np.random.default_rng(degree).standard_normal(degree + 1)
    transforms = []
    for name in ("rfft", "ifft"):
        monkeypatch.setattr(np.fft, name, _recording(transforms, name, getattr(np.fft, name)))
    norm = series_norm(taylor_from_coefficients(coeffs, DISK))
    assert transforms == ["rfft"]
    assert norm == pytest.approx(_polyval_grid_max(coeffs, holo.BOUNDARY_POINTS), rel=1e-12)


def test_disk_grid_of_complex_coefficients_keeps_the_full_inverse_dft(monkeypatch):
    transforms = []
    for name in ("rfft", "ifft"):
        monkeypatch.setattr(np.fft, name, _recording(transforms, name, getattr(np.fft, name)))
    f = taylor_from_coefficients(np.linspace(1.0, -1.0, 3001) + 0.5j, DISK)  # two rows of N
    series_norm(f)
    assert transforms == ["ifft"]


def test_disk_grid_dft_matches_polyval_for_geometric_series(monkeypatch):
    monkeypatch.setattr(holo, "BOUNDARY_POINTS", 16)
    f = geometric_taylor(1.0, 0.9, DISK)
    n = 512  # certified truncation of the l1 tail at 1e-14 for rho = 0.9
    assert series_norm(f) == pytest.approx(_polyval_grid_max(f.coeff_array(n), 16), rel=1e-12)


@pytest.mark.parametrize("f,size", [
    (geometric_taylor(1.0, 0.5, DISK), 65),
    (taylor_from_coefficients(np.linspace(1.0, -1.0, 3001) + 0.5j, DISK), 4097),
    (taylor_from_coefficients(np.cos(np.arange(5001.0)), DISK), 8193),
], ids=["one-row", "two-rows", "three-rows"])
def test_disk_grid_fold_equals_the_padded_fold_bit_for_bit(f, size):
    # the certified truncations of 64, 4096 and 8192 fold into 1, 2 and 3 rows of N
    n = holo._truncation_for(f.decay, "disk_grid")
    coeffs = f.coeff_array(n)
    assert coeffs.size == size
    N = holo.BOUNDARY_POINTS
    folded = np.pad(coeffs, (0, -coeffs.size % N)).reshape(-1, N).sum(axis=0)
    assert series_norm(f) == float(np.max(np.abs(np.fft.ifft(folded, norm="forward"))))


# ---------------------------------------------------------------------------
# one multiplier rule: a chain step is a counting spec's row mass


def _row_masses(spec, p, upto, far):
    """math.fsum of the spec's own kernel row a(p, n) from n = k to far, for k < upto."""
    row = spec.kernel_batch(p, np.arange(far)).real
    return [math.fsum(row[k:]) for k in range(upto)]


@pytest.mark.parametrize("step, params, far", [
    (PARTIAL_SUMS, (0, 3, 10), 400),
    (ABEL_DILATE, (0.0, 0.25, 0.9), 800),          # 0.9^800 < 1e-36
    (LOG_MEAN, (0.5, 0.99), 7000),                  # 0.99^7000 < 1e-30
])
def test_step_multiplier_is_the_spec_tail_sum_of_its_kernel_row(step, params, far):
    spec = holo._CHAIN[step]
    for p in params:
        masses = spec.tail_sum(p, -1, 199)
        for k, ref in enumerate(_row_masses(spec, p, 200, far)):
            assert masses[k] == pytest.approx(ref, rel=1e-13, abs=1e-15), (step, p, k)


def _parent_dilate(r, lo, hi):
    ks = np.arange(lo, hi, dtype=float)
    if r == 0.0:
        return (ks == 0).astype(complex)
    return np.exp(ks * math.log(r)) + 0j


def _parent_log_mean(r, lo, hi):
    big = -math.log1p(-r)
    js = np.arange(1, max(hi, 1), dtype=float)
    head = np.concatenate(([0.0], np.cumsum(np.exp(js * math.log(r)) / js)))
    return (big - head[lo:hi]) / big


def _parent_partial_sum(n, lo, hi):
    return np.where(np.arange(lo, hi) > n, 0.0, 1.0)


def test_step_multipliers_equal_the_three_closed_forms_bit_for_bit():
    # the multipliers are the coefficients of each step applied to 1 + z + ... + z^128,
    # read whole and in two blocks
    ones = taylor_from_coefficients(np.ones(129))
    rs = [1.0 - 2.0**-j for j in range(1, 21)]
    cases = ([(abel_dilate, _parent_dilate, r) for r in [0.0] + rs]
             + [(log_taylor_mean, _parent_log_mean, r) for r in rs]
             + [(partial_sum, _parent_partial_sum, n) for n in (0, 1, 5, 64, 128, 200)])
    for step, parent, p in cases:
        got = step(ones, p)
        ref = np.asarray(parent(p, 0, 129), dtype=complex)
        assert got.block(0, 129).tobytes() == ref.tobytes(), (step.__name__, p)
        split = np.concatenate((got.block(0, 50), got.block(50, 129)))
        assert split.tobytes() == ref.tobytes(), (step.__name__, p)
    for r in rs:
        assert all(log_mean_multiplier(k, r) == _parent_log_mean(r, k, k + 1)[0]
                   for k in range(129))


def test_partial_sum_keeps_its_capped_decay_and_the_other_steps_inherit_theirs():
    f = geometric_taylor(1.0, 0.5, H2)
    assert partial_sum(f, 6).decay == holo.CappedDecay(f.decay, 6)
    assert abel_dilate(f, 0.5).decay is f.decay
    assert log_taylor_mean(f, 0.5).decay is f.decay


# ---------------------------------------------------------------------------
# experiments


def test_partial_sum_distance_closed_form():
    f = geometric_taylor(1.0, 0.5, H2)
    for n in range(31):
        d = series_norm(taylor_sub(partial_sum(f, n), f))
        assert d == pytest.approx(2.0**-n / math.sqrt(3.0), abs=1e-10)


def test_abel_dilate_chain_converges_in_h2():
    f = geometric_taylor(1.0, 0.5, H2)
    report = taylor_summability_experiment(f, H2, [ABEL_DILATE], depth=20, tol=1e-4)
    assert report.status == CONVERGED_TO_ZERO
    assert report.route == "tol"
    assert report.residual <= 1e-4


def test_log_mean_chain_converges_by_decay_trend():
    f = geometric_taylor(1.0, 0.5, H2)
    report = taylor_summability_experiment(f, H2, [LOG_MEAN], depth=20, tol=1e-4)
    assert report.status == CONVERGED_TO_ZERO
    assert report.route == "decay-trend"
    distances = [d for _, d in report.cells]
    assert all(b <= a for a, b in zip(distances, distances[1:]))


def test_partial_sum_chain_on_polynomial_hits_zero():
    p = taylor_from_coefficients([1, 2, 3, 4, 5], H2)
    report = taylor_summability_experiment(p, H2, [PARTIAL_SUMS], depth=10, tol=1e-8)
    assert report.status == CONVERGED_TO_ZERO
    assert report.residual == 0.0


def test_composed_chain_dilate_then_log_mean():
    f = geometric_taylor(1.0, 0.5, H2)
    report = taylor_summability_experiment(f, H2, [ABEL_DILATE, LOG_MEAN], depth=16, tol=1e-3)
    assert report.status == CONVERGED_TO_ZERO


def test_mixed_chain_rejected():
    f = geometric_taylor(1.0, 0.5, H2)
    with pytest.raises(ValueError):
        taylor_summability_experiment(f, H2, [PARTIAL_SUMS, ABEL_DILATE], depth=6)


def test_experiment_in_disk_grid_carries_approximation_note():
    p = taylor_from_coefficients([1, 1], DISK)
    report = taylor_summability_experiment(p, DISK, [ABEL_DILATE], depth=12, tol=1e-3)
    assert report.notes and "underestimates" in report.notes[0]


def test_declared_decay_honored_spot_check():
    f = geometric_taylor(2.0, 0.6, H2)
    for k in (0, 3, 11, 40):
        assert abs(f.coeff(k)) <= f.decay.coeff_bound(k) * (1 + 1e-12)
    g = power_taylor(1.5, 2.0, H2)
    for k in (0, 7, 100):
        assert abs(g.coeff(k)) <= g.decay.coeff_bound(k) * (1 + 1e-12)
