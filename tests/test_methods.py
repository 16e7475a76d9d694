"""Transform engines: worked examples, oracles, and cross-engine consistency."""

import gc
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sumkit import methods
from sumkit.cli import build_method
from sumkit.domains import (
    CONVERGED, DIVERGED, HALF_LINE, INCONCLUSIVE, NAT, parameter_grid, sample_grid, UNIT_INTERVAL,
)
from sumkit.integrate import MEASURE_COUNTING, MEASURE_LEBESGUE, QuadratureError
from sumkit.methods import (
    FunctionSource,
    KernelSpec,
    NonSummableError,
    SequenceSource,
    abel_method,
    as_kernel,
    cesaro_method,
    combine_sources,
    identity_method,
    logarithmic_method,
    scalar_function,
    scalar_sequence,
    scaled_method,
    series_summation_method,
    summability_limit,
    transform_at,
    vector_sequence,
)
from sumkit.vspace import SCALAR, SpaceDescriptor, VectorValue

ALT = scalar_sequence(lambda n: (-1.0) ** n, "alternating")
# partial sums of 1 - 1 + 1 - ... , the classical test series
ALT_PARTIAL = scalar_sequence(lambda n: (1.0 + (-1.0) ** n) / 2.0, "alt_partial_sums")


def _scalar(v: VectorValue) -> complex:
    return complex(v.coords[0])


# ---------------------------------------------------------------------------
# matrix engine


def test_cesaro_row_on_alternating():
    assert _scalar(transform_at(cesaro_method(), ALT, 3)) == 0.0


def test_identity_row_picks_term():
    v = scalar_sequence(lambda n: n * 1.0 + 1j, "n")
    assert _scalar(transform_at(identity_method(), v, 5)) == 5 + 1j


def test_series_summation_geometric():
    v = scalar_sequence(lambda n: 2.0 ** (-n.astype(float)), "2^-n")
    assert _scalar(transform_at(series_summation_method(), v, 3)) == pytest.approx(15 / 8, abs=0)


def test_cesaro_row_sums_exactly_one_on_canonical_grid():
    # exact float identity on the grids the toolkit exercises (m = 2^k, small m)
    spec = cesaro_method()
    for m in list(range(0, 33)) + [2**k for k in range(1, 15)]:
        entries = spec.kernel_batch(m, np.arange(m + 1))
        assert math.fsum(entries.real) == 1.0
        assert math.fsum(entries.imag) == 0.0


# ---------------------------------------------------------------------------
# sequence-to-function engine


def test_abel_of_ones_is_one():
    ones = scalar_sequence(lambda n: np.ones_like(n, dtype=float), "ones")
    val = _scalar(transform_at(abel_method(), ones, 0.5))
    assert val == pytest.approx(1.0, abs=1e-13)


def test_abel_alternating_matches_closed_form_and_oracle():
    # closed form (1-r)/(1+r); oracle: brute-force partial sums
    r = 0.5
    val = _scalar(transform_at(abel_method(), ALT, r))
    brute = sum((1 - r) * r**n * (-1.0) ** n for n in range(200))
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert val == pytest.approx(brute, abs=1e-12)


def test_abel_alternating_ramp_matches_closed_form():
    # sum (n+1) x^n = (1-x)^-2 at x = -r gives (1-r)/(1+r)^2
    v = scalar_sequence(lambda n: (-1.0) ** n * (n + 1.0), "alt_ramp")
    r = 0.5
    val = _scalar(transform_at(abel_method(), v, r))
    brute = sum((1 - r) * r**n * (-1.0) ** n * (n + 1) for n in range(300))
    assert val == pytest.approx((1 - r) / (1 + r) ** 2, abs=1e-12)
    assert val == pytest.approx(brute, abs=1e-12)
    assert val == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_abel_out_of_range_parameter():
    with pytest.raises(ValueError):
        transform_at(abel_method(), ALT, 1.0)


def test_transform_at_rejects_parameters_outside_the_domain():
    with pytest.raises(ValueError, match="row index"):
        transform_at(cesaro_method(), ALT, -1)
    with pytest.raises(ValueError, match="outside"):
        transform_at(abel_method(), ALT, 1.0)
    # the parameter is checked against F for every counting kernel
    with pytest.raises(ValueError, match="outside"):
        transform_at(as_kernel(abel_method()), ALT, 1.0)
    with pytest.raises(ValueError, match="row index"):
        transform_at(as_kernel(cesaro_method()), ALT, 2.5)
    # and for every Lebesgue kernel: F = [0, 1) for both of these
    ones = scalar_function(lambda t: np.ones_like(t), domain=HALF_LINE, name="ones")
    indicator = build_method({"kind": "kernel", "kernel": "indicator(t <= r) / (r + 1)",
                              "support": "upto_r"})
    with pytest.raises(ValueError, match="outside"):
        transform_at(indicator, ones, 3.0)
    with pytest.raises(ValueError, match="outside"):
        transform_at(logarithmic_method(), ones, -0.5)


def test_nonsummable_growing_sequence():
    with np.errstate(over="ignore"):
        v = scalar_sequence(lambda n: 2.0 ** np.minimum(n, 2000).astype(float), "2^n")
        with pytest.raises(NonSummableError) as err:
            transform_at(abel_method(), v, 0.9)
    assert err.value.terms > 0


# ---------------------------------------------------------------------------
# kernel engine


def test_log_kernel_of_constant_is_one():
    one = scalar_function(lambda t: np.ones_like(t), name="one")
    for r in (0.25, 0.5, 1 - math.exp(-1), 0.9):
        val = _scalar(transform_at(logarithmic_method(), one, r))
        assert val == pytest.approx(1.0, abs=1e-12)


def test_log_kernel_linear_function_analytic():
    # v(t) = 1 - t: value -r/log(1-r); at r = 1 - 1/e this is 1 - 1/e
    v = scalar_function(lambda t: 1.0 - t, name="1-t")
    r = 1.0 - math.exp(-1.0)
    val = _scalar(transform_at(logarithmic_method(), v, r))
    assert val == pytest.approx(r, abs=1e-11)
    assert val == pytest.approx(0.6321205588285577, abs=1e-10)


def test_log_kernel_constant_vector():
    space = SpaceDescriptor(3, "l2")
    x = np.array([2.0, -1.0, 0.5j])

    def batch(ts):
        return np.ones((len(ts), 1)) * x[None, :]

    src = FunctionSource(space=space, batch=batch)
    val = transform_at(logarithmic_method(), src, 0.7)
    assert np.allclose(val.coords, x, atol=1e-12)


# ---------------------------------------------------------------------------
# engine-level properties


def test_linearity_all_engines():
    rng = np.random.default_rng(29)
    a, b = complex(rng.standard_normal()), complex(rng.standard_normal())
    u = scalar_sequence(lambda n: 1.0 / (n + 1.0), "u")
    v = scalar_sequence(lambda n: (-1.0) ** n * 0.5**n, "v")
    w = combine_sources(a, u, b, v)

    for spec, param in [(cesaro_method(), 37), (series_summation_method(), 12),
                        (abel_method(), 0.7)]:
        lhs = transform_at(spec, w, param)
        rhs = a * transform_at(spec, u, param) + b * transform_at(spec, v, param)
        assert (lhs - rhs).norm() <= 1e-10 * (1 + lhs.norm())

    fu = scalar_function(lambda t: np.cos(3 * t), name="cos")
    fv = scalar_function(lambda t: 1.0 / (2.0 - t), name="rational")
    fw = combine_sources(a, fu, b, fv)
    spec = logarithmic_method()
    lhs = transform_at(spec, fw, 0.8)
    rhs = a * transform_at(spec, fu, 0.8) + b * transform_at(spec, fv, 0.8)
    assert (lhs - rhs).norm() <= 1e-10 * (1 + lhs.norm())


def test_matrix_recast_as_counting_kernel_identical():
    v = scalar_sequence(lambda n: np.cos(n.astype(float)) * 0.9 ** n.astype(float), "damped")
    for spec in (cesaro_method(), series_summation_method(), identity_method()):
        kern = as_kernel(spec)
        for m in (3, 8, 33):
            direct = transform_at(spec, v, m)
            via_kernel = transform_at(kern, v, m)
            assert (direct - via_kernel).norm() <= 1e-12


def test_as_kernel_keeps_every_kernel_field_and_drops_the_box_weight():
    for spec in (cesaro_method(), abel_method()):
        kern = as_kernel(spec)
        assert type(kern) is KernelSpec and kern.name == f"{spec.name}_as_kernel"
        assert kern.measure == MEASURE_COUNTING and kern.E == NAT and kern.F == spec.F
        for name in ("kernel_batch", "support", "tail_abs", "tail_sum", "substitution"):
            assert getattr(kern, name) is getattr(spec, name)
        assert kern.weight is None
    logarithmic = logarithmic_method()
    assert as_kernel(logarithmic) is logarithmic


def test_scaled_method_has_one_name_rule_and_scales_the_box_weight():
    for spec in (cesaro_method(), abel_method(), logarithmic_method()):
        for factor in (2.0, 1j):
            assert scaled_method(spec, factor).name == f"scaled({spec.name})"
    cesaro, ns = cesaro_method(), np.arange(6)
    doubled = scaled_method(cesaro, 2.0)
    assert doubled.weight(3) == 0.5 and doubled.tail_abs(3, 1, 2)[0] == 1.0
    assert np.array_equal(doubled.kernel_batch(3, ns), 2 * cesaro.kernel_batch(3, ns))


@pytest.mark.parametrize("spec, params", [
    (identity_method(), (0, 3, 10)),
    (series_summation_method(), (0, 3, 10)),
    (cesaro_method(), (0, 3, 10)),
    (abel_method(), (0.0, 0.25, 0.9, 1.0 - 2.0**-20)),
    (scaled_method(cesaro_method(), 2.0), (0, 7)),
    (scaled_method(abel_method(), 1j), (0.0, 0.5)),
])
def test_tail_blocks_equal_their_one_element_blocks(spec, params):
    for p in params:
        for tail in (spec.tail_abs, spec.tail_sum):
            block = np.asarray(tail(p, -1, 40))
            assert block.shape == (41,)
            singles = np.concatenate([tail(p, N, N + 1) for N in range(-1, 40)])
            assert block.tobytes() == singles.tobytes(), (spec.name, p)


def test_abel_tails_take_the_kernel_form_with_zero_to_the_zero_one():
    tail = abel_method().tail_sum
    assert np.array_equal(tail(0.0, -1, 3), [1.0, 0.0, 0.0, 0.0])
    for r in (0.25, 0.9, 1.0 - 2.0**-20):
        ns = np.arange(0, 130, dtype=float)
        assert tail(r, -1, 129).tobytes() == np.exp(ns * math.log(r)).tobytes()


def test_abel_as_kernel_consistency():
    spec = abel_method()
    kern = as_kernel(spec)
    for r in (0.3, 0.6, 0.9):
        direct = transform_at(spec, ALT, r)
        via_kernel = transform_at(kern, ALT, r)
        assert (direct - via_kernel).norm() <= 1e-13


def test_counting_kernel_sums_from_the_support_start():
    # a(r, n) = 1/2 for n in {r, r + 1} averages two neighbouring terms
    spec = KernelSpec(
        name="half_pair",
        kernel_batch=lambda r, ts: np.full(len(ts), 0.5, dtype=complex),
        E=NAT,
        F=NAT,
        support=lambda r: (r, r + 1),
    )
    ones = scalar_sequence(lambda n: np.ones_like(n, dtype=float), "ones")
    est = summability_limit(spec, ones, depth=10, tol=1e-12)
    assert est.status == CONVERGED
    assert _scalar(est.value) == 1.0
    v = scalar_sequence(lambda n: n * 1.0, "n")
    assert _scalar(transform_at(spec, v, 8)) == 8.5


def test_the_measure_is_read_from_E():
    for builtin, measure in [(identity_method, MEASURE_COUNTING),
                             (series_summation_method, MEASURE_COUNTING),
                             (cesaro_method, MEASURE_COUNTING), (abel_method, MEASURE_COUNTING),
                             (logarithmic_method, MEASURE_LEBESGUE)]:
        spec = builtin()
        for each in (spec, as_kernel(spec), scaled_method(spec, 2.0)):
            assert each.measure == measure, each.name
    assert MEASURE_COUNTING == "counting" and MEASURE_LEBESGUE == "lebesgue"
    assert replace(logarithmic_method(), E=NAT).measure == MEASURE_COUNTING
    with pytest.raises(TypeError, match="measure"):
        KernelSpec(name="k", kernel_batch=lambda r, ts: ts + 0j, measure=MEASURE_COUNTING)


def _fixed_support(lo, hi, E):
    """The kernel 1 on the fixed support [lo, hi] of E, with F = [0, 1)."""
    return KernelSpec(name="fixed", kernel_batch=lambda r, ts: np.ones(len(ts), dtype=complex),
                      E=E, support=lambda r: (lo, hi))


def test_a_counting_support_sums_its_integer_points():
    # [0.5, 3.7] holds n = 1, 2, 3, as a matrix row's support would
    spec = _fixed_support(0.5, 3.7, NAT)
    ones = scalar_sequence(lambda n: np.ones_like(n, dtype=float), "ones")
    assert _scalar(transform_at(spec, ones, 0.5)) == 3.0
    assert _scalar(transform_at(spec, scalar_sequence(lambda n: n * 1.0, "n"), 0.5)) == 6.0


@pytest.mark.parametrize("lo, hi, E", [
    (-2, 3, NAT), (-0.5, 0.5, UNIT_INTERVAL), (0.7, 0.2, NAT), (0.7, 0.2, UNIT_INTERVAL),
    (0.0, 1.5, UNIT_INTERVAL),
], ids=["counting-below-0", "lebesgue-below-0", "counting-backwards", "lebesgue-backwards",
        "lebesgue-past-E"])
def test_a_support_that_is_not_an_interval_of_E_raises(lo, hi, E):
    # read as given, each would sum or integrate a source of ones to a number, and no error
    spec = _fixed_support(lo, hi, E)
    if E == NAT:
        source = scalar_sequence(lambda n: np.ones_like(n, dtype=float), "ones")
    else:
        source = scalar_function(lambda t: np.ones_like(t), HALF_LINE, "ones")
    with pytest.raises(ValueError, match="interval of E"):
        transform_at(spec, source, 0.5)


# ---------------------------------------------------------------------------
# term budgets: tail tolerance and support end


def _counted(formula, name, dim=1):
    """The source formula(n) in every coordinate of C^dim, with a counter of the terms read."""
    read = [0]

    def block(lo, hi):
        read[0] += hi - lo
        return np.repeat(np.asarray(formula(np.arange(lo, hi)))[:, None], dim, axis=1)

    return SequenceSource(block, SpaceDescriptor(dim, "l2"), name), read


def _grandi(ns):
    return (1.0 + (-1.0) ** ns) / 2.0


def _slow(ns):
    return 1.0 + 1.0 / (ns + 1.0)


def _counted_grandi():
    """1, 0, 1, 0, ... with a counter of the source terms read."""
    return _counted(_grandi, "grandi")


def test_abel_row_is_certified_to_the_tail_tolerance_asked_for():
    # closed form: (1 - r) * sum r^(2k) = 1 / (1 + r)
    r = 1 - 2.0**-14
    src, read = _counted_grandi()
    loose = _scalar(transform_at(abel_method(), src, r, tail_tol=1e-5))
    assert read[0] == 218_432
    assert abs(loose - 1 / (1 + r)) <= 1e-5
    read[0] = 0
    tight = _scalar(transform_at(abel_method(), src, r))
    assert read[0] == 546_112
    assert abs(tight - 1 / (1 + r)) <= 1e-14


def test_summability_limit_certifies_samples_to_its_tol():
    src, read = _counted_grandi()
    est = summability_limit(abel_method(), src, depth=14, tol=1e-3)
    assert est.status == CONVERGED
    assert abs(_scalar(est.value) - 0.5) <= 1e-3
    assert read[0] <= 700_000  # 1,215,616 with every sample certified to 1e-14


@pytest.mark.parametrize("tol", [math.nan, -1e-3, 0.0, math.inf])
def test_summability_limit_rejects_a_tol_that_is_not_positive_and_finite(tol):
    src, read = _counted_grandi()
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        summability_limit(abel_method(), src, depth=10, tol=tol)
    assert read[0] == 0


@pytest.mark.parametrize("tail_tol", [math.nan, -1e-3, 0.0, math.inf])
def test_transform_at_rejects_a_tail_tol_that_is_not_positive_and_finite(tail_tol):
    src, read = _counted_grandi()
    with pytest.raises(ValueError, match="tail_tol must be a positive finite number"):
        transform_at(abel_method(), src, 0.999, tail_tol=tail_tol)
    assert read[0] == 0
    reads = []
    wavy = scalar_function(lambda ts: reads.append(ts) or np.cos(ts))
    with pytest.raises(ValueError, match="tail_tol must be a positive finite number"):
        transform_at(logarithmic_method(), wavy, 0.5, tail_tol=tail_tol)
    assert reads == []


@pytest.mark.parametrize("tag", ["l1", "l2", "sup"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1.0, 1e150, 1e300, 1e308])
def test_the_closure_floor_is_at_most_the_scatter(tag, dim, scale):
    # every computed norm is at least its vector's largest computed component
    # modulus; the terms are finite, as the closure reads them, and near 1e308
    # a difference overflows, and both are inf
    rng = np.random.default_rng(dim)
    for _ in range(20):
        terms = rng.uniform(-1.0, 1.0, (dim, 8)) + 1j * rng.uniform(-1.0, 1.0, (dim, 8))
        with np.errstate(over="ignore", invalid="ignore"):  # as the certified sum reads them
            rec = methods._Block(scale * terms, tag)
            assert rec.dev_floor <= rec.dev, (scale * terms, rec.dev_floor, rec.dev)


def test_a_closure_ruled_out_by_the_floor_sums_as_without_it(monkeypatch):
    # 1, 0, 1, 0, ...: every block starts at a 1 and ends at a 0, so the floor
    # is 1 and rules out each closure, which the scatter then never computes
    r = 1 - 2.0**-14
    scatters = []
    dev = methods._Block.dev.func
    monkeypatch.setattr(methods._Block, "dev", property(lambda rec: scatters.append(1) or dev(rec)))
    floored = transform_at(abel_method(), _counted_grandi()[0], r, tail_tol=1e-5).coords
    assert scatters == []
    monkeypatch.setattr(methods._Block, "dev_floor", 0.0)
    unfloored = transform_at(abel_method(), _counted_grandi()[0], r, tail_tol=1e-5).coords
    # the row reads 218,432 terms in 8 blocks; the plain certificate ends the last
    assert len(scatters) == 7
    assert np.array_equal(floored.view(np.uint64), unfloored.view(np.uint64))


def test_finite_row_runs_to_its_support_end():
    # row 2^20 + 1 is longer than the cap on rows without an end
    val = _scalar(transform_at(cesaro_method(), ALT_PARTIAL, 2**20 + 1))
    assert abs(val - 0.5) <= 1e-12


def test_finite_row_with_growing_blocks_is_not_called_divergent():
    # sum_{n <= 2^20} n / (2^20 + 1) = 2^19, though every block sum grows
    ramp = scalar_sequence(lambda n: n * 1.0, "n")
    val = _scalar(transform_at(cesaro_method(), ramp, 2**20))
    assert val == pytest.approx(2**19, rel=1e-12)


@pytest.mark.parametrize("source", [
    ALT_PARTIAL,  # about 32 * 2^20 terms would certify this row to 1e-14
    # convergent, but its terms grow up to n = 2^21: never called divergent
    scalar_sequence(lambda n: (n + 1.0) ** 2, "squares"),
], ids=["alt_partial", "squares"])
def test_row_without_end_stops_at_the_term_cap(source):
    with pytest.raises(NonSummableError, match="max_terms") as err:
        transform_at(abel_method(), source, 1 - 2.0**-20)
    assert err.value.terms == 1_000_000


# ---------------------------------------------------------------------------
# shared source blocks across the summability_limit grid

# a C^4 sequence L + rho^n u with limit L
_L4 = np.array([0.5, -1.0, 2.0j, 0.25 + 0.75j])
_U4 = np.array([1.0, 1j, -1.0, (1 + 1j) / math.sqrt(2)])
DENSE4 = vector_sequence(lambda ns: _L4[None, :] + np.power(0.99, ns)[:, None] * _U4[None, :],
                         SpaceDescriptor(4, "l2"), "dense4")


def _grid_samples(spec, src, depth, tol=1e-3):
    """(param, coords) of each sample of one summability_limit grid, read where it is estimated.

    A grid of rows without an end is summed in one lockstep call, with no
    transform_at per point, so its samples are taken from
    methods.estimate_limit_at_infinity, paired with the grid's parameters
    that did not fail.
    """
    taken = []
    estimate = methods.estimate_limit_at_infinity

    def recording(samples, **kwargs):
        taken.extend(samples)
        return estimate(samples, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(methods, "estimate_limit_at_infinity", recording)
        est = summability_limit(spec, src, depth=depth, tol=tol)
    failed = {p for p, _ in est.failed_points}
    params = [p for p in sample_grid(spec.F, depth) if p not in failed]
    assert len(taken) == len(params)
    return [(param, sample.coords) for param, sample in zip(params, taken)]


@pytest.mark.parametrize("src", [ALT_PARTIAL, DENSE4], ids=["scalar", "C4"])
@pytest.mark.parametrize("spec", [abel_method(), cesaro_method(), as_kernel(abel_method()),
                                  identity_method()], ids=lambda s: s.name)
def test_summability_limit_samples_equal_lone_transforms(spec, src):
    tol = 1e-3
    taken = _grid_samples(spec, src, 14, tol)
    tail_tol = max(tol * methods._TAIL_SHARE, methods._TAIL_TOL)
    assert len(taken) >= 14
    for param, coords in taken:
        assert np.array_equal(coords, transform_at(spec, src, param, tail_tol=tail_tol).coords)


# a(r, t) = chi_[r, r+1](t) on E = F = [0, inf): unit mass marching out
TRANSLATION = KernelSpec(
    name="translation",
    kernel_batch=lambda r, ts: ((ts >= r) & (ts <= r + 1.0)).astype(complex),
    E=HALF_LINE,
    F=HALF_LINE,
    support=lambda r: (r, r + 1.0),
)
WAVY = scalar_function(lambda t: 0.5 + (1.0 - t) ** 2 * np.sin(40.0 * t), HALF_LINE, "wavy")
WAVY4 = FunctionSource(
    lambda ts: _L4[None, :] + (np.cos(7.0 * ts) / (1.0 + ts))[:, None] * _U4[None, :],
    SpaceDescriptor(4, "l2"), HALF_LINE, "wavy4")


@pytest.mark.parametrize("src", [WAVY, WAVY4], ids=["scalar", "C4"])
@pytest.mark.parametrize("spec, depth", [
    (logarithmic_method(), 30),
    (scaled_method(logarithmic_method(), 2.0), 20),
    (TRANSLATION, 12),
], ids=["logarithmic", "2x-logarithmic", "translation"])
def test_lebesgue_grid_samples_equal_lone_transforms(monkeypatch, spec, depth, src):
    taken = []
    estimate = methods.estimate_limit_at_infinity

    def recording(samples, **kwargs):
        taken.extend(samples)
        return estimate(samples, **kwargs)

    monkeypatch.setattr(methods, "estimate_limit_at_infinity", recording)
    tol = 1e-3
    est = summability_limit(spec, src, depth=depth, tol=tol)
    monkeypatch.undo()
    tail_tol = max(tol * methods._TAIL_SHARE, methods._TAIL_TOL)
    failed = dict(est.failed_points)
    samples = iter(taken)
    for r in parameter_grid(spec.F, depth):
        try:
            lone = transform_at(spec, src, r, tail_tol=tail_tol)
        except QuadratureError as exc:
            assert failed.pop(r) == f"QuadratureError: {exc}"
        else:
            assert np.array_equal(next(samples).coords, lone.coords)
    assert not failed and next(samples, None) is None


def test_a_lebesgue_grid_reads_the_kernel_once_per_integrand_call():
    # one kernel_batch call per quadrature level of the whole grid, each with
    # one parameter per node, as the source is read once per integrand call
    log = logarithmic_method()
    kernel_calls, source_calls = [], []

    def counted_kernel(r, ts):
        kernel_calls.append((np.shape(r), np.shape(ts)))
        return log.kernel_batch(r, ts)

    def counted_source(ts):
        source_calls.append(len(ts))
        return 0.5 + (1.0 - ts) * (1.0 - 2.0 * ts)

    est = summability_limit(replace(log, kernel_batch=counted_kernel),
                            scalar_function(counted_source, name="quadratic"), depth=20, tol=1e-3)
    assert est.converged
    assert len(kernel_calls) == len(source_calls) > 0
    assert all(r == ts == (n,) for (r, ts), n in zip(kernel_calls, source_calls))


def test_lebesgue_grid_at_non_dyadic_parameters_equals_lone_transforms():
    # off the dyadic grids np.log1p may round differently from math.log1p; a
    # lone transform reads the kernel the same way, so the bits still agree
    rs = np.sort(np.random.default_rng(23).uniform(0.0, 0.999, 25))
    src = scalar_function(lambda t: 0.5 + (1.0 - t) * np.cos(9.0 * t), name="wave")
    spec = logarithmic_method()
    for r, value in zip(rs, methods._lebesgue_transforms(spec, src, list(rs))):
        assert np.array_equal(value.coords, transform_at(spec, src, r).coords)


def test_logarithmic_method_at_r_zero_has_an_empty_support():
    # log1p(-0.0) is -0.0, so the prefactor -1/log(1 - r) has no value at r = 0
    spec = logarithmic_method()
    src = scalar_function(lambda t: 1.0 + t, name="1+t")
    assert _scalar(transform_at(spec, src, 0.0)) == 0.0
    assert spec.kernel(0.0, 0.0) == spec.kernel(0.0, 0.5) == 0.0
    assert np.array_equal(spec.kernel_batch(np.array([0.0, 0.5]), np.array([0.0, 0.25])),
                          [0.0, -1.0 / math.log1p(-0.5) / 0.75])


def test_config_kernel_with_an_empty_support_is_not_read():
    # the config kernel has no value at r = 0 (0/0 under numpy), where its
    # support [0, r] is empty: the transform is 0 and the kernel is never read
    spec = build_method({"kind": "kernel", "kernel": "-1 / log(1 - r) / (1 - t)",
                         "support": "upto_r", "substitution": "log_boundary"})
    reads = []
    kernel_batch = spec.kernel_batch

    def counting(r, ts):
        reads.append(len(ts))
        return kernel_batch(r, ts)

    spec = replace(spec, kernel_batch=counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = transform_at(spec, scalar_function(lambda t: 1 + 0 * t), 0.0)
    assert _scalar(value) == 0.0
    assert reads == []


def test_lebesgue_sample_is_integrated_to_the_budget_asked_for():
    # at r = 1 - 2^-30 the 1 - t cancellation keeps the mass 1e-10 from exact,
    # so the quadrature default cannot be met; a budget of 1e-5 is
    ones = scalar_function(np.ones_like, name="one")
    r = 1.0 - 2.0**-30
    value = _scalar(transform_at(logarithmic_method(), ones, r, tail_tol=1e-5))
    assert abs(value - 1.0) <= 1e-5
    with pytest.raises(QuadratureError, match="budget"):
        transform_at(logarithmic_method(), ones, r)


@pytest.mark.parametrize("depth", [28, 32, 40])
@pytest.mark.parametrize("src, limit", [
    (scalar_function(np.ones_like, name="one"), np.array([1.0])),
    (scalar_function(lambda t: 0.5 + (1.0 - t) * (1.0 - 2.0 * t), name="quadratic"),
     np.array([0.5])),
    (FunctionSource(lambda ts: _L4[None, :] + ((1.0 - ts) * np.cos(6.0 * np.pi * ts))[:, None]
                    * _U4[None, :], SpaceDescriptor(4, "l2"), name="wave4"), _L4),
], ids=["one", "quadratic", "C4"])
def test_logarithmic_limit_converges_deep(src, limit, depth):
    tol = 1e-3
    est = summability_limit(logarithmic_method(), src, depth=depth, tol=tol)
    assert est.converged and not est.failed_points
    assert np.max(np.abs(est.value.coords - limit)) <= tol


@pytest.mark.parametrize("spec, src", [
    (abel_method(), scalar_function(lambda t: 1.0 - t, name="1-t")),
    (as_kernel(cesaro_method()), scalar_function(lambda t: 1.0 - t, name="1-t")),
    (logarithmic_method(), ALT_PARTIAL),
], ids=["counting-on-function", "counting-kernel-on-function", "lebesgue-on-sequence"])
def test_a_method_rejects_sources_of_the_other_measure(spec, src):
    param = 0.5 if spec.F != NAT else 4
    with pytest.raises(TypeError, match="need a"):
        transform_at(spec, src, param)
    with pytest.raises(TypeError, match="need a"):
        summability_limit(spec, src, depth=4)


def test_lebesgue_transform_rejects_a_support_past_the_source_domain():
    # the translation window [5, 6] lies outside the source's domain [0, 1)
    src = scalar_function(lambda t: 1.0 - t, name="1-t")
    with pytest.raises(ValueError, match="domain"):
        transform_at(TRANSLATION, src, 5.0)
    with pytest.raises(ValueError, match="domain"):
        summability_limit(TRANSLATION, src, depth=4)


# each grid reads every source term once, as much as its largest row needs:
# the ramp, then each _MAX_BLOCK past it.  Abel rows are summed in lockstep,
# so each full block past the ramp is read once for all of them; summed one
# row at a time, the depth-16 Abel grid read each again for every row that
# reached it, 1,135,936 terms
@pytest.mark.parametrize("spec, depth, formula, terms", [
    (abel_method(), 14, _grandi, 218_432),     # 87,360 + 2 * 65,536
    (abel_method(), 16, _grandi, 808_256),     # 87,360 + 11 * 65,536
    (cesaro_method(), 19, _grandi, 524_290),   # exactly the largest row, 2^19 + 1
    (cesaro_method(), 19, _slow, 152_896),     # 87,360 + 65,536, where rows close
], ids=["abel", "abel-16", "cesaro", "cesaro-slow"])
def test_summability_limit_reads_each_leading_block_once(spec, depth, formula, terms):
    src, read = _counted(formula, formula.__name__)
    est = summability_limit(spec, src, depth=depth, tol=1e-3)
    assert est.status == CONVERGED
    assert read[0] == terms


def _record_open_terms(monkeypatch):
    """Patch methods._SharedBlocks._record to log the terms of the open record after each read."""
    read = methods._SharedBlocks._record
    opened = []

    def recording(memo, lo, hi, terms=True):
        rec = read(memo, lo, hi, terms)
        opened.append(sum(rec.size for rec in memo._open.values()))
        return rec

    monkeypatch.setattr(methods._SharedBlocks, "_record", recording)
    return opened


def _kept_terms(memo):
    """The terms of the memo's kept records."""
    return sum(rec.size for rec in memo._kept.values())


def _assert_between_grids(memo, lock, cap):
    """A memo between grids: its kept ramp alone, and the source's lock free."""
    assert _kept_terms(memo) <= cap
    assert not memo._open and not memo._summaries
    assert lock.acquire(blocking=False)
    lock.release()


def test_shared_blocks_keep_at_most_the_ramp_and_one_max_block(monkeypatch):
    opened = _record_open_terms(monkeypatch)
    src, read = _counted_grandi()
    summability_limit(abel_method(), src, depth=14, tol=1e-3)
    memo = src._memo
    # 64 + 256 + 1024 + 4096 + 16384 + 65536 terms; the last rows read past
    # them, into one open record of a full block, which the grid drops
    assert _kept_terms(memo) == 87_360
    assert read[0] > 87_360
    assert max(opened) == methods._MAX_BLOCK
    _assert_between_grids(memo, src._grid_lock, 87_360)
    block = memo._kept[0].terms
    assert not block.flags.writeable
    assert np.array_equal(memo._record(0, 10).terms, block[:, :10])
    # the next grid on the source is served by the same memo
    summability_limit(cesaro_method(), src, depth=8, tol=1e-3)
    assert src._memo is memo
    # no reference cycle: the kept blocks go with the last reference to the source
    gone = weakref.ref(memo)
    del memo
    assert gone() is not None
    del src
    assert gone() is None


def test_c4_shared_blocks_count_their_caps_in_values(monkeypatch):
    assert [methods._block_cap(d) for d in (1, 4, 1024, 10**6)] == [65_536, 16_384, 64, 1]
    opened = _record_open_terms(monkeypatch)
    src, read = _counted(_grandi, "grandi4", dim=4)
    summability_limit(abel_method(), src, depth=14, tol=1e-3)
    memo = src._memo
    # 64 + 256 + 1024 + 4096 + 16384 terms, 87,296 values; the last rows read past them
    assert _kept_terms(memo) == 21_824
    assert read[0] > 21_824
    assert max(opened) == 16_384
    _assert_between_grids(memo, src._grid_lock, 21_824)
    # a record is component-major, its block the (n, dim) transpose
    assert memo._kept[0].terms.shape == (4, 64) and memo._kept[0].terms.flags.c_contiguous
    block = memo._kept[0].terms.T
    assert block.shape == (64, 4) and not block.flags.writeable
    assert np.array_equal(block, src.block(0, 64))


def _dense4_counted():
    """A C^4 source L + rho^n u with |rho| = 0.999, turning, and a counter of the terms read."""
    read = [0]
    rho = 0.999 * np.exp(0.6j * math.pi)

    def block(lo, hi):
        read[0] += hi - lo
        return _L4[None, :] + np.power(rho, np.arange(lo, hi))[:, None] * _U4[None, :]

    return SequenceSource(block, SpaceDescriptor(4, "l2"), "dense4"), read


def _same_estimate(a, b):
    return (a.status == b.status and a.residual == b.residual and a.failed_points == b.failed_points
            and (a.value is None and b.value is None
                 or a.value is not None and b.value is not None
                 and np.array_equal(a.value.coords, b.value.coords)))


_THREE_GRIDS = ((cesaro_method(), 19), (abel_method(), 14), (as_kernel(abel_method()), 14))


# Cesaro reads 524,290 terms of 1, 0, 1, 0, ... and each Abel grid 218,432;
# the two Abel grids find the kept ramp of 87,360 terms.  On the C^4 source
# each grid reads 38,208 terms, the kept ramp of 21,824 and one full block.
@pytest.mark.parametrize("counted, shared_terms, fresh_terms", [
    (_counted_grandi, 786_434, 961_154),
    (_dense4_counted, 70_976, 114_624),
], ids=["scalar", "C4"])
def test_one_source_summed_by_three_methods_reads_its_ramp_once(counted, shared_terms,
                                                                 fresh_terms):
    src, read = counted()
    shared = [summability_limit(spec, src, depth=depth, tol=1e-3) for spec, depth in _THREE_GRIDS]
    assert read[0] == shared_terms
    assert all(est.converged for est in shared)
    fresh_read = 0
    for (spec, depth), est in zip(_THREE_GRIDS, shared):
        fresh, fresh_count = counted()
        assert _same_estimate(est, summability_limit(spec, fresh, depth=depth, tol=1e-3))
        fresh_read += fresh_count[0]
    assert fresh_read == fresh_terms


def test_a_grid_that_raises_leaves_only_the_kept_ramp():
    # Cesaro rows up to 2^18 + 1 read past the kept ramp, into an open record
    # and summaries of full blocks; the support at row 2^19 is not an
    # interval of E, so the grid raises there
    src, _ = _counted_grandi()
    seen = []

    def support(m):
        if m < 2**19:
            return (0, m)
        seen.append((len(src._memo._open), len(src._memo._summaries)))
        return (5, 2)

    with pytest.raises(ValueError, match="not an interval of E"):
        summability_limit(replace(cesaro_method(), support=support), src, depth=19, tol=1e-3)
    assert seen == [(1, 2)]
    _assert_between_grids(src._memo, src._grid_lock, 87_360)
    assert _kept_terms(src._memo) == 87_360


def test_an_identity_grid_leaves_the_ramp_to_a_later_abel_grid():
    # identity rows start past 0: of the ramp they keep only the term at 64,
    # a prefix of the ramp block there, so the Abel grid keeps the whole
    # ramp, the full block at 21,824 included, and reads one term fewer than
    # on a fresh source; a second Abel grid reads only its two full blocks
    src, read = _counted_grandi()
    summability_limit(identity_method(), src, depth=14, tol=1e-3)
    read[0] = 0
    abel = [summability_limit(abel_method(), src, depth=14, tol=1e-3)]
    assert read[0] == 218_431
    read[0] = 0
    abel.append(summability_limit(abel_method(), src, depth=14, tol=1e-3))
    assert read[0] == 131_072
    assert _kept_terms(src._memo) == 87_360 and 21_824 in src._memo._kept
    fresh, _ = _counted_grandi()
    want = summability_limit(abel_method(), fresh, depth=14, tol=1e-3)
    assert all(_same_estimate(est, want) for est in abel)


def test_a_source_memo_dies_with_its_source():
    # the memo holds the source's block callable and space, not the source:
    # reference counting alone frees both, with the collector off
    gc.disable()
    try:
        src = vector_sequence(lambda ns: _L4[None, :] + np.power(0.99, ns)[:, None] * _U4[None, :],
                              SpaceDescriptor(4, "l2"), "dense4")
        summability_limit(abel_method(), src, depth=10, tol=1e-3)
        summability_limit(cesaro_method(), src, depth=10, tol=1e-3)
        source_gone, memo_gone = weakref.ref(src), weakref.ref(src._memo)
        del src
        assert source_gone() is None and memo_gone() is None
    finally:
        gc.enable()


def test_threads_that_share_a_source_get_the_estimates_of_sequential_grids():
    grids = [(abel_method(), 14), (cesaro_method(), 16)] * 3
    sequential, seq_read = _counted(_grandi, "grandi4", dim=4)
    want = [summability_limit(spec, sequential, depth=depth, tol=1e-3) for spec, depth in grids]
    src, read = _counted(_grandi, "grandi4", dim=4)
    got = [None] * len(grids)

    def run(i):
        spec, depth = grids[i]
        got[i] = summability_limit(spec, src, depth=depth, tol=1e-3)

    # more threads than cores, switching often, so the grids interleave
    # wherever the source's lock lets them
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(grids))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(_same_estimate(a, b) for a, b in zip(got, want))
    # every grid reads the whole kept ramp, so the order does not change the count
    assert read[0] == seq_read[0]
    _assert_between_grids(src._memo, src._grid_lock, 21_824)


def test_memory_of_a_sum_does_not_grow_with_the_dimension():
    # C^1024 rows: a block and the memo hold at most _MAX_BLOCK values each,
    # where blocks of _MAX_BLOCK terms would take 1 GB apiece
    # The peak is the child's own, in KiB.  On Linux ru_maxrss also counts
    # the peak of the process that spawned it (the test run's), so the
    # child reads its VmHWM; elsewhere ru_maxrss, in bytes on macOS.
    code = textwrap.dedent("""
        import resource, sys, numpy as np
        from sumkit.methods import cesaro_method, summability_limit, vector_sequence
        from sumkit.vspace import SpaceDescriptor
        grandi = lambda n: np.repeat(((1.0 + (-1.0) ** n) / 2.0)[:, None], 1024, axis=1)
        s = vector_sequence(grandi, SpaceDescriptor(1024, "l2"))
        est = summability_limit(cesaro_method(), s, depth=16, tol=1e-3)
        try:
            with open("/proc/self/status") as status:
                peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        except OSError:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            peak //= 1024 if sys.platform == "darwin" else 1
        print(est.converged, float(np.abs(est.value.coords - 0.5).max()), peak)
    """)
    path = os.pathsep.join([str(Path(methods.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    converged, error, peak = out.stdout.split()
    assert converged == "True" and float(error) <= 1e-3
    assert int(peak) / 2**10 < 150


# a row's blocks from index 0, (start, size): the kept ramp of 87,360 terms,
# then _MAX_BLOCK blocks past it
_ROW_BLOCKS = ((0, 64), (64, 256), (320, 1024), (1344, 4096), (5440, 16384), (21824, 65536),
               (87_360, 65536), (152_896, 65536), (218_432, 65536))
# a C^4 source whose terms round differently all along (no underflow to L)
WAVY_SEQ4 = vector_sequence(
    lambda ns: _L4[None, :] + (np.cos(0.5 * ns) / np.sqrt(ns + 1.0))[:, None] * _U4[None, :],
    SpaceDescriptor(4, "l2"), "wavy_seq4")


def _memo_requests(rng, count):
    """(lo, hi, terms) requests as grid rows make them, in a seeded order.

    Each request starts at a block start: the whole block, a prefix (a
    finite row's last block, past the cap too), or one term more than the
    longest request at that start so far.
    """
    longest = {}
    for _ in range(count):
        lo, full = _ROW_BLOCKS[rng.integers(len(_ROW_BLOCKS))]
        kind = rng.integers(3)
        if kind == 0:
            size = full
        elif kind == 1:
            size = int(rng.integers(1, full + 1))
        else:
            size = min(longest.get(lo, 0) + 1, full)
        longest[lo] = max(longest.get(lo, 0), size)
        yield lo, lo + size, bool(rng.integers(2))


@pytest.mark.parametrize("dim, kept_blocks", [(1, 6), (4, 5)], ids=["scalar", "C4"])
def test_a_row_from_0_asks_for_the_kept_blocks_then_full_blocks(dim, kept_blocks):
    # one ramp: the blocks a certified sum asks for from 0 are the ones the
    # memo keeps (87,360 terms in C^1, 21,824 in C^4), then full blocks
    requests = []

    def block(lo, hi):
        requests.append((lo, hi))
        return np.repeat(_grandi(np.arange(lo, hi))[:, None], dim, axis=1)

    memo = methods._SharedBlocks(SequenceSource(block, SpaceDescriptor(dim, "l2")))
    transform_at(abel_method(), memo, 1 - 2.0**-14, tail_tol=1e-5)
    kept = [(lo, lo + rec.size) for lo, rec in memo._kept.items()]
    assert kept == [(lo, lo + size) for lo, size in _ROW_BLOCKS[:kept_blocks]]
    assert requests[:kept_blocks] == kept
    full = methods._block_cap(dim)
    past = requests[kept_blocks:]
    assert len(past) >= 2
    assert past == [(kept[-1][1] + k * full, kept[-1][1] + (k + 1) * full)
                    for k in range(len(past))]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("src", [
    scalar_sequence(_slow, "slow"),
    WAVY_SEQ4,
    # the same terms laid out column by column, which numpy sums in another order
    SequenceSource(lambda lo, hi: np.asfortranarray(WAVY_SEQ4.block(lo, hi)), WAVY_SEQ4.space),
], ids=["scalar", "C4", "C4-fortran"])
def test_shared_blocks_serve_every_request_as_a_fresh_read(src, seed):
    gc.disable()
    try:
        memo = methods._SharedBlocks(src)
        for lo, hi, terms in _memo_requests(np.random.default_rng(seed), 100):
            got = memo._record(lo, hi, terms)
            fresh = src._record(lo, hi)
            assert got.size == hi - lo
            if terms or got.terms is not None:
                assert np.array_equal(got.terms, fresh.terms), (lo, hi)
                assert np.array_equal(got.norms, fresh.norms), (lo, hi)
            for name in ("total", "abs_total", "sup", "last", "dev"):
                assert np.array_equal(getattr(got, name), getattr(fresh, name)), (lo, hi, name)
            # terms held: the kept ramp plus one open record
            assert _kept_terms(memo) <= 87_360
            assert sum(rec.size for rec in memo._open.values()) <= methods._MAX_BLOCK
        assert memo._open, "no request reached past the cap"
        gone = weakref.ref(memo)
        del memo, got
        assert gone() is None
    finally:
        gc.enable()


def test_grid_past_the_cap_equals_lone_transforms_on_a_c4_source():
    # Cesaro rows 2^k + 1 extend row 2^k's last block past the cap by one term
    taken = _grid_samples(cesaro_method(), WAVY_SEQ4, 18)
    assert max(param for param, _ in taken) == 2**18 + 1
    tail_tol = 1e-3 * methods._TAIL_SHARE
    for param, coords in taken:
        lone = transform_at(cesaro_method(), WAVY_SEQ4, param, tail_tol=tail_tol)
        assert np.array_equal(coords, lone.coords), param


# ---------------------------------------------------------------------------
# box rows: one weight on the support, each block summed as weight * sum

# on and around the block edges 64, 320 and 87,360 (the end of the kept
# ramp), and past the kept ramp
BOX_ROWS = (63, 64, 319, 320, 87_359, 87_360, 2**17 + 1)
BOX_SPECS = [cesaro_method(), series_summation_method(), identity_method()]


def _dyadic4(ns):
    # Dyadic terms make every partial sum exact, which leaves the weight and
    # the product as the only roundings (rounded terms: see
    # test_c4_rows_round_like_fsum).
    return np.stack([(1.0 + (-1.0) ** ns) / 2.0 + 0.25j, (ns % 3) / 4.0 + 1j * (ns % 5),
                     0.5 - (ns % 7) / 8.0 + 0j, 3.0 - 1j * (ns % 2)], axis=1)


@pytest.mark.parametrize("src", [ALT_PARTIAL, scalar_sequence(lambda n: 1.0 + 1.0 / (n + 1.0)),
                                 vector_sequence(_dyadic4, SpaceDescriptor(4, "l2"))],
                         ids=["grandi", "slow", "dyadic_C4"])
@pytest.mark.parametrize("spec", BOX_SPECS, ids=lambda s: s.name)
def test_box_rows_match_an_fsum_reference(spec, src):
    shared = methods._SharedBlocks(src)
    for m in BOX_ROWS:
        got = transform_at(spec, src, m).coords
        # a grid's rows share one memo, kept prefixes and summaries included
        assert np.array_equal(transform_at(spec, shared, m).coords, got)
        terms = src.block(0, m + 1)
        if spec.name == "identity":
            terms = terms[m:]
        divisor = m + 1.0 if spec.name == "cesaro" else 1.0
        for j in range(terms.shape[1]):
            for part in ("real", "imag"):
                ref = math.fsum(getattr(terms[:, j], part)) / divisor
                assert abs(getattr(got[j], part) - ref) <= 2 * math.ulp(ref), (m, j, part)


def _rounded4(ns):
    ns = ns.astype(float)
    return np.stack([1.0 + 1.0 / (ns + 1.0), (1.0 + (-1.0) ** ns) / 2.0 + 1j * (2.0 + np.sin(ns)),
                     3.0 - 1.0 / (ns + 2.0) + 0.5j, np.sqrt(ns + 1.0) + 1j / (ns + 1.0)], axis=1)


@pytest.mark.parametrize("spec", BOX_SPECS[:2], ids=lambda s: s.name)
def test_c4_rows_round_like_fsum(spec):
    # each component of a C^4 block sums pairwise, so rounded terms keep the
    # error of a long row within a few ulp (a row-by-row sum was off by 55)
    src = vector_sequence(_rounded4, SpaceDescriptor(4, "l2"))
    for m in (87_358, 2**20):
        got = transform_at(spec, src, m).coords
        terms = _rounded4(np.arange(m + 1))
        divisor = m + 1.0 if spec.name == "cesaro" else 1.0
        for j in range(4):
            for part in ("real", "imag"):
                ref = math.fsum(getattr(terms[:, j], part)) / divisor
                assert abs(getattr(got[j], part) - ref) <= 8 * math.ulp(ref), (m, j, part)


@pytest.mark.parametrize("src", [scalar_sequence(lambda n: 1.0 + 1.0 / (n + 1.0)), WAVY_SEQ4],
                         ids=["C1", "C4"])
def test_bool_int_and_float_coefficient_blocks_sum_to_the_same_bits(src):
    # the partial-sum row without support or tails: its blocks past m are
    # zero, so it reads up to two zero full blocks past m and stops on the
    # ratio test; every real dtype multiplies a term as c + 0j
    dtypes = (bool, np.int64, float)
    specs = [methods.MatrixSpec(name=f"partial_{np.dtype(dtype).name}",
                                kernel_batch=lambda m, ns, dtype=dtype: (ns <= m).astype(dtype))
             for dtype in dtypes]
    for m in (0, 5, 100, 70_000):
        got = [transform_at(spec, src, m).coords for spec in specs]
        assert got[0].dtype == complex
        assert all(np.array_equal(out, got[-1]) for out in got), m
        assert np.allclose(got[-1], src.block(0, m + 1).sum(axis=0), rtol=1e-13), m


@pytest.mark.parametrize("tag", ["l2", "sup"])
@pytest.mark.parametrize("spec, param", [(abel_method(), 0.5), (cesaro_method(), 100)],
                         ids=["abel", "cesaro"])
def test_c4_terms_past_the_square_root_of_the_float_range_sum(spec, param, tag):
    # |v_0| = 1e160: its square overflows, its l2 norm does not
    def huge(ns):
        return np.stack([1e160 * 0.5 ** ns, 0.0 * ns, 0.0 * ns, 0.0 * ns], axis=1)

    got = transform_at(spec, vector_sequence(huge, SpaceDescriptor(4, tag)), param).coords
    scalar = transform_at(spec, scalar_sequence(lambda ns: 1e160 * 0.5 ** ns), param).coords
    assert np.array_equal(got, np.concatenate([scalar, np.zeros(3)]))


def test_scaled_box_row_reads_as_much_and_doubles_the_value():
    src, read = _counted_grandi()
    plain = summability_limit(cesaro_method(), src, depth=19, tol=1e-3)
    src, scaled_read = _counted_grandi()
    scaled = summability_limit(methods.scaled_method(cesaro_method(), 2), src, depth=19, tol=1e-3)
    assert scaled_read[0] == read[0]
    assert np.array_equal(scaled.value.coords, 2 * plain.value.coords)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("spec", BOX_SPECS, ids=lambda s: s.name)
def test_box_row_with_a_non_finite_term_is_not_summable(spec, bad):
    src = scalar_sequence(lambda n: np.where(n == 100, bad, (1.0 + (-1.0) ** n) / 2.0))
    with pytest.raises(NonSummableError, match="non-finite term"):
        transform_at(spec, src, 100)


@pytest.mark.parametrize("scale", [1e300, 1e308])  # huge terms; a block sum past the float range
@pytest.mark.parametrize("spec", BOX_SPECS[:2], ids=lambda s: s.name)
def test_box_row_with_overflowing_terms_is_not_summable(spec, scale):
    src = scalar_sequence(lambda n: scale * (1.0 + n % 2))
    with pytest.raises(NonSummableError, match="overflowing|non-finite"):
        transform_at(spec, src, 100)


@pytest.mark.parametrize("tag", ["l1", "l2", "sup"])
@pytest.mark.parametrize("r", [0.5, 0.99])
def test_abel_sum_of_a_c3_source_is_its_closed_form(r, tag):
    # v_n = L + rho^n u: the Abel mean is L + (1 - r) u / (1 - r rho) in every norm
    L, u, rho = np.array([1.0, -2j, 0.5 + 0.5j]), np.array([0.3, 1j, -0.7]), 0.8j
    src = vector_sequence(lambda ns: L + np.power(rho, ns)[:, None] * u, SpaceDescriptor(3, tag))
    got = transform_at(abel_method(), src, r).coords
    assert np.abs(got - (L + (1 - r) / (1 - r * rho) * u)).max() <= 1e-13


def test_abel_sum_of_a_c2_term_whose_modulus_overflows_is_not_summable():
    # v_3's first coordinate 1.5e308(1 + i) is finite; its modulus, and so the l2 norm, is inf
    def terms(ns):
        first = np.where(ns == 3, 1.5e308 + 1.5e308j, 0.5 ** ns)
        return np.stack([first, 0.5 ** ns], axis=1)

    with pytest.raises(NonSummableError, match="terms overflowing"):
        transform_at(abel_method(), vector_sequence(terms, SpaceDescriptor(2, "l2")), 0.5)


# ---------------------------------------------------------------------------
# summability limits


def test_cesaro_limit_of_alternating_series():
    # oracle: exact sigma_n evaluation, see test_domains; limit is 1/2
    est = summability_limit(cesaro_method(), ALT_PARTIAL, depth=14, tol=1e-3)
    assert est.status == CONVERGED
    assert abs(_scalar(est.value) - 0.5) <= 1e-3


def test_abel_limit_of_convergent_sequence():
    # v_n = 1 + 2^-n is convergent to 1; Abel means have the closed form
    # (1-r)(1/(1-r) + 1/(1 - r/2)) -> 1
    v = scalar_sequence(lambda n: 1.0 + 2.0 ** (-n.astype(float)), "1+2^-n")
    est = summability_limit(abel_method(), v, depth=20, tol=1e-4)
    assert est.status == CONVERGED
    assert abs(_scalar(est.value) - 1.0) <= 1e-4
    r = 1 - 2.0**-20
    closed = (1 - r) * (1 / (1 - r) + 1 / (1 - r / 2))
    assert abs(_scalar(est.value) - closed) <= 1e-9


def test_series_summation_of_ones_diverges():
    ones = scalar_sequence(lambda n: np.ones_like(n, dtype=float), "ones")
    est = summability_limit(series_summation_method(), ones, depth=14, tol=1e-6)
    assert est.status == DIVERGED


def test_identity_limit_is_plain_convergence():
    v = scalar_sequence(lambda n: (-1.0) ** n, "alternating")
    est = summability_limit(identity_method(), v, depth=10, tol=1e-3)
    assert est.status != CONVERGED  # parity pairs expose the oscillation


@pytest.mark.parametrize("param", [math.inf, -math.inf, math.nan, 2.5, -1],
                         ids=["inf", "-inf", "nan", "2.5", "-1"])
def test_a_row_index_outside_the_naturals_raises_value_error(param):
    with pytest.raises(ValueError, match="outside the naturals"):
        methods._row(cesaro_method(), param)
    with pytest.raises(ValueError, match="outside the naturals"):
        transform_at(cesaro_method(), ALT_PARTIAL, param)


def test_a_kernel_of_a_scalar_parameter_breaks_the_counting_kernel_contract():
    # a grid of rows without an end reads the kernel with a column of its
    # parameters; a lone row reads it with its scalar parameter, as ever
    spec = KernelSpec(name="scalar_only", E=NAT,
                      kernel_batch=lambda r, ns: np.full(len(ns), r) * 0.5 ** ns)
    assert _scalar(transform_at(spec, ALT_PARTIAL, 0.5)) == pytest.approx(0.5 * 4 / 3)
    with pytest.raises(ValueError, match=r"elementwise in \(p, n\)"):
        summability_limit(spec, ALT_PARTIAL, depth=6, tol=1e-3)


def _traced_peak(run):
    """run()'s result and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_lockstep_grid_peaks_no_higher_than_its_rows_summed_one_by_one():
    # its chunks hold at most _MAX_BLOCK values, as a lone row's full block
    # does.  Summed one row at a time, this grid peaked at 6,830,157 to
    # 6,831,816 traced bytes (numpy 2.4, CPython 3.11), its kept ramp and a
    # full block's work buffers among them; its 14 rows add some 3 KB
    summability_limit(abel_method(), _counted_grandi()[0], depth=2, tol=1e-3)
    src = _counted_grandi()[0]
    est, peak = _traced_peak(lambda: summability_limit(abel_method(), src, depth=14, tol=1e-3))
    assert est.status == CONVERGED
    assert peak <= 6_850_000

    def one_by_one():  # the same rows on a fresh source, each a lone certified sum
        fresh = _counted_grandi()[0]
        with fresh._grid() as memo:
            return [transform_at(abel_method(), memo, r, tail_tol=1e-3 * methods._TAIL_SHARE)
                    for r in sample_grid(UNIT_INTERVAL, 14)]

    _, alone = _traced_peak(one_by_one)
    assert peak <= alone + 8_192


def test_failed_grid_points_are_recorded():
    # terms explode for n > 60: transform fails at large rows only
    def block(lo, hi):
        ns = np.arange(lo, hi, dtype=float)
        return np.where(ns < 60, 1.0, 1e160) ** np.where(ns < 60, 1.0, (ns - 59)) \
            .astype(float)[:, None] * np.ones((hi - lo, 1))

    bad = scalar_sequence(lambda n: np.where(n < 60, 1.0, np.inf), "explodes")
    est = summability_limit(cesaro_method(), bad, depth=8, tol=1e-6)
    assert est.failed_points  # rows beyond 60 hit non-finite terms
    assert est.status != CONVERGED


@pytest.mark.parametrize("depth, bad, status", [
    (6, 65, INCONCLUSIVE),   # the last grid point, 2^6 + 1
    (6, 2, CONVERGED),       # the first of 12 grid points, before the last 2 windows of 4
    (3, 2, INCONCLUSIVE),    # a grid of 6 points is shorter than 2 windows
], ids=["last", "before-the-last-two-windows", "short-grid"])
def test_a_failure_among_the_last_two_windows_makes_a_limit_inconclusive(depth, bad, status):
    src = scalar_sequence(lambda n: np.where(n == bad, np.inf, 1.0))
    est = summability_limit(identity_method(), src, depth=depth, tol=1e-6)
    assert [p for p, _ in est.failed_points] == [bad]
    assert est.status == status


def test_vector_sequence_roundtrip():
    space = SpaceDescriptor(3, "sup")
    v = vector_sequence(lambda ns: np.stack([ns, ns**2, np.ones_like(ns)], axis=1).astype(complex),
                        space, "poly")
    t2 = v.term(2)
    assert t2 == VectorValue([2, 4, 1], space)
    est = transform_at(identity_method(), v, 7)
    assert est == VectorValue([7, 49, 1], space)


def test_as_kernel_reads_every_index_of_a_batch():
    cesaro = as_kernel(cesaro_method())
    assert np.array_equal(cesaro.kernel_batch(3, np.array([0, 5])), [0.25, 0.0])
    assert np.array_equal(cesaro.kernel_batch(3, np.array([4, 0, 0])), [0.0, 0.25, 0.25])
    assert np.array_equal(cesaro.kernel_batch(3, np.arange(2, 6)), [0.25, 0.25, 0.0, 0.0])
    assert cesaro.kernel_batch(3, np.array([], dtype=int)).shape == (0,)
    abel = as_kernel(abel_method())
    ts = np.array([7, 1, 30])
    expected = [abel_method().coeff(int(t), 0.5) for t in ts]
    assert np.allclose(abel.kernel_batch(0.5, ts), expected, rtol=1e-15, atol=0)
