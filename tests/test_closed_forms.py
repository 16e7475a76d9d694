"""Closed-form differential tests: every grid sample against its exact transform.

Every transform is linear, so a source built from families whose transforms
have closed forms has a closed-form transform too.  The sequences here are

    v_n = c + a rho^n + h / (n + 1),    rho real or complex, |rho| <= 0.95,

in C^dim, each coefficient vector present or absent, and each is summed with
Abel, Cesaro, series summation, the identity and ``as_kernel(abel)`` in turn,
as one ``SequenceSource``: the later grids read the blocks the earlier ones
kept on it.  With L = -log(1 - r) and H_k the harmonic numbers:

    Abel at r          c + a (1-r)/(1-r rho) + h (1-r) L(r)/r
    Cesaro at m        c + a (1-rho^(m+1))/((m+1)(1-rho)) + h H_(m+1)/(m+1)
    series at m        c (m+1) + a (1-rho^(m+1))/(1-rho) + h H_(m+1)
    identity at m      v_m

The functions on [0, 1) are c + b (1-t)^p, 0.5 <= p <= 2, under the
logarithmic kernel, whose transform is c + b (1 - (1-r)^p)/(p L(r)).

Invariants, on every grid sample and every estimate:

* each sample lies within its budget, the ``tail_tol`` of
  ``summability_limit`` (``tol * _TAIL_SHARE``, the certified tail or the
  quadrature tolerance), plus a rounding slack of ``_SLACK`` times one plus
  the row's mass times the coefficients' size, of its closed form, or its
  grid point is a recorded failure;
* a ``converged`` limit lies within ``tol`` of the true limit: c for the
  regular methods, a/(1 - rho) for series summation when c = h = 0, and
  none otherwise.

Every coefficient present has modulus in [0.25, 2] in each coordinate.
Nearer zero, a slowly moving part (h/(n+1) under series summation, b(1-t)^p
under the logarithmic kernel) moves the estimator's window by less than
``tol``, and the estimate says ``converged`` short of the limit: that is
the rate-blind estimator of ROADMAP item 2.  Left out too, each until the
item that mends it lands:

* steps [n >= K] and spikes [n = K] (item 7): a certificate can stop a row
  before a late step, so a sample misses it by the whole step;
* 0.5 + (1-t)^2 sin(40 t) under the logarithmic kernel (item 2): it says
  ``converged`` at 0.50253 at depth 14.

Cesaro's limit of a source with an h/(n+1) part is not judged either (item
2 again).  Its means fall like log(m)/m, and the estimator's last window,
rows 2^13 .. 2^14 + 1, spans less than the distance still to go: with h = 1.7
it says ``converged`` 1.07e-3 from the limit at tol 1e-3.  A strict xfail
test pins that case until the estimator checks the method's rate.

The real-block tests at the end draw from the same profile: each builtin
counting kernel's float block is the real part of the complex block it
replaced, bit for bit, and a certified sum gives the same bits with a real
coefficient block as with that block + 0j.

The examples are drawn with ``derandomize=True`` from the hypothesis profile
``closed-forms`` (a few seconds); set ``SUMKIT_CLOSED_FORMS_PROFILE`` to
``closed-forms-deep`` for ten times as many.
"""

import functools
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumkit import holo, methods
from sumkit.cli import build_method
from sumkit.domains import sample_grid
from sumkit.methods import (
    FunctionSource,
    SequenceSource,
    abel_method,
    as_kernel,
    cesaro_method,
    identity_method,
    logarithmic_method,
    scaled_method,
    series_summation_method,
    summability_limit,
)
from sumkit.vspace import SpaceDescriptor, space_norm

# the profiles are registered in conftest.py
PROFILE = settings.get_profile(os.environ.get("SUMKIT_CLOSED_FORMS_PROFILE", "closed-forms"))

TOL = 1e-3
DEPTH = 14
LOG_DEPTH = 20
# rounding slack per unit of row mass times coefficient size: the pairwise
# block sums err by about eps log2(n) per unit, some 4e-15 at 2^18 terms
_SLACK = 1e-12


def _coefficient(dim):
    """None (absent) or a C^dim vector with every modulus in [0.25, 2]."""
    part = st.tuples(st.floats(0.25, 2.0), st.floats(0.0, 2.0 * math.pi)).map(
        lambda mp: mp[0] * complex(math.cos(mp[1]), math.sin(mp[1])))
    return st.one_of(st.none(), st.lists(part, min_size=dim, max_size=dim).map(np.array))


_RHO = st.one_of(
    st.floats(-0.95, 0.95),
    st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2.0 * math.pi)).map(
        lambda mp: mp[0] * complex(math.cos(mp[1]), math.sin(mp[1])))).map(complex)


@st.composite
def sequences(draw):
    dim = draw(st.sampled_from([1, 3]))
    c, a, h = (draw(_coefficient(dim)) for _ in range(3))
    zero = np.zeros(dim, dtype=complex)
    return dict(dim=dim, rho=draw(_RHO), **{k: zero if v is None else v
                                           for k, v in zip("cah", (c, a, h))})


@st.composite
def functions(draw):
    dim = draw(st.sampled_from([1, 3]))
    c, b = (draw(_coefficient(dim)) for _ in range(2))
    zero = np.zeros(dim, dtype=complex)
    return dict(dim=dim, p=draw(st.floats(0.5, 2.0)),
                c=zero if c is None else c, b=zero if b is None else b)


@functools.lru_cache(maxsize=None)
def _harmonic(k: int) -> float:
    return math.fsum(1.0 / np.arange(1, k + 1))


def _abel(f, r):
    L = -math.log1p(-r)
    return f["c"] + f["a"] * ((1 - r) / (1 - r * f["rho"])) + f["h"] * ((1 - r) * L / r), 1.0


def _cesaro(f, m):
    rho = f["rho"]
    return (f["c"] + f["a"] * ((1 - rho ** (m + 1)) / ((m + 1) * (1 - rho)))
            + f["h"] * (_harmonic(m + 1) / (m + 1))), 1.0


def _series(f, m):
    rho = f["rho"]
    return (f["c"] * (m + 1) + f["a"] * ((1 - rho ** (m + 1)) / (1 - rho))
            + f["h"] * _harmonic(m + 1)), m + 1.0


def _identity(f, m):
    return f["c"] + f["a"] * f["rho"] ** m + f["h"] / (m + 1), 1.0


def _regular_limit(f):
    return f["c"]


def _series_limit(f):
    return f["a"] / (1 - f["rho"]) if not (f["c"].any() or f["h"].any()) else None


# (spec, closed form at a parameter -> (value, row mass), true limit or None)
_METHODS = [
    (abel_method(), _abel, _regular_limit),
    (cesaro_method(), _cesaro, _regular_limit),
    (series_summation_method(), _series, _series_limit),
    (identity_method(), _identity, _regular_limit),
    (as_kernel(abel_method()), _abel, _regular_limit),
]


def _sequence_source(f):
    def block(lo, hi):
        ns = np.arange(lo, hi)
        return (f["c"][None, :] + np.power(f["rho"], ns)[:, None] * f["a"][None, :]
                + (1.0 / (ns + 1.0))[:, None] * f["h"][None, :])

    return SequenceSource(block, SpaceDescriptor(f["dim"], "l2"), "closed_form")


def _grid(spec, source, depth):
    """summability_limit's estimate and its (param, sample) pairs, failed points left out."""
    taken = []
    estimate = methods.estimate_limit_at_infinity

    def recording(samples, **kwargs):
        taken.extend(samples)
        return estimate(samples, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(methods, "estimate_limit_at_infinity", recording)
        est = summability_limit(spec, source, depth=depth, tol=TOL)
    failed = {p for p, _ in est.failed_points}
    params = [p for p in sample_grid(spec.F, depth) if p not in failed]
    assert len(taken) == (len(params) if len(params) >= 2 else 0)
    return est, list(zip(params, taken))


def _check(spec, est, pairs, closed, limit, size, judge_limit=True):
    budget = max(TOL * methods._TAIL_SHARE, methods._TAIL_TOL)
    for param, sample in pairs:
        want, mass = closed(param)
        slack = _SLACK * (1.0 + mass * size)
        miss = space_norm(sample.coords - want, "l2")
        assert miss <= budget + slack, (spec.name, param, miss)
    if est.converged and judge_limit:
        assert limit is not None, (spec.name, "converged without a limit")
        assert space_norm(est.value.coords - limit, "l2") <= TOL, (spec.name, est.value)


@PROFILE
@given(f=sequences())
def test_counting_samples_match_their_closed_forms(f):
    source = _sequence_source(f)
    size = sum(float(np.abs(f[k]).max()) for k in "cah")
    for spec, closed, limit in _METHODS:
        est, pairs = _grid(spec, source, DEPTH)
        # Cesaro's limit of an h/(n+1) part is not judged: see the strict xfail below
        _check(spec, est, pairs, functools.partial(closed, f), limit(f), size,
               judge_limit=not (spec.name == "cesaro" and f["h"].any()))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the window rule is blind to a "
                                       "log(m)/m rate")
def test_cesaro_limit_of_a_harmonic_part_is_within_tol():
    # Cesaro means of 1.7/(n+1) are 1.7 H_(m+1)/(m+1): the last window, rows
    # 2^13 .. 2^14 + 1, spans 9.2e-4 < tol, but the last mean is 1.07e-3 from
    # the limit 0, since the mean falls like log(m)/m, more slowly than the
    # window's two doublings show
    f = dict(dim=1, rho=0j, c=np.zeros(1), a=np.zeros(1), h=np.array([1.7 + 0j]))
    est = summability_limit(cesaro_method(), _sequence_source(f), depth=DEPTH, tol=TOL)
    assert not est.converged or abs(est.value.coords[0]) <= TOL


def _log_mean(f, r):
    L = -math.log1p(-r)
    return f["c"] + f["b"] * ((1 - (1 - r) ** f["p"]) / (f["p"] * L)), 1.0


@PROFILE
@given(f=functions())
def test_logarithmic_samples_match_their_closed_forms(f):
    source = FunctionSource(
        lambda ts: f["c"][None, :] + ((1.0 - ts) ** f["p"])[:, None] * f["b"][None, :],
        SpaceDescriptor(f["dim"], "l2"), name="closed_form")
    spec = logarithmic_method()
    est, pairs = _grid(spec, source, LOG_DEPTH)
    size = sum(float(np.abs(f[k]).max()) for k in "cb")
    _check(spec, est, pairs, functools.partial(_log_mean, f), f["c"], size)


# ---------------------------------------------------------------------------
# real coefficient blocks: the bits of the complex blocks they stand for
# (the certified sum multiplies a real c into the terms as c + 0j)


def _abel_complex(r, ns):
    ns = np.asarray(ns, dtype=float)
    # r**n via exp(n log r) stays accurate for r close to 1 and large n
    return (1.0 - r) * np.exp(ns * math.log(r)) + 0j if r > 0 else \
        (1.0 - r) * (ns == 0).astype(complex)


def _log_mean_complex(r, ns):
    ns = np.asarray(ns, dtype=float) + 1.0
    return np.exp(ns * math.log(r)) / (ns * -math.log1p(-r)) + 0j


_ROWS = (0, 1, 100, 2**14 + 1)
# r = 0.5 underflows to +0 past n = 1,074; 1 - 2^-14 is the deep-sum grid's end
_RADII = (0.0, 0.5, 0.9, 0.999, 1.0 - 2.0**-14)
# (spec, its complex block as a reference, its parameters)
_KERNELS = [
    (identity_method(), lambda m, ns: (ns == m).astype(complex), _ROWS),
    (series_summation_method(), lambda m, ns: (ns <= m).astype(complex), _ROWS),
    (cesaro_method(), lambda m, ns: (ns <= m) / (m + 1.0) + 0j, _ROWS),
    (abel_method(), _abel_complex, _RADII),
    (holo._log_mean_method(), _log_mean_complex, _RADII[1:3]),
]


def _same_bits(a, b):
    """Equal arrays, signed zeros and nan payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64))


@st.composite
def kernel_blocks(draw):
    spec, reference, params = draw(st.sampled_from(_KERNELS))
    lo = draw(st.sampled_from([0, 1, 1_000, 1_070, 65_536, 200_000]))
    return spec, reference, draw(st.sampled_from(params)), np.arange(
        lo, lo + draw(st.sampled_from([1, 2, 64, 1_000, 65_536])))


@PROFILE
@given(k=kernel_blocks())
def test_builtin_kernel_blocks_are_the_real_parts_of_their_complex_blocks(k):
    spec, reference, param, ns = k
    block = spec.kernel_batch(param, ns)
    assert block.dtype == np.float64
    assert _same_bits(block, np.real(reference(param, ns))), (spec.name, param, ns[0])


def _signed_zero_source(f, parts):
    """``_sequence_source(f)`` with the parts flagged in ``parts`` (re, then im) -0.0 at every n.

    A part that is -0.0 throughout sums to a signed zero, so its sign shows
    how each product rounded.
    """
    plain = _sequence_source(f)
    dim = f["dim"]

    def block(lo, hi):
        vs = plain.block(lo, hi)
        out = np.empty_like(vs)
        out.real = np.where(parts[:dim], -0.0, vs.real)
        out.imag = np.where(parts[dim:], -0.0, vs.imag)
        return out

    return SequenceSource(block, SpaceDescriptor(dim, "l2"), "signed_zeros")


@st.composite
def signed_zero_sources(draw):
    """v_n = c + a rho^n + h/(n+1) in C^1 or C^4, some parts -0.0 throughout."""
    dim = draw(st.sampled_from([1, 4]))
    c, a, h = (draw(_coefficient(dim)) for _ in range(3))
    zero = np.zeros(dim, dtype=complex)
    f = dict(dim=dim, rho=draw(_RHO), **{k: zero if v is None else v
                                         for k, v in zip("cah", (c, a, h))})
    return _signed_zero_source(f, np.array(draw(st.lists(st.booleans(), min_size=2 * dim,
                                                             max_size=2 * dim))))


# (spec, param) of every builtin counting kernel
_KERNEL_ROWS = [(spec, p) for spec, _, params in _KERNELS for p in params]


def _outcome(row, source, tail_tol):
    """The certified sum's coordinates, or its failure's message, terms and partial sum."""
    (out,) = methods._certified_sum([row], source, tail_tol)
    if isinstance(out, methods.NonSummableError):
        return str(out), out.terms, None if out.partial is None else out.partial.coords
    return out


def _same_outcome(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _same_bits(a, b)
    return a[:2] == b[:2] and (a[2] is b[2] is None or _same_bits(a[2], b[2]))


_ONES4 = np.ones(4, dtype=complex)


@PROFILE
@given(source=signed_zero_sources(), kernel_row=st.sampled_from(_KERNEL_ROWS),
       tail_tol=st.sampled_from([1e-5, 1e-14, math.ulp(0.0)]))
# Abel at r = 0.5 to the least subnormal tolerance reads its block 320 .. 1,343,
# whose coefficients past n = 1,074 underflow to +0, against -0.0 parts in C^1 and C^4
@example(source=_signed_zero_source(dict(dim=1, rho=0.5 + 0.5j, c=np.ones(1), a=np.ones(1),
                                         h=np.zeros(1)), np.array([True, False])),
         kernel_row=(abel_method(), 0.5), tail_tol=math.ulp(0.0))
@example(source=_signed_zero_source(dict(dim=4, rho=-0.9 + 0j, c=_ONES4, a=-_ONES4, h=1j * _ONES4),
                                    np.array([True, False] * 4)),
         kernel_row=(abel_method(), 0.5), tail_tol=math.ulp(0.0))
def test_real_coefficient_blocks_sum_to_the_bits_of_complex_ones(source, kernel_row, tail_tol):
    # a box row sums its source blocks, so its coefficient path is read without the box
    real = methods._row(*kernel_row)._replace(weight=None)
    complex_ = real._replace(kernel=lambda p, ns: real.kernel(p, ns) + 0j)
    want = _outcome(complex_, source, tail_tol)
    assert _same_outcome(_outcome(real, source, tail_tol), want)
    with source._grid() as memo:  # the second sum reads the records the first kept
        assert _same_outcome(_outcome(real, memo, tail_tol), want)
        assert _same_outcome(_outcome(complex_, memo, tail_tol), want)


# ---------------------------------------------------------------------------
# lockstep grids: each row summed in a batch has the bits it has alone (the
# kernel and its tails are elementwise in (p, n); each row's c v sums along
# the contiguous last axis of its chunk's (rows, dim, size) product)

_LOCKSTEP_SPECS = [
    abel_method(),
    as_kernel(abel_method()),
    scaled_method(abel_method(), 2 - 1j),
    build_method({"kind": "seq_to_func", "coeff": "(1 - r) * r**n", "name": "config_abel"}),
]
_LOCKSTEP_DEPTH = 12
# parameters whose log (the first two) or log1p(-r) (the last two) numpy
# rounds one ulp away from math's
_UNEVEN = (0.9833347065534214, 0.8203077943609558, 0.6066357757671799, 0.8574042765875693)


@pytest.mark.parametrize("spec", _LOCKSTEP_SPECS + [holo._log_mean_method()],
                         ids=lambda s: s.name)
def test_a_column_of_parameters_gives_each_row_its_own_bits(spec):
    ps = np.array(_UNEVEN + (0.5, 1.0 - 2.0**-14))
    ns = np.arange(1_000, 1_064)
    block = spec.kernel_batch(ps[:, None], ns)
    assert block.shape == (len(ps), len(ns))
    for p, row in zip(ps.tolist(), block):
        assert _same_bits(row, spec.kernel_batch(p, ns)), (spec.name, p)
    for tail in {spec.tail_abs, spec.tail_sum} - {None}:
        tails = tail(ps[:, None], 999, 1_001)
        assert tails.shape == (len(ps), 2)
        for p, row in zip(ps.tolist(), tails):
            assert _same_bits(row, tail(p, 999, 1_001)), (spec.name, p)


def _outcomes(rows, source, tail_tol):
    """``_outcome`` of each row of one lockstep sum."""
    return [out if isinstance(out, np.ndarray) else
            (str(out), out.terms, None if out.partial is None else out.partial.coords)
            for out in methods._certified_sum(rows, source, tail_tol)]


def _lockstep_rows(spec, depth=_LOCKSTEP_DEPTH, more=()):
    return [methods._row(spec, r) for r in (*sample_grid(spec.F, depth), *more)]


@PROFILE
@given(source=signed_zero_sources(), spec=st.sampled_from(_LOCKSTEP_SPECS),
       tail_tol=st.sampled_from([1e-5, 1e-9]))
def test_lockstep_rows_sum_to_the_bits_of_lone_rows(source, spec, tail_tol):
    rows = _lockstep_rows(spec, more=_UNEVEN)
    batched = _outcomes(rows, source, tail_tol)
    for row, out in zip(rows, batched):
        assert _same_outcome(out, _outcome(row, source, tail_tol)), (spec.name, row.p)
    with source._grid() as memo:  # and through the memo, as a grid reads its source
        assert all(_same_outcome(a, b) for a, b in zip(_outcomes(rows, memo, tail_tol), batched))


def _grandi_source(dim, term=lambda ns: (1.0 + (-1.0) ** ns) / 2.0, name="grandi"):
    """term(n) + 0.5i in every coordinate of C^dim; by default 1, 0, 1, 0, ... + 0.5i."""
    return SequenceSource(lambda lo, hi: np.repeat(term(np.arange(lo, hi))[:, None] + 0.5j,
                                                   dim, axis=1),
                          SpaceDescriptor(dim, "l2"), name)


def _failing_source(kind, dim, at):
    """1, 0, 1, 0, ... in C^dim with a nan or an inf at n = at, or 1e190 (-1)^n growing past it."""
    if kind == "overflowing":  # ten times larger per 1,000 terms past n = at
        return _grandi_source(dim, lambda ns: 1e190 * (-1.0) ** ns
                              * 10.0 ** (np.maximum(ns - at, 0) / 1_000.0), kind)
    bad = np.nan if kind == "nan" else np.inf
    return _grandi_source(dim, lambda ns: np.where(ns == at, bad, (1.0 + (-1.0) ** ns) / 2.0),
                          kind)


@PROFILE
@given(kind=st.sampled_from(["nan", "inf", "overflowing"]), dim=st.sampled_from([1, 4]),
       at=st.sampled_from([10, 500, 5_000, 30_000]), spec=st.sampled_from(_LOCKSTEP_SPECS))
def test_lockstep_failures_are_the_failures_of_lone_rows(kind, dim, at, spec):
    source = _failing_source(kind, dim, at)
    rows = _lockstep_rows(spec)
    for row, out in zip(rows, _outcomes(rows, source, 1e-5)):
        assert _same_outcome(out, _outcome(row, source, 1e-5)), (spec.name, row.p)
    est = summability_limit(spec, source, depth=_LOCKSTEP_DEPTH, tol=TOL)
    lone = []
    for r in sample_grid(spec.F, _LOCKSTEP_DEPTH):
        try:
            methods.transform_at(spec, source, r, tail_tol=TOL * methods._TAIL_SHARE)
        except methods.NonSummableError as exc:
            lone.append((r, f"NonSummableError: {exc}"))
    assert est.failed_points == tuple(lone)


@pytest.mark.parametrize("spec", _LOCKSTEP_SPECS, ids=lambda s: s.name)
def test_lockstep_rows_without_a_certificate_fail_as_lone_rows(monkeypatch, spec):
    # 1, 0, 1, 0, ...: no closure, and a plain certificate only past
    # 12 / (1 - r) terms, so the rows nearest r = 1 run out of terms
    monkeypatch.setattr(methods, "_MAX_TERMS", 5_000)
    source = _grandi_source(4)
    rows = _lockstep_rows(spec)
    batched = _outcomes(rows, source, 1e-5)
    assert sum(not isinstance(out, np.ndarray) for out in batched) >= 4
    for row, out in zip(rows, batched):
        assert _same_outcome(out, _outcome(row, source, 1e-5)), (spec.name, row.p)
