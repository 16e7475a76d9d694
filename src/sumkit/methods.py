"""Summability-method engines: matrix, sequence-to-function, kernel.

A method turns a sequence (or a function on [0, R)) into a new function on a
parameter domain; composing with the limit estimator at infinity gives the
method's generalized limit.

Because membership in a method's domain is not decidable numerically, every
infinite summation here carries a numeric tail certificate instead:

* plain certificate -- the remaining coefficient mass times the observed sup
  of recent term norms is below the tail tolerance;
* stabilized closure -- recent terms agree to within tail-tolerance-level
  scatter and the spec knows its exact remaining coefficient weight, so the
  tail is closed analytically with the scatter as the certified error;
* geometric-tail estimate -- the ratio test, for a row that neither of the
  above stops: two consecutive full blocks shrink by q <= 0.999, and the
  geometric tail S q / (1 - q) of the last block's absolute sum S is below
  ``_TAIL_TOL``.

All three are evidence from the sampled prefix, not proofs about the
unseen tail.  Reports do not yet say which rule fired; only a failure is
explained: a summation without an end that achieves no certificate within
``_MAX_TERMS`` terms raises NonSummableError naming the reason, with the
partial sum and the number of terms read.  The term budget never stops a
finite row, but the plain certificate and the stabilized closure can stop
one before its support end: ``transform_at(cesaro_method(), <1 + [n >= 100]>,
1000)`` is 1.0, where the exact mean is 1.9001 (ROADMAP item 7).

The tail tolerance is ``_TAIL_TOL`` = 1e-14 for a lone ``transform_at``, for
the regularity checks and for the Taylor norms in ``holo``.  The samples of
``summability_limit`` only have to fix a limit to ``tol``, so each is
certified to ``tol * _TAIL_SHARE`` instead (never tighter than
``_TAIL_TOL``).  A Lebesgue sample is integrated to the same budget,
floored at the quadrature default 1e-10 (``QuadratureConfig().tol``), which
a lone ``transform_at`` and the regularity integrals keep.  ``_TAIL_TOL``,
``_TAIL_SHARE`` and ``_MAX_TERMS`` are the one truncation rule of the
package, read at call time.

The certified sum reads its source one block at a time, as a ``_Block``
record: the terms, their norms, and the O(dim) sums every row takes of them
(the block's sum and norm sum, the sup norm, the last term and the
stabilized scatter about it).  Every norm is ``vspace.space_norm``, the
package's one per-vector norm, which the limit estimator takes too: a term
whose modulus overflows has norm inf, never nan.  A record holds its terms
component-major, one C-contiguous (dim, n) array, so every sum over a block
runs along contiguous memory and each component rounds pairwise, as a
scalar block does.  Block sizes are counted in values: a block holds at most
``_block_cap(dim)`` = max(1, ``_MAX_BLOCK`` // dim) terms, so a block, its
weighted product and the memo below stay bounded whatever dim X is, and
one dimension keeps ``_MAX_BLOCK`` terms.  A matrix row that declares
``weight`` is a box row -- Cesaro, series summation and the identity are --
and sums a block as its one weight times the block's sum, which rounds
differently from the sum of weighted terms; every other row multiplies its
coefficients into the terms.  A row's blocks from its start follow one
layout, ``_block_ramp``: ``_START_BLOCK`` terms, then 4x per block up to
and including one full block, then full blocks.  Every
``summability_limit`` grid on one sequence source reads it through the
source's one memo, ``_SharedBlocks``, which states what it keeps.  So a
``SequenceSource.block`` must be a pure function of (lo, hi) for the
source's lifetime, and elementwise in its index range, like every other
vectorised callable below: the terms of ``block(lo, hi)`` are those of
``block(lo, k)`` followed by those of ``block(k, hi)``, bit for bit.
Grids on one source run one at a time.

Every method is one ``KernelSpec``, a kernel a(r, t) on E with parameters
r in F: a matrix (``MatrixSpec``, E = F = naturals) and a
sequence-to-function method (``SeqToFuncSpec``, E = naturals) are counting
kernels with their domains fixed.  Every object is given by one
vectorised callable (``kernel_batch``, ``block``, ``batch``) that must be
elementwise in its index array (a value at n or t depends on it alone, not
on the other indices of the call); the scalar accessors ``entry``,
``coeff``, ``kernel``, ``term`` and ``value`` evaluate it on a single index.
A counting kernel's tails are blocks too: ``tail_abs``/``tail_sum(p, lo,
hi)`` give those past N = lo .. hi-1, and the signed one at N = k - 1 is
the row mass ``holo`` multiplies Taylor coefficient k by.  E's measure,
counting on the naturals and Lebesgue on an interval, decides the
transform; ``_kernel_support`` reads every support, an interval of E.
``_row`` is the one reader of a counting kernel: at one scalar parameter
it gives a ``_Row`` (a coefficient block, the support's integer points,
the tail blocks of the certificates, a label and a box row's weight),
which ``_certified_sum`` takes whole, and which the regularity checks and
``holo``'s chain steps read too.  Only a Lebesgue kernel is integrated,
over a support in the source's domain.  The integrals of every grid
parameter of one call refine in lockstep (``_kernel_quadratures``): each
level reads the source and the kernel once, at the nodes of all pending
integrals, the kernel with an array of parameters aligned with the nodes.
So a Lebesgue ``kernel_batch`` must be elementwise in (r, t), and each
integral then equals a lone one bit for bit.
"""

from __future__ import annotations

import copy
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from itertools import chain, repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import domains
from .domains import (
    NAT,
    UNIT_INTERVAL,
    HalfOpenInterval,
    IndexDomain,
    ConvergenceEstimate,
    INCONCLUSIVE,
    estimate_limit_at_infinity,
    sample_grid,
)
from .integrate import (
    MEASURE_COUNTING,
    MEASURE_LEBESGUE,
    QuadratureConfig,
    QuadratureError,
    SUBSTITUTION_NONE,
    adaptive_quadrature_family,
)
# Unused here; perfbench/layers.py wraps ``methods.adaptive_quadrature_batch`` by name.
from .integrate import adaptive_quadrature_batch  # noqa: F401
from .vspace import SCALAR, SpaceDescriptor, VectorValue, space_norm


class NonSummableError(RuntimeError):
    """No tail certificate achieved; carries the partial sum and the number of terms read."""

    def __init__(self, message, partial: Optional[VectorValue] = None, terms: int = 0):
        super().__init__(message)
        self.partial = partial
        self.terms = terms


# the truncation rule: a certified tail is at most _TAIL_TOL, within _MAX_TERMS
# terms unless the support ends; a summability_limit sample's tail is at most
# its tol * _TAIL_SHARE
_TAIL_TOL = 1e-14
_TAIL_SHARE = 1e-2
_MAX_TERMS = 1_000_000
# _certified_sum's block sizes: the first block, then 4x per block up to the
# cap, counted in values (see _block_cap and _block_ramp)
_START_BLOCK = 64
_MAX_BLOCK = 65536


def _block_cap(dim: int) -> int:
    """The most terms in one block of a C^dim source: ``_MAX_BLOCK`` values."""
    return max(1, _MAX_BLOCK // dim)


def _block_ramp(dim: int) -> dict:
    """The block ramp of a C^dim row from 0, {start: size}: the one block layout.

    ``_START_BLOCK`` terms (at most ``_block_cap(dim)``), then 4x per block
    up to and including one full block of ``_block_cap(dim)`` terms: starts
    0, 64, 320, 1,344, 5,440 and 21,824 in C^1 (ending at 87,360), and 0 ..
    5,440 in C^4 (ending at 21,824).  Every later block is full.
    """
    cap = _block_cap(dim)
    ramp, start, size = {}, 0, _START_BLOCK
    while size < cap:
        ramp[start] = size
        start, size = start + size, size * 4
    ramp[start] = cap
    return ramp


# ---------------------------------------------------------------------------
# Sources


class SequenceSource:
    """Lazy X-valued sequence given by its vectorised ``block(lo, hi)``.

    ``block`` must be a pure function of (lo, hi) for the source's lifetime,
    and elementwise in that range (see the module docstring): the grids of
    every ``summability_limit`` call on this source read it through one
    memo, ``_SharedBlocks``, made by the first such call and kept with the
    source.  Grids on one source run one at a time, under the source's lock.
    """

    def __init__(self, block, space: SpaceDescriptor = SCALAR, name: str = ""):
        self.space = space
        self.name = name
        self._block = block
        self._grid_lock = threading.Lock()
        self._memo = None

    def term(self, n: int) -> VectorValue:
        return VectorValue(self.block(n, n + 1)[0], self.space)

    def block(self, lo: int, hi: int) -> np.ndarray:
        arr = np.asarray(self._block(lo, hi), dtype=complex)
        return arr[:, None] if arr.ndim == 1 else arr

    def _record(self, lo: int, hi: int, terms: bool = True) -> "_Block":
        """The ``_Block`` of terms lo .. hi-1, read afresh.

        ``terms`` False lets a caller that needs only the O(dim) part take a
        record without its terms (see ``_SharedBlocks``).  The record holds
        the terms component-major, as one C-contiguous (dim, n) array (a free
        reshape in one dimension), so its sums do not depend on how the
        source laid out its block, each component sums pairwise over
        contiguous memory, and a record extended by a suffix sums as one
        read at once.
        """
        vs = self.block(lo, hi)
        if vs.shape != (hi - lo, self.space.dim):
            raise ValueError(f"source block shape {vs.shape}, expected {(hi - lo, self.space.dim)}")
        return _Block(np.ascontiguousarray(vs.T), self.space.norm_tag)

    @contextmanager
    def _grid(self):
        """This source's one grid memo, for one grid at a time.

        The memo is made on first use and kept with the source.  The lock
        makes grids that share the source run one after another, and every
        grid ends, on return or raise, by dropping what only it needed
        (``_SharedBlocks.end_grid``).
        """
        with self._grid_lock:
            if self._memo is None:
                self._memo = _SharedBlocks(self)
            try:
                yield self._memo
            finally:
                self._memo.end_grid()


class _Block:
    """One source block v_lo .. v_{hi-1} and what every row of a certified sum takes of it.

    Per term: ``terms``, component-major (dim, size), and their ``norms``.
    O(dim): ``size``, ``sup`` (the largest norm), ``last`` (the last term),
    ``total`` (the sum of the terms, pairwise per component), ``abs_total``
    (the sum of their norms) and ``dev`` (the largest norm of v - last, the
    scatter of the stabilized closure).  Each is computed on first use;
    ``summary()`` keeps the O(dim) part alone.
    """

    def __init__(self, terms: np.ndarray, tag: str):
        self.terms = terms
        self.size = terms.shape[1]
        self._tag = tag

    @cached_property
    def norms(self) -> np.ndarray:
        return space_norm(self.terms.T, self._tag)

    @cached_property
    def sup(self) -> float:
        return float(np.max(self.norms))

    @cached_property
    def last(self) -> np.ndarray:
        return self.terms[:, -1].copy()

    @cached_property
    def total(self) -> np.ndarray:
        return self.terms.sum(axis=1)

    @cached_property
    def abs_total(self) -> float:
        return float(np.sum(self.norms))

    @cached_property
    def dev(self) -> float:
        return float(np.max(space_norm((self.terms - self.last[:, None]).T, self._tag)))

    def prefix(self, size: int) -> "_Block":
        """The record of the first ``size`` terms (self when that is all of them)."""
        if size == self.size:
            return self
        out = _Block(self.terms[:, :size], self._tag)
        if "norms" in self.__dict__:
            out.norms = self.norms[:size]
        return out

    def extended(self, more: "_Block") -> "_Block":
        """The record of these terms followed by ``more``'s.

        A source block is elementwise, so this is the record of the whole
        range read at once.  The norms carry over, being elementwise; every
        O(dim) field is taken afresh on first use, since the rounding of a
        sum depends on the whole block.
        """
        out = _Block(np.concatenate((self.terms, more.terms), axis=1), self._tag)
        if "norms" in self.__dict__:
            out.norms = np.concatenate((self.norms, more.norms))
        return out

    def summary(self) -> "_Block":
        """This record without its per-term part, every O(dim) field computed."""
        for name in ("sup", "last", "total", "abs_total", "dev"):
            getattr(self, name)
        out = copy.copy(self)
        out.terms = out.norms = None
        return out


class _SharedBlocks(SequenceSource):
    """Read-through memo of a source's block records, shared by every grid on the source.

    Every certified sum of ``summability_limit`` asks the source for the same
    leading ``(lo, hi)`` blocks, whichever method sums it.  A request at a
    start the memo holds is served as a prefix of the held record, or, when
    it is longer, as that record extended by the missing suffix alone, which
    relies on ``block`` being elementwise.  The keep rule is structural: a
    record is kept whole and read-only, for as long as the source lives,
    exactly when it starts at a start of ``_block_ramp`` and ends within that
    ramp block, which relies on ``block`` being a pure function of (lo, hi).
    So the kept records are the blocks a row from 0 asks for, at most the
    ramp's 87,360 terms in C^1 (about 87,360 values whatever the
    dimension), and a row that starts past 0 keeps nothing there but a
    prefix of the ramp block at its own start.  Every other record is kept
    for one grid at most: the open record with its terms, the one read
    furthest along (at most one full block), which is a finite row's last
    block, which the next row extends, or the last block of a row without
    an end, which the next row reuses; and the O(dim) summary of every full
    block off the ramp, by ``(lo, hi)``, which serves a box row, since it
    needs no terms.  ``end_grid`` drops both.  Any other block is read
    afresh, through ``SequenceSource._record``.  The memo holds the source's
    block callable and space, never the source, so no reference cycle keeps
    either alive: the memo is freed with the last reference to its source.
    """

    def __init__(self, source: SequenceSource):
        super().__init__(source._block, source.space, source.name)
        self._ramp = _block_ramp(source.space.dim)
        self._kept = {}
        self.end_grid()

    def end_grid(self):
        """Drop the open record and the block summaries; the kept ramp stays."""
        self._open = {}
        self._summaries = {}

    def _record(self, lo: int, hi: int, terms: bool = True) -> "_Block":
        prior = self._kept.get(lo, self._open.get(lo))
        if prior is not None and prior.size >= hi - lo:
            return prior.prefix(hi - lo)
        if not terms and (lo, hi) in self._summaries:
            return self._summaries[(lo, hi)]
        fresh = super()._record  # its terms are a new array object: freezing them is safe
        rec = fresh(lo, hi) if prior is None else prior.extended(fresh(lo + prior.size, hi))
        rec.terms.flags.writeable = False
        if hi - lo <= self._ramp.get(lo, 0):
            self._kept[lo] = rec
            return rec
        if lo >= max(self._open, default=lo):
            self._open = {lo: rec}
        if not terms and rec.size == _block_cap(self.space.dim):
            self._summaries[(lo, hi)] = rec.summary()
        return rec


class FunctionSource:
    """Lazy X-valued function on [0, R) given by its vectorised ``batch(ts)``.

    ``batch`` must be elementwise in t: a Lebesgue transform evaluates it on
    the quadrature nodes of a whole parameter grid at once.
    """

    def __init__(self, batch, space: SpaceDescriptor = SCALAR,
                 domain: HalfOpenInterval = UNIT_INTERVAL, name: str = ""):
        self.space = space
        self.domain = domain
        self.name = name
        self._batch = batch

    def value(self, t: float) -> VectorValue:
        return VectorValue(self.batch(np.asarray([t]))[0], self.space)

    def batch(self, ts: np.ndarray) -> np.ndarray:
        arr = np.asarray(self._batch(ts), dtype=complex)
        return arr[:, None] if arr.ndim == 1 else arr


def scalar_sequence(fn: Callable[[np.ndarray], np.ndarray], name: str = "") -> SequenceSource:
    """Scalar sequence from a numpy-vectorized formula over the index array."""
    return vector_sequence(fn, SCALAR, name)


def vector_sequence(fn: Callable[[np.ndarray], np.ndarray], space: SpaceDescriptor,
                    name: str = "") -> SequenceSource:
    """Vector sequence from a vectorized formula: ns -> (len(ns), dim)."""
    return SequenceSource(space=space, block=lambda lo, hi: fn(np.arange(lo, hi)), name=name)


def scalar_function(fn: Callable[[np.ndarray], np.ndarray],
                    domain: HalfOpenInterval = UNIT_INTERVAL, name: str = "") -> FunctionSource:
    return FunctionSource(space=SCALAR, batch=lambda ts: fn(np.asarray(ts, dtype=float)),
                          domain=domain, name=name)


def combine_sources(alpha: complex, u, beta: complex, v):
    """alpha*u + beta*v for two sources of the same kind and space."""
    if isinstance(u, SequenceSource) and isinstance(v, SequenceSource):
        if u.space != v.space:
            raise ValueError("space mismatch")
        return SequenceSource(
            space=u.space,
            block=lambda lo, hi: alpha * u.block(lo, hi) + beta * v.block(lo, hi),
            name=f"{alpha}*{u.name}+{beta}*{v.name}",
        )
    if isinstance(u, FunctionSource) and isinstance(v, FunctionSource):
        if u.space != v.space or u.domain != v.domain:
            raise ValueError("space/domain mismatch")
        return FunctionSource(
            space=u.space,
            batch=lambda ts: alpha * u.batch(ts) + beta * v.batch(ts),
            domain=u.domain,
            name=f"{alpha}*{u.name}+{beta}*{v.name}",
        )
    raise TypeError("sources must be of the same kind")


# ---------------------------------------------------------------------------
# Method specs


@dataclass(frozen=True)
class KernelSpec:
    """Kernel a(r, t) integrated against v over E (counting or Lebesgue): the one method spec."""

    name: str
    # (r, ts) -> a(r, ts); a Lebesgue kernel takes r as a scalar or as an
    # array aligned with ts, one parameter per node, and is elementwise in (r, t)
    kernel_batch: Callable[[float, np.ndarray], np.ndarray]
    E: IndexDomain = UNIT_INTERVAL
    F: IndexDomain = UNIT_INTERVAL
    # (lo, hi) inclusive, an interval of E (see _kernel_support), else all of E
    support: Optional[Callable[[float], tuple]] = None
    substitution: str = SUBSTITUTION_NONE
    # counting, (r, lo, hi) -> sum_{n > N} |a(r, n)| and sum_{n > N} a(r, n) at N = lo .. hi-1
    tail_abs: Optional[Callable[[float, int, int], np.ndarray]] = None
    tail_sum: Optional[Callable[[float, int, int], np.ndarray]] = None
    # a box row: the one value w(r) of every entry on the support, so a block
    # sums to w(r) times the block's sum (see _Block); settable on MatrixSpec only
    weight: Optional[Callable[[float], complex]] = field(default=None, init=False)

    @property
    def measure(self) -> str:  # E's: counting on the naturals, Lebesgue on an interval
        return MEASURE_COUNTING if self.E == NAT else MEASURE_LEBESGUE

    def kernel(self, r: float, t) -> complex:
        return complex(self.kernel_batch(r, np.asarray([t]))[0])


@dataclass(frozen=True)
class MatrixSpec(KernelSpec):
    """Rows a_{m, n}: the counting kernel on E = F = naturals; m |-> sum_n a_{m, n} v_n."""

    E: IndexDomain = field(default=NAT, init=False)
    F: IndexDomain = field(default=NAT, init=False)
    substitution: str = field(default=SUBSTITUTION_NONE, init=False)
    weight: Optional[Callable[[int], complex]] = None

    def entry(self, m: int, n: int) -> complex:
        return self.kernel(m, n)


@dataclass(frozen=True)
class SeqToFuncSpec(KernelSpec):
    """Coefficients a_n(r): the counting kernel on E = naturals; r |-> sum_n a_n(r) v_n, r in F."""

    E: IndexDomain = field(default=NAT, init=False)
    support: Optional[Callable[[float], tuple]] = field(default=None, init=False)
    substitution: str = field(default=SUBSTITUTION_NONE, init=False)

    def coeff(self, n: int, r: float) -> complex:
        return self.kernel(r, n)


# ---------------------------------------------------------------------------
# Builtins


def identity_method() -> MatrixSpec:
    tail = lambda m, lo, hi: (np.arange(lo, hi) < m).astype(float)
    return MatrixSpec(
        name="identity",
        kernel_batch=lambda m, ns: (ns == m).astype(complex),
        support=lambda m: (m, m),
        tail_abs=tail, tail_sum=tail,
        weight=lambda m: 1.0,
    )


def series_summation_method() -> MatrixSpec:
    tail = lambda m, lo, hi: np.maximum(m - np.arange(lo, hi, dtype=float), 0.0)
    return MatrixSpec(
        name="series_summation",
        kernel_batch=lambda m, ns: (ns <= m).astype(complex),
        support=lambda m: (0, m),
        tail_abs=tail, tail_sum=tail,
        weight=lambda m: 1.0,
    )


def cesaro_method() -> MatrixSpec:
    tail = lambda m, lo, hi: np.maximum(m - np.arange(lo, hi, dtype=float), 0.0) / (m + 1.0)
    return MatrixSpec(
        name="cesaro",
        kernel_batch=lambda m, ns: (ns <= m) / (m + 1.0) + 0j,
        support=lambda m: (0, m),
        tail_abs=tail, tail_sum=tail,
        weight=lambda m: 1.0 / (m + 1.0),
    )


def abel_method() -> SeqToFuncSpec:
    def kernel_batch(r, ns):
        ns = np.asarray(ns, dtype=float)
        # r**n via exp(n log r) stays accurate for r close to 1 and large n
        return (1.0 - r) * np.exp(ns * math.log(r)) + 0j if r > 0 else \
            (1.0 - r) * (ns == 0).astype(complex)

    def tail(r, lo, hi):  # r**(N + 1) at N = lo .. hi-1 in the kernel's form, 0**0 = 1
        ns = np.arange(lo + 1, hi + 1, dtype=float)
        return np.exp(ns * math.log(r)) if r > 0 else (ns == 0).astype(float)

    return SeqToFuncSpec(
        name="abel",
        kernel_batch=kernel_batch,
        tail_abs=tail,
        tail_sum=tail,
    )


def logarithmic_method() -> KernelSpec:
    def kernel_batch(r, ts):
        ts = np.asarray(ts, dtype=float)
        rs = np.broadcast_to(np.asarray(r, dtype=float), ts.shape)
        # only inside the support [0, r): at r = 0 it is empty and log1p(-r) is 0
        inside = (ts >= 0.0) & (ts < rs)
        out = np.zeros(ts.shape, dtype=complex)
        out[inside] = -1.0 / np.log1p(-rs[inside]) / (1.0 - ts[inside])
        return out

    return KernelSpec(
        name="logarithmic",
        E=UNIT_INTERVAL,
        F=UNIT_INTERVAL,
        kernel_batch=kernel_batch,
        support=lambda r: (0.0, r),
        substitution="log_boundary",
    )


def _times(factor, fn):
    return None if fn is None else (lambda *args: factor * fn(*args))


def scaled_method(spec: KernelSpec, factor: complex) -> KernelSpec:
    """Multiply a method's kernel by a constant; the result is named ``scaled(<name>)``."""
    factor = complex(factor)
    changes = dict(name=f"scaled({spec.name})", kernel_batch=_times(factor, spec.kernel_batch),
                   tail_abs=_times(abs(factor), spec.tail_abs),
                   tail_sum=_times(factor, spec.tail_sum))
    if spec.weight is not None:
        changes["weight"] = _times(factor, spec.weight)
    return replace(spec, **changes)


def as_kernel(spec: KernelSpec) -> KernelSpec:
    """A matrix or sequence-to-function method as the plain counting kernel it is.

    The result has the same fields as a plain ``KernelSpec`` (a box row's
    ``weight`` is not one of them) and is named ``<name>_as_kernel``; a
    plain kernel is returned as it is.
    """
    if type(spec) is KernelSpec:
        return spec
    return KernelSpec(**{f.name: getattr(spec, f.name) for f in fields(KernelSpec) if f.init}
                      | {"name": f"{spec.name}_as_kernel"})


# ---------------------------------------------------------------------------
# Certified summation engine


class _Row(NamedTuple):
    """A counting kernel's row at one parameter, which ``_certified_sum`` sums.

    ``coeffs(a, b)`` gives the kernel at the indices a .. b-1, and the row
    runs over the integers lo .. hi (hi None: no end).  ``tail_abs`` and
    ``tail_sum(a, b)``, when declared, give the coefficient tails past the
    absolute indices N = a .. b-1, read at a block's last N as ``tail(N, N
    + 1)[0]``.  ``label`` names the row in an error, and ``weight`` is a box
    row's one entry w (None: every other row), so every c_n = w on the
    support and ``coeffs`` is not called.
    """

    coeffs: Callable[[int, int], np.ndarray]
    lo: int
    hi: Optional[int]
    tail_abs: Optional[Callable[[int, int], np.ndarray]]
    tail_sum: Optional[Callable[[int, int], np.ndarray]]
    label: str
    weight: Optional[complex]


# over- and underflow in a block are caught by the finiteness and overflow checks
@np.errstate(over="ignore", invalid="ignore")
def _certified_sum(row: _Row, source: SequenceSource,
                   tail_tol: Optional[float] = None) -> np.ndarray:
    """The coordinates of sum_n c_n v_n over the row, with a numeric tail certificate.

    The sum runs from n = row.lo up to row.hi inclusive, one block of
    ``_block_ramp`` at a time, and stops at the first of: the support end;
    the plain certificate or the stabilized closure within tail_tol (None:
    _TAIL_TOL), which read the row's ``tail_abs`` (the closure its
    ``tail_sum`` too); the geometric-tail estimate on full blocks, two
    consecutive ratios q <= 0.999 of their absolute sums S with S q / (1 -
    q) <= _TAIL_TOL (a zero block has q = 0, a nonzero block after a zero
    one has no ratio).  It fails on a non-finite term, on terms overflowing,
    or at _MAX_TERMS terms without an end; no sum is called divergent from
    the trend of its blocks.  A box row sums each source block as its weight
    times the block's sum.  Raises NonSummableError, with the partial sum
    and the number of terms read, when no certificate is reached.
    """
    if tail_tol is None:
        tail_tol = _TAIL_TOL
    space = source.space
    acc = np.zeros(space.dim, dtype=complex)
    if row.hi is not None and row.hi < row.lo:
        return acc
    n = row.lo
    end = row.lo + _MAX_TERMS if row.hi is None else row.hi + 1
    cap = _block_cap(space.dim)
    sizes = chain(_block_ramp(space.dim).values(), repeat(cap))
    prev_abs = 0.0
    geo_ok = 0

    def fail(msg):
        partial = VectorValue(acc, space) if np.isfinite(acc).all() else None
        raise NonSummableError(f"{row.label}: {msg}", partial=partial, terms=n - row.lo)

    while n < end:
        block = next(sizes)
        hi = min(n + block, end)
        rec = source._record(n, hi, terms=row.weight is None)
        if row.weight is None:
            cs = np.asarray(row.coeffs(n, hi), dtype=complex)
            blk_sum = (rec.terms * cs).sum(axis=1)
        else:
            blk_sum = row.weight * rec.total
        # a non-finite term makes its component of the block sum non-finite
        if not np.isfinite(blk_sum).all():
            fail("non-finite term encountered")
        acc = acc + blk_sum
        N = hi - 1
        n = hi

        if row.hi is not None and n > row.hi:
            return acc

        if row.tail_abs is not None:
            w_abs = float(row.tail_abs(N, N + 1)[0])
            if w_abs * rec.sup <= tail_tol:
                return acc
            # center on the last term: exact (dev = 0) for stable blocks
            if row.tail_sum is not None and rec.size >= 2 and w_abs * rec.dev <= tail_tol:
                # stabilized closure: recent terms are flat to within dev,
                # close the tail with the exact remaining weight
                return acc + complex(row.tail_sum(N, N + 1)[0]) * rec.last

        blk_abs = (float(np.sum(np.abs(cs) * rec.norms)) if row.weight is None
                   else abs(row.weight) * rec.abs_total)
        if blk_abs > 1e200:
            fail("terms overflowing")
        if block == cap:
            # ratio test over full blocks: a zero block has ratio 0, and a
            # nonzero block has none after a zero block or as the first one
            q = 0.0 if blk_abs == 0.0 else (blk_abs / prev_abs if prev_abs else math.inf)
            geo_ok = geo_ok + 1 if q <= 0.999 else 0
            if geo_ok >= 2 and blk_abs * q / (1.0 - q) <= _TAIL_TOL:
                return acc
            prev_abs = blk_abs

    fail("no tail certificate within max_terms")


# ---------------------------------------------------------------------------
# Transforms


def _in_f(spec: KernelSpec, param):
    """param as a point of spec.F: an int row index on the naturals, else a float; or ValueError."""
    if spec.F == NAT:
        p = int(param)
        if p != param or p < 0:
            raise ValueError(f"row index {param!r} outside the naturals")
        return p
    p = float(param)
    if not 0.0 <= p < spec.F.right:
        raise ValueError(f"parameter {p} outside [0, {spec.F.right})")
    return p


def _row(spec: KernelSpec, param) -> _Row:
    """The ``_Row`` of a counting kernel at param: the one reader of every discrete spec.

    A matrix row (param = m in F = naturals), the coefficients a_n(r) and
    any other counting kernel at r in F: the kernel at param, the integer
    points of ``_kernel_support``, the spec's tail blocks with its parameter
    fixed, and a box row's one entry.  The certified sum of a transform
    (``transform_at``), the regularity table and columns and ``holo``'s
    chain steps all read it.  Raises ValueError as ``_kernel_support`` does.
    """
    p = _in_f(spec, param)
    lo, hi = _kernel_support(spec, p)
    return _Row(lambda a, b: spec.kernel_batch(p, np.arange(a, b)), lo, hi,
                spec.tail_abs and partial(spec.tail_abs, p),
                spec.tail_sum and partial(spec.tail_sum, p),
                f"{spec.name} row {p}" if spec.F == NAT else f"{spec.name} at r={p}",
                spec.weight and spec.weight(p))


def _kernel_support(spec: KernelSpec, param) -> tuple:
    """(lo, hi): where a(p, .) lives, all of E by default; the one reader of ``spec.support``.

    On the naturals, its integer points (hi None: no end).  Raises ValueError for a parameter
    outside F or a support that is not an interval of E, bounded when E is an interval.
    """
    p = _in_f(spec, param)
    counting = spec.measure == MEASURE_COUNTING
    right = math.inf if counting else spec.E.right
    lo, hi = (0, right) if spec.support is None else spec.support(p)
    hi = math.inf if hi is None else hi
    if not (0 <= lo <= hi <= right and (counting or hi < math.inf)):
        raise ValueError(f"{spec.name} at {p:.16g}: the support [{lo:.16g}, {hi:.16g}] is not "
                         f"{'an' if counting else 'a bounded'} interval of E in [0, {right}]")
    return (math.ceil(lo), None if hi == math.inf else math.floor(hi)) if counting else (lo, hi)


def _kernel_quadratures(spec: KernelSpec, params, intervals, times,
                        tail_tol: Optional[float] = None) -> list:
    """Integrals of times(a(p_k, ts), ts) over intervals[k], one per pair (p_k, intervals[k]).

    One quadrature engine call with the spec's substitution integrates each
    distinct pair with a nonempty interval once: each level reads the kernel
    once, at every node of the level with its own parameter
    (``kernel_batch(params[owner], ts)``), and hands ``times`` those nodes
    at once.  ``times`` returns the (len(ts), dim) integrand; an empty
    interval is zeros of its dimension, read at no node.  Each integral is
    taken to ``max(tail_tol, QuadratureConfig().tol)`` (None: the quadrature
    default).  A Lebesgue kernel must be elementwise in (r, t), so each
    equals a lone one bit for bit.  Returns ``adaptive_quadrature_family``'s
    outcome per pair.
    """
    pairs = [(p, lo, hi) for p, (lo, hi) in zip(np.asarray(params), intervals)]
    keys = {key: k for k, key in enumerate(dict.fromkeys(key for key in pairs if key[1] != key[2]))}
    owners = np.asarray([p for p, _, _ in keys])

    def integrand(ts: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return times(spec.kernel_batch(owners[owner], ts), ts)

    cfg = QuadratureConfig(substitution=spec.substitution)
    if tail_tol is not None:
        cfg = replace(cfg, tol=max(tail_tol, cfg.tol))
    outs = adaptive_quadrature_family(integrand, [(lo, hi) for _, lo, hi in keys], cfg)
    if any(lo == hi for _, lo, hi in pairs):  # the zeros of every empty interval, last
        zero = np.zeros(times(np.zeros(0, dtype=complex), np.zeros(0)).shape[1], dtype=complex)
        outs.append((zero, 0.0, 0))
    return [outs[keys[key]] if key in keys else outs[-1] for key in pairs]


def _lebesgue_transforms(spec: KernelSpec, source, params,
                         tail_tol: Optional[float] = None) -> list:
    """The Lebesgue-kernel transform of ``source`` at every parameter, in lockstep.

    Each level of the quadrature reads the source once, at the nodes of
    every pending integral, and each integral is taken to ``tail_tol``
    (see ``_kernel_quadratures``).  Returns, per parameter, a VectorValue
    or the QuadratureError of its integral.  Raises ValueError when a
    kernel's support reaches past the source's domain.
    """
    if not isinstance(source, FunctionSource):
        raise TypeError("Lebesgue kernels need a FunctionSource")
    intervals = [_kernel_support(spec, r) for r in params]
    for r, (lo, hi) in zip(params, intervals):
        if hi > source.domain.right:
            raise ValueError(f"{spec.name} at r={r} integrates over [{lo}, {hi}], past the "
                             f"source's domain [0, {source.domain.right})")
    outs = _kernel_quadratures(spec, params, intervals,
                               lambda kernel, ts: kernel[:, None] * source.batch(ts), tail_tol)
    return [out if isinstance(out, QuadratureError) else VectorValue(out[0], source.space)
            for out in outs]


def transform_at(spec: KernelSpec, source, param, *,
                 tail_tol: Optional[float] = None) -> VectorValue:
    """The transform of ``source`` at ``param``: the one transform entry point.

    ``tail_tol`` is the error budget of this one sample, whatever the
    measure.  A Lebesgue kernel integrates a(r, .) v(.) over its support,
    componentwise, to ``tail_tol`` floored at the quadrature default
    (None: that default, 1e-10), and raises ValueError when that support
    reaches past the source's domain; every other method (a matrix row m,
    coefficients a_n(r), a counting kernel) is a certified sum over its row
    (see ``_row``), exact for finitely supported rows, with its tail
    certified to ``tail_tol`` (None: ``_TAIL_TOL``).  A Lebesgue kernel
    needs a ``FunctionSource`` and a counting one a ``SequenceSource``;
    either raises TypeError for the other kind.
    """
    if spec.measure != MEASURE_COUNTING:
        (value,) = _lebesgue_transforms(spec, source, [param], tail_tol)
        if isinstance(value, QuadratureError):
            raise value
        return value
    if not isinstance(source, SequenceSource):
        raise TypeError("counting kernels need a SequenceSource")
    return VectorValue(_certified_sum(_row(spec, param), source, tail_tol), source.space)


def summability_limit(spec: KernelSpec, source, depth: int = 20,
                      tol: float = 1e-6) -> ConvergenceEstimate:
    """Evaluate the transform along the parameter grid and detect its limit.

    The parameters are ``domains.sample_grid``: on a discrete parameter
    domain each grid point 2^k is sampled together with its successor
    2^k + 1, so a period-two oscillation is not taken for convergence.

    Each sample's error budget, its ``tail_tol``, is ``tol * _TAIL_SHARE``
    (at least ``_TAIL_TOL``), whatever the measure: the limit is asked for
    only to ``tol``.  The samples of a sequence source read it through the
    source's one memo (``_SharedBlocks``), which every later call on the
    same source reads too, whatever its method.  So ``block`` must be a
    pure function of (lo, hi) for the source's lifetime, and calls that
    share a source run one at a time.  A Lebesgue kernel integrates the
    whole grid in one lockstep quadrature (``_lebesgue_transforms``).  So
    each sample equals a lone ``transform_at`` at that ``tail_tol``, bit
    for bit.

    Transform failures at individual grid points are recorded in
    ``failed_points`` rather than aborting; a failure among the last
    2 * ``domains._WINDOW`` parameters downgrades the estimate to
    inconclusive, and so does a path with no sample.  Raises ValueError,
    before any sample, for a depth whose grid leaves F.
    """
    window = domains._WINDOW
    params = sample_grid(spec.F, depth)

    tail_tol = max(tol * _TAIL_SHARE, _TAIL_TOL)
    if spec.measure != MEASURE_COUNTING:
        outcomes = _lebesgue_transforms(spec, source, params, tail_tol)
    else:
        if not isinstance(source, SequenceSource):
            raise TypeError("counting kernels need a SequenceSource")
        outcomes = []
        with source._grid() as memo:
            for p in params:
                try:
                    outcomes.append(transform_at(spec, memo, p, tail_tol=tail_tol))
                except NonSummableError as exc:
                    outcomes.append(exc)
    samples = [out for out in outcomes if isinstance(out, VectorValue)]
    failed = tuple((p, f"{type(out).__name__}: {out}")
                   for p, out in zip(params, outcomes) if not isinstance(out, VectorValue))
    if not samples:
        return ConvergenceEstimate(INCONCLUSIVE, None, math.inf, 0, window, tol,
                                   failed_points=failed)
    est = estimate_limit_at_infinity(samples, tol=tol, failed_points=failed)
    if est.converged and not all(isinstance(out, VectorValue) for out in outcomes[-2 * window:]):
        est = replace(est, status=INCONCLUSIVE, value=None)
    return est
