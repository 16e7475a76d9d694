"""Empirical inclusion and transfer experiments between summability methods.

Method A is included in method B when every A-summable input is B-summable
with the same limit.  Finite runs can only compare estimator verdicts, so a
case classifies as:

* transfers      -- both converged to the same value (within the combined
                    estimator tolerances);
* violates       -- A converged while B diverged, visibly oscillates
                    (stalled), or converged elsewhere;
* vacuous        -- A itself diverged, so the case says nothing;
* inconclusive   -- an estimator could not decide, or an engine failed.

The transfer experiment checks the operator-family hypothesis battery
(witness convergence, A-summability of probes, regularity evidence for B,
scalar inclusion on a test battery) before testing the conclusion; density
of the witness set is replaced by a finite witness list, which the report
records as a substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .domains import (
    CONVERGED,
    DIVERGED,
    INCONCLUSIVE,
    NAT,
    ConvergenceEstimate,
    estimate_limit_at_infinity,
    sample_grid,
)
from .integrate import QuadratureError
from .methods import (
    FunctionSource,
    KernelSpec,
    MatrixSpec,
    NonSummableError,
    SequenceSource,
    scalar_sequence,
    summability_limit,
)
from .regularity import FAIL, PASS, REGULAR_EVIDENCE, check_kernel_st, check_matrix_st
from .vspace import LinearFunctional, SpaceDescriptor, VectorValue, basis_vector

TRANSFERS = "transfers"
VIOLATES = "violates"
VACUOUS = "vacuous"
UNDECIDED = INCONCLUSIVE

VERDICT_MARGIN = 1e-9

_NOTES = (
    "estimator verdicts are finite-grid evidence; 'violates' quotes a concrete witness case",
    "summability-domain membership uses numeric tail certificates, not proofs",
)


@dataclass(frozen=True)
class CaseResult:
    label: str
    est_a: Optional[ConvergenceEstimate]
    est_b: Optional[ConvergenceEstimate]
    verdict: str
    distance: float = math.nan
    note: str = ""


@dataclass(frozen=True)
class InclusionReport:
    """Case verdicts of an inclusion experiment, or a weak one: a case per source and functional."""

    method_a: str
    method_b: str
    cases: tuple
    margin: float
    notes: tuple = field(default=_NOTES)

    @property
    def verdict_counts(self) -> dict:
        counts: dict = {}
        for case in self.cases:
            counts[case.verdict] = counts.get(case.verdict, 0) + 1
        return counts

    @property
    def has_violation(self) -> bool:
        return any(c.verdict == VIOLATES for c in self.cases)

    def rows(self) -> list:
        out = []
        for c in self.cases:
            for side, est in (("a", c.est_a), ("b", c.est_b)):
                out.append((f"lim_{side}[{c.label}]", "", est.complex_value if est else None,
                            _est_status(est)))
            out.append((f"distance[{c.label}]", "", c.distance, c.verdict))
        return out

    def to_jsonable(self) -> dict:
        return {
            "method_a": self.method_a,
            "method_b": self.method_b,
            "margin": self.margin,
            "cases": [
                {
                    "label": c.label,
                    "status_a": _est_status(c.est_a),
                    "status_b": _est_status(c.est_b),
                    "distance": None if math.isnan(c.distance) else c.distance,
                    "verdict": c.verdict,
                    "note": c.note,
                }
                for c in self.cases
            ],
            "summary": self.verdict_counts,
            "notes": list(self.notes),
        }


def _est_status(est: Optional[ConvergenceEstimate]) -> str:
    return est.status if est is not None else "error"


def classify_case(est_a: Optional[ConvergenceEstimate],
                  est_b: Optional[ConvergenceEstimate], margin: float) -> tuple:
    """Combine two estimates into an inclusion verdict.  Returns (verdict, distance)."""
    if est_a is None or est_b is None:
        return UNDECIDED, math.nan
    if est_a.status == CONVERGED:
        if est_b.status == CONVERGED:
            dist = (est_a.value - est_b.value).norm()
            return (TRANSFERS if dist <= margin else VIOLATES), dist
        if est_b.status == DIVERGED:
            return VIOLATES, math.nan
        # B inconclusive: a stalled (non-Cauchy, non-growing) path is a
        # concrete oscillation witness; a merely slow path is not.
        return (VIOLATES if est_b.stalled else UNDECIDED), math.nan
    if est_a.status == DIVERGED or est_a.stalled:
        return VACUOUS, math.nan  # evidence that the input is not A-summable
    return UNDECIDED, math.nan


def _as_cases(tests) -> list:
    cases = []
    for i, item in enumerate(tests):
        if isinstance(item, tuple):
            cases.append((str(item[0]), item[1]))
        else:
            label = item.name or f"test_{i}"
            cases.append((label, item))
    return cases


def _run_cases(A: KernelSpec, B: KernelSpec, cases, depth: int, tol: float) -> tuple:
    """Both methods' limits on every (label, source) case, classified: (results, margin)."""
    margin = 2.0 * tol + VERDICT_MARGIN
    results = []
    for label, source in cases:
        est_a = est_b = None
        note = ""
        try:
            est_a = summability_limit(A, source, depth=depth, tol=tol)
            est_b = summability_limit(B, source, depth=depth, tol=tol)
        except (NonSummableError, QuadratureError, ValueError) as exc:
            note = f"{type(exc).__name__}: {exc}"
        verdict, dist = classify_case(est_a, est_b, margin)
        results.append(CaseResult(label, est_a, est_b, verdict, dist, note))
    return tuple(results), margin


def inclusion_experiment(A: KernelSpec, B: KernelSpec, tests, depth: int = 14,
                         tol: float = 1e-6) -> InclusionReport:
    """Run both methods over the test sources and classify case by case."""
    cases, margin = _run_cases(A, B, _as_cases(tests), depth, tol)
    return InclusionReport(A.name, B.name, cases, margin)


# ---------------------------------------------------------------------------
# Operator families and the transfer experiment


@dataclass(frozen=True)
class OperatorFamily:
    """Family of operators S_t together with a limit operator S.

    ``dense_witnesses`` stands in for a dense subset: density is not
    finitely checkable, so the family ships finitely many vectors on which
    S_t(w) -> S(w) holds by construction, and the experiment re-checks that
    convergence numerically instead of assuming it.
    """

    name: str
    apply_block: Callable[[np.ndarray, VectorValue], np.ndarray]  # (ns, x) -> rows S_n(x)
    target: Callable[[VectorValue], VectorValue]
    dense_witnesses: tuple
    space: SpaceDescriptor

    def apply(self, n: int, x: VectorValue) -> VectorValue:
        return VectorValue(self.apply_block(np.asarray([n]), x)[0], self.space)

    def source_for(self, x: VectorValue) -> SequenceSource:
        return SequenceSource(
            space=self.space,
            block=lambda lo, hi: self.apply_block(np.arange(lo, hi), x),
            name=f"{self.name}(x)",
        )


def truncation_family(space: SpaceDescriptor) -> OperatorFamily:
    """Coordinate-truncation operators S_n = diag(1 for k <= n) with S = I."""
    dim = space.dim

    def apply_block(ns: np.ndarray, x: VectorValue) -> np.ndarray:
        mask = (np.arange(dim)[None, :] <= ns[:, None]).astype(complex)
        return mask * x.coords[None, :]

    witnesses = tuple(basis_vector(space, j) for j in range(dim))
    return OperatorFamily(
        name="truncation",
        apply_block=apply_block,
        target=lambda x: x,
        dense_witnesses=witnesses,
        space=space,
    )


def default_scalar_battery() -> list:
    """Scalar sequences exercising convergent, oscillating and slow cases."""
    return [
        ("constant_one", scalar_sequence(lambda n: np.ones_like(n, dtype=float), "constant_one")),
        ("geometric_0.8", scalar_sequence(lambda n: 0.8**n, "geometric_0.8")),
        ("alternating", scalar_sequence(lambda n: (-1.0) ** n, "alternating")),
        ("harmonic", scalar_sequence(lambda n: 1.0 / (n + 1.0), "harmonic")),
        ("one_plus_geometric", scalar_sequence(lambda n: 1.0 + 2.0 ** (-n.astype(float)), "one_plus_geometric")),
    ]


@dataclass(frozen=True)
class HypothesisRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class TransferReport:
    method_a: str
    method_b: str
    family: str
    hypotheses: tuple
    cases: tuple  # probe CaseResults (est_a/est_b = A-run/B-run against the target)
    applicable: bool
    failed_hypothesis: str = ""
    notes: tuple = field(default=_NOTES + (
        "a finite witness list substitutes for the dense subset hypothesis",))

    @property
    def all_transfer(self) -> bool:
        return self.applicable and all(c.verdict == TRANSFERS for c in self.cases)

    def rows(self) -> list:
        out = [(f"hypothesis[{h.name}]", "", "", PASS if h.passed else FAIL)
               for h in self.hypotheses]
        for c in self.cases:
            out.append((f"distance_b[{c.label}]", "", c.distance, c.verdict))
        out.append(("overall", "", "",
                    "Transfers" if self.all_transfer else
                    ("NotApplicable:" + self.failed_hypothesis if not self.applicable else "Mixed")))
        return out

    def to_jsonable(self) -> dict:
        return {
            "method_a": self.method_a,
            "method_b": self.method_b,
            "family": self.family,
            "applicable": self.applicable,
            "failed_hypothesis": self.failed_hypothesis,
            "hypotheses": [
                {"name": h.name, "passed": h.passed, "detail": h.detail}
                for h in self.hypotheses
            ],
            "cases": [
                {"label": c.label, "verdict": c.verdict,
                 "distance": None if math.isnan(c.distance) else c.distance}
                for c in self.cases
            ],
            "all_transfer": self.all_transfer,
            "notes": list(self.notes),
        }


def regularity_evidence(spec: KernelSpec, tol: float = 1e-6):
    """The matrix form for a declared ``MatrixSpec``, else the kernel form: (bool, report)."""
    if isinstance(spec, MatrixSpec):
        report = check_matrix_st(spec, tol=tol)
    else:
        report = check_kernel_st(spec, r_depth=16, exhaust_depth=8, tol=tol)
    return report.overall == REGULAR_EVIDENCE, report


_SCALAR_DEPTH = 14
_SCALAR_TOL = 1e-3


def transfer_experiment(A: KernelSpec, B: KernelSpec, family: OperatorFamily,
                        probes: Sequence[VectorValue], depth: int = 24,
                        tol: float = 1e-6) -> TransferReport:
    """Check the hypothesis battery, then B-summability of every probe orbit.

    The witnesses and the default scalar battery run to depth _SCALAR_DEPTH;
    the battery compares method limits at its own tolerance _SCALAR_TOL:
    battery sequences converge at 1/m rates, so the tight conclusion
    tolerance would leave the inclusion evidence inconclusive.
    """
    a_estimates = []  # (A-estimate, target) per probe, for the conclusion

    # each check returns (passed, detail); its function name is the hypothesis name
    def dense_witness_convergence():
        # S_t(w) -> S(w) along the index grid
        for i, w in enumerate(family.dense_witnesses):
            samples = [family.apply(m, w) for m in sample_grid(NAT, _SCALAR_DEPTH)]
            est = estimate_limit_at_infinity(samples, tol=tol)
            if not est.converged or (est.value - family.target(w)).norm() > tol + est.residual:
                return False, f"witness {i} did not reach its target"
        return True, ""

    def probes_a_summable():
        # each probe orbit is A-summable to the target
        for i, x in enumerate(probes):
            est = summability_limit(A, family.source_for(x), depth=depth, tol=tol)
            target = family.target(x)
            a_estimates.append((est, target))
            dist = (est.value - target).norm() if est.converged else math.inf
            if not est.converged or dist > tol:
                return False, f"probe {i}: A-limit missing or off target (dist {dist:.3g})"
        return True, ""

    def b_regular():
        ok, report = regularity_evidence(B, tol=tol)
        return ok, f"{B.name}: {report.overall}"

    def scalar_inclusion():
        # A in B on a scalar test battery: validated when no case violates
        # and at least one case positively transfers
        incl = inclusion_experiment(A, B, default_scalar_battery(), depth=_SCALAR_DEPTH,
                                    tol=_SCALAR_TOL)
        ok = (not incl.has_violation) and any(c.verdict == TRANSFERS for c in incl.cases)
        return ok, f"battery verdicts: {incl.verdict_counts}"

    hypotheses = []
    for check in (dense_witness_convergence, probes_a_summable, b_regular, scalar_inclusion):
        ok, detail = check()
        hypotheses.append(HypothesisRecord(check.__name__, ok, detail))
        if not ok:
            return TransferReport(A.name, B.name, family.name, tuple(hypotheses), (),
                                  applicable=False, failed_hypothesis=check.__name__)

    # conclusion: every probe orbit is B-summable to the same target
    cases = []
    for i, (x, (est_a, target)) in enumerate(zip(probes, a_estimates)):
        est_b = summability_limit(B, family.source_for(x), depth=depth, tol=tol)
        dist = (est_b.value - target).norm() if est_b.converged else math.nan
        if est_b.converged and dist <= tol:
            verdict = TRANSFERS
        elif est_b.converged or est_b.status == DIVERGED:
            verdict = VIOLATES
        else:
            verdict = UNDECIDED
        cases.append(CaseResult(f"probe_{i}", est_a, est_b, verdict, dist))
    return TransferReport(A.name, B.name, family.name, tuple(hypotheses),
                          tuple(cases), applicable=True)


# ---------------------------------------------------------------------------
# Weak inclusion


def _functional_source(source, phi: LinearFunctional):
    if isinstance(source, SequenceSource):
        return SequenceSource(
            space=SpaceDescriptor(1, "l2"),
            block=lambda lo, hi: source.block(lo, hi) @ phi.weights,
            name=f"phi({source.name})",
        )
    if isinstance(source, FunctionSource):
        return FunctionSource(
            space=SpaceDescriptor(1, "l2"),
            batch=lambda ts: source.batch(ts) @ phi.weights,
            domain=source.domain,
            name=f"phi({source.name})",
        )
    raise TypeError(f"cannot scalarize source of type {type(source).__name__}")


def weak_inclusion_experiment(A: KernelSpec, B: KernelSpec, tests,
                              functionals: Sequence[LinearFunctional],
                              depth: int = 14, tol: float = 1e-6) -> InclusionReport:
    """Functional-wise inclusion: A-summability of phi(v) must transfer to B, case <v>|phi_<i>."""
    scalarized = [(f"{label}|phi_{i}", _functional_source(source, phi))
                  for label, source in _as_cases(tests) for i, phi in enumerate(functionals)]
    cases, margin = _run_cases(A, B, scalarized, depth, tol)
    return InclusionReport(A.name, B.name, cases, margin)
