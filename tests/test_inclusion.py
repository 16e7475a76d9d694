"""Inclusion, transfer, and weak-inclusion experiments."""

from dataclasses import replace

import numpy as np
import pytest

from sumkit import inclusion
from sumkit.domains import CONVERGED, INCONCLUSIVE
from sumkit.inclusion import (
    TRANSFERS,
    VACUOUS,
    VIOLATES,
    inclusion_experiment,
    transfer_experiment,
    truncation_family,
    weak_inclusion_experiment,
)
from sumkit.methods import (
    FunctionSource,
    SequenceSource,
    abel_method,
    cesaro_method,
    identity_method,
    logarithmic_method,
    scalar_sequence,
    scaled_method,
    series_summation_method,
    vector_sequence,
)
from sumkit.vspace import LinearFunctional, SpaceDescriptor, VectorValue, coordinate_functionals

ALT_PARTIAL = scalar_sequence(lambda n: (1.0 + (-1.0) ** n) / 2.0, "alt_partial_sums")
ALT_RAMP = scalar_sequence(lambda n: (-1.0) ** n * (n + 1.0), "alt_ramp")
HARMONIC = scalar_sequence(lambda n: 1.0 / (n + 1.0), "harmonic")


def test_cesaro_included_in_abel_on_alternating_series():
    report = inclusion_experiment(cesaro_method(), abel_method(),
                                  [("alt", ALT_PARTIAL)], depth=14, tol=1e-3)
    case = report.cases[0]
    assert case.verdict == TRANSFERS
    assert abs(complex(case.est_a.value.coords[0]) - 0.5) <= 1e-3
    assert abs(complex(case.est_b.value.coords[0]) - 0.5) <= 1e-3


def test_reverse_inclusion_violated_by_alternating_ramp():
    report = inclusion_experiment(abel_method(), cesaro_method(),
                                  [("alt_ramp", ALT_RAMP)], depth=14, tol=1e-3)
    case = report.cases[0]
    assert case.verdict == VIOLATES
    assert case.est_a.status == CONVERGED
    assert abs(complex(case.est_a.value.coords[0])) <= 1e-3
    assert case.est_b.status != CONVERGED  # Cesàro means oscillate near +/- 1/2
    assert report.has_violation


def test_identity_included_in_cesaro_on_convergent_input():
    report = inclusion_experiment(identity_method(), cesaro_method(),
                                  [("harmonic", HARMONIC)], depth=14, tol=1e-3)
    case = report.cases[0]
    assert case.verdict == TRANSFERS
    assert abs(complex(case.est_a.value.coords[0])) <= 1e-3
    assert abs(complex(case.est_b.value.coords[0])) <= 1e-3


def test_reflexivity_never_violates():
    battery = [("alt", ALT_PARTIAL), ("ramp", ALT_RAMP), ("harmonic", HARMONIC)]
    for spec in (cesaro_method(), abel_method(), identity_method()):
        report = inclusion_experiment(spec, spec, battery, depth=12, tol=1e-4)
        assert not report.has_violation


def test_vacuous_when_first_method_diverges():
    ones = scalar_sequence(lambda n: np.ones_like(n, dtype=float), "ones")
    report = inclusion_experiment(series_summation_method(), cesaro_method(),
                                  [("ones", ones)], depth=12, tol=1e-6)
    assert report.cases[0].verdict == VACUOUS


def test_scalar_inclusion_consistency_coordinatewise():
    # verdicts on scalar inputs match verdicts on multiples of a fixed unit vector
    space = SpaceDescriptor(3, "l2")
    x0 = VectorValue(np.array([1.0, 0, 0]) + 0j, space)

    def lift(scalar_block):
        return SequenceSource(
            space=space,
            block=lambda lo, hi: scalar_block(lo, hi) * x0.coords[None, :],
        )

    scalar_cases = [("alt", ALT_PARTIAL), ("ramp", ALT_RAMP)]
    vector_cases = [
        ("alt", lift(lambda lo, hi: ((1.0 + (-1.0) ** np.arange(lo, hi)) / 2.0)[:, None])),
        ("ramp", lift(lambda lo, hi: ((-1.0) ** np.arange(lo, hi) * (np.arange(lo, hi) + 1.0))[:, None])),
    ]
    scalar_report = inclusion_experiment(cesaro_method(), abel_method(), scalar_cases,
                                         depth=12, tol=1e-3)
    vector_report = inclusion_experiment(cesaro_method(), abel_method(), vector_cases,
                                         depth=12, tol=1e-3)
    for s_case, v_case in zip(scalar_report.cases, vector_report.cases):
        assert s_case.verdict == v_case.verdict


# ---------------------------------------------------------------------------
# transfer experiment


def test_truncation_family_transfer_cesaro_to_abel():
    space = SpaceDescriptor(4, "l2")
    family = truncation_family(space)
    rng = np.random.default_rng(2024)
    probes = []
    for _ in range(5):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = x / np.linalg.norm(x)
        probes.append(VectorValue(x, space))
    report = transfer_experiment(cesaro_method(), abel_method(), family, probes,
                                 depth=24, tol=1e-6)
    assert report.applicable
    assert all(h.passed for h in report.hypotheses)
    assert report.all_transfer
    for case in report.cases:
        assert case.distance <= 1e-6


def test_transfer_zero_probe_is_trivial():
    space = SpaceDescriptor(4, "l2")
    family = truncation_family(space)
    zero_probe = VectorValue(np.zeros(4, dtype=complex), space)
    report = transfer_experiment(cesaro_method(), abel_method(), family, [zero_probe],
                                 depth=18, tol=1e-6)
    assert report.all_transfer
    assert report.cases[0].distance == 0.0


def test_a_b_grid_that_stops_before_the_orbit_settles_is_inconclusive():
    # truncation in C^16 fixes x from n = 15 on, but Abel's grid at depth 6
    # stops at r = 1 - 2^-6, where the first 15 terms still weigh: the
    # hypotheses hold, and the probe's case neither transfers nor violates
    space = SpaceDescriptor(16, "l2")
    x = np.random.default_rng(5).standard_normal(16)
    probes = [VectorValue(x / np.linalg.norm(x), space)]
    report = transfer_experiment(identity_method(), abel_method(), truncation_family(space),
                                 probes, depth=6, tol=1e-6)
    assert report.applicable
    assert [case.verdict for case in report.cases] == [INCONCLUSIVE]
    assert report.cases[0].est_b.status == INCONCLUSIVE


def test_transfer_with_equal_methods_reduces_to_regularity():
    space = SpaceDescriptor(3, "l2")
    family = truncation_family(space)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(3)
    probes = [VectorValue(x / np.linalg.norm(x), space)]
    report = transfer_experiment(abel_method(), abel_method(), family, probes,
                                 depth=24, tol=1e-6)
    assert report.applicable
    assert report.all_transfer


def test_transfer_oscillating_family_reduces_coordinatewise():
    # S_n = I + (-1)^n P with P the projection onto coordinate 0; the
    # orbits oscillate in that coordinate, Cesàro averages them out, and
    # Abel inherits the same limit.  Witnesses live where P vanishes.
    space = SpaceDescriptor(3, "l2")
    P = np.diag([1.0, 0.0, 0.0]).astype(complex)

    def apply_block(ns, x):
        signs = (-1.0) ** ns
        return x.coords[None, :] + signs[:, None] * (P @ x.coords)[None, :]

    from sumkit.inclusion import OperatorFamily

    witnesses = (VectorValue([0, 1, 0], space), VectorValue([0, 0, 1], space))
    family = OperatorFamily(
        name="oscillating",
        target=lambda x: x,
        dense_witnesses=witnesses,
        space=space,
        apply_block=apply_block,
    )
    rng = np.random.default_rng(31)
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    probes = [VectorValue(x / np.linalg.norm(x), space)]
    report = transfer_experiment(cesaro_method(), abel_method(), family, probes,
                                 depth=15, tol=1e-3)
    assert report.applicable
    assert report.all_transfer


def test_transfer_sums_each_probe_orbit_with_a_then_b_on_one_source(monkeypatch):
    # B's grid on a probe's orbit reads the blocks A's grid kept on it
    space = SpaceDescriptor(4, "l2")
    family = truncation_family(space)
    read = [0]

    def counted(ns, x):
        read[0] += len(ns)
        return truncation_family(space).apply_block(ns, x)

    family = replace(family, apply_block=counted)
    rng = np.random.default_rng(5)
    probes = [VectorValue(rng.standard_normal(4), space) for _ in range(3)]
    grids = []
    limit = inclusion.summability_limit

    def recording(spec, source, **kwargs):
        before = read[0]
        est = limit(spec, source, **kwargs)
        grids.append((spec.name, source, read[0] - before))
        return est

    monkeypatch.setattr(inclusion, "summability_limit", recording)
    report = transfer_experiment(cesaro_method(), abel_method(), family, probes,
                                 depth=16, tol=1e-3)
    assert report.all_transfer
    # the scalar battery's grids run between A's and B's
    orbits = [(name, source, terms) for name, source, terms in grids if source.space == space]
    assert [name for name, _, _ in orbits] == ["cesaro"] * 3 + ["abel"] * 3
    assert all(a is b for (_, a, _), (_, b, _) in zip(orbits[:3], orbits[3:]))
    assert all(terms > 0 for _, _, terms in orbits[:3])
    assert all(terms == 0 for _, _, terms in orbits[3:])


@pytest.mark.parametrize("A, B, target, failed", [
    (cesaro_method(), abel_method(), lambda x: 2 * x, "dense_witness_convergence"),
    (series_summation_method(), abel_method(), None, "probes_a_summable"),
    (cesaro_method(), series_summation_method(), None, "b_regular"),
    # the battery's alternating sequence is Cesaro-summable, not convergent
    (cesaro_method(), identity_method(), None, "scalar_inclusion"),
], ids=["witness", "probes", "b_regular", "scalar_inclusion"])
def test_transfer_not_applicable_when_a_hypothesis_fails(A, B, target, failed):
    space = SpaceDescriptor(2, "l2")
    family = truncation_family(space)
    if target is not None:
        family = replace(family, target=target)
    probes = [VectorValue([1.0, 0.0], space)]
    report = transfer_experiment(A, B, family, probes, depth=14, tol=1e-2)
    assert not report.applicable
    assert report.failed_hypothesis == failed
    assert not report.cases
    # the battery stops at its first failure, in order
    battery = ["dense_witness_convergence", "probes_a_summable", "b_regular", "scalar_inclusion"]
    assert [h.name for h in report.hypotheses] == battery[:battery.index(failed) + 1]
    assert [h.passed for h in report.hypotheses[:-1]] == [True] * (len(report.hypotheses) - 1)
    assert not report.hypotheses[-1].passed
    assert report.rows()[-1] == ("overall", "", "", f"NotApplicable:{failed}")


# ---------------------------------------------------------------------------
# weak inclusion


def test_weak_inclusion_scalar_reduction_matches_inclusion():
    phi = LinearFunctional([1.0])
    weak = weak_inclusion_experiment(cesaro_method(), abel_method(),
                                     [("alt", ALT_PARTIAL)], [phi], depth=14, tol=1e-3)
    strong = inclusion_experiment(cesaro_method(), abel_method(),
                                  [("alt", ALT_PARTIAL)], depth=14, tol=1e-3)
    assert weak.cases[0].verdict == strong.cases[0].verdict == TRANSFERS
    # one report for both kinds: the same rows but for the functional's label suffix
    assert [(q.replace("|phi_0]", "]"), *rest) for q, *rest in weak.rows()] == strong.rows()
    assert all("|phi_0]" in q for q, *_ in weak.rows())


def test_weak_inclusion_mixed_coordinates():
    # coordinate 0 convergent, coordinate 1 Cesàro-summable only as a series
    space = SpaceDescriptor(2, "l2")

    def block(lo, hi):
        ns = np.arange(lo, hi)
        col0 = 0.5 ** ns.astype(float)
        col1 = (1.0 + (-1.0) ** ns) / 2.0
        return np.stack([col0, col1], axis=1).astype(complex)

    v = SequenceSource(space=space, block=block, name="mixed")
    report = weak_inclusion_experiment(cesaro_method(), abel_method(), [("mixed", v)],
                                       coordinate_functionals(space), depth=14, tol=1e-3)
    assert all(case.verdict == TRANSFERS for case in report.cases)
    assert not report.has_violation


def test_weak_inclusion_of_lebesgue_methods_on_a_function_source():
    # coordinate 0 tends to 0 and coordinate 1 to 1j; doubling B doubles only the latter
    space = SpaceDescriptor(2, "l2")
    v = FunctionSource(lambda ts: np.outer((1.0 - ts) * np.cos(6.0 * np.pi * ts), [1.0, 1.0])
                       + [0.0, 1j], space, name="wave2")
    report = weak_inclusion_experiment(logarithmic_method(),
                                       scaled_method(logarithmic_method(), 2.0), [("wave", v)],
                                       coordinate_functionals(space), depth=28, tol=1e-3)
    assert [c.label for c in report.cases] == ["wave|phi_0", "wave|phi_1"]
    assert [c.verdict for c in report.cases] == [TRANSFERS, VIOLATES]
    zero, one = report.cases
    assert abs(complex(zero.est_a.complex_value)) <= 1e-3
    assert abs(complex(one.est_a.complex_value) - 1j) <= 1e-3
    assert abs(complex(one.est_b.complex_value) - 2j) <= 2e-3


def test_weak_inclusion_zero_functional_transfers():
    phi = LinearFunctional([0.0, 0.0])
    space = SpaceDescriptor(2, "l2")
    v = vector_sequence(lambda ns: np.stack([(-1.0) ** ns * (ns + 1.0), ns], axis=1).astype(complex),
                        space, "wild")
    report = weak_inclusion_experiment(abel_method(), cesaro_method(), [("wild", v)],
                                       [phi], depth=10, tol=1e-6)
    assert report.cases[0].verdict == TRANSFERS
