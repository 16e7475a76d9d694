"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Expected values are computed from independent oracles (closed
forms and brute-force evaluation) inside each test, never from the code path
under test.
"""

import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import sumkit
from sumkit.cli import builtin_config_path, run_config, shipped_configs
from sumkit.domains import CONVERGED, UNIT_INTERVAL, exhaustion
from sumkit.holo import (
    ABEL_DILATE,
    SeriesSpace,
    CONVERGED_TO_ZERO,
    LOG_MEAN,
    series_norm,
    dilate_dual_deviation,
    geometric_taylor,
    partial_sum,
    taylor_from_coefficients,
    taylor_sub,
    taylor_summability_experiment,
)
from sumkit.inclusion import (
    TRANSFERS,
    VIOLATES,
    inclusion_experiment,
    transfer_experiment,
    truncation_family,
)
from sumkit.integrate import (
    QuadratureConfig,
    StepFunction,
    StepPiece,
    adaptive_quadrature,
    operator_commutation_check,
    norm_integral,
    step_integral,
    weak_integral_check,
)
from sumkit.methods import (
    SequenceSource,
    abel_method,
    cesaro_method,
    identity_method,
    logarithmic_method,
    scalar_sequence,
    scaled_method,
    series_summation_method,
    summability_limit,
)
from sumkit.regularity import (
    FAIL,
    NOT_REGULAR,
    PASS,
    REGULAR_EVIDENCE,
    check_kernel_st,
    check_matrix_st,
    group_norm_scalar_row,
)
from sumkit.vspace import SpaceDescriptor, VectorValue, coordinate_functionals


PINNED_DIGESTS = Path(__file__).parent / "data" / "shipped_csv_sha256.json"
PINNED_REPORTS = Path(__file__).parent / "data" / "shipped_report_sha256.json"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"acceptance {number:>2}: FAIL — {description}")
        raise
    print(f"acceptance {number:>2}: PASS — {description}")


def test_criterion_01_matrix_silverman_toeplitz():
    with criterion(1, "matrix regularity verdicts for the three builtin methods"):
        grid = [2**k for k in range(1, 15)]
        cesaro = check_matrix_st(cesaro_method(), m_grid=grid, tol=1e-6)
        identity = check_matrix_st(identity_method(), m_grid=grid, tol=1e-6)
        series = check_matrix_st(series_summation_method(), m_grid=grid, tol=1e-6)
        assert cesaro.overall == REGULAR_EVIDENCE
        assert identity.overall == REGULAR_EVIDENCE
        assert series.overall == NOT_REGULAR
        assert series.c1.verdict == FAIL
        assert "row absolute sums" in series.witness  # the unbounded-row-sum witness


def test_criterion_02_kernel_silverman_toeplitz():
    with criterion(2, "logarithmic-kernel regularity with analytic condition values"):
        report = check_kernel_st(logarithmic_method(), r_depth=20, exhaust_depth=12,
                                 tol=1e-6)
        assert report.overall == REGULAR_EVIDENCE
        # condition (4): total mass 1 within 1e-8 at every r = 1 - 2^-k, k <= 20
        assert len(report.k4.cells) == 20
        for r, value, _ in report.k4.cells:
            assert abs(value - 1.0) <= 1e-8
        # condition (3): window mass log(1 - min(r, c_j)) / log(1 - r) within 1e-8
        for j, check in enumerate(report.k3):
            c_j = exhaustion(UNIT_INTERVAL, j).hi
            for r, value, _ in check.cells:
                expected = math.log1p(-min(r, c_j)) / math.log1p(-r)
                assert abs(value - expected) <= 1e-8
        # the doubled kernel flips condition (4) only
        doubled = check_kernel_st(scaled_method(logarithmic_method(), 2.0),
                                  r_depth=20, exhaust_depth=12, tol=1e-6)
        assert doubled.overall == NOT_REGULAR
        assert doubled.k4.verdict == FAIL
        assert doubled.k1.verdict == report.k1.verdict
        assert doubled.k2.verdict == report.k2.verdict
        assert [c.verdict for c in doubled.k3] == [c.verdict for c in report.k3]


def test_criterion_03_abel_regularity_on_synthetic_sequences():
    with criterion(3, "Abel limits of 20 synthetic convergent sequences, depth 20"):
        rng = np.random.default_rng(20240811)
        space = SpaceDescriptor(4, "l2")
        spec = abel_method()
        for _ in range(20):
            L = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            u = u / np.linalg.norm(u)
            rho = 0.9 * rng.uniform(0.1, 1.0) * np.exp(2j * math.pi * rng.uniform())

            def block(lo, hi, L=L, u=u, rho=rho):
                ns = np.arange(lo, hi)
                return L[None, :] + np.power(rho, ns)[:, None] * u[None, :]

            source = SequenceSource(space=space, block=block)
            est = summability_limit(spec, source, depth=20, tol=1e-4)
            assert est.status == CONVERGED
            assert (est.value - VectorValue(L, space)).norm() <= 1e-4


def test_criterion_04_cesaro_abel_inclusion_and_strictness():
    with criterion(4, "Cesaro-into-Abel transfers; reverse direction violated"):
        alt_series = scalar_sequence(lambda n: (1.0 + (-1.0) ** n) / 2.0, "alt_series")
        forward = inclusion_experiment(cesaro_method(), abel_method(),
                                       [("alt", alt_series)], depth=14, tol=1e-3)
        case = forward.cases[0]
        assert case.verdict == TRANSFERS
        assert abs(complex(case.est_a.value.coords[0]) - 0.5) <= 1e-3
        assert abs(complex(case.est_b.value.coords[0]) - 0.5) <= 1e-3

        ramp = scalar_sequence(lambda n: (-1.0) ** n * (n + 1.0), "alt_ramp")
        reverse = inclusion_experiment(abel_method(), cesaro_method(),
                                       [("ramp", ramp)], depth=14, tol=1e-3)
        case = reverse.cases[0]
        assert case.est_a.status == CONVERGED
        assert abs(complex(case.est_a.value.coords[0])) <= 1e-3
        assert case.est_b.status != CONVERGED
        assert case.verdict == VIOLATES


def test_criterion_05_transfer_experiment_truncation_family():
    with criterion(5, "operator-family transfer on C^4 passes battery and probes"):
        space = SpaceDescriptor(4, "l2")
        family = truncation_family(space)
        rng = np.random.default_rng(424242)
        probes = []
        for _ in range(5):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            probes.append(VectorValue(x / np.linalg.norm(x), space))
        report = transfer_experiment(cesaro_method(), abel_method(), family, probes,
                                     depth=24, tol=1e-6)
        assert report.applicable
        assert all(h.passed for h in report.hypotheses)
        assert len(report.hypotheses) == 4
        assert report.all_transfer
        for case in report.cases:
            assert case.verdict == TRANSFERS
            assert case.distance <= 1e-6


def test_criterion_06_dilate_identity_on_random_polynomials():
    with criterion(6, "Abel sum of the partial sums and dilate multiplier agree to 1e-12"):
        rng = np.random.default_rng(64)
        space = SeriesSpace("h2")
        fs = []
        for _ in range(100):
            deg = int(rng.integers(0, 65))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            fs.append(taylor_from_coefficients(coeffs, space))
        for r in (0.25, 0.5, 0.9):
            assert dilate_dual_deviation(fs, r) <= 1e-12


def test_criterion_07_h2_taylor_convergence():
    with criterion(7, "partial-sum distances match the closed form; both chains converge"):
        space = SeriesSpace("h2")
        f = geometric_taylor(1.0, 0.5, space)
        for n in range(31):
            # oracle: brute-force tail sum of 4^-k, cross-checked with 2^-n/sqrt(3)
            brute = math.sqrt(math.fsum(4.0 ** -k for k in range(n + 1, n + 1 + 600)))
            closed = 2.0 ** -n / math.sqrt(3.0)
            assert abs(brute - closed) <= 1e-12 * closed + 1e-300
            got = series_norm(taylor_sub(partial_sum(f, n), f))
            assert abs(got - closed) <= 1e-10

        abel_chain = taylor_summability_experiment(f, space, [ABEL_DILATE],
                                                   depth=20, tol=1e-4)
        assert abel_chain.status == CONVERGED_TO_ZERO
        log_chain = taylor_summability_experiment(f, space, [LOG_MEAN],
                                                  depth=20, tol=1e-4)
        assert log_chain.status == CONVERGED_TO_ZERO


def test_criterion_08_integration_contracts():
    with criterion(8, "step integrals, norm bound, commutation, weak-integral detection"):
        space = SpaceDescriptor(4, "l2")
        rng = np.random.default_rng(8)

        # representation independence: exact when the piece measures are
        # powers of two (scaling then commutes with addition bitwise)
        x = VectorValue(rng.standard_normal(4), space)
        whole = step_integral(StepFunction((StepPiece(((0.0, 1.0),), x),)))
        split = step_integral(StepFunction((StepPiece(((0.0, 0.25),), x),
                                            StepPiece(((0.25, 0.5),), x),
                                            StepPiece(((0.5, 1.0),), x))))
        assert whole == split

        # ||integral f|| <= integral ||f|| on 200 random polynomial integrands
        for _ in range(200):
            coeffs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

            def f(t):
                return VectorValue(np.polynomial.polynomial.polyval(t, coeffs.T), space)

            lhs = adaptive_quadrature(f, (0.0, 1.0)).value.norm()
            rhs = norm_integral(f, (0.0, 1.0))
            assert lhs <= rhs * (1 + 1e-9) + 1e-12

        # operator commutation on 50 random pairs at 1e-9
        cfg = QuadratureConfig(tol=1e-9)
        for _ in range(50):
            T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            coeffs = rng.standard_normal((4, 5))

            def f(t):
                return VectorValue(np.polynomial.polynomial.polyval(t, coeffs.T), space)

            assert operator_commutation_check(T, f, (0.0, 1.0), cfg).passed

        # weak-integral check detects a 1e-3 perturbation at tol 1e-6
        x = VectorValue([1.0, 2.0, 3.0, 4.0], space)
        bad = VectorValue(x.coords * 0.75 + np.array([1e-3, 0, 0, 0]), space)
        checks = weak_integral_check(lambda t: x, (0.0, 0.75), bad,
                                     coordinate_functionals(space),
                                     QuadratureConfig(tol=1e-6))
        assert not checks[0].passed
        assert all(c.passed for c in checks[1:])


def test_criterion_09_group_norm_is_l1_partial_sum():
    with criterion(9, "group norm = l1 partial sum, monotone; Cesaro rows give 1"):
        rng = np.random.default_rng(9)
        weights = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        previous = 0.0
        for N in range(64):
            expected = math.fsum(abs(weights[k]) for k in range(N + 1))
            got = group_norm_scalar_row(lambda k: weights[k], N)
            assert got.value == expected  # exact, no tolerance
            assert got.value >= previous
            previous = got.value
        spec = cesaro_method()
        for m in [4] + [2**k for k in range(1, 15)]:
            assert group_norm_scalar_row(lambda k, m=m: spec.entry(m, k), m).value == 1.0


def test_criterion_10_determinism_of_shipped_configs(tmp_path):
    with criterion(10, "byte-identical CSVs and reports across two runs of every shipped config"):
        # sha256 of every shipped CSV, pinned when the digests were recorded;
        # a change to any shipped number must update this file deliberately
        pinned = json.loads(PINNED_DIGESTS.read_text())
        # report.json carries the routes and notes that no CSV holds
        pinned_reports = json.loads(PINNED_REPORTS.read_text())
        names = sorted(shipped_configs())
        assert len(names) >= 6
        assert sorted({key.split("/")[0] for key in pinned}) == names
        assert sorted(pinned_reports) == [f"{name}/report.json" for name in names]
        for name in names:
            config = str(builtin_config_path(name))
            out1 = tmp_path / f"{name}-run1"
            out2 = tmp_path / f"{name}-run2"
            assert run_config(config, str(out1), threads=1) == 0
            assert run_config(config, str(out2), threads=4) == 0
            csvs1 = sorted(p.name for p in out1.glob("*.csv"))
            csvs2 = sorted(p.name for p in out2.glob("*.csv"))
            assert csvs1 == csvs2 and csvs1
            assert csvs1 == sorted(k.split("/")[1] for k in pinned if k.startswith(name + "/"))
            for csv_name in csvs1:
                b1 = (out1 / csv_name).read_bytes()
                b2 = (out2 / csv_name).read_bytes()
                assert b1 == b2, f"{name}/{csv_name} differs between runs"
                assert hashlib.sha256(b1).hexdigest() == pinned[f"{name}/{csv_name}"], \
                    f"{name}/{csv_name} differs from its pinned digest"
            for out in (out1, out2):
                digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
                assert digest == pinned_reports[f"{name}/report.json"], \
                    f"{name}/report.json differs from its pinned digest"
