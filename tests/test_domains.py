"""Exhaustions, parameter grids, the grid judge, and the limit-at-infinity estimator."""

import math

import numpy as np
import pytest

from sumkit import holo, regularity
from sumkit.domains import (
    _WINDOW,
    CONVERGED,
    DIVERGED,
    INCONCLUSIVE,
    NAT,
    NOT_ZERO,
    UNIT_INTERVAL,
    HALF_LINE,
    ZERO,
    HalfOpenInterval,
    decay_verdict,
    estimate_limit_at_infinity,
    exhaustion,
    loglog_slope,
    parameter_grid,
    sample_grid,
)
from sumkit.vspace import SCALAR, SpaceDescriptor, VectorValue, scalar_value


def test_loglog_slope_has_the_bits_of_polyfit():
    # the cached design solves the least-squares problem np.polyfit sets up
    rng = np.random.default_rng(35)
    for n in range(2, 41):
        xs = np.log(np.arange(1, n + 1, dtype=float))
        for _ in range(10):
            path = 10.0 ** rng.uniform(-300.0, 3.0, n)
            ys = np.log(np.maximum(np.abs(path), 1e-300))
            assert repr(loglog_slope(path.tolist())) == repr(float(np.polyfit(xs, ys, 1)[0])), n


def test_exhaustion_examples():
    assert exhaustion(NAT, 3).hi == 3
    assert exhaustion(UNIT_INTERVAL, 0).hi == pytest.approx(0.5, abs=0)
    assert exhaustion(HALF_LINE, 4).hi == pytest.approx(16.0, abs=0)


def test_exhaustion_monotone_and_covering():
    for domain in (NAT, UNIT_INTERVAL, HalfOpenInterval(2.5), HALF_LINE):
        his = [exhaustion(domain, n).hi for n in range(31)]
        assert all(a < b for a, b in zip(his, his[1:]))
        if isinstance(domain, HalfOpenInterval) and not math.isinf(domain.right):
            assert all(h < domain.right for h in his)
            # windows eventually cover any point below the right end
            for t in (0.0, 0.9 * domain.right, 0.999 * domain.right):
                assert any(exhaustion(domain, n).contains(t) for n in range(31))
        else:
            reachable = (0, 5, 29) if domain is NAT else (0, 5, 2.0**29)
            for t in reachable:
                assert any(exhaustion(domain, n).contains(t) for n in range(31))


def test_parameter_grid_examples():
    assert parameter_grid(UNIT_INTERVAL, 3) == [0.5, 0.75, 0.875]
    assert parameter_grid(NAT, 2) == [2, 4]
    assert parameter_grid(UNIT_INTERVAL, 1) == [0.5]
    assert parameter_grid(HALF_LINE, 3) == [2.0, 4.0, 8.0]


@pytest.mark.parametrize("domain, depth, grid", [
    (NAT, 1, [2, 3]),
    (NAT, 3, [2, 3, 4, 5, 8, 9]),
    (UNIT_INTERVAL, 3, [0.5, 0.75, 0.875]),
    (HalfOpenInterval(2.0), 2, [1.0, 1.5]),
    (HALF_LINE, 2, [2.0, 4.0]),
])
def test_sample_grid_pairs_each_discrete_point_with_its_successor(domain, depth, grid):
    assert sample_grid(domain, depth) == grid


# Two paths that the regularity and Taylor rules once judged apart at tol
# 1e-3: a dip inside the last half (one said stuck), a drop at the very end
# (one said it reached tol).
FORKED_PATHS = [[1.0] * 6 + [1e-4] + [1.0] * 5, [1.0] * 10 + [2.0, 1e-4]]

DECAY_CASES = [
    # (path, outcome, route) at tol 1e-3
    ([1.0, 0.5, 1e-4, 1e-4, 1e-5, 1e-6], ZERO, "tol"),
    ([2e-3, 1e-3, 1e-3, 5e-4, 1e-3], ZERO, "tol"),
    ([5e-4], ZERO, "tol"),
    ([2e-3], INCONCLUSIVE, ""),
    ([1.0 / k for k in range(1, 13)], ZERO, "decay-trend"),
    ([1.0] * 11 + [1e-4], ZERO, "decay-trend"),
    ([1.0] * 12, NOT_ZERO, ""),
    ([float(k) for k in range(1, 13)], NOT_ZERO, ""),
    ([1e-6] * 10 + [1.0, 1.0], INCONCLUSIVE, ""),
    ([5e-3] * 12, INCONCLUSIVE, ""),
    *((path, INCONCLUSIVE, "") for path in FORKED_PATHS),
]


@pytest.mark.parametrize("path, outcome, route", DECAY_CASES)
def test_decay_verdict_cases(path, outcome, route):
    got, got_route, slope = decay_verdict(path, 1e-3)
    assert (got, got_route) == (outcome, route)
    assert slope == loglog_slope(path[len(path) // 2:])


@pytest.mark.parametrize("path", FORKED_PATHS)
def test_forked_paths_are_inconclusive_in_both_vocabularies(path, monkeypatch):
    grid = list(range(1, len(path) + 1))
    check = regularity._vanishing("k3_window_0", regularity._scan(grid, path), 1e-3, "")
    assert check.verdict == INCONCLUSIVE and check.witness == ""

    # the Taylor experiment judges the distances its norm returns, one per grid point
    distances = iter(path)
    monkeypatch.setattr(holo, "series_norm", lambda f: next(distances))
    report = holo.taylor_summability_experiment(holo.monomial_taylor(1), holo.SeriesSpace(),
                                                [holo.PARTIAL_SUMS], depth=len(path), tol=1e-3)
    assert (report.status, report.route) == (INCONCLUSIVE, "")


@pytest.mark.parametrize("length", range(1, 9))
def test_stuck_path_needs_a_full_window_in_its_last_half_to_fail(length, monkeypatch):
    # a path stuck at 1 has slope 0, which reads "not decaying" only once the
    # last half holds _WINDOW values (length 7 on); one value has slope 0 by default
    path = [1.0] * length
    fails = length - length // 2 >= _WINDOW
    assert decay_verdict(path, 1e-3)[0] == (NOT_ZERO if fails else INCONCLUSIVE)

    grid = list(range(1, length + 1))
    check = regularity._vanishing("k3_window_0", regularity._scan(grid, path), 1e-3, "")
    assert check.verdict == (regularity.FAIL if fails else INCONCLUSIVE)

    distances = iter(path)
    monkeypatch.setattr(holo, "series_norm", lambda f: next(distances))
    report = holo.taylor_summability_experiment(holo.monomial_taylor(1), holo.SeriesSpace(),
                                                [holo.PARTIAL_SUMS], depth=length, tol=1e-3)
    assert report.status == (holo.NOT_CONVERGED if fails else INCONCLUSIVE)


def test_domain_usage_errors():
    with pytest.raises(ValueError):
        parameter_grid(NAT, 0)
    with pytest.raises(ValueError):
        sample_grid(NAT, 0)


@pytest.mark.parametrize("domain, deepest", [(UNIT_INTERVAL, 53), (HalfOpenInterval(2.0), 53),
                                             (HALF_LINE, 1023)])
def test_a_grid_stays_inside_F(domain, deepest):
    # on [0, 1), 1 - 2^-54 rounds to 1; on [0, inf), 2.0**1024 overflows
    assert parameter_grid(domain, deepest)[-1] < domain.right
    for depth in (deepest + 1, deepest + 100):
        with pytest.raises(ValueError, match=f"depth {depth} .* the deepest depth inside is "
                                             f"{deepest}$"):
            parameter_grid(domain, depth)
        with pytest.raises(ValueError):
            sample_grid(domain, depth)
    assert len(parameter_grid(NAT, 1100)) == 1100


def test_a_lone_sample_is_not_a_limit():
    est = estimate_limit_at_infinity([scalar_value(3.0)], tol=1e-6)
    assert est.status == INCONCLUSIVE and est.value is None
    assert est.residual == math.inf and est.samples_used == 1
    two = estimate_limit_at_infinity([scalar_value(3.0)] * 2, tol=1e-6)
    assert two.status == CONVERGED and two.residual == 0.0 and two.window == 2
    with pytest.raises(ValueError):
        exhaustion(NAT, -1)
    with pytest.raises(ValueError):
        HalfOpenInterval(0.0)


def test_estimator_constant_sequence():
    c = scalar_value(3 - 1j)
    est = estimate_limit_at_infinity([c] * 10, tol=1e-12)
    assert est.status == CONVERGED
    assert est.residual == 0.0
    assert est.value == c


def test_estimator_on_cesaro_means_of_alternating():
    # oracle: exact Cesàro means sigma_n of (-1)^k partial sums at n = 2^j
    def sigma(n):
        s = sum((1 + (-1) ** k) / 2 for k in range(n + 1))
        return s / (n + 1)

    samples = [scalar_value(sigma(2**j)) for j in range(1, 15)]
    est = estimate_limit_at_infinity(samples, tol=1e-3)
    assert est.status == CONVERGED
    assert abs(complex(est.value.coords[0]) - 0.5) < 1e-3


def test_estimator_raw_alternating_is_inconclusive():
    samples = [scalar_value((-1.0) ** n) for n in range(20)]
    est = estimate_limit_at_infinity(samples, tol=1e-3)
    assert est.status == INCONCLUSIVE
    assert est.residual == pytest.approx(2.0, abs=0)
    assert est.stalled


def test_estimator_divergence():
    samples = [scalar_value(float(2**n)) for n in range(12)]
    est = estimate_limit_at_infinity(samples, tol=1e-6)
    assert est.status == DIVERGED


def test_estimator_empty_is_usage_error():
    with pytest.raises(ValueError):
        estimate_limit_at_infinity([])


def test_estimator_idempotence_append_within_tol():
    rng = np.random.default_rng(3)
    space = SpaceDescriptor(3, "l2")
    base = VectorValue([1.0, -2.0, 0.5], space)
    tol = 1e-6
    samples = [base + (0.25**n) * VectorValue([1, 1, 1], space) for n in range(16)]
    est = estimate_limit_at_infinity(samples, tol=tol)
    assert est.status == CONVERGED
    for _ in range(20):
        bump = rng.uniform(-1, 1, 3) * tol / 4
        samples.append(est.value + VectorValue(bump, space))
        again = estimate_limit_at_infinity(samples, tol=tol)
        assert again.status != DIVERGED


@pytest.mark.parametrize("rho", [0.5, 0.9, -0.6, 0.3 + 0.8j])
def test_estimator_soundness_geometric_approach(rho):
    rng = np.random.default_rng(11)
    space = SpaceDescriptor(4, "l2")
    target = VectorValue(rng.standard_normal(4) + 1j * rng.standard_normal(4), space)
    u = VectorValue(rng.standard_normal(4), space)
    u = (1.0 / u.norm()) * u
    tol = 1e-6
    depth = 4
    # deep enough that the whole trailing window sits past the tol/4 threshold
    while abs(rho) ** (depth - 3) >= tol / 4:
        depth += 1
    samples = [target + (rho**k) * u for k in range(depth + 1)]
    est = estimate_limit_at_infinity(samples, tol=tol)
    assert est.status == CONVERGED
    assert (est.value - target).norm() <= tol


def test_a_path_whose_differences_overflow_their_modulus_is_not_converged():
    # each sample is finite, and so is each difference -1.6e308(1 + i), but the
    # modulus of that difference is past the float range: the diameter is inf
    z = 0.8e308 * (1 + 1j)
    est = estimate_limit_at_infinity([scalar_value(-z)] * 3 + [scalar_value(z)], tol=1e-6)
    assert not est.converged
    assert est.residual == math.inf
