"""Vector-valued integration and its contracts.

Kernel methods integrate vector-valued functions against a scalar kernel.
This demo exercises the integration layer directly: the step-function
integral, adaptive quadrature with the boundary substitution, the norm
bound on integrals, commutation with bounded operators, and the weak
(functional-wise) characterization of the integral.
"""

import math

import numpy as np

from sumkit import (
    FunctionSource,
    QuadratureConfig,
    SpaceDescriptor,
    StepFunction,
    StepPiece,
    VectorValue,
    adaptive_quadrature,
    operator_commutation_check,
    coordinate_functionals,
    logarithmic_method,
    scalar_function,
    step_integral,
    summability_limit,
    transform_at,
    weak_integral_check,
)
from sumkit.integrate import SUBSTITUTION_LOG_BOUNDARY, norm_integral, quad_scalar

space = SpaceDescriptor(3, "l2")

# step functions integrate exactly: measures times values
x = VectorValue([1.0, -2.0, 0.5], space)
s = StepFunction((StepPiece(((0.0, 0.5),), x), StepPiece(((1.0, 1.5),), -1 * x)))
print("step integral of x on [0,.5] plus -x on [1,1.5]:", step_integral(s).coords.real)

# the boundary substitution tames 1/(1-t)
cfg = QuadratureConfig(substitution=SUBSTITUTION_LOG_BOUNDARY)
val, err, evals = quad_scalar(lambda t: 1.0 / (1.0 - t), (0.0, 0.99), cfg)
print(f"\nintegral of 1/(1-t) on [0, 0.99]: {val.real:.12f} "
      f"(exact {-math.log(0.01):.12f}, {evals} evaluations)")

# logarithmic kernel transform of a vector-valued function
ramp = scalar_function(lambda t: 1.0 - t, name="1-t")
r = 1.0 - math.exp(-1.0)
out = transform_at(logarithmic_method(), ramp, r)
print(f"logarithmic mean of (1-t) at r = 1 - 1/e: {out.coords[0].real:.6f} "
      f"(analytic {r:.6f})")

# its limit as r -> 1, for v(t) = L + (1-t) cos(6 pi t) u in C^3: each grid
# sample is integrated only to the share of tol the limit needs, so the grid
# reaches r = 1 - 2^-40
L, u = np.array([1.0, -0.5, 2.0j]), np.array([1.0, 1.0j, -1.0])
wave = FunctionSource(lambda ts: L + ((1.0 - ts) * np.cos(6.0 * np.pi * ts))[:, None] * u,
                      space, name="wave")
est = summability_limit(logarithmic_method(), wave, depth=40, tol=1e-3)
print(f"logarithmic limit of {wave.name} at depth 40: {est.status}, "
      f"max |limit - L| = {np.max(np.abs(est.value.coords - L)):.1e}")


def f(t):
    return VectorValue([t, t * t, math.sin(t)], space)


integral = adaptive_quadrature(f, (0.0, 1.0)).value
print(f"\n||integral of f|| = {integral.norm():.6f} <= "
      f"integral of ||f|| = {norm_integral(f, (0.0, 1.0)):.6f}")

T = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 2.0]])
check = operator_commutation_check(T, f, (0.0, 1.0))
print(f"operator commutes with the integral: {check.passed} "
      f"(deviation {check.deviation:.2e})")

candidate = VectorValue([0.5, 1.0 / 3.0, 1.0 - math.cos(1.0)], space)
checks = weak_integral_check(f, (0.0, 1.0), candidate, coordinate_functionals(space))
print("weak-integral pairings match the candidate:",
      all(c.passed for c in checks))
