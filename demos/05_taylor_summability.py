"""Recovering a power series from its means in coefficient norms.

A power series with geometric coefficients lives in the l2 and l1
coefficient spaces.  Its partial sums converge to it geometrically; its
radial dilates converge as r -> 1; its logarithmic means converge too, but
only logarithmically, which is why the experiment reports the decay-trend
route rather than a tolerance hit.
"""

import math

from sumkit import (
    SeriesSpace,
    abel_dilate,
    series_norm,
    geometric_taylor,
    log_taylor_mean,
    partial_sum,
    taylor_summability_experiment,
)
from sumkit.holo import ABEL_DILATE, LOG_MEAN, PARTIAL_SUMS, log_mean_multiplier, taylor_sub

h2 = SeriesSpace("h2")
wiener = SeriesSpace("wiener")
f = geometric_taylor(1.0, 0.5, h2)

print(f"f has coefficients 2^-k: ||f||_h2 = {series_norm(f):.6f} "
      f"(exact {math.sqrt(4/3):.6f}), ||f||_wiener = {series_norm(f.in_space(wiener)):.1f}")

print("\npartial-sum distances ||S_n f - f||_h2 (halve with every n):")
for n in (0, 4, 8, 16):
    print(f"  n = {n:>2}: {series_norm(taylor_sub(partial_sum(f, n), f)):.3e}"
          f"   closed form {2.0**-n / math.sqrt(3):.3e}")

print("\ndilate multipliers r^k versus logarithmic multipliers lambda_k(r):")
r = 0.9
for k in (1, 4, 16):
    print(f"  k = {k:>2}: r^k = {r**k:.4f}, lambda_k = {log_mean_multiplier(k, r):.4f}")

print("\ndistance to f along the parameter grid r = 1 - 2^-j:")
for j in (4, 10, 16):
    r = 1.0 - 2.0**-j
    d_abel = series_norm(taylor_sub(abel_dilate(f, r), f))
    d_log = series_norm(taylor_sub(log_taylor_mean(f, r), f))
    print(f"  j = {j:>2}: dilate {d_abel:.3e}, log mean {d_log:.3e}")

print("\nexperiment verdicts (three-valued, with the route that fired):")
for chain in ([PARTIAL_SUMS], [ABEL_DILATE], [LOG_MEAN]):
    report = taylor_summability_experiment(f, h2, chain, depth=20, tol=1e-4)
    print(f"  chain {str(chain):>18}: {report.status} via {report.route!r}, "
          f"last distance {report.residual:.3e}")
