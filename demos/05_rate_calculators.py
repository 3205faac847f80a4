"""Closed-form contraction rates: regimes, switching points, rescaling.

The headline effect: for spatially inhomogeneous truths (q < 2) the Laplace
end of the family beats the Gaussian end, and rescaled undersmoothing priors
with p = q reach the minimax rate.  Along the l2 rate the complexity
functions f and g of the entropy bound stay within a constant of n eps_n^2.
"""

import math

from pexp.concentration import fg_values
from pexp.rates import (
    RateQuery,
    l2_switch_point,
    linear_minimax,
    minimax,
    rate_l2,
    rate_l2_rescaled,
    rate_sup,
)

print("matched smoothness, q = 2: everybody gets the minimax rate")
for p in (1.0, 1.5, 2.0):
    r = rate_l2(RateQuery(1.0, 1.0, p, 2.0, 1))
    print(f"  p={p}: n^-{r.poly_exponent} ({r.regime})")

print("\nsweep of alpha for p=q=1, beta=2 (inhomogeneous truth):")
for alpha in (0.5, 1.0, 1.5, 1.823, 2.0, 3.0):
    r = rate_l2(RateQuery(alpha, 2.0, 1.0, 1.0, 1))
    print(f"  alpha={alpha:<6} exponent {float(r.poly_exponent):.6f}  ({r.regime})")
print(f"  switching point: {l2_switch_point(RateQuery(1, 2, 1, 1, 1)):.6f}")
print(f"  benchmarks: minimax {minimax(2, 1)} = {float(minimax(2, 1)):.3f}, "
      f"linear minimax {linear_minimax(2, 1)} = {float(linear_minimax(2, 1)):.3f}")

print("\nrescaled undersmoothing priors, q < 2:")
for p, q in ((1.0, 1.0), (1.0, 1.5), (2.0, 1.0)):
    r = rate_l2_rescaled(RateQuery(1.0, 2.0, p, q, 1))
    log_part = f" log^{r.log_exponent} n" if r.log_exponent else ""
    print(
        f"  p={p}, q={q}: rate n^-{r.poly_exponent}{log_part}, "
        f"lambda_n = n^-{r.lambda_poly_exponent}  ({r.regime})"
    )

print("\nsup-norm setting (density estimation), alpha = beta:")
for p in (1.0, 1.5, 2.0):
    rho, rho_t = rate_sup(1.0, 1.0, p)
    print(
        f"  p={p}: rate-equation leg n^-{rho.poly_exponent}, complexity leg "
        f"n^-{rho_t.poly_exponent}; contraction at the slower one"
    )

print("\ncomplexity condition f(sqrt(n) eps_n) g(eps_n)^{1-p/2} / (n eps_n^2), eps_n = n^-rate:")
for p in (1.0, 1.5, 2.0):
    for alpha, beta in ((1.0, 1.0), (2.0, 1.0), (0.7, 1.4)):
        r = rate_l2(RateQuery(alpha, beta, p, 2.0, 1))
        ratios = []
        for n in (10**2, 10**4, 10**6, 10**8):
            eps_n = n ** -float(r.poly_exponent)
            f, g = fg_values(p, alpha, 1, "l2", math.sqrt(n) * eps_n, eps_n)
            ratios.append(f * g ** (1 - p / 2) / (n * eps_n**2))
        print(
            f"  p={p}, alpha={alpha}, beta={beta} ({r.regime}): n = 1e2..1e8 gives "
            + ", ".join(f"{x:.3f}" for x in ratios)
        )
