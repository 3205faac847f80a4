"""Draws from alpha-regular p-exponential priors and their regularity.

Coefficients u_ell = gamma_ell xi_ell with gamma_ell = ell^{-1/2-alpha/d}
produce sequences that lie in B^s_q exactly for s < alpha; the scan below
watches the empirical Besov norm as the truncation grows and classifies each
smoothness level as converged or diverging.
"""

import numpy as np

from pexp.measure import evaluate_function, pexp_measure, regularity_scan, sample_prior
from pexp.sequences import ScalingSpec

rng = np.random.default_rng(1)

print("regularity scan for alpha = 1 (q = 2): expect divergence from s = 1")
m = pexp_measure(ScalingSpec(1.5, 1.0, 1, 1.0, "linear", n=2**14))
for row in regularity_scan(m, [0.5, 0.8, 1.0, 1.3], 2.0, 40, rng):
    norms = ", ".join(f"{v:.2f}" for v in row.median_norms[::4])
    print(f"  s={row.s:<4} slope={row.slope:+.3f}  norms {norms}  -> {row.verdict}")

print("\na function-space draw (dyadic scheme, Faber-Schauder hats):")
spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=6)
md = pexp_measure(spec)
u = sample_prior(md, rng)
grid = np.linspace(0, 1, 9)
vals = evaluate_function(u, grid)
print("  levels 0..6,", len(u), "coefficients")
print("  W(x) at x = 0, 1/8, ..., 1:", np.round(vals, 3))
