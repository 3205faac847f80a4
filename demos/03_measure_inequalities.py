"""Two structural inequalities of the measure, checked numerically.

Anderson: shifting a symmetric convex set away from the origin can only lose
mass, mu(A + x) <= mu(A).  Decentering: the loss for a shift h is at most
the factor exp(-||h||_Z^p / p), checked here by deterministic quadrature in
dimensions 1 to 3.
"""

import numpy as np

from pexp.measure import anderson_check, decentering_check, pexp_measure
from pexp.sequences import ScalingSpec

rng = np.random.default_rng(2)

print("Anderson inequality, p = 1, dimension 3, ball radius 1")
print("(one stacked call: all three shifted balls count hits in one prior sample):")
m = pexp_measure(ScalingSpec(1.0, 1.0, 1, 1.0, "linear", n=3))
shifts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, -0.5, 0.5]])
for shift, res in zip(shifts, anderson_check(m, 1.0, shifts, 2 * 10**5, rng)):
    print(
        f"  shift {np.round(shift, 2)}: centered {res.p_centered:.4f} "
        f"shifted {res.p_shifted:.4f}  {res.verdict}"
    )

print("\ndecentering lower bound by quadrature:")
for p in (1.0, 1.5, 2.0):
    for dim in (1, 2, 3):
        m = pexp_measure(ScalingSpec(p, 1.0, 1, 1.0, "linear", n=dim))
        h = rng.normal(scale=0.5, size=dim)
        res = decentering_check(m, 0.7, h)
        print(
            f"  p={p} dim={dim}: mu(eps B + h) = {res.lhs:.6f} >= "
            f"{res.rhs:.6f} = e^(-|h|_Z^p/p) mu(eps B)   {res.verdict}"
        )
