"""The concentration function phi_w(eps) and the rate equation.

phi_w(eps) pairs an approximation cost (how expensive it is, in the weighted
lp norm, to approximate w within eps in l2) with a small-ball cost
(-log mu(eps B)).  The smallest eps with phi_w(eps) <= n eps^2 upper-bounds
the posterior contraction rate at w.  Plain Monte Carlo resolves the small
ball only in the bulk of the norm law; one decade lower, tilted importance
sampling (l2) and an exact node recursion (sup norm) show the small-ball law
-log mu(eps B) ~ eps^{-1/alpha}.
"""

import numpy as np

from pexp.concentration import (
    SmallBallResolutionError,
    concentration_fn,
    inf_term_exact,
    inf_term_truncation_ub,
    rate_solve_numeric,
    smallball_l2_tilted,
    smallball_mc,
    smallball_slope,
    smallball_sup_nodes,
    unit_norm_sample,
)
from pexp.measure import pexp_measure
from pexp.sequences import BesovParams, ScalingSpec, make_truth

rng = np.random.default_rng(3)

w = make_truth(BesovParams(1.0, 2.0, 1), n=256)
spec = ScalingSpec(1.0, 1.0, 1, 1.0, "linear", n=256)
m = pexp_measure(spec)

print("approximation term: exact solver vs proof-style truncation bound")
for eps in (0.4, 0.2, 0.1, 0.05):
    exact, _ = inf_term_exact(w.values, eps, spec)
    ub, L = inf_term_truncation_ub(w.values, eps, spec)
    print(f"  eps={eps:<5} exact {exact:8.3f}   truncation bound {ub:8.3f} (L={L})")

print("\ncentered small balls, -log mu(eps B):")
ests = smallball_mc(m, np.array([0.4, 0.7, 1.0, 1.4]), "l2", 10**5, rng)
for e in ests:
    print(f"  eps={e.eps:<4} -log p = {e.neglog:.3f}  CI ({e.ci[0]:.3f}, {e.ci[1]:.3f})")

print("\nassembled phi and the rate equation crossing:")
# one sample of unit-measure norms serves every eps, as in `pexp conc`
sample = unit_norm_sample(m, "l2", 10**5, rng)
for eps in (0.3, 0.6):
    est = concentration_fn(w.values, eps, m, "l2", sample)
    print(f"  phi({eps}) = {est.phi:.3f}  (inf/p {est.inf_term:.3f}, -log {est.neglog_smallball:.3f})")
# n = 512 sits at the edge of what 5 * 10^4 plain Monte Carlo draws resolve:
# on some samples the crossing needs a ball probability below P_MIN_GUARD,
# and the solver says so with a typed error instead of a guess
for n in (32, 128, 512):
    try:
        eps_n = rate_solve_numeric(w.values, m, n, mc_samples=5 * 10**4, rng=rng)
    except SmallBallResolutionError as exc:
        print(f"  n={n:<4} not resolved by this sample: {exc}")
    else:
        print(f"  n={n:<4} smallest eps with phi <= n eps^2: {eps_n:.4f}")

print("\nthe small-ball law one decade below the bulk, -log mu(eps B) ~ eps^{-1/alpha}:")
bulk_slope, _ = smallball_slope(ests)
print(f"  plain Monte Carlo on eps in [0.4, 1.4] (the bulk): slope {bulk_slope:.3f}")
deep = np.array([0.04, 0.07, 0.1, 0.14])
law = -1.0 / spec.alpha


def show(label, estimates):
    slope, se = smallball_slope(estimates)
    neglogs = ", ".join(f"{e.neglog:.2f}" for e in estimates)
    print(f"  {label}: -log p = {neglogs}  slope {slope:.3f} +- {se:.3f} (law {law:.3f})")


for p in (1.0, 2.0):
    m_p = pexp_measure(ScalingSpec(p, spec.alpha, 1, 1.0, "linear", n=256))
    show(f"l2, p={p}, tilted", smallball_l2_tilted(m_p, deep, 20_000, rng))
sup_m = pexp_measure(ScalingSpec(1.0, spec.alpha, 1, 1.0, "dyadic", levels=7))
show("sup, p=1.0, node recursion", smallball_sup_nodes(sup_m, deep))
