"""The one-dimensional building block: density exp(-|x|^p / p), p in [1, 2].

p = 1 is the Laplace distribution, p = 2 the standard normal; everything in
between interpolates the tail weight.  The sampler is exact: X = (p G)^{1/p}
(2U - 1) with G ~ Gamma(1 + 1/p) and U uniform, a mixture of uniforms.
"""

import numpy as np

from pexp.univariate import PExpParams, cdf, moment, pdf, quantile, sample

rng = np.random.default_rng(0)

print("normalizing constants c_p and second moments:")
for p in (1.0, 1.25, 1.5, 1.75, 2.0):
    pr = PExpParams(p)
    print(
        f"  p={p:<5} c_p={pr.norm_const:.6f}  E X^2={moment(pr, 2):.6f}  "
        f"E X^4={moment(pr, 4):.6f}"
    )

print("\nexact sampler vs analytic law (10^5 draws, p = 1.5):")
pr = PExpParams(1.5)
x = sample(pr, rng, 10**5)
print(f"  sample var  {x.var():.4f}   analytic {moment(pr, 2):.4f}")
qs = np.quantile(x, [0.1, 0.5, 0.9])
print(f"  sample quantiles   {np.round(qs, 4)}")
print(f"  analytic quantiles {np.round(quantile(pr, np.array([0.1, 0.5, 0.9])), 4)}")

print("\nlower tail bound P(|xi| <= x) >= r1 x on (0, 1]:")
for p in (1.0, 1.5, 2.0):
    pr = PExpParams(p)
    xs = np.linspace(0.05, 1.0, 6)
    probs = 2 * np.asarray(cdf(pr, xs)) - 1
    worst = float((probs - pr.tail_lower_const * xs).min())
    print(f"  p={p}: r1={pr.tail_lower_const:.4f}, worst margin {worst:+.4f}")
