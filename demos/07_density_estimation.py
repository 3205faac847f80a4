"""Density estimation with an exponentiated wavelet prior and MCMC.

The density is pi(x) = exp(W(x)) / int exp(W), W a random Faber-Schauder
expansion.  W is linear between the 2^{K+1} + 1 dyadic nodes of
``WaveletBasis.node_grid()``, so the normalizer, the Hellinger distance and
the truth sampler are exact closed forms on those nodes, with no quadrature
grid.  The posterior is explored by adaptive random-walk Metropolis in
whitened coordinates with one proposal scale per resolution level.  Desk
scale is qualitative here: the Hellinger error shrinks with n, while the
quantitative sup-norm rate theory lives at much larger n.

The truncation level K is a modeling knob: the last block reports the
posterior error for K = 4, 5, 6 at fixed n as a sensitivity check.
"""

import numpy as np

from pexp.experiments import ExperimentConfig, run_contraction
from pexp.measure import WaveletBasis, pexp_measure
from pexp.models import ChainConfig, de_density, de_posterior_mcmc, de_simulate, hellinger
from pexp.sequences import CoefVec, ScalingSpec, dyadic_level_index

print("Hellinger q90 versus n (p=1, alpha=1, K=6, truth in B^1_{oo,oo}):")
cfg = ExperimentConfig(
    model="density",
    p=1.0,
    alpha=1.0,
    beta=1.0,
    q=2.0,
    n_grid=[250, 1000, 4000],
    replicates=4,
    posterior_draws=100,
    master_seed=7,
    levels=6,
)
res = run_contraction(cfg)
print(f"  median q90: {[round(v, 4) for v in res.median_q90]}")
print(f"  slope {res.fitted_slope:.3f} (reported, not gated at desk scale)")

print("\nsensitivity to the truncation level K at n = 1000:")
rng = np.random.default_rng(8)
for K in (4, 5, 6):
    spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=K)
    basis = WaveletBasis(K)
    ks = dyadic_level_index(K)
    signs = np.where(np.random.default_rng(7).random(len(ks)) < 0.5, -1.0, 1.0)
    truth = CoefVec.dyadic(2.0 ** (-1.5 * ks) * signs, K)
    pi0 = de_density(truth, basis)
    sample = de_simulate(truth, basis, 1000, np.random.default_rng(80))
    chain = de_posterior_mcmc(
        sample, pexp_measure(spec), ChainConfig(draws=100, burn_in=800, thin=3), rng
    )
    hs = hellinger(de_density(chain.u, basis), pi0)
    print(
        f"  K={K}: median Hellinger {np.median(hs):.4f}, q90 {np.quantile(hs, 0.9):.4f}, "
        f"acceptance {chain.acceptance_rate:.2f}"
    )
