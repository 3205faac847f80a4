"""The two statistical models: white noise (sequence form) and density
estimation on [0, 1].

White noise observations are y_ell = w0_ell + n^{-1/2} z_ell; the posterior
under a p-exponential prior factorizes over coordinates, so it is sampled
exactly (conjugate formulas at p = 2, otherwise rejection from a
two-sided truncated-Gaussian envelope, which is exact at p = 1).  The
density model exponentiates a Faber-Schauder expansion, which is linear
between dyadic nodes so that its normalizer is exact on the node grid, and
uses adaptive random-walk Metropolis in whitened coordinates.  Its
log-likelihood is linear in the coefficients, sum_i W(X_i) = S . u with
S_l = sum_i psi_l(X_i), so the sample enters a chain only through S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import univariate
from .measure import PExpMeasure, WaveletBasis, evaluate_function
from .sequences import CoefVec


@dataclass(frozen=True)
class WhiteNoiseData:
    n: float
    y: CoefVec


@dataclass(frozen=True)
class DensitySample:
    points: np.ndarray
    n: int


@dataclass
class PosteriorChain:
    """Posterior draws in whitened xi coordinates, one row per draw."""

    xi: np.ndarray
    spec: object
    acceptance_rate: float
    step_log: dict = field(default_factory=dict)

    @property
    def u(self) -> np.ndarray:
        return self.xi * self.spec.gamma()


@dataclass(frozen=True)
class ChainConfig:
    draws: int = 150
    burn_in: int = 1200
    thin: int = 4

    def __post_init__(self):
        if not (self.draws >= 1 and self.thin >= 1 and self.burn_in >= 0):
            raise ValueError(
                f"ChainConfig needs draws >= 1, thin >= 1 and burn_in >= 0, got "
                f"draws={self.draws}, thin={self.thin}, burn_in={self.burn_in}"
            )


TARGET_ACCEPT = 0.234  # adaptation target of each level's acceptance rate
ADAPT_BATCH = 25  # proposals per level between scale updates
INIT_SCALE = 0.5  # initial proposal scale in whitened coordinates
_TINY = np.finfo(float).tiny  # smallest normal float


def wn_simulate(w0, n: float, rng: np.random.Generator) -> WhiteNoiseData:
    """Observe y_ell = w0_ell + n^{-1/2} z_ell, z i.i.d. standard normal."""
    if n <= 0:
        raise ValueError("noise precision parameter n must be positive")
    w = w0.values if isinstance(w0, CoefVec) else np.asarray(w0, dtype=float)
    y = w + rng.standard_normal(len(w)) / np.sqrt(n)
    return WhiteNoiseData(n, CoefVec.linear(y))


def wn_conjugate_moments(data: WhiteNoiseData, m: PExpMeasure):
    """Gaussian-conjugate posterior mean and variance of u = gamma xi (p = 2 only)."""
    if m.spec.p != 2.0:
        raise ValueError("conjugate formulas require p = 2")
    g = m.spec.gamma()
    n = data.n
    shrink = n * g**2 / (1.0 + n * g**2)
    return shrink * data.y.values, g**2 / (1.0 + n * g**2)


def wn_posterior_sample(
    data: WhiteNoiseData,
    m: PExpMeasure,
    draws: int,
    rng: np.random.Generator,
    method: str = "auto",
) -> PosteriorChain:
    """Exact independent joint posterior draws, all coordinates at once.

    method 'auto' uses the conjugate closed form at p = 2 and rejection
    otherwise; 'rejection' forces it (to cross-check the conjugate formulas).
    With a = n gamma^2 / 2 the posterior of xi is prop. to
    exp(-a (xi - y/gamma)^2 - |xi|^p / p), whose mode has magnitude
    univariate.prox(|y|/gamma, 1/p, a, p).  Its envelope replaces |xi|^p / p
    by the tangent in |xi| at x0 = max(|mode|, 1), of slope s = x0^{p-1}: each
    side is a half-line law exp(-lam x - a x^2), lam = s -+ n gamma y, picked
    by its exact mass and kept with probability exp(tangent - |xi|^p / p),
    which is 1 at p = 1.  Raises univariate.SamplerError if draws are left
    after univariate.MAX_ROUNDS rounds.
    """
    if m.spec.scheme != "linear":
        raise ValueError("white noise model uses the linear scheme")
    y = data.y.values
    if len(y) != m.spec.size:
        raise ValueError("data length must equal the spec truncation")
    if not (data.n > 0 and np.isfinite(y).all()):
        raise ValueError("white noise data need n > 0 and finite observations")
    g = m.spec.gamma()
    n = data.n
    p = m.spec.p
    if method == "auto":
        method = "conjugate" if p == 2.0 else "rejection"

    if method == "conjugate":
        if p != 2.0:
            raise ValueError("conjugate sampling requires p = 2")
        mean_u, var_u = wn_conjugate_moments(data, m)
        u = mean_u + np.sqrt(var_u) * rng.standard_normal((draws, len(y)))
        return PosteriorChain(u / g, m.spec, 1.0, {"method": "conjugate"})

    if method != "rejection":
        raise ValueError(f"unknown method {method!r}")

    a = n * g**2 / 2.0
    x0 = np.maximum(univariate.prox(np.abs(y) / g, 1.0 / p, a, p)[0], 1.0)
    s = x0 ** (p - 1.0)
    lam = np.stack([s - n * g * y, s + n * g * y])  # xi >= 0, xi < 0
    # a side holds sqrt(pi / a) e^{lam^2 / (4a)} Phi(-lam / sqrt(2a)); the two
    # lam^2 / (4a) differ by exactly -2 s y / gamma
    log_odds = -2.0 * s * y / g + np.subtract(*special.log_ndtr(-lam / np.sqrt(2.0 * a)))
    p_plus = special.expit(log_odds)
    col = np.tile(np.arange(len(y)), draws)
    xi = np.empty(draws * len(y))
    todo = np.arange(xi.size)
    accept = []  # per rejection round
    while todo.size:
        if len(accept) == univariate.MAX_ROUNDS:
            raise univariate.SamplerError(
                f"white-noise rejection: {todo.size} draws left after {len(accept)} rounds"
            )
        c = col[todo]
        minus = (rng.random(todo.size) >= p_plus[c]).astype(int)
        x = univariate.halfline_sample(lam[minus, c], a[c], rng)
        gap = (x**p - x0[c] ** p) / p - s[c] * (x - x0[c])  # exactly 0 at p = 1
        tight = gap > 0.0
        ok = ~tight
        ok[tight] = rng.standard_exponential(int(tight.sum())) >= gap[tight]
        xi[todo[ok]] = np.where(minus[ok], -x[ok], x[ok])
        accept.append(float(ok.mean()))
        todo = todo[~ok]
    log = {"method": "rejection", "rounds": len(accept),
           "first_round_accept": accept[0] if accept else 1.0}
    return PosteriorChain(xi.reshape(draws, len(y)), m.spec, 1.0, log)


def wn_error_radii(chain: PosteriorChain, w0) -> np.ndarray:
    """||u^{(s)} - w0||_2 per draw.

    The truth may be longer or shorter than the model truncation; the missing
    coordinates of either side count as zeros.
    """
    w = w0.values if isinstance(w0, CoefVec) else np.asarray(w0, dtype=float)
    u = chain.u
    ncommon = min(u.shape[1], len(w))
    sq = ((u[:, :ncommon] - w[:ncommon]) ** 2).sum(axis=1)
    if u.shape[1] > ncommon:
        sq += (u[:, ncommon:] ** 2).sum(axis=1)
    if len(w) > ncommon:
        sq += float((w[ncommon:] ** 2).sum())
    return np.sqrt(sq)


def _log_int_exp(W: np.ndarray) -> tuple[float, np.ndarray]:
    """log int_0^1 e^w for w linear between equally spaced node values W, and
    each node segment's share of that integral.

    The integral is exact: a segment of width h with end values a, b holds
    h e^{max(a,b)} (1 - e^{-d}) / d with d = |b - a|.  The shape factor
    (1 - e^{-d}) / d rounds to exactly 1 for every d below about 1e-16, so
    flooring d at the smallest normal float changes no value and avoids 0 / 0.
    """
    a, b = W[:-1], W[1:]
    d = np.maximum(np.abs(b - a), _TINY)
    top = np.maximum(a, b)
    mx = top.max()
    seg = np.exp(top - mx) * (-np.expm1(-d) / d)
    total = seg.sum()
    return mx + math.log(total / len(d)), seg / total


def de_density(u: CoefVec, basis: WaveletBasis) -> np.ndarray:
    """exp(W) / int exp(W) at ``basis.node_grid()``, exactly normalized; the
    log-density is linear between the nodes, so these values define it."""
    W = evaluate_function(u, basis, basis.node_grid())
    return np.exp(W - _log_int_exp(W)[0])


def de_simulate(
    w0: CoefVec, basis: WaveletBasis, n: int, rng: np.random.Generator
) -> DensitySample:
    """Exact inverse-CDF sampling from the truth: a node segment by its mass,
    then the closed-form inverse of the segment CDF (e^{st} - 1) / (e^s - 1)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    nodes = basis.node_grid()
    W = evaluate_function(w0, basis, nodes)
    mass = _log_int_exp(W)[1]
    cdf = np.cumsum(mass)
    u = rng.random(n)
    pos = np.minimum(np.searchsorted(cdf, u, side="right"), len(mass) - 1)
    v = np.clip((u - cdf[pos] + mass[pos]) / mass[pos], 0.0, 1.0)
    s = np.diff(W)[pos]
    t = np.divide(np.log1p(v * np.expm1(s)), s, out=v.copy(), where=s != 0.0)
    return DensitySample(nodes[pos] + np.clip(t, 0.0, 1.0) * nodes[1], n)


def hellinger(p1, p2) -> float:
    """Hellinger distance between two densities given at the same nodes, as
    ``de_density`` returns them.  With l = log p and I = log int exp, the
    affinity A has log A = I((l1 + l2) / 2) - (I(l1) + I(l2)) / 2 (which also
    normalizes both inputs), and H^2 = 2 - 2A."""
    if not (np.all(np.greater(p1, 0.0)) and np.all(np.greater(p2, 0.0))):
        raise ValueError("densities must be positive")
    l1, l2 = np.log(p1), np.log(p2)
    i1, i2, i12 = (_log_int_exp(w)[0] for w in (l1, l2, (l1 + l2) / 2.0))
    return math.sqrt(max(0.0, -2.0 * math.expm1(i12 - (i1 + i2) / 2.0)))


def de_posterior_mcmc(
    sample: DensitySample,
    m: PExpMeasure,
    basis: WaveletBasis,
    cfg: ChainConfig,
    rng: np.random.Generator,
) -> PosteriorChain:
    """Adaptive random-walk Metropolis on whitened coefficients.

    Proposals update one resolution level at a time; each level's scale is
    adapted toward the 0.234 acceptance target during burn-in and then
    frozen.  The log-posterior is sum_i W(X_i) - n log int e^W - sum |xi|^p / p.
    The likelihood term is linear in the coefficients: sum_i W(X_i) =
    (gamma S) . xi with S_l = sum_i psi_l(X_i), built once per chain, so a
    proposal costs one dot product whatever n is.  W is kept only on the
    basis node grid, where the normalizer is exact (``_log_int_exp``).
    """
    if m.spec.scheme != "dyadic":
        raise ValueError("density model requires a dyadic spec")
    K = m.spec.levels
    if K > basis.levels:
        raise ValueError("spec levels exceed basis levels")
    p = m.spec.p
    gamma = m.spec.gamma()
    X = np.asarray(sample.points, dtype=float)
    n = len(X)
    S = np.zeros(m.spec.size)
    for idx, val in basis.gather(X)[: K + 1]:
        S += np.bincount(idx, weights=val, minlength=m.spec.size)
    gS = gamma * S
    nodes = basis.node_grid()
    levels = []  # per level: coefficient slice, its node gather and gamma
    for k, (gidx, gval) in enumerate(basis.gather(nodes)[: K + 1]):
        sl = slice(2**k - 1, 2 ** (k + 1) - 1)
        levels.append((sl, gidx - sl.start, gval, gamma[sl]))

    xi = np.zeros(m.spec.size)
    Wg = np.zeros(len(nodes))
    lpost = 0.0  # at xi = 0, W = 0 and log Z = 0: every term vanishes

    scales = np.full(K + 1, INIT_SCALE)
    acc = np.zeros(K + 1)
    tries = np.zeros(K + 1)
    acc_post = 0
    tries_post = 0
    kept = []
    total = cfg.burn_in + cfg.draws * cfg.thin
    for it in range(total):
        for k, (sl, gidx, gval, gam) in enumerate(levels):
            step = scales[k] * rng.standard_normal(2**k)
            Wg2 = Wg + (gam * step)[gidx] * gval
            xi2 = xi.copy()
            xi2[sl] += step
            prior = float((np.abs(xi2) ** p).sum()) / p
            lpost2 = float(gS @ xi2) - n * _log_int_exp(Wg2)[0] - prior
            if not math.isfinite(lpost2):
                raise FloatingPointError(f"non-finite log-posterior at level {k}")
            accept = np.log(rng.random()) < lpost2 - lpost
            if accept:
                xi, Wg, lpost = xi2, Wg2, lpost2
            tries[k] += 1
            acc[k] += accept
            if it >= cfg.burn_in:
                tries_post += 1
                acc_post += accept
            elif tries[k] % ADAPT_BATCH == 0:
                rate = acc[k] / tries[k]
                scales[k] *= np.exp(0.5 * (rate - TARGET_ACCEPT))
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            kept.append(xi.copy())
    rate_post = acc_post / max(tries_post, 1)
    return PosteriorChain(
        np.array(kept),
        m.spec,
        float(rate_post),
        {
            "scales": scales.copy(),
            "per_level_accept": (acc / np.maximum(tries, 1)).copy(),
            "warning": None if 0.1 <= rate_post <= 0.5 else "acceptance outside [0.1, 0.5]",
        },
    )
