"""The two statistical models: white noise (sequence form) and density
estimation on [0, 1].

White noise observations are y_ell = w0_ell + n^{-1/2} z_ell; the posterior
under a p-exponential prior factorizes over coordinates, so it is sampled
exactly: conjugate at p = 2, else by ``univariate.tilted_sample``, whose
truncated-Gaussian envelope is exact at p = 1.  The density model
exponentiates a Faber-Schauder expansion, linear between dyadic nodes so
that its normalizer is exact on the node grid, and runs adaptive random-walk
Metropolis in whitened coordinates, one level per proposal, accepted on that
level's log-posterior change.  Its likelihood sum_i W(X_i) = S . u,
S_l = sum_i psi_l(X_i), enters a chain only via S.  Per iteration the chain
makes two draws (normals, uniforms), computes every level's proposal, prior
sum, likelihood term, node increment and normalizer at once and, after an
accept, passes the levels above again from the new W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import univariate
from .measure import PExpMeasure, WaveletBasis, evaluate_function
from .sequences import CoefVec, coef_values


@dataclass(frozen=True)
class WhiteNoiseData:
    n: float
    y: CoefVec


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
    """Kept draws, burn-in and thinning of one chain; ``ExperimentConfig``
    holds their defaults."""

    draws: int
    burn_in: int
    thin: int

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
    w = coef_values(w0)
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
    data: WhiteNoiseData, m: PExpMeasure, draws: int, rng: np.random.Generator
) -> PosteriorChain:
    """Exact independent joint posterior draws, all coordinates at once, of xi
    prop. to exp(-a xi^2 + b xi - |xi|^p / p), a = n gamma^2 / 2, b = n gamma
    y: conjugate at p = 2 (one (draws, N) block of standard normals), else
    ``univariate.tilted_sample``, whose log is the step log."""
    if m.spec.scheme != "linear":
        raise ValueError("white noise model uses the linear scheme")
    y = data.y.values
    if len(y) != m.spec.size:
        raise ValueError("data length must equal the spec truncation")
    if not (data.n > 0 and np.isfinite(y).all()):
        raise ValueError("white noise data need n > 0 and finite observations")
    if m.spec.p != 2.0:
        g, n = m.spec.gamma(), data.n
        a, b = n * g**2 / 2.0, n * g * y
        xi, log = univariate.tilted_sample(m.spec.p, a, b, rng, (draws, len(y)))
        return PosteriorChain(xi, m.spec, 1.0, {"method": "rejection", **log})
    mean_u, var_u = wn_conjugate_moments(data, m)
    xi = rng.standard_normal((draws, len(y)))
    xi *= np.sqrt(var_u)
    xi += mean_u
    xi /= m.spec.gamma()
    return PosteriorChain(xi, m.spec, 1.0, {"method": "conjugate"})


RADII_BLOCK_FLOATS = 2**16  # entries of wn_error_radii's one scratch block


def wn_error_radii(chain: PosteriorChain, w0) -> np.ndarray:
    """||u^{(s)} - w0||_2 per draw.

    The truth may be longer or shorter than the model truncation; the missing
    coordinates of either side count as zeros.  Draws go through one scratch
    block of about RADII_BLOCK_FLOATS entries, whole rows at a time, in place
    of a full copy of ``chain.u``; each row's sums are those of the full
    array, so the radii do not depend on the block size.
    """
    w = coef_values(w0)
    xi, g = chain.xi, chain.spec.gamma()
    draws, N = xi.shape
    ncommon = min(N, len(w))
    rows = max(1, min(draws, RADII_BLOCK_FLOATS // max(N, 1)))
    block = np.empty((rows, N))
    parts = []
    for start in range(0, draws, rows):
        rows_xi = xi[start : start + rows]
        u = np.multiply(rows_xi, g, out=block[: len(rows_xi)])
        u[:, :ncommon] -= w[:ncommon]
        np.square(u, out=u)
        part = u[:, :ncommon].sum(axis=1)
        if N > ncommon:
            part += u[:, ncommon:].sum(axis=1)
        parts.append(part)
    sq = np.concatenate(parts) if parts else np.zeros(0)
    if len(w) > ncommon:
        sq += float((w[ncommon:] ** 2).sum())
    return np.sqrt(sq)


def _log_int_exp(W: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """log int_0^1 e^w for w linear between equally spaced node values W, and
    each node segment's share of that integral, per row along the last axis.

    The integral is exact: a segment of width h with end values a, b holds
    h e^{max(a,b)} (1 - e^{-d}) / d with d = |b - a|.  The shape factor
    (1 - e^{-d}) / d rounds to exactly 1 for every d below about 1e-16, so
    flooring d at the smallest normal float changes no value and avoids 0 / 0.
    Each row's sum and ``math.log`` are those of a call on the row alone.
    """
    a, b = W[..., :-1], W[..., 1:]
    nd = b - a  # -d with d floored; in place, so that two row-sized arrays suffice
    np.negative(np.maximum(np.abs(nd, out=nd), _TINY, out=nd), out=nd)
    shape = np.expm1(nd)
    shape /= nd
    seg = np.maximum(a, b, out=nd)
    mx = seg.max(axis=-1, keepdims=True)
    np.exp(np.subtract(seg, mx, out=seg), out=seg)
    seg *= shape
    total = seg.sum(axis=-1, keepdims=True)
    log_z = [m + math.log(t / nd.shape[-1]) for m, t in zip(mx.flat, total.flat)]
    seg /= total
    return (log_z[0] if W.ndim == 1 else np.reshape(log_z, W.shape[:-1])), seg


def _log_int_exp_shifted(W: np.ndarray, shift: float) -> list[float]:
    """``_log_int_exp(row)[0]`` for each row of a C-contiguous (rows, nodes) W,
    given a nearby ``shift`` (a chain's log Z): a segment with larger end t and
    gap d holds h e^t (1 - e^{-d}) / d, a factor in (0, 1] (d floored as in
    ``_log_int_exp``), so log Z = shift + log mean e^{t - shift} (1 - e^{-d}) / d.
    A row sum below 2^-960 (underflowed terms err by 2^-1074 at most), inf or
    NaN falls back to ``_log_int_exp``.  The rows run as one flat array; each
    row's sum ends in a zero (the segment between two rows, or a pad), so it
    does not depend on the other rows.  Call under ``np.errstate`` ignoring
    over, under, invalid."""
    rows, nodes = W.shape
    f = W.reshape(-1)
    seg = np.empty(f.size)
    top = np.maximum(f[:-1], f[1:], out=seg[:-1])
    nd = np.minimum(f[:-1], f[1:])
    np.minimum(np.subtract(nd, top, out=nd), -_TINY, out=nd)  # -d, floored
    np.exp(np.subtract(top, shift, out=top), out=top)
    top *= np.expm1(nd) / nd
    seg[nodes - 1 :: nodes] = 0.0
    sums = seg.reshape(rows, nodes).sum(axis=1).tolist()
    return [shift + math.log(s / (nodes - 1)) if 2.0**-960 <= s < math.inf
            else _log_int_exp(W[i])[0] for i, s in enumerate(sums)]


def check_depth(u, basis: WaveletBasis) -> None:
    """Raise ValueError if ``u`` (a CoefVec or coefficient rows) has a level
    finer than ``basis``; W is linear between the basis nodes only without one."""
    count = coef_values(u).shape[-1]
    if count > basis.n_coefficients:
        raise ValueError(f"{count} coefficients exceed the {basis.n_coefficients} "
                         f"of the {basis.levels}-level basis")


def de_density(u, basis: WaveletBasis) -> np.ndarray:
    """exp(W) / int exp(W) at ``basis.node_grid()``, exactly normalized; the
    log-density is linear between the nodes, so these values define it.
    ``u`` is a dyadic CoefVec or an array of coefficient rows, as
    ``evaluate_function`` takes it; rows give one density each.  The basis
    fixes the node grid; u may be coarser than it, not finer (ValueError)."""
    check_depth(u, basis)
    W = evaluate_function(u, basis.node_grid())
    return np.exp(W - np.expand_dims(_log_int_exp(W)[0], -1))


def de_simulate(
    w0: CoefVec, basis: WaveletBasis, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n points in [0, 1] from the density of ``w0`` on ``basis.node_grid()``
    (as ``de_density`` gives it), by exact inverse-CDF sampling: a node
    segment by its mass, then the closed-form inverse of the segment CDF
    (e^{st} - 1) / (e^s - 1).  A w0 finer than ``basis`` raises ValueError."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    check_depth(w0, basis)
    nodes = basis.node_grid()
    W = evaluate_function(w0, nodes)
    mass = _log_int_exp(W)[1]
    cdf = np.cumsum(mass)
    u = rng.random(n)
    pos = np.minimum(np.searchsorted(cdf, u, side="right"), len(mass) - 1)
    v = np.clip((u - cdf[pos] + mass[pos]) / mass[pos], 0.0, 1.0)
    s = np.diff(W)[pos]
    t = np.divide(np.log1p(v * np.expm1(s)), s, out=v.copy(), where=s != 0.0)
    return nodes[pos] + np.clip(t, 0.0, 1.0) * nodes[1]


def hellinger(p1, p2):
    """Hellinger distance between two densities given at the same nodes, as
    ``de_density`` returns them.  With l = log p and I = log int exp, the
    affinity A has log A = I((l1 + l2) / 2) - (I(l1) + I(l2)) / 2 (which also
    normalizes both inputs), and H^2 = 2 - 2A.  ``p1`` may hold one density
    per row; then l2 and I(l2) are computed once and an array of distances
    is returned."""
    if not (np.all(np.greater(p1, 0.0)) and np.all(np.greater(p2, 0.0))):
        raise ValueError("densities must be positive")
    l1, l2 = np.log(p1), np.log(p2)
    i1, i2 = np.ravel(_log_int_exp(l1)[0]), _log_int_exp(l2)[0]
    l1 += l2  # l1's buffer now holds (l1 + l2) / 2, one row-sized array fewer
    i12 = np.ravel(_log_int_exp(np.divide(l1, 2.0, out=l1))[0])
    h = [math.sqrt(max(0.0, -2.0 * math.expm1(a - (b + i2) / 2.0))) for a, b in zip(i12, i1)]
    return h[0] if l1.ndim == 1 else np.array(h)


def de_posterior_mcmc(
    points: np.ndarray, m: PExpMeasure, cfg: ChainConfig, rng: np.random.Generator
) -> PosteriorChain:
    """Adaptive random-walk Metropolis on whitened coefficients, on the hat
    basis of m's levels, ``WaveletBasis(m.spec.levels)``, given the observed
    ``points`` in [0, 1] (as ``de_simulate`` returns them; n = len(points)).

    Proposals update one resolution level at a time; each level's scale is
    adapted toward the 0.234 acceptance target during burn-in and then
    frozen.  The log-posterior is (gamma S) . xi - n log Z - sum |xi|^p / p,
    Z = int e^W, as sum_i W(X_i) is linear in xi: S_l = sum_i psi_l(X_i).  A
    step at level k is accepted on the level's own difference (gamma S)_k .
    step - n (log Z' - log Z) - (sum |xi_k'|^p - sum |xi_k|^p) / p, from the
    cached log Z and per-level prior sums, so its cost does not grow with n.

    Each iteration draws twice: a standard normal per coefficient (a step is
    its level's scale times these), then K + 1 uniforms, level k accepting
    when log u_k is below its difference.  Then it computes once, for all
    levels: the proposed coefficients xi + step, the per-level prior sums
    and likelihood terms (one ``np.add.reduceat`` each) and every level's
    increment of W on the node grid (one gather).
    The proposals W' = W + dW_k and their log Z' are one batched pass
    (``_log_int_exp_shifted``), re-run on levels k+1..K only when level k is
    accepted.  The full log-posterior is computed at the end.
    Raises ValueError when gamma S is not finite.
    """
    if m.spec.scheme != "dyadic":
        raise ValueError("density model requires a dyadic spec")
    K = m.spec.levels
    basis = WaveletBasis(K)
    p = m.spec.p
    gamma = m.spec.gamma()
    X = np.asarray(points, dtype=float)
    n = len(X)
    S = np.zeros(m.spec.size)
    for idx, val in basis.gather(X):
        S += np.bincount(idx, weights=val, minlength=m.spec.size)
    with np.errstate(over="ignore"):
        gS = gamma * S
    if not np.isfinite(gS).all():
        raise ValueError(f"gamma * S overflows at prior scale lam={m.spec.lam:g}")
    nodes = basis.node_grid()
    grid = basis.gather(nodes)
    idx = np.stack([gidx for gidx, _ in grid])  # (K + 1, nodes): each level's node gather
    gval = np.stack([gv * gamma[gidx] for gidx, gv in grid])  # with gamma folded in
    sizes = 2 ** np.arange(K + 1)
    starts = sizes - 1  # level k holds coefficients starts[k] .. 2 starts[k]
    slices = [slice(s, 2 * s + 1) for s in starts.tolist()]

    xi = np.zeros(m.spec.size)
    Wg = np.zeros(nodes.shape)
    log_z = 0.0  # at xi = 0, W = 0
    prior = [0.0] * (K + 1)  # per level: sum |xi_k|^p
    scales = [INIT_SCALE] * (K + 1)
    acc, acc_post = [0] * (K + 1), 0  # accepts per level, and after burn-in
    kept = np.empty((cfg.draws, m.spec.size))
    z = np.empty(m.spec.size)  # the iteration's standard normals
    scale_of = np.repeat(scales, sizes)  # per coefficient
    total = cfg.burn_in + cfg.draws * cfg.thin
    # divide: log u = -inf at u = 0, which accepts
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for it in range(total):
            adapt = it < cfg.burn_in and (it + 1) % ADAPT_BATCH == 0
            rng.standard_normal(out=z)
            log_u = np.log(rng.random(K + 1)).tolist()
            step = z * scale_of
            xs = xi + step
            pk = np.add.reduceat(np.abs(xs) ** p, starts).tolist()
            lik = np.add.reduceat(gS * step, starts).tolist()
            dW = step[idx]
            dW *= gval
            for k, sl in enumerate(slices):
                if k == 0 or moved:  # levels k..K's proposals, from the current W
                    base, moved, W2 = k, False, Wg + dW[k:]
                    log_z2 = _log_int_exp_shifted(W2, log_z)
                delta = lik[k] - n * (log_z2[k - base] - log_z) - (pk[k] - prior[k]) / p
                if not math.isfinite(delta):
                    raise FloatingPointError(f"non-finite log-posterior at level {k}")
                if log_u[k] < delta:
                    xi[sl], Wg, log_z, prior[k] = xs[sl], W2[k - base], log_z2[k - base], pk[k]
                    moved = True
                    acc[k] += 1
                    acc_post += it >= cfg.burn_in
                if adapt:
                    scales[k] *= np.exp(0.5 * (acc[k] / (it + 1) - TARGET_ACCEPT))
                    scale_of[sl] = scales[k]
            if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
                kept[(it - cfg.burn_in) // cfg.thin] = xi
    rate_post = acc_post / (cfg.draws * cfg.thin * (K + 1))
    lpost = float(gS @ xi) - n * _log_int_exp(Wg)[0] - float((np.abs(xi) ** p).sum()) / p
    return PosteriorChain(
        kept,
        m.spec,
        rate_post,
        {
            "scales": np.array(scales),
            "per_level_accept": np.array(acc) / total,
            "log_posterior": lpost,
            "warning": None if 0.1 <= rate_post <= 0.5 else "acceptance outside [0.1, 0.5]",
        },
    )
