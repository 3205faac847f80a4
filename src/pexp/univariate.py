"""Univariate p-exponential distribution, density c_p * exp(-|x|^p / p).

For p = 1 this is the standard Laplace distribution, for p = 2 the standard
normal.  The normalizing constant is c_p = 1 / (2 p^{1/p} Gamma(1 + 1/p)).
All functions accept scalars or numpy arrays in ``x`` / ``u`` and are pure;
sampling takes an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

MAX_ROUNDS = 10_000  # at 2% acceptance a draw outlives 10^4 rounds w.p. 0.98^1e4 < 1e-87


class SamplerError(RuntimeError):
    """A rejection sampler left draws unaccepted after MAX_ROUNDS rounds."""


@dataclass(frozen=True)
class PExpParams:
    """Exponent p of the distribution, restricted to [1, 2]."""

    p: float

    def __post_init__(self):
        if not (1.0 <= self.p <= 2.0):
            raise ValueError(f"p must lie in [1, 2], got {self.p}")

    @property
    def norm_const(self) -> float:
        """c_p = 1 / (2 p^{1/p} Gamma(1 + 1/p))."""
        p = self.p
        return 1.0 / (2.0 * p ** (1.0 / p) * math.gamma(1.0 + 1.0 / p))

    @property
    def tail_lower_const(self) -> float:
        """r1 = 2 c_p e^{-1/p}, the slope of the lower bound P(|xi| <= x) >= r1 x on (0, 1]."""
        return 2.0 * self.norm_const * math.exp(-1.0 / self.p)


def pdf(params: PExpParams, x):
    """Density c_p exp(-|x|^p / p)."""
    x = np.asarray(x, dtype=float)
    out = params.norm_const * np.exp(-np.abs(x) ** params.p / params.p)
    return out if out.ndim else float(out)


def _cdf_generic(params: PExpParams, x):
    """CDF via the regularized lower incomplete gamma of |x|^p / p with shape 1/p."""
    x = np.asarray(x, dtype=float)
    p = params.p
    return 0.5 * (1.0 + np.sign(x) * special.gammainc(1.0 / p, np.abs(x) ** p / p))


def cdf(params: PExpParams, x):
    """P(X <= x).  Closed forms at p = 1 (Laplace) and p = 2 (normal)."""
    x = np.asarray(x, dtype=float)
    if params.p == 1.0:
        tail = 0.5 * np.exp(-np.abs(x))
        out = np.where(x < 0, tail, 1.0 - tail)
    elif params.p == 2.0:
        out = special.ndtr(x)
    else:
        out = _cdf_generic(params, x)
    return out if out.ndim else float(out)


def abs_cdf(params: PExpParams, r):
    """P(|X| <= r) for r >= 0 in one evaluation, free of the cancellation in
    cdf(r) - cdf(-r) at small r; |X|^p / p ~ Gamma(1/p, 1)."""
    r = np.asarray(r, dtype=float)
    p = params.p
    if p == 1.0:
        out = -np.expm1(-r)
    elif p == 2.0:
        out = special.erf(r / math.sqrt(2.0))
    else:
        out = special.gammainc(1.0 / p, r**p / p)
    return out if out.ndim else float(out)


def _quantile_generic(params: PExpParams, u):
    u = np.asarray(u, dtype=float)
    p = params.p
    mag = (p * special.gammaincinv(1.0 / p, np.abs(2.0 * u - 1.0))) ** (1.0 / p)
    return np.sign(u - 0.5) * mag


def quantile(params: PExpParams, u):
    """Inverse CDF on (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile requires 0 < u < 1")
    if params.p == 1.0:
        out = np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
    elif params.p == 2.0:
        out = special.ndtri(u)
    else:
        out = _quantile_generic(params, u)
    return out if out.ndim else float(out)


def sample(params: PExpParams, rng: np.random.Generator, size=None):
    """Exact draw, with one generator draw per coordinate plus one uniform at p < 2.

    p = 1: ``abs_sample`` times a random sign.  p = 2: a standard normal.
    1 < p < 2: X = (p G)^{1/p} (2 U - 1) with G ~ Gamma(1 + 1/p, 1) and
    U ~ U(0, 1).  The density is decreasing in |x|, so X is a uniform on
    (-R, R) mixed over R (Khinchine's theorem; Devroye, Non-Uniform Random
    Variate Generation, 1986), and the mixing law of R^p / p is
    Gamma(1 + 1/p, 1).
    """
    p = params.p
    if p == 1.0:
        e = abs_sample(params, rng, size)
        out = np.where(rng.random(size=size) < 0.5, -1.0, 1.0) * e
    elif p == 2.0:
        out = rng.standard_normal(size=size)
    else:
        g = rng.standard_gamma(1.0 + 1.0 / p, size=size)
        out = (p * g) ** (1.0 / p) * (2.0 * rng.random(size=size) - 1.0)
    return out if np.ndim(out) else float(out)


def abs_sample(params: PExpParams, rng: np.random.Generator, size=None):
    """Exact draw of |X|: a standard exponential at p = 1 (numpy draws
    Gamma(1, 1) as exactly this exponential), else |``sample``|."""
    if params.p == 1.0:
        out = rng.standard_exponential(size=size)
    else:
        out = np.abs(sample(params, rng, size))
    return out if np.ndim(out) else float(out)


def halfline_sample(lam, a, rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the density prop. to exp(-lam x - a x^2) on x >= 0, one
    per entry of the broadcast of ``lam`` and ``a`` (a >= 0, a > 0 if lam <= 0).

    Each round proposes from Exp(lam) accepting with exp(-a x^2) where
    a < pi lam^2 / 4, else from N(-lam/(2a), 1/(2a)): folded at 0 and accepted
    with exp(-lam x) when lam >= 0, or kept when nonnegative when lam < 0.
    With z = lam / (2 sqrt a) the rates are sqrt(pi) z erfcx(z) and erfcx(z),
    both at least erfcx(1/sqrt(pi)) = 0.58 around the switch, and
    Phi(-lam / sqrt(2a)) >= 1/2.  Rejected entries are redrawn; SamplerError
    if any are left after MAX_ROUNDS rounds.
    """
    lam, a = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(a, dtype=float))
    if not (np.isfinite(lam) & np.isfinite(a) & (a >= 0) & ((a > 0) | (lam > 0))).all():
        raise ValueError("halfline_sample needs finite lam, a >= 0, and a > 0 where lam <= 0")
    x = np.empty(lam.shape)
    lam, a, flat = lam.ravel(), a.ravel(), x.reshape(-1)
    todo = np.arange(lam.size)
    rounds = 0
    while todo.size:
        if rounds == MAX_ROUNDS:
            raise SamplerError(f"halfline_sample: {todo.size} draws left after {rounds} rounds")
        rounds += 1
        l, q = lam[todo], a[todo]
        from_exp = (l > 0) & (q < math.pi / 4.0 * l * l)
        z = np.empty(todo.size)
        z[from_exp] = rng.standard_exponential(int(from_exp.sum())) / l[from_exp]
        hn = ~from_exp
        z[hn] = rng.standard_normal(int(hn.sum())) / np.sqrt(2.0 * q[hn])
        whole = hn & (l < 0)
        z[whole] -= l[whole] / (2.0 * q[whole])
        z[hn & ~whole] = np.abs(z[hn & ~whole])
        # where lam < 0 the threshold lam z is <= 0 for z >= 0: kept iff z >= 0
        cost = np.where(from_exp, q * z * z, l * z)
        ok = (rng.standard_exponential(todo.size) >= cost) & (z >= 0)
        flat[todo[ok]] = z[ok]
        todo = todo[~ok]
    return x


def prox(a, c, lam, p: float):
    """argmin_h c h^p + lam (h - a)^2 over h >= 0, coordinatewise for an
    array a >= 0 and c, lam > 0 broadcast against it: the proximal map of
    |x|^p / p with step c p / (2 lam), evaluated at a.

    Returns (h, lo, hi) with lo <= h <= hi a sign bracket of the stationarity
    condition; lo = h = hi at p = 1 (soft threshold) and p = 2 (shrinkage),
    which are closed forms.  Otherwise a safeguarded Newton solve of
    g(h) = c p h^{p-1} - 2 lam (a - h), increasing on (0, a], runs until no
    coordinate moves by more than 4 ulps of itself in a step, at most 90
    steps.
    """
    if p == 1.0:
        h = np.maximum(a - c / (2.0 * lam), 0.0)
        return h, h, h
    if p == 2.0:
        h = lam * a / (lam + c)
        return h, h, h
    lo = np.zeros_like(a)
    hi = a.copy()
    # g is concave, so Newton climbs without overshoot from this start, where
    # g <= 0; it is within 2^{1/(p-1)} of a root below a/2, however small
    with np.errstate(over="ignore"):
        h = np.minimum(0.5 * a, (lam * a / (c * p)) ** (1.0 / (p - 1.0)))
    for _ in range(90):
        g = c * p * h ** (p - 1.0) - 2.0 * lam * (a - h)
        pos = g > 0
        hi = np.where(pos, h, hi)
        lo = np.where(pos, lo, h)
        dg = c * p * (p - 1.0) * np.maximum(h, 1e-300) ** (p - 2.0) + 2.0 * lam
        step = np.where(dg > 0, g / np.where(dg > 0, dg, 1.0), 0.0)
        h_new = h - step
        inside = (h_new >= lo) & (h_new <= hi)
        h_new = np.where(inside, h_new, 0.5 * (lo + hi))
        settled = (np.abs(h_new - h) <= 4.0 * np.spacing(h)).all()
        h = h_new
        if settled:
            break
    return h, lo, hi


def moment(params: PExpParams, k: int) -> float:
    """E|X|^k = p^{k/p} Gamma((k+1)/p) / Gamma(1/p), k >= 1.  Odd signed moments vanish."""
    if k < 1 or int(k) != k:
        raise ValueError("moment order k must be a positive integer")
    p = params.p
    return p ** (k / p) * math.exp(special.gammaln((k + 1) / p) - special.gammaln(1 / p))


def variance(params: PExpParams) -> float:
    return moment(params, 2)
