"""Univariate p-exponential distribution, density c_p * exp(-|x|^p / p).

For p = 1 this is the standard Laplace distribution, for p = 2 the standard
normal.  The normalizing constant is c_p = 1 / (2 p^{1/p} Gamma(1 + 1/p)).
All functions accept scalars or numpy arrays in ``x`` / ``u`` and are pure;
sampling takes an explicit ``numpy.random.Generator``.  The special functions
are numpy code here, so importing pexp loads no scipy.

The CDF is closed form at p = 1.  At p = 2 it is (1/2) erfcx(|x| / sqrt 2)
e^{-x^2/2} in the tails, with erfcx from Cody's rational approximations
(``_erfcx``), and 1/2 + erf(x / sqrt 2) / 2 near 0; P(|X| <= r) is built
from the same two pieces.  At 1 < p < 2 it is
built from the regularized incomplete gammas P and Q of shape 1/p at
t = |x|^p / p, in three ranges of t (``_incomplete_gamma``): a power series
for P below t = 1.5; up to t = 48, Q at the next point of a grid of exact
anchors 1/32 apart plus a 3-node Gauss-Legendre increment, both positive;
beyond that, Legendre's continued fraction for Q (``_upper_gamma_fraction``),
which also gives the anchors.  Against 30-digit references on a dense t grid
at p from 1.01 to 1.99, Q was within 1e-14 relatively, P within 1e-15
relatively and 1 - Q/2 within 4e-16 absolutely.  Both CDFs run over
blocks of CDF_BLOCK points.  The quantile solves the lower tail by a safeguarded
Newton iteration at every p > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

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


# W. J. Cody, "Rational Chebyshev approximations for the error function",
# Math. Comp. 23 (1969) 631-637: the coefficients of his CALERF (netlib
# specfun), highest degree first; each denominator is monic, its leading 1
# left out.
ERF_END = 0.46875  # erf(z) = z A(z^2) / B(z^2) on [0, ERF_END]
_ERF_A = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
          3.77485237685302021e02, 3.20937758913846947e03)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
ERFCX_MID_END = 4.0  # erfcx(z) = C(z) / D(z) on (ERF_END, ERFCX_MID_END]
_ERFCX_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
            6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
            1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_ERFCX_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
            1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
            3.43936767414372164e03, 1.23033935480374942e03)
# beyond: erfcx(z) = (1/sqrt(pi) - s P(s) / Q(s)) / z with s = 1 / z^2
_ERFCX_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
            1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFCX_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
            6.05183413124413191e-2, 2.33520497626869185e-3)
_SQRT_HALF = math.sqrt(0.5)
_SPLIT = 2.0**20  # x = h + (x - h) with h a multiple of 2^-20, so h^2 is exact for |x| < 64
# points per block of the CDF kernels, which make a few dozen temporaries
# each: larger blocks spill them out of the cache
CDF_BLOCK = 16384


def _rational(x, num, den):
    """num(x) / den(x) by Horner's rule in Cody's order of operations, for
    coefficients highest degree first and a monic den, its leading 1 left out."""
    top = x * num[0]
    top += num[1]
    for c in num[2:]:
        top *= x
        top += c
    bottom = x + den[0]
    for c in den[1:]:
        bottom *= x
        bottom += c
    top /= bottom
    return top


def _erf_small(y):
    """erf(y) = y A(y^2) / B(y^2) for |y| <= ERF_END, elementwise; it keeps
    its relative precision however small y is."""
    acc = _rational(y * y, _ERF_A, _ERF_B)
    acc *= y
    return acc


def _erfcx(z):
    """erfcx(z) = e^{z^2} erfc(z) for z >= 0 (or NaN), elementwise, in Cody's
    three ranges: e^{z^2} (1 - erf z) up to ERF_END, a rational in z up to
    ERFCX_MID_END and a rational in 1 / z^2 beyond, which gives erfcx(inf) = 0.
    Against 40-digit references it was within 7e-16 relatively on [0, 1e6]."""
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    # positions, not boolean masks, as in _incomplete_gamma; an empty range
    # is skipped, as its dozens of array operations dominate a small call
    near = np.flatnonzero(flat <= ERF_END)
    middle = np.flatnonzero((flat > ERF_END) & (flat <= ERFCX_MID_END))
    far = np.flatnonzero(~(flat <= ERFCX_MID_END))  # inf and NaN included
    if near.size:
        y = flat[near]
        acc = 1.0 - _erf_small(y)
        acc *= np.exp(y * y)
        out[near] = acc
    if middle.size:
        out[middle] = _rational(flat[middle], _ERFCX_C, _ERFCX_D)
    if far.size:
        y = flat[far]
        s = 1.0 / y
        s *= s  # no overflow where z^2 would
        acc = _rational(s, _ERFCX_P, _ERFCX_Q)
        acc *= -s
        acc += 1.0 / math.sqrt(math.pi)
        acc /= y
        out[far] = acc
    return out.reshape(z.shape)


def _normal_tail(x):
    """Phi(x) for |x| / sqrt 2 > ERF_END (or NaN): the tail T = (1/2)
    erfcx(|x| / sqrt 2) e^{-x^2/2}, as T below 0 and 1 - T above.  Where no
    entry lies beyond ERFCX_MID_END, erfcx is the middle rational of
    ``_erfcx`` without its search for ranges.  With h = |x| rounded down to a
    multiple of 2^-20, x^2 = h^2 + (|x| - h)(|x| + h) and h^2 is exact, so
    e^{-x^2/2} is the product of two exponentials of nearly exact arguments
    and the lower tail keeps its relative precision down to Phi(-37.5) ~
    5e-308.  |x| is capped at 40, where T has underflowed to 0."""
    r = np.abs(x)
    z = r * _SQRT_HALF
    if z.max() <= ERFCX_MID_END:  # False where any entry is NaN
        tail = _rational(z, _ERFCX_C, _ERFCX_D)
    else:
        tail = _erfcx(z)
        np.minimum(r, 40.0, out=r)
    h = np.floor(r * _SPLIT)
    h /= _SPLIT
    tail *= 0.5
    tail *= np.exp(-0.5 * h * h)
    d = r - h  # exact
    d *= r + h
    d *= -0.5
    tail *= np.exp(d)
    np.subtract(1.0, tail, out=tail, where=x > 0)
    return tail


def _cdf_normal(x):
    """Phi(x): 1/2 + erf(x / sqrt 2) / 2 where |x| / sqrt 2 <= ERF_END, else
    ``_normal_tail``."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, CDF_BLOCK):
        xb, ob = flat[start : start + CDF_BLOCK], out[start : start + CDF_BLOCK]
        y = xb * _SQRT_HALF
        small = np.abs(y) <= ERF_END
        near = np.flatnonzero(small)
        if near.size:
            acc = _erf_small(y[near])
            acc *= 0.5
            acc += 0.5
            ob[near] = acc
        tails = np.flatnonzero(~small)  # NaN included
        if tails.size:
            ob[tails] = _normal_tail(xb[tails])
    return out.reshape(x.shape)


def _abs_cdf_normal(r):
    """P(|X| <= r) at p = 2: erf(r / sqrt 2) by ``_erf_small`` where r /
    sqrt 2 <= ERF_END, so it keeps its relative precision however small r
    is, else 1 - 2 Phi(-r) by ``_normal_tail``."""
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    out = np.empty_like(flat)
    y = flat * _SQRT_HALF
    small = y <= ERF_END
    near = np.flatnonzero(small)
    if near.size:
        out[near] = _erf_small(y[near])
    tails = np.flatnonzero(~small)  # NaN included
    if tails.size:
        acc = _normal_tail(-flat[tails])
        acc *= -2.0
        acc += 1.0
        out[tails] = acc
    return out.reshape(r.shape)


SERIES_END = 1.5  # below: P by its power series
SERIES_TERMS = 22  # the series tail left out is < 1.4e-18 of the sum at t <= 1.5
ANCHORS_PER_UNIT = 32  # the anchors of the middle range are 1/32 apart
ANCHOR_END = 48.0  # above: the continued fraction on those points alone
INCREMENT_NODES = 3  # Gauss-Legendre nodes per increment
FRACTION_TERMS = 60  # depth of the continued fraction; it converges slowest at t = 1.5, a = 1/2


def _upper_gamma_fraction(a: float, t) -> np.ndarray:
    """Q(a, t) for a in [1/2, 1] and t >= SERIES_END (or NaN), elementwise,
    by Legendre's continued fraction (as in DiDonato & Morris, ACM TOMS 12,
    1986): Q = e^-t t^a / Gamma(a) / (t + 1 - a - 1 (1 - a) / (t + 3 - a -
    2 (2 - a) / (t + 5 - a - ...))), cut after FRACTION_TERMS terms and
    evaluated from the last term back, so it costs the same for any input,
    NaN included.  Every partial denominator exceeds t + 1 - a > 0."""
    t = np.asarray(t, dtype=float)
    tail = np.zeros_like(t)
    for i in range(FRACTION_TERMS, 0, -1):
        tail += t + (2 * i + 1 - a)
        np.divide(i * (a - i), tail, out=tail)
    tail += t + (1.0 - a)
    out = np.exp(-t)
    out *= t**a
    out /= math.gamma(a) * tail
    return out


@lru_cache(maxsize=8)
def _gamma_table(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For shape a: the series coefficients a^a / Gamma(a + k + 1), k <
    SERIES_TERMS (a^a = p^{-1/p} turns x into t^a); the exact anchors
    Q(a, k / ANCHORS_PER_UNIT) from SERIES_END to ANCHOR_END; and the
    Gauss-Legendre nodes on [0, 1] with their weights over Gamma(a).  Built
    on a shape's first call."""
    coef = np.empty(SERIES_TERMS)
    coef[0] = a**a / math.gamma(a + 1.0)
    for k in range(1, SERIES_TERMS):
        coef[k] = coef[k - 1] / (a + k)
    k = np.arange(SERIES_END * ANCHORS_PER_UNIT, ANCHOR_END * ANCHORS_PER_UNIT + 1)
    anchors = _upper_gamma_fraction(a, k / ANCHORS_PER_UNIT)
    x, w = leggauss(INCREMENT_NODES)
    return coef, anchors, 0.5 * (1.0 + x), 0.5 * w / math.gamma(a)


def _incomplete_gamma(p: float, x, lower: bool) -> np.ndarray:
    """P if ``lower`` else Q: the regularized lower or upper incomplete gamma
    of shape a = 1/p at t = x^p / p, for x >= 0 (or NaN) elementwise; each
    value depends on its own x only.  The three ranges of t, with f(s) =
    s^(a-1) e^(-s):

    - t < SERIES_END: P = t^a e^-t sum_k t^k / Gamma(a + k + 1), its first
      SERIES_TERMS terms by Horner's rule (the rest is < 1.4e-18 of the
      sum), and Q = 1 - P.  All terms are positive and t^a = x p^(-1/p) is
      taken from x, so P keeps its relative precision down to x = 0, also
      where t underflows, and Q >= Q(1/2, 1.5) = 0.083 here.
    - t up to ANCHOR_END: Q(t) = Q(T) + Gamma(a)^-1 int_t^T f, with T the
      next anchor at or above t and the integral by INCREMENT_NODES-point
      Gauss-Legendre.  Its remainder is at most L^7 (3!)^4 / (7 (6!)^3)
      max |f^(6)| for an interval of length L <= 1/32, and |f^(6)| <= 283 f
      at s >= 1.5, so with the hazard f / (Gamma(a) Q) <= 1.24 there it is
      below 5.1e-15 Q.  The anchors come from ``_upper_gamma_fraction``,
      within 9e-16 relatively of 30-digit references.  Both terms are
      positive, so Q keeps its relative precision.
    - t > ANCHOR_END (or NaN): Q = ``_upper_gamma_fraction`` on those points,
      with t capped at 1000, where Q has underflowed to 0 (x = inf included).

    Elsewhere than the series range P = 1 - Q; only the asked one is formed.
    The Gauss-Legendre terms are summed one node at a time: a matrix product
    would run on BLAS threads that compete with the Monte Carlo pool's.
    """
    a = 1.0 / p
    coef, anchors, nodes, weights = _gamma_table(a)
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, CDF_BLOCK):
        xb, ob = flat[start : start + CDF_BLOCK], out[start : start + CDF_BLOCK]
        with np.errstate(over="ignore"):  # huge x: t = inf, capped below
            t = xb**p
        t /= p
        # positions, not boolean masks: a masked gather or scatter over mixed
        # ranges costs several times an indexed one
        near = np.flatnonzero(t < SERIES_END)
        middle = np.flatnonzero((t >= SERIES_END) & (t <= ANCHOR_END))
        far = np.flatnonzero(~(t <= ANCHOR_END))  # NaN included
        # an empty range is skipped: its array operations dominate a small call
        if near.size:
            s = t[near]
            acc = np.full_like(s, coef[-1])
            for c in coef[-2::-1]:
                acc *= s
                acc += c
            acc *= np.exp(-s)
            acc *= xb[near]
            ob[near] = acc if lower else 1.0 - acc
        if middle.size:
            s = t[middle]
            k = np.ceil(s * ANCHORS_PER_UNIT)  # the next anchor is T = k / ANCHORS_PER_UNIT >= t
            step = k / ANCHORS_PER_UNIT - s
            acc = np.zeros_like(s)
            for node, w in zip(nodes, weights):
                node = s + step * node
                acc += w * np.exp((a - 1.0) * np.log(node) - node)
            acc *= step
            acc += anchors[k.astype(np.intp) - int(SERIES_END * ANCHORS_PER_UNIT)]
            ob[middle] = acc
        if far.size:  # the battery never gets here
            ob[far] = _upper_gamma_fraction(a, np.minimum(t[far], 1000.0))
        if lower:
            rest = np.concatenate([middle, far])
            ob[rest] = 1.0 - ob[rest]
    return out.reshape(x.shape)


def _cdf_generic(params: PExpParams, x):
    """CDF as Q / 2 for x < 0 and 1 - Q / 2 for x >= 0, with Q the upper
    incomplete gamma of shape 1/p at t = |x|^p / p (``_incomplete_gamma``),
    so the lower tail keeps Q's relative precision."""
    x = np.asarray(x, dtype=float)
    half = _incomplete_gamma(params.p, np.abs(x), lower=False)
    half *= 0.5
    np.subtract(1.0, half, out=half, where=x >= 0)
    return half


def cdf(params: PExpParams, x):
    """P(X <= x).  Closed form at p = 1 (Laplace); ``_cdf_normal`` at p = 2
    and the incomplete-gamma ranges of ``_incomplete_gamma`` at 1 < p < 2,
    so the lower tail x < 0 keeps a relative precision of about 1e-14
    however far out, and x >= 0 is within a few units in the last place of
    1.  -inf, inf and NaN give 0, 1 and NaN."""
    x = np.asarray(x, dtype=float)
    if params.p == 1.0:
        tail = 0.5 * np.exp(-np.abs(x))
        out = np.where(x < 0, tail, 1.0 - tail)
    elif params.p == 2.0:
        out = _cdf_normal(x)
    else:
        out = _cdf_generic(params, x)
    return out if out.ndim else float(out)


def abs_cdf(params: PExpParams, r):
    """P(|X| <= r) for r >= 0 in one evaluation, free of the cancellation in
    cdf(r) - cdf(-r) at small r; |X|^p / p ~ Gamma(1/p, 1).  At p = 2 it is
    ``_abs_cdf_normal``; at 1 < p < 2 P of ``_incomplete_gamma``: the power
    series below t = r^p / p = 1.5, which keeps its relative precision
    however small r is, and 1 - Q above, within a few units in the last
    place."""
    r = np.asarray(r, dtype=float)
    if params.p == 1.0:
        out = -np.expm1(-r)
    elif params.p == 2.0:
        out = _abs_cdf_normal(r)
    else:
        out = _incomplete_gamma(params.p, r, lower=True)
    return out if out.ndim else float(out)


def _quantile_generic(params: PExpParams, u):
    """Inverse CDF on (0, 1) at any p from the lower tail G(xi) = cdf(-xi):
    x = -xi below u = 1/2 and xi above, where xi >= 0 solves G(xi) = v,
    v = min(u, 1 - u).  log G is concave (the density is log-concave), so
    Newton on log G - log v descends to the root from above without
    overshoot.  It starts at the upper bound xi^p / p = max(1, -log(2 v
    Gamma(1/p))), where Q(1/p, t) <= t^(1/p - 1) e^-t / Gamma(1/p) <= 2 v,
    keeps (0.5 - v) / c_p (G is convex) as its lower bound, bisects a step
    that leaves the bracket, and runs until no entry moves by more than 4
    ulps of itself in a step, at most 90 steps."""
    u = np.asarray(u, dtype=float)
    p, c = params.p, params.norm_const
    v = np.minimum(u, 1.0 - u)
    log_v = np.log(v)
    lo = (0.5 - v) / c
    hi = (p * np.maximum(1.0, -np.log(2.0 * math.gamma(1.0 / p) * v))) ** (1.0 / p)
    xi = hi
    # a subnormal v can underflow G or the density; such a step bisects
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(90):
            g = cdf(params, -xi)
            f = np.log(g) - log_v
            hi = np.where(f < 0, xi, hi)
            lo = np.where(f > 0, xi, lo)
            new = xi + f * g / pdf(params, xi)  # Newton: f' = -pdf / G
            new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
            settled = not (np.abs(new - xi) > 4.0 * np.spacing(xi)).any()  # NaN settles
            xi = new
            if settled:
                break
    return np.sign(u - 0.5) * xi


def quantile(params: PExpParams, u):
    """Inverse CDF on (0, 1): closed form at p = 1, ``_quantile_generic``
    otherwise, so that cdf(quantile(u)) = u to the CDF's relative precision
    in the lower tail, down to the smallest normal u."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile requires 0 < u < 1")
    if params.p == 1.0:
        out = np.where(u < 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))
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
        out = np.copysign(e, rng.random(size=size) - 0.5)  # minus iff U < 0.5
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

    The stream is fixed by the draw order: each round takes one standard
    exponential per Exp(lam) proposal, then one standard normal per normal
    proposal, each group in C order of its pending entries, then one
    acceptance exponential per pending entry in C order.  Round 1 covers
    every entry; later rounds only the rejected ones.
    """
    lam, a = np.asarray(lam, dtype=float), np.asarray(a, dtype=float)
    if not (np.isfinite(lam).all() and np.isfinite(a).all() and (a >= 0).all()
            and ((a > 0).all() or ((a > 0) | (lam > 0)).all())):
        raise ValueError("halfline_sample needs finite lam, a >= 0, and a > 0 where lam <= 0")
    shape = np.broadcast_shapes(lam.shape, a.shape)
    # Every pass below works on the broadcast through ufunc masks and out=
    # buffers: a round makes two arrays of its size besides its draws, and the
    # parameters stay unbroadcast until the rejected entries are gathered.
    l, q = lam, a  # gathered to the pending entries after round 1
    size = shape or (1,)  # of the current round
    todo = None  # flat positions of the pending entries in x; None in round 1, which makes x
    rounds = 0
    while todo is None or todo.size:
        if rounds == MAX_ROUNDS:
            raise SamplerError(f"halfline_sample: {todo.size} draws left after {rounds} rounds")
        rounds += 1
        buf = np.multiply(math.pi / 4.0, l, out=np.empty(size))
        buf *= l
        from_exp = np.less(q, buf)
        from_exp &= l > 0
        hn = ~from_exp
        z = np.empty(size)
        k = np.count_nonzero(from_exp)
        z[from_exp] = rng.standard_exponential(k)
        np.divide(z, l, out=z, where=from_exp)
        z[hn] = rng.standard_normal(z.size - k)
        two_q = 2.0 * q
        np.divide(z, np.sqrt(two_q), out=z, where=hn)
        # where lam < 0 the whole normal is kept iff z >= 0 (its cost lam z is <= 0)
        neg = l < 0
        whole = hn & neg
        np.divide(l, two_q, out=buf, where=whole)
        np.subtract(z, buf, out=z, where=whole)
        np.absolute(z, out=z, where=hn & ~neg)
        cost = buf
        np.multiply(q, z, out=cost, where=from_exp)
        np.multiply(cost, z, out=cost, where=from_exp)
        np.multiply(l, z, out=cost, where=hn)
        ok = rng.standard_exponential(size) >= cost
        ok &= z >= 0
        rejected = np.flatnonzero(~ok)
        if todo is None:
            x, todo = z, rejected
        else:
            kept = np.flatnonzero(ok)
            x.reshape(-1)[todo[kept]] = z[kept]
            todo = todo[rejected]
        pending = np.unravel_index(rejected, size)
        l, q = np.broadcast_to(l, size)[pending], np.broadcast_to(q, size)[pending]
        size = todo.shape
    return x.reshape(shape)


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
    return p ** (k / p) * math.gamma((k + 1) / p) / math.gamma(1 / p)


def variance(params: PExpParams) -> float:
    return moment(params, 2)
