"""Univariate p-exponential distribution, density c_p * exp(-|x|^p / p).

For p = 1 this is the standard Laplace distribution, for p = 2 the standard
normal.  The normalizing constant is c_p = 1 / (2 p^{1/p} Gamma(1 + 1/p)).
All functions accept scalars or numpy arrays in ``x`` / ``u`` and are pure;
sampling takes an explicit ``numpy.random.Generator``.

The CDF is closed form at p = 1 and p = 2.  At 1 < p < 2 it is built from
the regularized incomplete gammas P and Q of shape 1/p at t = |x|^p / p, in
three ranges of t (``_incomplete_gammas``): a power series for P below
t = 1.5; up to t = 48, Q at the next point of a grid of exact anchors 1/32
apart plus a 3-node Gauss-Legendre increment, both positive; beyond that,
``special.gammaincc``.  Against 30-digit references on a dense t grid at
p from 1.01 to 1.99, Q was within 1e-14 relatively, P within 1e-15
relatively and 1 - Q/2 within 4e-16 absolutely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


SERIES_END = 1.5  # below: P by its power series
SERIES_TERMS = 22  # the series tail left out is < 1.4e-18 of the sum at t <= 1.5
ANCHORS_PER_UNIT = 32  # the anchors of the middle range are 1/32 apart
ANCHOR_END = 48.0  # above: special.gammaincc on those points alone
INCREMENT_NODES = 3  # Gauss-Legendre nodes per increment


@lru_cache(maxsize=8)
def _gamma_table(a: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For shape a: the series coefficients 1 / Gamma(a + k + 1), k <
    SERIES_TERMS; the exact anchors Q(a, k / ANCHORS_PER_UNIT) from
    SERIES_END to ANCHOR_END; and the Gauss-Legendre nodes on [0, 1] with
    their weights over Gamma(a).  Built on a shape's first call."""
    coef = np.empty(SERIES_TERMS)
    coef[0] = 1.0 / math.gamma(a + 1.0)
    for k in range(1, SERIES_TERMS):
        coef[k] = coef[k - 1] / (a + k)
    k = np.arange(SERIES_END * ANCHORS_PER_UNIT, ANCHOR_END * ANCHORS_PER_UNIT + 1)
    anchors = special.gammaincc(a, k / ANCHORS_PER_UNIT)
    x, w = np.polynomial.legendre.leggauss(INCREMENT_NODES)
    return coef, anchors, 0.5 * (1.0 + x), 0.5 * w / math.gamma(a)


def _incomplete_gammas(a: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) = the regularized lower and upper incomplete gammas of shape
    a in [1/2, 1] at t >= 0, elementwise; each value depends on its own t
    only.  The three ranges of t, with f(s) = s^(a-1) e^(-s):

    - t < SERIES_END: P = t^a e^-t sum_k t^k / Gamma(a + k + 1), its first
      SERIES_TERMS terms by Horner's rule (the rest is < 1.4e-18 of the
      sum), and Q = 1 - P.  All terms are positive, so P keeps its relative
      precision down to t = 0, and Q >= Q(1/2, 1.5) = 0.083 here.
    - t up to ANCHOR_END: Q(t) = Q(T) + Gamma(a)^-1 int_t^T f, with T the
      next anchor at or above t and the integral by INCREMENT_NODES-point
      Gauss-Legendre.  Its remainder is at most L^7 (3!)^4 / (7 (6!)^3)
      max |f^(6)| for an interval of length L <= 1/32, and |f^(6)| <= 283 f
      at s >= 1.5, so with the hazard f / (Gamma(a) Q) <= 1.24 there it is
      below 5.1e-15 Q.  The anchors are within 7e-16 absolutely and 7e-15
      relatively of Q (``special.gammaincc`` against 30-digit references;
      below t = 1.5 it is up to 1e-14 off near a = 1/2, hence the series
      there).  Both terms are positive, so Q keeps its relative precision.
    - t > ANCHOR_END (or NaN): Q = ``special.gammaincc`` on those points.

    Elsewhere than the series range P = 1 - Q.  The Gauss-Legendre terms
    are summed one node at a time, elementwise: a matrix product would run
    on BLAS threads that compete with the Monte Carlo pool's.
    """
    coef, anchors, nodes, weights = _gamma_table(a)
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    lower, upper = np.empty_like(flat), np.empty_like(flat)
    # positions, not boolean masks: a masked gather or scatter over mixed
    # ranges costs several times an indexed one
    near = np.flatnonzero(flat < SERIES_END)
    middle = np.flatnonzero((flat >= SERIES_END) & (flat <= ANCHOR_END))
    far = np.flatnonzero(~(flat <= ANCHOR_END))  # NaN included
    s = flat[near]
    acc = np.full_like(s, coef[-1])
    for c in coef[-2::-1]:
        acc *= s
        acc += c
    acc *= s**a * np.exp(-s)
    lower[near] = acc
    upper[near] = 1.0 - acc
    s = flat[middle]
    k = np.ceil(s * ANCHORS_PER_UNIT)  # the next anchor is T = k / ANCHORS_PER_UNIT >= t
    step = k / ANCHORS_PER_UNIT - s
    acc = np.zeros_like(s)
    for x, w in zip(nodes, weights):
        node = s + step * x
        acc += w * np.exp((a - 1.0) * np.log(node) - node)
    acc *= step
    acc += anchors[k.astype(np.intp) - int(SERIES_END * ANCHORS_PER_UNIT)]
    upper[middle] = acc
    upper[far] = special.gammaincc(a, flat[far])
    rest = np.concatenate([middle, far])
    lower[rest] = 1.0 - upper[rest]
    return lower.reshape(t.shape), upper.reshape(t.shape)


def _cdf_generic(params: PExpParams, x):
    """CDF as Q / 2 for x < 0 and 1 - Q / 2 for x >= 0, with Q the upper
    incomplete gamma of shape 1/p at t = |x|^p / p (``_incomplete_gammas``),
    so the lower tail keeps Q's relative precision."""
    x = np.asarray(x, dtype=float)
    p = params.p
    half = 0.5 * _incomplete_gammas(1.0 / p, np.abs(x) ** p / p)[1]
    return np.where(x < 0, half, 1.0 - half)


def cdf(params: PExpParams, x):
    """P(X <= x).  Closed forms at p = 1 (Laplace) and p = 2 (normal); at
    1 < p < 2 the incomplete-gamma ranges of ``_incomplete_gammas``, so the
    lower tail x < 0 keeps a relative precision of about 1e-14 however far
    out, and x >= 0 is within a few units in the last place of 1."""
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
    cdf(r) - cdf(-r) at small r; |X|^p / p ~ Gamma(1/p, 1).  At 1 < p < 2
    it is P of ``_incomplete_gammas``: the power series below t = r^p / p
    = 1.5, which keeps its relative precision however small r is, and
    1 - Q above, within a few units in the last place."""
    r = np.asarray(r, dtype=float)
    p = params.p
    if p == 1.0:
        out = -np.expm1(-r)
    elif p == 2.0:
        out = special.erf(r / math.sqrt(2.0))
    else:
        out = _incomplete_gammas(1.0 / p, r**p / p)[0]
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
    return p ** (k / p) * math.exp(special.gammaln((k + 1) / p) - special.gammaln(1 / p))


def variance(params: PExpParams) -> float:
    return moment(params, 2)
