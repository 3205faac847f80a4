"""Closed-form contraction-rate calculators and minimax benchmarks.

All rate exponents are computed in exact rational arithmetic (floats convert
exactly to ``Fraction``), so switch-point continuity checks hold to machine
identity on each leg.  A rate n^{-r} log^m n is reported as
(poly_exponent r, log_exponent m); decaying rates have r > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational


class InvalidRateQuery(ValueError):
    """Query outside the hypotheses of the relevant proposition."""


class DegenerateRateQuery(ValueError):
    """Query with a structurally invalid value (e.g. p outside [1, 2])."""


def _frac(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    return Fraction(float(x))  # exact: binary floats are dyadic rationals


@dataclass(frozen=True)
class RateQuery:
    alpha: float
    beta: float
    p: float
    q: float
    d: int = 1

    def __post_init__(self):
        if not (1 <= _frac(self.p) <= 2):
            raise DegenerateRateQuery(f"p must lie in [1, 2], got {self.p}")
        if _frac(self.q) < 1:
            raise DegenerateRateQuery(f"q must be >= 1, got {self.q}")
        if self.d < 1 or int(self.d) != self.d:
            raise DegenerateRateQuery(f"d must be a positive integer, got {self.d}")
        if _frac(self.alpha) <= 0:
            raise DegenerateRateQuery(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class RateRegime:
    """A rate n^{-poly_exponent} log^{log_exponent} n with regime bookkeeping."""

    poly_exponent: Fraction
    log_exponent: Fraction
    regime: str
    switch_point: float | None = None
    lambda_poly_exponent: Fraction | None = None
    lambda_log_exponent: Fraction | None = None


def minimax(beta, d: int = 1) -> Fraction:
    """Exponent of the minimax rate n^{-beta/(d+2beta)}."""
    b, dd = _frac(beta), Fraction(d)
    return b / (dd + 2 * b)


def linear_minimax(beta, q) -> Fraction:
    """Exponent of the rate achieved by linear estimators (d = 1).

    For q < 2 this is (beta - g/2)/(1 + 2 beta - g) with inhomogeneity gap
    g = (2 - q)/q; for q >= 2 linear estimators attain the minimax rate.
    """
    b, qq = _frac(beta), _frac(q)
    if qq >= 2:
        return minimax(beta, 1)
    g = (2 - qq) / qq
    return (b - g / 2) / (1 + 2 * b - g)


def _l2_approx_leg(alpha, beta, p, q, d) -> Fraction:
    """The approximation-dominated exponent of the unrescaled l2 rate."""
    a, b, pp, qq, dd = map(_frac, (alpha, beta, p, q, d))
    if qq >= 2:
        return b / (dd + 2 * b + pp * (a - b))
    if pp <= qq:
        return (2 * b * qq + dd * (qq - 2)) / (
            4 * dd * (qq - 1) + 4 * b * qq + 2 * pp * qq * (a - b)
        )
    return (2 * b * qq + dd * (qq - 2)) / (
        2 * dd * (pp + qq - 2) + 4 * b * qq + 2 * pp * qq * (a - b)
    )


def _l2_smallball_leg(alpha, d) -> Fraction:
    a, dd = _frac(alpha), _frac(d)
    return a / (dd + 2 * a)


def _l2_switch(beta, p, q, d):
    """Switch-point alpha* together with its squared rational form.

    Returns (denom, offset, a2): the approximation leg applies iff t >= 0 and
    t^2 >= a2 with t = denom alpha - offset, so alpha* = (offset + sqrt(a2)) /
    denom.  None for q >= 2, where the leg applies iff alpha >= beta.
    """
    b, pp, qq, dd = map(_frac, (beta, p, q, d))
    if qq >= 2:
        return None  # switch point is beta itself
    if pp <= qq:
        a2 = 2 * b * dd * pp + b**2 * pp**2 + dd**2 * (1 + 2 * pp - 4 * pp / qq)
        return (2 * pp, pp * b - dd, a2)
    a2 = (
        2 * b * dd * qq * (2 * qq - pp) + b**2 * pp * qq**2 + dd**2 * (pp + 2 * qq**2 - 4 * qq)
    ) / pp
    return (2 * qq, qq * b - dd, a2)


def l2_switch_point(rq: RateQuery) -> float:
    """The alpha value at which the two rate legs meet."""
    sw = _l2_switch(rq.beta, rq.p, rq.q, rq.d)
    if sw is None:
        return float(rq.beta)
    denom, offset, a2 = sw
    return float((offset + math.sqrt(float(a2))) / denom)


def _validate_l2(rq: RateQuery):
    b, qq, dd = _frac(rq.beta), _frac(rq.q), Fraction(rq.d)
    floor = max(Fraction(0), dd / qq - dd / 2)
    if b <= floor:
        raise InvalidRateQuery(
            f"beta must exceed max(0, d/q - d/2) = {float(floor)}, got {rq.beta}"
        )


def rate_l2(rq: RateQuery) -> RateRegime:
    """Unrescaled alpha-regular prior rate in the l2 setting."""
    _validate_l2(rq)
    a = _frac(rq.alpha)
    sw = _l2_switch(rq.beta, rq.p, rq.q, rq.d)
    if sw is None:
        on_approx_leg = a >= _frac(rq.beta)
    else:
        denom, offset, a2 = sw
        t = denom * a - offset
        on_approx_leg = t >= 0 and t * t >= a2
    if on_approx_leg:
        expo = _l2_approx_leg(rq.alpha, rq.beta, rq.p, rq.q, rq.d)
        regime = "approximation"
    else:
        expo = _l2_smallball_leg(rq.alpha, rq.d)
        regime = "small-ball"
    return RateRegime(expo, Fraction(0), regime, switch_point=l2_switch_point(rq))


def rate_l2_rescaled(rq: RateQuery) -> RateRegime:
    """Best rate achievable with an optimally rescaled undersmoothing prior.

    Requires q in [1, 2) and beta > max(d/p, d/q).  The regime depends on the
    order of p and q; the reported rate is attained at alpha = beta - d/p
    (q >= p) or alpha = beta - d/q (q < p), with the reported lambda_n
    schedule n^{-lambda_poly_exponent} log^{lambda_log_exponent} n.
    """
    b, pp, qq, dd = map(_frac, (rq.beta, rq.p, rq.q, rq.d))
    if qq >= 2:
        raise InvalidRateQuery("rescaled rates require q < 2")
    if b <= max(dd / pp, dd / qq):
        raise InvalidRateQuery(
            f"beta must exceed max(d/p, d/q) = {float(max(dd / pp, dd / qq))}"
        )
    if qq == pp:
        return RateRegime(
            minimax(rq.beta, rq.d),
            Fraction(0),
            "minimax (q = p, alpha = beta - d/p)",
            lambda_poly_exponent=dd / (pp * (dd + 2 * b)),
            lambda_log_exponent=Fraction(0),
        )
    if qq > pp:
        omega = (pp - 2 * dd / (dd + 2 * b)) * (qq - pp) / (pp**2 * qq)
        return RateRegime(
            minimax(rq.beta, rq.d),
            dd * (qq - pp) / (pp * qq * (dd + 2 * b)),
            "minimax-with-log (q > p, alpha = beta - d/p)",
            lambda_poly_exponent=dd / (pp * (dd + 2 * b)),
            lambda_log_exponent=omega,
        )
    poly = (b * pp * qq - dd * (pp - qq)) / (2 * dd * (qq - pp) + 2 * b * pp * qq + pp * qq * dd)
    lam = qq * dd / (2 * qq * dd + 2 * b * pp * qq - 2 * pp * dd + pp * qq * dd)
    return RateRegime(
        poly,
        Fraction(0),
        "best-achievable (q < p, alpha = beta - d/q)",
        lambda_poly_exponent=lam,
        lambda_log_exponent=Fraction(0),
    )


def rate_sup(alpha, beta, p) -> tuple[RateRegime, RateRegime]:
    """Sup-norm setting (d = 1): the rate-equation solution rho and the
    complexity-bound solution rho-tilde.

    The posterior contracts at the slower of the two, i.e. at decay exponent
    min of the two; rho-tilde may fail to decay (exponent <= 0), which is
    reported rather than raised.
    """
    a, b, pp = map(_frac, (alpha, beta, p))
    if a <= 0 or b <= 0:
        raise DegenerateRateQuery("alpha and beta must be positive")
    if not (1 <= pp <= 2):
        raise DegenerateRateQuery(f"p must lie in [1, 2], got {p}")
    if b <= a:
        rho = RateRegime(b / (1 + 2 * b + pp * (a - b)), Fraction(0), "approximation")
        tilde = pp * b / (2 * (1 + 2 * b + pp * (a - b))) - (2 - pp) * (1 - 2 * a) / (8 * a)
        rho_t = RateRegime(tilde, Fraction(0), "complexity (beta <= alpha)")
    else:
        rho = RateRegime(a / (1 + 2 * a), Fraction(0), "small-ball")
        tilde = (8 * a**2 - (2 - pp)) / (8 * a * (1 + 2 * a))
        rho_t = RateRegime(tilde, Fraction(0), "complexity (beta > alpha)")
    return rho, rho_t


def sup_contraction_exponent(alpha, beta, p) -> Fraction:
    """Decay exponent of the combined sup-norm contraction rate rho v rho-tilde."""
    rho, rho_t = rate_sup(alpha, beta, p)
    return min(rho.poly_exponent, rho_t.poly_exponent)
