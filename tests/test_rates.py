import math
from fractions import Fraction

import numpy as np
import pytest

from pexp.rates import (
    DegenerateRateQuery,
    InvalidRateQuery,
    RateQuery,
    _l2_approx_leg,
    _l2_smallball_leg,
    l2_switch_point,
    linear_minimax,
    minimax,
    rate_l2,
    rate_l2_rescaled,
    rate_sup,
    sup_contraction_rate,
)


def test_exact_values_case_i():
    assert rate_l2(RateQuery(1, 1, 2, 2, 1)).poly_exponent == Fraction(1, 3)
    # small-ball leg is p-independent
    for p in (1.0, 1.4, 2.0):
        assert rate_l2(RateQuery(0.5, 1, p, 2, 1)).poly_exponent == Fraction(1, 4)


def test_case_i_regimes():
    assert rate_l2(RateQuery(2, 1, 1.5, 2, 1)).regime == "approximation"
    assert rate_l2(RateQuery(0.5, 1, 1.5, 2, 1)).regime == "small-ball"
    assert rate_l2(RateQuery(1, 1, 2, 3, 1)).switch_point == 1.0


def test_case_ii_witness():
    # beta=2, p=q=1, d=1: a = sqrt(7), switch point (1 + sqrt 7)/2
    rq = RateQuery(1.0, 2.0, 1.0, 1.0, 1)
    sw = l2_switch_point(rq)
    assert sw == pytest.approx((1 + math.sqrt(7)) / 2, rel=1e-14)
    beta, gap = 2.0, (2 - 1.0) / 1.0
    assert beta - gap / 2 < sw < beta


def test_case_ii_leg_agreement_at_witness():
    sw = l2_switch_point(RateQuery(1.0, 2.0, 1.0, 1.0, 1))
    leg_a = float(_l2_approx_leg(sw, 2.0, 1.0, 1.0, 1))
    leg_s = float(_l2_smallball_leg(sw, 1))
    assert leg_a == pytest.approx(0.392375, abs=5e-7)
    assert abs(leg_a - leg_s) < 1e-12


@pytest.mark.parametrize("case", ["i", "ii", "iii"])
def test_regime_continuity_random_grid(case):
    rng = np.random.default_rng({"i": 1, "ii": 2, "iii": 3}[case])
    checked = 0
    while checked < 2000:
        beta = rng.uniform(0.1, 4.0)
        d = int(rng.integers(1, 4))
        if case == "i":
            q = rng.uniform(2.0, 5.0)
            p = rng.uniform(1.0, 2.0)
        elif case == "ii":
            q = rng.uniform(1.0, 2.0)
            p = rng.uniform(1.0, q)
        else:
            q = rng.uniform(1.0, 2.0)
            p = rng.uniform(q, 2.0)
        if beta <= max(0.0, d / q - d / 2):
            continue
        rq = RateQuery(1.0, beta, p, q, d)
        sw = l2_switch_point(rq)
        if sw <= 0:
            continue
        diff = abs(float(_l2_approx_leg(sw, beta, p, q, d)) - float(_l2_smallball_leg(sw, d)))
        assert diff < 1e-12
        checked += 1


def test_rate_l2_rejects_invalid_beta():
    with pytest.raises(InvalidRateQuery):
        rate_l2(RateQuery(1.0, 0.4, 1.0, 1.0, 1))  # beta <= d/q - d/2 = 1/2
    with pytest.raises(DegenerateRateQuery):
        RateQuery(1.0, 1.0, 2.5, 2.0, 1)


def test_exponents_in_range_on_valid_grid():
    rng = np.random.default_rng(4)
    for _ in range(3000):
        beta = rng.uniform(0.05, 5.0)
        q = rng.uniform(1.0, 4.0)
        p = rng.uniform(1.0, 2.0)
        d = int(rng.integers(1, 4))
        alpha = rng.uniform(0.05, 5.0)
        if beta <= max(0.0, d / q - d / 2):
            continue
        r = rate_l2(RateQuery(alpha, beta, p, q, d))
        assert 0 < r.poly_exponent <= Fraction(1, 2)


def test_rescaled_exact_values():
    r = rate_l2_rescaled(RateQuery(1.0, 2.0, 1.0, 1.0, 1))
    assert r.poly_exponent == Fraction(2, 5)
    assert r.log_exponent == 0
    assert r.lambda_poly_exponent == Fraction(1, 5)
    assert r.lambda_log_exponent == 0


def test_rescaled_log_case():
    r = rate_l2_rescaled(RateQuery(1.0, 2.0, 1.0, 1.5, 1))
    assert r.poly_exponent == minimax(2.0, 1)
    assert r.log_exponent == Fraction(1, 15)
    assert r.lambda_log_exponent > 0


def test_rescaled_q_less_than_p_hits_linear_minimax_for_gaussian():
    r = rate_l2_rescaled(RateQuery(1.0, 2.0, 2.0, 1.0, 1))
    assert r.poly_exponent == Fraction(3, 8)
    assert r.poly_exponent == linear_minimax(2.0, 1.0)
    assert r.lambda_poly_exponent == Fraction(1, 8)


def test_rescaled_matches_minimax_iff_q_equals_p():
    for beta in (1.5, 2.0, 3.0):
        r = rate_l2_rescaled(RateQuery(1.0, beta, 1.3, 1.3, 1))
        assert r.poly_exponent == minimax(beta, 1)
        assert r.log_exponent == 0


def test_rescaled_rejects_q_ge_2_and_small_beta():
    with pytest.raises(InvalidRateQuery):
        rate_l2_rescaled(RateQuery(1.0, 2.0, 1.0, 2.0, 1))
    with pytest.raises(InvalidRateQuery):
        rate_l2_rescaled(RateQuery(1.0, 0.6, 1.5, 1.0, 1))


def test_minimax_values():
    assert minimax(1, 1) == Fraction(1, 3)
    assert minimax(2, 1) == Fraction(2, 5)
    assert minimax(2, 2) == Fraction(1, 3)


def test_linear_minimax_values():
    assert linear_minimax(2, 1) == Fraction(3, 8)
    assert linear_minimax(2, 2) == minimax(2, 1)
    assert linear_minimax(2, 3) == minimax(2, 1)


def test_linear_minimax_slower_than_minimax_for_inhomogeneous():
    rng = np.random.default_rng(5)
    for _ in range(200):
        beta = rng.uniform(0.6, 4.0)
        q = rng.uniform(1.0, 1.99)
        assert linear_minimax(beta, q) < minimax(beta, 1)


def test_sup_rates_example():
    rho, rho_t = rate_sup(1.0, 1.0, 1.0)
    assert rho.poly_exponent == Fraction(1, 3)
    assert rho_t.poly_exponent == Fraction(7, 24)
    assert sup_contraction_rate(1.0, 1.0, 1.0) == rho_t


def test_sup_contraction_rate_keeps_the_rate_equation_leg_on_ties():
    # p = 2 with beta > alpha ties the legs exactly; the slower leg otherwise
    for alpha, beta, p in ((1, 2, 2), (Fraction(1, 2), 1, 2), (1, 1, 1), (2, 1, 1.5)):
        rho, rho_t = rate_sup(alpha, beta, p)
        want = rho_t if rho_t.poly_exponent < rho.poly_exponent else rho
        assert sup_contraction_rate(alpha, beta, p) == want


def test_sup_collapse_at_p2():
    rng = np.random.default_rng(6)
    for _ in range(500):
        alpha = rng.uniform(0.05, 4.0)
        beta = rng.uniform(0.05, 4.0)
        rho, rho_t = rate_sup(alpha, beta, 2.0)
        assert abs(float(rho.poly_exponent - rho_t.poly_exponent)) < 1e-12


def test_sup_tilde_decay_boundary_exact():
    # for beta > alpha: rho-tilde decays iff alpha > sqrt((2-p)/8)
    for p in (1.0, 1.25, 1.5, 1.75):
        for alpha_num in range(1, 40):
            alpha = Fraction(alpha_num, 20)
            beta = alpha + 1
            _, rho_t = rate_sup(alpha, beta, p)
            decays = rho_t.poly_exponent > 0
            assert decays == (8 * alpha**2 > 2 - Fraction(p))


def test_sup_tilde_slower_except_small_beta_region():
    # equality region of the two decay exponents: beta <= alpha - 1/(2-p+2 alpha p)
    rng = np.random.default_rng(7)
    for _ in range(500):
        alpha = Fraction(int(rng.integers(1, 80)), 16)
        beta = Fraction(int(rng.integers(1, 80)), 16)
        p = Fraction(int(rng.integers(16, 32)), 16)
        rho, rho_t = rate_sup(alpha, beta, p)
        threshold = alpha - 1 / (2 - p + 2 * alpha * p)
        if rho_t.poly_exponent >= rho.poly_exponent and p < 2:
            assert beta <= threshold
        elif p < 2 and beta > threshold:
            assert rho_t.poly_exponent < rho.poly_exponent


def test_sup_rejects_degenerate():
    with pytest.raises(DegenerateRateQuery):
        rate_sup(0.0, 1.0, 1.5)
    with pytest.raises(DegenerateRateQuery):
        rate_sup(1.0, 1.0, 2.5)


def test_best_over_alpha_sits_between_linear_minimax_and_minimax():
    # the best exponent over alpha is attained at the switching point; for
    # p < 2 and q < 2 it beats linear estimators but never reaches minimax
    rng = np.random.default_rng(8)
    for _ in range(300):
        beta = rng.uniform(1.2, 4.0)
        q = rng.uniform(1.0, 2.0)
        p = rng.uniform(1.0, 2.0)
        if beta <= 1 / q:
            continue
        sw = l2_switch_point(RateQuery(1.0, beta, p, q, 1))
        if sw <= 0:
            continue
        best = float(_l2_smallball_leg(sw, 1))
        lo = float(linear_minimax(beta, q))
        hi = float(minimax(beta, 1))
        if p < 2:
            assert lo - 1e-12 < best < hi
        else:
            assert lo - 1e-12 <= best <= hi


def test_gaussian_best_over_alpha_is_exactly_linear_minimax():
    # p = 2, q < 2: the switching point is beta - gap/2 and the best
    # exponent equals the linear-minimax benchmark exactly
    for beta, q in [(2.0, 1.0), (1.5, 1.5), (3.0, 1.25)]:
        sw = l2_switch_point(RateQuery(1.0, beta, 2.0, q, 1))
        gap = (2 - q) / q
        assert sw == pytest.approx(beta - gap / 2, rel=1e-12)
        best = float(_l2_smallball_leg(sw, 1))
        assert best == pytest.approx(float(linear_minimax(beta, q)), rel=1e-12)
