import copy
import itertools
import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from pexp import univariate
from pexp.univariate import (
    PExpParams,
    _cdf_generic,
    _quantile_generic,
    abs_cdf,
    abs_sample,
    cdf,
    halfline_sample,
    moment,
    pdf,
    prox,
    quantile,
    sample,
    variance,
)

P_GRID = [1.0, 1.2, 1.5, 1.8, 2.0]


def quad_normalizer(p):
    """Independent oracle: numeric quadrature of exp(-|x|^p/p), split at the kink."""
    val, err = integrate.quad(
        lambda x: math.exp(-(x**p) / p), 0, 40, points=[2.0, 10.0], limit=200
    )
    assert err < 1e-9
    return 2 * val


def test_params_rejects_out_of_range():
    with pytest.raises(ValueError):
        PExpParams(0.9)
    with pytest.raises(ValueError):
        PExpParams(2.1)


def test_pdf_laplace_mode():
    assert pdf(PExpParams(1.0), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_pdf_gaussian_mode_matches_quadrature_normalizer():
    # c_2 from the quadrature oracle, frozen value 0.3989423
    c2 = 1.0 / quad_normalizer(2.0)
    assert c2 == pytest.approx(0.3989423, abs=5e-8)
    assert pdf(PExpParams(2.0), 0.0) == pytest.approx(c2, rel=1e-8)


def test_pdf_symmetry():
    pr = PExpParams(1.5)
    x = np.linspace(0.1, 5.0, 40)
    np.testing.assert_allclose(pdf(pr, x), pdf(pr, -x), rtol=0, atol=0)


@pytest.mark.parametrize("p", P_GRID)
def test_pdf_integrates_to_one(p):
    pr = PExpParams(p)
    val, err = integrate.quad(lambda x: pdf(pr, x), -30, 30, limit=300)
    assert abs(val - 1.0) < 1e-10


def test_cdf_symmetric_median():
    assert cdf(PExpParams(2.0), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_laplace_analytic():
    assert cdf(PExpParams(1.0), 1.0) == pytest.approx(1.0 - math.exp(-1) / 2, rel=1e-14)


def test_cdf_strictly_increasing():
    pr = PExpParams(1.3)
    x = np.linspace(-6, 6, 500)
    assert np.all(np.diff(cdf(pr, x)) > 0)


def test_tail_lower_bound_at_half_for_laplace():
    # supplement constant r1 = e^{-1} for p = 1
    pr = PExpParams(1.0)
    r1 = pr.tail_lower_const
    assert r1 == pytest.approx(math.exp(-1), rel=1e-14)
    assert 2 * cdf(pr, 0.5) - 1 >= r1 * 0.5


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0])
def test_tail_lower_bound_on_grid(p):
    pr = PExpParams(p)
    x = np.linspace(1e-3, 1.0, 1000)
    prob = 2 * np.asarray(cdf(pr, x)) - 1
    assert np.all(prob >= pr.tail_lower_const * x)


@pytest.mark.parametrize("p", P_GRID)
def test_quantile_cdf_roundtrip(p):
    pr = PExpParams(p)
    u = np.linspace(1e-4, 1 - 1e-4, 1000)
    np.testing.assert_allclose(cdf(pr, quantile(pr, u)), u, atol=1e-10)
    x = np.linspace(-5, 5, 1000)
    np.testing.assert_allclose(quantile(pr, cdf(pr, x)), x, atol=1e-9)


def test_quantile_rejects_bad_u():
    pr = PExpParams(1.5)
    for bad in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            quantile(pr, bad)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_fast_paths_match_generic(p):
    pr = PExpParams(p)
    x = np.linspace(-8, 8, 400)
    np.testing.assert_allclose(cdf(pr, x), _cdf_generic(pr, x), atol=1e-12)
    u = np.linspace(1e-3, 1 - 1e-3, 400)
    np.testing.assert_allclose(quantile(pr, u), _quantile_generic(pr, u), atol=1e-12)


def test_sampler_variance_gaussian():
    rng = np.random.default_rng(101)
    x = sample(PExpParams(2.0), rng, 10**6)
    assert abs(x.var() - 1.0) < 0.01


def test_sampler_variance_laplace():
    rng = np.random.default_rng(102)
    x = sample(PExpParams(1.0), rng, 10**6)
    assert abs(x.var() - 2.0) < 0.02


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 1.8, 2.0])
def test_sampler_ks_against_cdf(p):
    # 1% KS critical value at N = 1e6 is 1.63/sqrt(N)
    pr = PExpParams(p)
    rng = np.random.default_rng(103)
    x = sample(pr, rng, 10**6)
    d = stats.kstest(x, lambda t: cdf(pr, t)).statistic
    assert d < 1.63 / math.sqrt(10**6)


def test_sampler_laplace_stream_is_signed_exponential():
    # numpy draws Gamma(1, 1) as its standard exponential, so this pins the
    # p = 1 stream of the former gamma-power sampler too
    rng = np.random.default_rng(104)
    twin = copy.deepcopy(rng)
    x = sample(PExpParams(1.0), rng, (500, 3))
    e = twin.standard_exponential((500, 3))
    signs = np.where(twin.random((500, 3)) < 0.5, -1.0, 1.0)
    assert np.array_equal(x.view(np.int64), (signs * e).view(np.int64))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_sampler_scalar_draw_is_float(p):
    x = sample(PExpParams(p), np.random.default_rng(105))
    assert type(x) is float


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_abs_sample_moments(p):
    # E|X| and E X^2 within 4 standard errors of the exact moments
    pr = PExpParams(p)
    n = 2 * 10**5
    x = abs_sample(pr, np.random.default_rng(106), n)
    assert (x >= 0).all()
    m1, m2, m4 = moment(pr, 1), moment(pr, 2), moment(pr, 4)
    assert abs(x.mean() - m1) <= 4.0 * math.sqrt((m2 - m1**2) / n)
    assert abs((x * x).mean() - m2) <= 4.0 * math.sqrt((m4 - m2**2) / n)
    assert type(abs_sample(pr, np.random.default_rng(107))) is float


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_abs_cdf_against_incomplete_gamma(p):
    # P(|X| <= r) = P(|X|^p / p <= r^p / p), and |X|^p / p ~ Gamma(1/p)
    pr = PExpParams(p)
    r = np.array([1e-9, 1e-4, 0.5])
    ref = special.gammainc(1.0 / p, r**p / p)
    assert np.allclose(abs_cdf(pr, r), ref, rtol=1e-14, atol=0.0)
    assert type(abs_cdf(pr, 0.5)) is float


def test_generic_cdf_against_quadrature():
    pr = PExpParams(1.5)
    for x0 in (-1.3, 0.4, 2.2):
        val, err = integrate.quad(
            lambda t: pdf(pr, t), -40, x0, points=[0.0], limit=300, epsabs=1e-13
        )
        assert abs(_cdf_generic(pr, x0) - val) < 1e-10


def test_moments_analytic():
    assert moment(PExpParams(2.0), 2) == pytest.approx(1.0, rel=1e-13)
    assert moment(PExpParams(1.0), 2) == pytest.approx(2.0, rel=1e-13)
    assert variance(PExpParams(1.0)) == pytest.approx(2.0, rel=1e-13)


def test_moment_against_quadrature():
    pr = PExpParams(1.3)
    val, err = integrate.quad(lambda x: x**4 * pdf(pr, x), -40, 40, limit=300)
    assert abs(moment(pr, 4) - val) < 1e-8


def test_moment_rejects_bad_order():
    with pytest.raises(ValueError):
        moment(PExpParams(1.5), 0)


def halfline_moments(lam, a):
    """Independent oracle: mean and variance of the density prop. to
    exp(-lam x - a x^2) on x >= 0 by quadrature in t = (x - m) / h, with m the
    mode and h the length scale, where the integrand is
    exp(-h (lam + 2 a m) t - a h^2 t^2) on t >= -m / h."""
    m = max(0.0, -lam / (2.0 * a)) if a > 0 else 0.0
    h = 1.0 / math.sqrt(2.0 * a) if lam < 0 else 1.0 / max(lam, math.sqrt(2.0 * a))
    b1, b2 = h * (lam + 2.0 * a * m), a * h * h
    lo = max(-m / h, -40.0)
    moms = [
        integrate.quad(lambda t: t**k * math.exp(-b1 * t - b2 * t * t), lo, 60.0,
                       points=[0.0] if lo < 0 else None, limit=200, epsabs=1e-12)[0]
        for k in range(3)
    ]
    mean_t = moms[1] / moms[0]
    return m + h * mean_t, h * h * (moms[2] / moms[0] - mean_t**2)


@pytest.mark.parametrize(
    "lam, a",
    [
        (1.0, 0.1),  # Exp(lam) proposal
        (1.0, 3.0),  # half-normal proposal
        (0.0, 2.0),  # half-normal, always accepted
        (2.5, 0.0),  # a = 0: exactly Exp(lam)
        (-0.5, 1.0),  # whole normal, mean near 0
        (-1e4, 2.0),  # whole normal, mean 2500 sd 0.5
        (1e6, 1.0),  # Exp proposal at tiny scale
        (1e6, 1e13),  # half-normal proposal at tiny scale
    ],
)
def test_halfline_sample_moments_against_quadrature(lam, a):
    draws = 400_000
    x = halfline_sample(np.full(draws, lam), a, np.random.default_rng(104))
    assert x.shape == (draws,) and (x >= 0).all()
    mean, var = halfline_moments(lam, a)
    assert abs(x.mean() - mean) < 4.0 * math.sqrt(var / draws)
    # sample variance sd is at most sqrt(8 / draws) var (exponential kurtosis)
    assert abs(x.var() / var - 1.0) < 4.0 * math.sqrt(8.0 / draws)


def test_halfline_sample_broadcasts_and_rejects_bad_input():
    rng = np.random.default_rng(105)
    assert halfline_sample(1.0, np.ones((3, 4)), rng).shape == (3, 4)
    assert halfline_sample(np.array([-1.0, 2.0]), 1.0, rng).shape == (2,)
    for lam, a in ((1.0, -0.1), (0.0, 0.0), (-1.0, 0.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            halfline_sample(lam, a, rng)


def test_halfline_round_cap_raises(monkeypatch):
    # the half-normal proposal at (lam, a) = (1, 3) accepts under 90% of a round
    monkeypatch.setattr(univariate, "MAX_ROUNDS", 1)
    with pytest.raises(univariate.SamplerError, match="halfline_sample"):
        halfline_sample(np.ones(1000), 3.0, np.random.default_rng(106))


def prox_oracle(a, c, lam, p):
    """Independent oracle: plain bisection of the stationarity condition
    c p h^{p-1} = 2 lam (a - h) on [0, a], run until the bracket stops moving."""
    lo, hi = np.zeros_like(a), a.copy()
    for _ in range(1200):  # a <= 1e8 reaches the smallest subnormal in 1100 halvings
        mid = 0.5 * (lo + hi)
        pos = c * p * mid ** (p - 1.0) - 2.0 * lam * (a - mid) > 0
        lo, hi = np.where(pos, lo, mid), np.where(pos, mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("p", P_GRID)
def test_prox_matches_bisection_oracle(p):
    # every (a, c, lam) in {1e-8, 1e-6, ..., 1e8}^3; the minimizer spans 1e-119 to 1e8
    vals = 10.0 ** np.arange(-8, 9, 2)
    a, c, lam = (np.array(v) for v in zip(*itertools.product(vals, repeat=3)))
    h, lo, hi = prox(a, c, lam, p)
    assert (lo <= h).all() and (h <= hi).all()
    # at p = 1 and p = 2 this checks the closed forms
    np.testing.assert_allclose(h, prox_oracle(a, c, lam, p), rtol=1e-14, atol=0.0)
    if p in (1.0, 2.0):
        assert (lo == h).all() and (hi == h).all()
