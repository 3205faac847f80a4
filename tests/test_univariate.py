import copy
import itertools
import math

import numpy as np
import pytest
from oracles import halfline_loop, laplace_sample_where
from scipy import integrate, special, stats

from pexp import univariate
from pexp.univariate import (
    ANCHOR_END,
    ANCHORS_PER_UNIT,
    SERIES_END,
    PExpParams,
    _cdf_generic,
    _erfcx,
    _quantile_generic,
    _upper_gamma_fraction,
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


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8, 2.0])
def test_quantile_round_trip_keeps_the_lower_tail(p):
    # inverting gammaincinv(1/p, |2u - 1|) lost the lower tail: at p = 1.5
    # the round trip was 8e-4 off at u = 1e-15 and gave -inf at u = 1e-17.
    # One ulp of x moves the CDF by about |x|^(p-1) ulp(x) relatively, up to
    # 2.5e-13 at p = 2, u = 1e-300, so the bound allows 4 ulps of x on top.
    pr = PExpParams(p)
    u = np.concatenate([np.geomspace(1e-300, 0.5, 3001), [1e-17, 1e-15, 1e-12, 1e-8]])
    x = quantile(pr, u)
    assert np.all(x <= 0.0) and np.isfinite(x).all()
    tol = 1e-13 + 4.0 * np.abs(x) ** (p - 1.0) * np.spacing(np.abs(x))
    assert np.all(np.abs(cdf(pr, x) / u - 1.0) <= tol)
    assert np.all(np.abs(cdf(pr, x[u >= 1e-100]) / u[u >= 1e-100] - 1.0) <= 1e-13)
    assert quantile(pr, 0.5) == 0.0
    # the upper half mirrors the lower one wherever 1 - u is exact
    v = 1.0 - u[u >= 1e-16]
    np.testing.assert_array_equal(quantile(pr, v), -quantile(pr, 1.0 - v))


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


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0])
def test_cdf_blocks_give_the_same_bits(p, monkeypatch):
    # the CDF kernels run over blocks of CDF_BLOCK points; each value depends
    # on its own x only, so blocks of 7, most of them missing some range,
    # must give the bits of one block
    pr = PExpParams(p)
    rng = np.random.default_rng(31)
    x = np.concatenate([rng.normal(0.0, 4.0, 3001), [0.0, -0.0, np.inf, -np.inf, np.nan, 60.0, -60.0, 1e-300]])
    x = rng.permutation(x).reshape(3, -1)
    whole = cdf(pr, x), abs_cdf(pr, np.abs(x))
    monkeypatch.setattr(univariate, "CDF_BLOCK", 7)
    np.testing.assert_array_equal(cdf(pr, x), whole[0])
    np.testing.assert_array_equal(abs_cdf(pr, np.abs(x)), whole[1])
    assert cdf(pr, np.array([])).shape == (0,)


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


@pytest.mark.parametrize("size", [None, 1000, (500, 3)])
def test_sampler_laplace_sign_matches_product_oracle(size):
    # the copysign sign gives the product form's values and sign bits
    rng = np.random.default_rng(104)
    twin = copy.deepcopy(rng)
    x = np.float64(sample(PExpParams(1.0), rng, size))
    want = np.float64(laplace_sample_where(twin, size))
    assert x.shape == want.shape
    assert np.array_equal(x.view(np.int64), want.view(np.int64))
    assert rng.random() == twin.random()


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


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
def test_generic_cdf_keeps_relative_precision_in_the_lower_tail(p):
    # F(x) = gammaincc(1/p, |x|^p / p) / 2 for x < 0; 0.5 (1 - gammainc)
    # alone was 7.8e-5 relatively off at x = -12, p = 1.5
    pr = PExpParams(p)
    x = -np.geomspace(1e-3, 40.0, 4001)
    ref = 0.5 * special.gammaincc(1.0 / p, np.abs(x) ** p / p)
    assert ref[-1] > 0.0
    np.testing.assert_allclose(cdf(pr, x), ref, rtol=1e-13, atol=0.0)
    assert type(cdf(pr, -12.0)) is float
    assert cdf(pr, -12.0) == pytest.approx(0.5 * special.gammaincc(1.0 / p, 12.0**p / p), rel=1e-13)


P_HELPER = [1.01, 1.2, 1.5, 1.8, 1.99]


def anchor_points():
    """The anchors of ``univariate._incomplete_gamma``, SERIES_END to ANCHOR_END."""
    k = np.arange(SERIES_END * ANCHORS_PER_UNIT, ANCHOR_END * ANCHORS_PER_UNIT + 1)
    return k / ANCHORS_PER_UNIT


def incomplete_gamma_grid():
    """t across the three ranges of ``univariate._incomplete_gamma``: dense
    up to SERIES_END; every anchor, which ends its interval; each interval's
    middle and its start, where the increment is longest; ANCHOR_END and
    beyond."""
    anchors = anchor_points()
    return np.concatenate(
        [
            np.linspace(0.0, SERIES_END, 1501),
            [np.nextafter(SERIES_END, 0.0)],
            anchors,
            anchors[:-1] + 0.5 / ANCHORS_PER_UNIT,
            anchors[:-1] + 1e-9,
            np.linspace(ANCHOR_END, 80.0, 65),
        ]
    )


@pytest.mark.parametrize("p", P_HELPER)
def test_generic_cdf_and_abs_cdf_match_incomplete_gamma(p):
    pr, a = PExpParams(p), 1.0 / p
    t = incomplete_gamma_grid()
    x = (p * t) ** (1.0 / p)
    np.testing.assert_allclose(cdf(pr, -x), 0.5 * special.gammaincc(a, t), rtol=1e-13, atol=0.0)
    # from t = 1.5 on, special.gammaincc was within 7e-16 of 30-digit
    # references; below it, it and gammainc were up to 1e-14 off near
    # a = 1/2, so there the reference is the quadrature of the density
    far = t >= SERIES_END
    np.testing.assert_allclose(
        cdf(pr, x[far]), 1.0 - 0.5 * special.gammaincc(a, t[far]), rtol=0.0, atol=1e-15
    )
    for x0 in np.linspace(0.0, x[~far].max(), 41):
        val, _ = integrate.quad(
            lambda s: math.exp(-(s**p) / p), 0.0, x0, epsabs=1e-16, epsrel=1e-13
        )
        assert abs(cdf(pr, x0) - (0.5 + pr.norm_const * val)) <= 1e-15
    r = np.concatenate([np.geomspace(1e-8, 1.0, 200), x[t > 0]])
    np.testing.assert_allclose(abs_cdf(pr, r), special.gammainc(a, r**p / p), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", P_HELPER)
def test_generic_cdf_strictly_increasing_across_anchors(p):
    # each side of an anchor takes a different anchor value, one exactly and
    # one through a full-length increment; their mismatch must not show
    pr = PExpParams(p)
    anchors = anchor_points()
    t = np.sort(np.concatenate([anchors * (1.0 - 1e-9), anchors, anchors * (1.0 + 1e-9)]))
    x = (p * t) ** (1.0 / p)
    assert np.all(np.diff(cdf(pr, -x[::-1])) > 0)
    assert np.all(np.diff(cdf(pr, x)) >= 0)


# 30-digit mpmath values of the normal CDF, rounded to double
NORMAL_CDF_REFERENCES = {
    -0.5: 0.3085375387259869,
    -1.0: 0.15865525393145705,
    -3.0: 0.0013498980316300946,
    -5.0: 2.866515718791939e-07,
    -10.0: 7.619853024160525e-24,
    -20.0: 2.7536241186062337e-89,
    -30.0: 4.906713927148187e-198,
    -37.5: 4.605353009581955e-308,
}


def test_erfcx_matches_scipy():
    z = np.concatenate([np.linspace(0.0, 10.0, 20001), np.geomspace(1e-300, 1e8, 20001)])
    np.testing.assert_allclose(_erfcx(z), special.erfcx(z), rtol=4e-15, atol=0.0)
    # each of Cody's three ranges at and around its ends
    ends = np.array([univariate.ERF_END, univariate.ERFCX_MID_END])
    z = np.concatenate([ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf)])
    np.testing.assert_allclose(_erfcx(z), special.erfcx(z), rtol=4e-15, atol=0.0)
    assert _erfcx(np.zeros((2, 3))).shape == (2, 3)


def test_normal_cdf_matches_ndtr_and_references():
    pr = PExpParams(2.0)
    # scipy's ndtr takes erfc(-x / sqrt 2) and rounds x / sqrt 2 first, so
    # it is itself up to 2.4e-13 off near x = -37.5 and 2.2e-16 above 0
    x = np.linspace(-37.5, 0.0, 30001)
    np.testing.assert_allclose(cdf(pr, x), special.ndtr(x), rtol=3e-13, atol=0.0)
    np.testing.assert_allclose(cdf(pr, x[x >= -20.0]), special.ndtr(x[x >= -20.0]), rtol=1e-13, atol=0.0)
    x = np.concatenate([np.linspace(0.0, 40.0, 30001), np.geomspace(1e-300, 1.0, 301)])
    np.testing.assert_allclose(cdf(pr, x), special.ndtr(x), rtol=0.0, atol=2.5e-16)
    x = np.array(list(NORMAL_CDF_REFERENCES))
    np.testing.assert_allclose(cdf(pr, x), list(NORMAL_CDF_REFERENCES.values()), rtol=2e-15, atol=0.0)


def test_normal_abs_cdf_matches_erf_down_to_tiny_r():
    # x^2 / 2 underflows below r = 1e-154; P is taken from r itself
    r = np.concatenate([np.geomspace(1e-300, 40.0, 20001), np.linspace(0.0, 3.0, 3001)])
    np.testing.assert_allclose(
        abs_cdf(PExpParams(2.0), r), special.erf(r / math.sqrt(2.0)), rtol=1e-14, atol=0.0
    )


# Q(a, t) from 30-digit mpmath, rounded to double.  The fraction converges
# slowest at the smallest t it serves, near a = 1/2: there one term fewer
# than FRACTION_TERMS is 1.1e-15 off at a = 1/1.99
FRACTION_REFERENCES = {
    (0.5, 1.5): 0.0832645166635504,
    (1.0 / 1.99, 1.5): 0.08384363129629635,
    (1.0 / 1.8, 1.5): 0.09640837809639902,
    (1.0 / 1.5, 1.5): 0.12472723276678456,
    (1.0 / 1.2, 1.5): 0.1717216618296805,
    (1.0 / 1.2, 100.0): 1.527180319258669e-44,
    (1.0 / 1.5, 300.0): 5.672978860775233e-132,
    (0.5, 600.0): 6.0995688148084334e-263,
}


def test_upper_gamma_fraction_matches_references_and_gammaincc():
    for (a, t), ref in FRACTION_REFERENCES.items():
        assert abs(_upper_gamma_fraction(a, np.array([t]))[0] / ref - 1.0) <= 1e-15
    # against 30-digit references scipy's gammaincc is itself up to 1.3e-14
    # off on [1.5, 48] (at a = 1/2) and 1.1e-13 on [48, 700]
    t = np.linspace(SERIES_END, ANCHOR_END, 2001)
    far = np.linspace(ANCHOR_END, 700.0, 2001)
    for a in [0.5, 1.0 / 1.99, 1.0 / 1.8, 1.0 / 1.5, 1.0 / 1.2, 1.0]:
        np.testing.assert_allclose(
            _upper_gamma_fraction(a, t), special.gammaincc(a, t), rtol=2e-14, atol=0.0
        )
        np.testing.assert_allclose(
            _upper_gamma_fraction(a, far), special.gammaincc(a, far), rtol=1.5e-13, atol=0.0
        )


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_special_functions_at_edge_inputs(p):
    # the limit or NaN, with no RuntimeWarning (an error under the test
    # settings) and a bounded number of steps
    pr = PExpParams(p)
    tiny = 5e-324
    x = np.array([-0.0, 0.0, tiny, -tiny, np.inf, -np.inf, np.nan, 1e300, -1e300])
    out = cdf(pr, x)
    np.testing.assert_array_equal(out[:4], 0.5)
    np.testing.assert_array_equal(out[4:], [1.0, 0.0, np.nan, 1.0, 0.0])
    r = np.array([0.0, tiny, np.inf, np.nan, 1e300])
    out = abs_cdf(pr, r)
    assert out[0] == 0.0 and 0.0 <= out[1] <= 1e-323
    np.testing.assert_array_equal(out[2:], [1.0, np.nan, 1.0])
    u = quantile(pr, np.array([tiny, 1e-310, 0.5, np.nan, 1.0 - 2.0**-53]))
    assert np.isfinite(u[[0, 1, 4]]).all() and u[0] < u[1] < 0.0 < u[4]
    assert u[2] == 0.0 and np.isnan(u[3])
    np.testing.assert_array_equal(_erfcx(np.array([0.0, -0.0, tiny, np.inf, np.nan])), [1.0, 1.0, 1.0, 0.0, np.nan])
    assert _erfcx(1e300) == pytest.approx(1.0 / (math.sqrt(math.pi) * 1e300), rel=1e-15)
    t = _upper_gamma_fraction(1.0 / p, np.array([1000.0, np.nan]))
    assert t[0] == 0.0 and np.isnan(t[1])


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
    messages = []
    for sampler in (halfline_sample, halfline_loop):
        with pytest.raises(univariate.SamplerError, match="halfline_sample") as err:
            sampler(np.ones(1000), 3.0, np.random.default_rng(106))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def assert_same_draws(lam, a, seed):
    """halfline_sample and its loop oracle give equal draws and leave their
    generators at the same point."""
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    x = halfline_sample(lam, a, r1)
    assert np.array_equal(x, halfline_loop(lam, a, r2))
    assert r1.random() == r2.random()
    return x


@pytest.mark.parametrize(
    "lam, a",
    [
        (1.0, 0.1),  # Exp(lam) proposal
        (1.0, 3.0),  # folded half-normal, some rounds rejected
        (-0.5, 1.0),  # whole normal, about a third below zero
        (2.5, 0.0),  # a = 0
    ],
)
def test_halfline_sample_matches_loop_oracle_per_branch(lam, a):
    x = assert_same_draws(np.full(5000, lam), a, 107)
    assert x.shape == (5000,)


def test_halfline_sample_matches_loop_oracle_on_mixed_branches():
    # every row mixes all three proposals, in an order the rounds interleave
    rng = np.random.default_rng(108)
    lam = 3.0 * rng.standard_normal((400, 9))
    a = np.abs(rng.standard_normal(9))
    branch = np.where(lam < 0, "whole", np.where(a < math.pi / 4.0 * lam**2, "exp", "folded"))
    assert set(branch.ravel()) == {"whole", "exp", "folded"}
    assert assert_same_draws(lam, a, 109).shape == (400, 9)


def test_halfline_sample_matches_loop_oracle_on_scalar_lam():
    # concentration._tilted_squares passes lam = 1 against a broadcast (rows, N) a
    a = np.linspace(0.0, 2.0, 64)
    x = assert_same_draws(1.0, np.broadcast_to(a, (300, 64)), 110)
    assert x.shape == (300, 64) and x.flags.c_contiguous


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
