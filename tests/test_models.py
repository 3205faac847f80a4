import math

import numpy as np
import pytest
from oracles import log_int_exp_where, metropolis_loop, tilted_loop
from scipy import integrate, special, stats

from pexp import models, univariate
from pexp.measure import WaveletBasis, evaluate_function, pexp_measure
from pexp.models import (
    ChainConfig,
    WhiteNoiseData,
    _log_int_exp,
    _log_int_exp_shifted,
    de_density,
    de_posterior_mcmc,
    de_simulate,
    hellinger,
    wn_conjugate_moments,
    wn_error_radii,
    wn_posterior_sample,
    wn_simulate,
)
from pexp.sequences import BesovParams, CoefVec, ScalingSpec, make_truth
from pexp.univariate import PExpParams, cdf, variance


def lin_spec(p, alpha, n, lam=1.0):
    return ScalingSpec(p, alpha, 1, lam, "linear", n=n)


def tilted_args(data, m):
    """The (p, a, b) of the white-noise posterior of xi, exp(-a xi^2 + b xi -
    |xi|^p / p), as ``wn_posterior_sample`` passes them to tilted_sample."""
    g, n = m.spec.gamma(), data.n
    return m.spec.p, n * g**2 / 2.0, n * g * data.y.values


def trapezoid_mass(dens, cells):
    """Trapezoid rule on `cells` equal cells for the density whose log is the
    linear interpolant of log(dens) between equally spaced nodes."""
    x = np.linspace(0.0, 1.0, cells + 1)
    f = np.exp(np.interp(x, np.linspace(0.0, 1.0, len(dens)), np.log(dens)))
    return (f.sum() - 0.5 * (f[0] + f[-1])) / cells


def exact_cdf(dens):
    """CDF of the node-grid density: on a node segment of width h the density is
    p_a e^{s (x - x_a)} with s = (log p_b - log p_a) / h, so the segment holds
    h (p_b - p_a) / (log p_b - log p_a), the logarithmic mean times h."""
    h = 1.0 / (len(dens) - 1)
    la = np.log(dens)
    s = np.diff(la) / h
    flat = np.abs(s) < 1e-12
    seg = np.where(flat, h * dens[:-1], np.diff(dens) / np.where(flat, 1.0, s))
    before = np.concatenate([[0.0], np.cumsum(seg)])

    def F(x):
        j = np.clip((np.asarray(x) / h).astype(int), 0, len(seg) - 1)
        dx = np.asarray(x) - j * h
        rate = np.where(flat[j], 1.0, s[j])
        part = np.where(flat[j], dx, np.expm1(s[j] * dx) / rate)
        return before[j] + dens[j] * part

    return F, before[-1]


def tilt(c, levels=6):
    """Node values of the normalized density c e^{cx} / (e^c - 1)."""
    x = WaveletBasis(levels).node_grid()
    return np.exp(c * x) * c / math.expm1(c)


# --- white noise ---------------------------------------------------------------


def test_wn_simulate_noise_variance():
    rng = np.random.default_rng(70)
    w0 = np.zeros(2000)
    data = wn_simulate(w0, 50.0, rng)
    resid = data.y.values - w0
    assert abs(resid.var() - 1 / 50.0) < 3 * (1 / 50.0) * math.sqrt(2 / 2000)


def test_wn_simulate_pure_noise_norm():
    rng = np.random.default_rng(71)
    data = wn_simulate(np.zeros(4000), 10.0, rng)
    # ||y||^2 ~ chi^2_N / n
    assert (data.y.values**2).sum() == pytest.approx(4000 / 10.0, rel=0.1)


def test_wn_simulate_deterministic():
    w0 = np.arange(1, 11.0) ** -1.0
    a = wn_simulate(w0, 100.0, np.random.default_rng(72))
    b = wn_simulate(w0, 100.0, np.random.default_rng(72))
    np.testing.assert_array_equal(a.y.values, b.y.values)


def test_wn_rejection_sampler_matches_conjugate_moments():
    # p=2 oracle: mean (n g^2/(1+n g^2)) y, var g^2/(1+n g^2)
    spec = lin_spec(2.0, 1.0, 40)
    m = pexp_measure(spec)
    rng = np.random.default_rng(73)
    w0 = make_truth(BesovParams(1.0, 2.0, 1), n=40).values
    for n in (1e2, 1e4):
        data = wn_simulate(w0, n, rng)
        mean_u, var_u = wn_conjugate_moments(data, m)
        # by rejection: the public sampler takes the conjugate form at p = 2
        u = univariate.tilted_sample(*tilted_args(data, m), rng, (4000, 40))[0] * spec.gamma()
        emp_mean = u.mean(axis=0)
        z = np.abs(emp_mean - mean_u) / np.sqrt(var_u / 4000)
        assert z.max() < 4.0
        ratio = u.var(axis=0) / var_u
        assert np.all(np.abs(ratio - 1) < 4 * math.sqrt(2 / 4000) + 0.01)


def laplace_posterior_cdf(y, n, g):
    """Exact CDF of xi with density prop. to exp(-n (y - g xi)^2 / 2 - |xi|).

    With sigma = 1 / (g sqrt n) and c = y / g each side is a normal piece,
    N(c - sigma^2, sigma^2) on xi >= 0 with weight e^{-c} Phi((c - sigma^2) / sigma)
    and N(c + sigma^2, sigma^2) on xi < 0 with weight e^{c} Phi(-(c + sigma^2) / sigma).
    """
    sigma, c = 1.0 / (g * math.sqrt(n)), y / g
    mu_p, mu_m = c - sigma**2, c + sigma**2
    log_p = -c + stats.norm.logcdf(mu_p / sigma)
    log_m = c + stats.norm.logcdf(-mu_m / sigma)
    w_m = 1.0 / (1.0 + math.exp(min(log_p - log_m, 700.0)))

    def F(x):
        x = np.asarray(x, dtype=float)
        neg = w_m * np.exp(stats.norm.logcdf((np.minimum(x, 0.0) - mu_m) / sigma)
                           - stats.norm.logcdf(-mu_m / sigma))
        pos = w_m + (1.0 - w_m) * -np.expm1(
            stats.norm.logsf((np.maximum(x, 0.0) - mu_p) / sigma)
            - stats.norm.logsf(-mu_p / sigma)
        )
        return np.where(x < 0.0, neg, pos)

    return F


@pytest.mark.parametrize(
    "y, n, g",
    [
        (0.3, 10.0, 1.0),  # ordinary, both sides carry mass
        (-2.0, 100.0, 0.5),  # ordinary, mostly negative
        (0.0, 1e6, 1.0),  # posterior sd 1e-3 straddling 0
        (1e4, 1e-4, 1.0),  # lam = 0 on the positive side: half-normal, sd 100
        (3.0, 1e8, 1e-3),  # far from 0: mode 3000, sd 0.1
        (1e-3, 1e-6, 10.0),  # vanishing data: the Laplace prior
    ],
)
def test_wn_laplace_posterior_ks_against_exact_cdf(y, n, g):
    m = pexp_measure(lin_spec(1.0, 1.0, 1, lam=g))
    data = WhiteNoiseData(n, CoefVec.linear(np.array([y])))
    chain = wn_posterior_sample(data, m, 20_000, np.random.default_rng(77))
    assert chain.step_log["rounds"] == 1  # the envelope is exact at p = 1
    assert chain.step_log["first_round_accept"] == 1.0
    d = stats.kstest(chain.xi[:, 0], laplace_posterior_cdf(y, n, g)).statistic
    assert d < 1.95 / math.sqrt(20_000)


def test_wn_rejection_worst_envelope_matches_quadrature():
    # p = 1.5, n gamma^2 = 1e-4, y sqrt(n) = 100: the Gaussian factor is flat
    # (sd 100) while the prior tail bounds the posterior near 1, so only about
    # 2% of the first round is accepted
    n, y = 1e-4, 100.0 / math.sqrt(1e-4)
    m = pexp_measure(lin_spec(1.5, 1.0, 1))
    data = WhiteNoiseData(n, CoefVec.linear(np.array([y])))
    chain = wn_posterior_sample(data, m, 20_000, np.random.default_rng(78))
    assert np.isfinite(chain.xi).all()
    assert 0.005 < chain.step_log["first_round_accept"] < 0.05
    assert chain.step_log["rounds"] > 1

    def logf(x):  # log posterior less its value at 1, near the mode
        return -n * ((y - x) ** 2 - (y - 1.0) ** 2) / 2.0 - (abs(x) ** 1.5 - 1.0) / 1.5

    moms = [
        integrate.quad(lambda x: x**k * math.exp(logf(x)), -60.0, 200.0, points=[0.0, 1.0],
                       limit=300)[0]
        for k in range(3)
    ]
    mean = moms[1] / moms[0]
    var = moms[2] / moms[0] - mean**2
    xs = chain.xi[:, 0]
    assert abs(xs.mean() - mean) < 4.0 * math.sqrt(var / len(xs))
    assert abs(xs.var() / var - 1.0) < 4.0 * math.sqrt(3.0 / len(xs))


def test_wn_rejection_round_cap_raises(monkeypatch):
    # the worst-envelope case above accepts about 2.6% of its first round
    monkeypatch.setattr(univariate, "MAX_ROUNDS", 1)
    n, y = 1e-4, 100.0 / math.sqrt(1e-4)
    m = pexp_measure(lin_spec(1.5, 1.0, 1))
    data = WhiteNoiseData(n, CoefVec.linear(np.array([y])))
    messages = []
    for draw in (
        lambda rng: wn_posterior_sample(data, m, 20_000, rng),
        lambda rng: tilted_loop(*tilted_args(data, m), rng, (20_000, 1)),
    ):
        with pytest.raises(univariate.SamplerError, match=r"tilted_sample: \d+ draws left") as err:
            draw(np.random.default_rng(78))
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_wn_posterior_rejects_non_finite_observations_and_bad_n():
    for p in (1.0, 1.5, 2.0):
        m = pexp_measure(lin_spec(p, 1.0, 3))
        for bad in (math.nan, math.inf):
            data = WhiteNoiseData(10.0, CoefVec.linear(np.array([0.1, bad, 0.2])))
            with pytest.raises(ValueError, match="finite"):
                wn_posterior_sample(data, m, 5, np.random.default_rng(79))
        data = WhiteNoiseData(0.0, CoefVec.linear(np.array([0.1, 0.3, 0.2])))
        with pytest.raises(ValueError, match="n > 0"):
            wn_posterior_sample(data, m, 5, np.random.default_rng(79))


def test_wn_posterior_prior_limit():
    # vanishing data information: posterior approximately the prior
    spec = lin_spec(1.5, 1.0, 12)
    m = pexp_measure(spec)
    data = wn_simulate(np.zeros(12), 1e-8, np.random.default_rng(74))
    chain = wn_posterior_sample(data, m, 20000, np.random.default_rng(75))
    v = chain.xi.var(axis=0)
    assert np.all(np.abs(v - variance(m.params)) < 0.1)


def test_wn_posterior_concentrates_with_n():
    # Laplace-approximation check: posterior mean of u within the prior pull
    # 1/(n gamma) of y, posterior spread of u shrinking like 1/sqrt(n)
    spec = lin_spec(1.0, 1.0, 16)
    m = pexp_measure(spec)
    g = spec.gamma()
    w0 = make_truth(BesovParams(2.0, 1.0, 1), n=16).values
    rng = np.random.default_rng(76)
    stds = []
    for n in (1e2, 1e4, 1e6):
        data = wn_simulate(w0, n, rng)
        chain = wn_posterior_sample(data, m, 1500, rng)
        stds.append(chain.u.std(axis=0).max())
        err = np.abs(chain.u.mean(axis=0) - data.y.values)
        assert np.all(err < 1.0 / (n * g) + 5.0 / math.sqrt(n))
    assert stds[0] > stds[1] > stds[2]
    assert stds[-1] < 2.0 / math.sqrt(1e6)


def test_wn_posterior_coordinates_uncorrelated():
    spec = lin_spec(1.5, 1.0, 8)
    m = pexp_measure(spec)
    data = wn_simulate(np.ones(8) * 0.2, 100.0, np.random.default_rng(77))
    chain = wn_posterior_sample(data, m, 30000, np.random.default_rng(78))
    x = chain.xi - chain.xi.mean(axis=0)
    corr = (x[:, 1] * x[:, 4]).mean() / (x[:, 1].std() * x[:, 4].std())
    assert abs(corr) < 3 / math.sqrt(len(x))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [1e2, 1e4, 2.0**16])
def test_wn_rejection_matches_loop_oracle(p, n):
    # tilted_sample is called directly: at p = 2 the public sampler takes the
    # conjugate form, which draws differently
    m = pexp_measure(lin_spec(p, 1.0, 60))
    w0 = make_truth(BesovParams(1.0, 2.0, 1), n=60).values
    data = wn_simulate(w0, n, np.random.default_rng(97))
    r1, r2 = np.random.default_rng(98), np.random.default_rng(98)
    xi, log = univariate.tilted_sample(*tilted_args(data, m), r1, (300, 60))
    xi2, log2 = tilted_loop(*tilted_args(data, m), r2, (300, 60))
    assert np.array_equal(xi, xi2)
    assert log == log2
    assert r1.random() == r2.random()
    assert (log["rounds"] == 1) == (p == 1.0)
    if p != 2.0:
        chain = wn_posterior_sample(data, m, 300, np.random.default_rng(98))
        assert np.array_equal(chain.xi, xi) and chain.step_log == {"method": "rejection", **log}


class PinnedUniforms:
    """A generator whose ``random`` returns u everywhere; its other draws
    come from a real generator."""

    def __init__(self, u, rng):
        self.u, self.rng = u, rng

    def random(self, size=None):
        return np.full(size, self.u)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_wn_side_odds_keep_precision_on_deep_coordinates():
    # gamma = 1e-4, n = 256: the side log-masses differ by -2 s y / gamma
    # = 1.3e4 plus a log_ndtr difference of the same size, and that sum
    # put P(xi >= 0) 3.1e-11 high; as log erfcx(lam / (2 sqrt a)) no two
    # terms cancel.  Uniforms 1e-11 either side of the exact P pick the side.
    n, g, y = 256.0, 1.007917868212517e-4, -0.6632979011245124
    a = n * g**2 / 2.0
    z = np.array([1.0 - n * g * y, 1.0 + n * g * y]) / (2.0 * math.sqrt(a))  # s = 1 at p = 1
    p_plus = special.expit(np.subtract(*np.log(special.erfcx(z))))
    assert p_plus == pytest.approx(0.49144260700002956, rel=1e-15, abs=0.0)  # 50-digit mpmath
    m = pexp_measure(lin_spec(1.0, 1.0, 1, lam=g))
    data = WhiteNoiseData(n, CoefVec.linear(np.array([y])))
    for u, minus in ((p_plus - 1e-11, False), (p_plus + 1e-11, True)):
        chain = wn_posterior_sample(data, m, 1, PinnedUniforms(u, np.random.default_rng(3)))
        assert (chain.xi[0, 0] < 0.0) == minus


def test_wn_conjugate_draw_matches_closed_form():
    m = pexp_measure(lin_spec(2.0, 1.0, 50))
    data = wn_simulate(np.full(50, 0.1), 1e3, np.random.default_rng(99))
    chain = wn_posterior_sample(data, m, 40, np.random.default_rng(100))
    mean_u, var_u = wn_conjugate_moments(data, m)
    z = np.random.default_rng(100).standard_normal((40, 50))
    assert np.array_equal(chain.xi, (mean_u + np.sqrt(var_u) * z) / m.spec.gamma())


def radius_stats(chain, w0):
    radii = wn_error_radii(chain, w0)
    return float(np.median(radii)), float(np.quantile(radii, 0.9))


def test_wn_error_radii_trivial_cases():
    spec = lin_spec(2.0, 1.0, 4)
    from pexp.models import PosteriorChain

    chain = PosteriorChain(np.zeros((10, 4)), spec, 1.0)
    med, q90 = radius_stats(chain, np.zeros(4))
    assert med == 0 and q90 == 0
    # constant chain c e_1 against zero truth: radius |c|
    xi = np.zeros((10, 4))
    xi[:, 0] = 2.5 / spec.gamma()[0]
    chain = PosteriorChain(xi, spec, 1.0)
    med, q90 = radius_stats(chain, np.zeros(4))
    assert med == pytest.approx(2.5) and q90 == pytest.approx(2.5)
    # permutation invariance
    rng = np.random.default_rng(79)
    xi = rng.normal(size=(50, 4))
    w0 = rng.normal(size=4)
    a = radius_stats(PosteriorChain(xi, spec, 1.0), w0)
    b = radius_stats(PosteriorChain(xi[rng.permutation(50)], spec, 1.0), w0)
    assert a == b


def test_wn_error_radii_pads_truth_tail():
    spec = lin_spec(2.0, 1.0, 2)
    from pexp.models import PosteriorChain

    chain = PosteriorChain(np.zeros((5, 2)), spec, 1.0)
    w0 = np.array([0.0, 0.0, 3.0, 4.0])
    med, q90 = radius_stats(chain, w0)
    assert med == pytest.approx(5.0)


def radii_formula(chain, w0):
    """||u - w0||_2 per draw, padding the shorter side with zeros by copy."""
    w = np.asarray(w0, dtype=float)
    u = chain.u
    nc = min(u.shape[1], len(w))
    sq = ((u[:, :nc] - w[:nc]) ** 2).sum(axis=1)
    if u.shape[1] > nc:
        sq += (u[:, nc:] ** 2).sum(axis=1)
    if len(w) > nc:
        sq += float((w[nc:] ** 2).sum())
    return np.sqrt(sq)


@pytest.mark.parametrize("truth_len", [25, 40, 70])
def test_wn_error_radii_leaves_chain_alone(truth_len, monkeypatch):
    # 200 draws, as in a benchmark cell: one block, then blocks of 64 rows
    # with a ragged last block of 8, all equal to the full-array formula
    from pexp import models
    from pexp.models import PosteriorChain

    rng = np.random.default_rng(101)
    chain = PosteriorChain(rng.standard_normal((200, 40)), lin_spec(1.0, 1.0, 40), 1.0)
    xi = chain.xi.copy()
    w0 = rng.standard_normal(truth_len)
    want = radii_formula(chain, w0)
    assert models.RADII_BLOCK_FLOATS // 40 >= 200
    first = wn_error_radii(chain, w0)
    assert np.array_equal(chain.xi, xi)
    assert np.array_equal(wn_error_radii(chain, w0), first)
    assert np.array_equal(first, want)
    monkeypatch.setattr(models, "RADII_BLOCK_FLOATS", 64 * 40 + 39)
    assert np.array_equal(wn_error_radii(chain, w0), want)
    assert np.array_equal(chain.xi, xi)


# --- density model ---------------------------------------------------------------


def test_de_density_uniform_for_zero_coefficients():
    basis = WaveletBasis(4)
    u = CoefVec.dyadic(np.zeros(31), 4)
    dens = de_density(u, basis)
    assert dens.shape == (2**5 + 1,)
    np.testing.assert_allclose(dens, 1.0, atol=1e-12)


def test_de_density_normalizes():
    # a rough prior-scale draw against a fine trapezoid oracle: the gap
    # shrinks at second order, 16x per 4x refinement, toward mass 1
    basis = WaveletBasis(6)
    spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=6)
    rng = np.random.default_rng(80)
    u = CoefVec.dyadic(3.0 * spec.gamma() * rng.laplace(size=127), 6)
    dens = de_density(u, basis)
    assert np.all(dens > 0)
    gaps = [abs(trapezoid_mass(dens, 2**j) - 1.0) for j in (10, 12, 14, 16)]
    assert gaps[-1] < 1e-7
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_log_normalizer_matches_closed_form_for_tilts():
    # int_0^1 e^{cx} = expm1(c) / c, including the flat limit c -> 0
    x = WaveletBasis(6).node_grid()
    for c in (0.0, 1e-12, 1e-6, 0.5, 3.0, -40.0, 700.0):
        target = 0.0 if c == 0.0 else math.log(math.expm1(c) / c)
        assert _log_int_exp(c * x)[0] == pytest.approx(target, rel=1e-12, abs=1e-15)


def test_de_density_shift_invariance():
    # adding a constant to W leaves the normalized density unchanged
    basis = WaveletBasis(4)
    rng = np.random.default_rng(82)
    u = CoefVec.dyadic(rng.normal(size=31) * 0.5, 4)
    d1 = de_density(u, basis)
    shifted = np.log(d1) + 2.7
    np.testing.assert_allclose(np.exp(shifted - _log_int_exp(shifted)[0]), d1, rtol=1e-12)


def test_de_simulate_uniform_mean_and_ks():
    basis = WaveletBasis(4)
    u = CoefVec.dyadic(np.zeros(31), 4)
    s = de_simulate(u, basis, 10**5, np.random.default_rng(83))
    assert abs(s.mean() - 0.5) < 3 * (1 / math.sqrt(12 * 10**5))
    d = stats.kstest(s, "uniform").statistic
    assert d < 1.63 / math.sqrt(10**5)


def test_de_simulate_nonuniform_ks_against_cdf():
    basis = WaveletBasis(5)
    rng = np.random.default_rng(84)
    u = CoefVec.dyadic(rng.normal(size=63) * 0.4, 5)
    n = 10**5
    s = de_simulate(u, basis, n, np.random.default_rng(85))
    F, total = exact_cdf(de_density(u, basis))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert s.min() >= 0.0 and s.max() <= 1.0
    d = stats.kstest(s, F).statistic
    assert d < 1.63 / math.sqrt(n)


def test_de_simulate_deterministic():
    basis = WaveletBasis(4)
    u = CoefVec.dyadic(np.zeros(31), 4)
    a = de_simulate(u, basis, 100, np.random.default_rng(86))
    b = de_simulate(u, basis, 100, np.random.default_rng(86))
    np.testing.assert_array_equal(a, b)


def test_log_normalizer_matches_masked_divide_oracle_exactly():
    # the gap floored at the smallest normal float gives the d = 0 limit 1
    # exactly, so ties, flat stretches and subnormal gaps agree bit for bit
    rng = np.random.default_rng(98)
    cases = [np.zeros(129), np.round(2.0 * rng.normal(size=129)), 700.0 * rng.normal(size=129)]
    for gap in (1e-300, 1e-310, 5e-324):
        W = np.zeros(129)
        W[1::2] = gap
        cases.append(W)
        cases.append(np.repeat(rng.normal(size=65), 2)[:129] + np.tile([0.0, gap], 65)[:129])
    for W in cases:
        got, want = _log_int_exp(W), log_int_exp_where(W)
        assert got[0] == want[0]
        np.testing.assert_array_equal(got[1], want[1])


def test_sufficient_statistic_gives_the_log_likelihood():
    # sum_i W(X_i) = sum_l u_l S_l with S_l = sum_i psi_l(X_i)
    basis = WaveletBasis(6)
    gamma = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=6).gamma()
    rng = np.random.default_rng(99)
    X = rng.random(4000)
    S = sum(np.bincount(idx, weights=val, minlength=127) for idx, val in basis.gather(X))
    for _ in range(5):
        xi = 3.0 * rng.normal(size=127)
        target = evaluate_function(CoefVec.dyadic(gamma * xi, 6), X).sum()
        assert (gamma * S) @ xi == pytest.approx(target, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("levels", [3, 6])
@pytest.mark.parametrize("n", [0, 200, 4000])
def test_de_mcmc_matches_metropolis_loop_oracle_exactly(p, levels, n):
    # same stream, same decisions: the sufficient statistic moves the
    # log-posterior by ulps only, so every kept draw and scale is equal
    spec = ScalingSpec(p, 1.0, scheme="dyadic", levels=levels)
    m = pexp_measure(spec)
    basis = WaveletBasis(levels)
    if n:
        rng = np.random.default_rng(100 + n)
        truth = CoefVec.dyadic(spec.gamma() * rng.normal(size=spec.size), levels)
        sample = de_simulate(truth, basis, n, rng)
    else:
        sample = np.empty(0)
    cfg = ChainConfig(draws=50, burn_in=200, thin=2)
    chain = de_posterior_mcmc(sample, m, cfg, np.random.default_rng(101))
    want = metropolis_loop(sample, m, basis, cfg, np.random.default_rng(101))
    assert chain.xi.shape == (50, spec.size)
    np.testing.assert_array_equal(chain.xi, want["xi"])
    assert chain.acceptance_rate == want["acceptance_rate"]
    np.testing.assert_array_equal(chain.step_log["scales"], want["scales"])
    np.testing.assert_array_equal(chain.step_log["per_level_accept"], want["per_level_accept"])
    # equal decisions do not pin the value: check the log-posterior itself
    assert chain.step_log["log_posterior"] == pytest.approx(want["log_posterior"], rel=1e-12, abs=0)


def chain_matches_loop_oracle(sample, m, basis, cfg, seed):
    chain = de_posterior_mcmc(sample, m, cfg, np.random.default_rng(seed))
    want = metropolis_loop(sample, m, basis, cfg, np.random.default_rng(seed))
    np.testing.assert_array_equal(chain.xi, want["xi"])
    assert chain.acceptance_rate == want["acceptance_rate"]
    np.testing.assert_array_equal(chain.step_log["scales"], want["scales"])
    np.testing.assert_array_equal(chain.step_log["per_level_accept"], want["per_level_accept"])
    assert chain.step_log["log_posterior"] == pytest.approx(want["log_posterior"], rel=1e-12, abs=0)
    return chain


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n", [250, 4000])
def test_de_mcmc_matches_loop_oracle_on_a_full_length_chain(p, n):
    # criterion 11's chain length: 12,600 level proposals, every decision equal
    spec = ScalingSpec(p, 1.0, scheme="dyadic", levels=6)
    basis = WaveletBasis(6)
    rng = np.random.default_rng(110 + n)
    truth = CoefVec.dyadic(spec.gamma() * rng.normal(size=spec.size), 6)
    sample = de_simulate(truth, basis, n, rng)
    cfg = ChainConfig(draws=150, burn_in=1200, thin=4)
    chain = chain_matches_loop_oracle(sample, pexp_measure(spec), basis, cfg, 111)
    assert 0.0 < chain.acceptance_rate < 1.0


def de_case(p, levels, n, seed):
    """(sample, measure, basis) of a density chain on a random truth."""
    spec = ScalingSpec(p, 1.0, scheme="dyadic", levels=levels)
    basis = WaveletBasis(levels)
    rng = np.random.default_rng(seed)
    truth = CoefVec.dyadic(spec.gamma() * rng.normal(size=spec.size), levels)
    return de_simulate(truth, basis, n, rng), pexp_measure(spec), basis


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_de_mcmc_leaves_the_generator_where_the_loop_oracle_does(p):
    # all of an iteration's draws come first, every level's normals then
    # one uniform per level: the same calls in the same order as the loop
    sample, m, basis = de_case(p, 4, 300, 120)
    cfg = ChainConfig(draws=20, burn_in=60, thin=3)
    rng, ref_rng = np.random.default_rng(121), np.random.default_rng(121)
    de_posterior_mcmc(sample, m, cfg, rng)
    metropolis_loop(sample, m, basis, cfg, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "levels, draws, burn_in, thin",
    [(0, 50, 200, 2), (4, 40, 0, 2), (4, 40, 100, 1), (4, 1, 100, 3), (0, 1, 0, 1)],
)
def test_de_mcmc_matches_loop_oracle_on_edge_shapes(levels, draws, burn_in, thin):
    # one level (a single reduceat start), no burn-in (no adaptation), no
    # thinning and a single kept draw
    sample, m, basis = de_case(1.5, levels, 400, 122)
    cfg = ChainConfig(draws=draws, burn_in=burn_in, thin=thin)
    chain = chain_matches_loop_oracle(sample, m, basis, cfg, 123)
    assert chain.xi.shape == (draws, m.spec.size)


@pytest.mark.parametrize("lam", [1e200, 1e300])
def test_de_mcmc_extreme_prior_scale_matches_loop_oracle(lam):
    # W' reaches ~lam, so e^{t - log Z} overflows and every shifted sum falls
    # back to the full normalizer; both chains must reject every proposal
    # without a warning (pytest makes RuntimeWarning an error)
    basis = WaveletBasis(3)
    spec = ScalingSpec(1.0, 1.0, 1, lam, "dyadic", levels=3)
    truth = CoefVec.dyadic(spec.unit().gamma() * np.random.default_rng(112).normal(size=15), 3)
    sample = de_simulate(truth, basis, 50, np.random.default_rng(113))
    cfg = ChainConfig(draws=50, burn_in=200, thin=2)
    chain = chain_matches_loop_oracle(sample, pexp_measure(spec), basis, cfg, 114)
    assert chain.acceptance_rate == 0.0 and not chain.xi.any()


def test_de_mcmc_rejects_overflowing_prior_scale():
    # gamma S overflows to inf; this used to warn, then raise FloatingPointError
    basis = WaveletBasis(3)
    spec = ScalingSpec(1, 1, 1, 1e307, "dyadic", levels=3)
    truth = CoefVec.dyadic(spec.unit().gamma() * np.random.default_rng(112).normal(size=15), 3)
    sample = de_simulate(truth, basis, 50, np.random.default_rng(113))
    cfg = ChainConfig(draws=50, burn_in=200, thin=2)
    with pytest.raises(ValueError, match="overflows"):
        de_posterior_mcmc(sample, pexp_measure(spec), cfg, np.random.default_rng(114))


def near_cases():
    """(W, shift) pairs for the shifted normalizer."""
    rng = np.random.default_rng(115)
    W = rng.normal(size=129)
    flat = np.repeat(rng.normal(size=65), 2)[:129]  # equal neighbours: d = 0
    tiny = flat + np.tile([0.0, 3e-13], 65)[:129]  # 0 < |d| < 1e-12
    hi, lo = 700.0 + rng.normal(size=129), -700.0 + rng.normal(size=129)
    valley = np.full(129, -740.0)  # e^{a - shift} is subnormal next to the peak
    valley[-1] = -30.0
    cases = [(W, _log_int_exp(W)[0]), (W, 0.0), (flat, 0.3), (tiny, -0.2), (hi, 700.0),
             (lo, -700.0), (hi, 0.0), (lo, 0.0), (valley, 0.0), (W, 600.0), (W, -600.0)]
    # overflowed sums (e^{1000}, e^{1e300}) and an all-underflow sum fall back
    cases += [(W, -1000.0), (W, 1000.0), (np.r_[-1e300, 1e300, np.zeros(127)], 0.0)]
    return cases


@pytest.mark.parametrize("W, shift", near_cases())
def test_log_int_exp_near_matches_the_full_normalizer(W, shift):
    # each case as a batch of one row, given a nearby shift
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # as the chain calls it
        got = _log_int_exp_shifted(W[None], shift)
    want = _log_int_exp(W)[0]
    assert len(got) == 1 and isinstance(got[0], float)
    assert got[0] == pytest.approx(want, rel=1e-13, abs=1e-13 * abs(shift))


def near_batch():
    """Every near case's W as one batch, with a seam: a row of +700s next to
    a row of -700s, whose straddling segment would overflow at a low shift."""
    return np.stack([W for W, _ in near_cases()] + [np.full(129, 700.0), np.full(129, -700.0)])


@pytest.mark.parametrize("shift", sorted({shift for _, shift in near_cases()}))
def test_log_int_exp_shifted_matches_the_full_normalizer(shift):
    # one batch mixes ordinary rows with rows that fall back (overflowed and
    # all-underflow sums), under the chain's errstate, so any escaping
    # RuntimeWarning fails it
    batch = near_batch()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = _log_int_exp_shifted(batch, shift)
    assert len(got) == len(batch) and all(isinstance(g, float) for g in got)
    for g, W in zip(got, batch):
        assert g == pytest.approx(_log_int_exp(W)[0], rel=1e-13, abs=1e-13 * abs(shift))


@pytest.mark.parametrize("shift", [0.0, -700.0, 700.0])
def test_log_int_exp_shifted_rows_do_not_depend_on_their_neighbours(shift):
    # a row gives the same bits alone and at any position of the batch, so no
    # accept decision depends on which level was accepted last
    batch = near_batch()
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = [_log_int_exp_shifted(W[None], shift)[0] for W in batch]
        for r in range(len(batch)):
            got = _log_int_exp_shifted(np.roll(batch, r, axis=0), shift)
            assert np.roll(got, -r).tolist() == want


@pytest.mark.parametrize("lam", [1.0, 1e200])
def test_de_mcmc_runs_one_normalizer_pass_per_iteration_and_per_accept(lam, monkeypatch):
    # one pass per iteration, and one more after each accept below the top
    # level; at lam = 1e200 every proposal is rejected
    calls = []

    def counted(W, shift):
        calls.append(len(W))
        return _log_int_exp_shifted(W, shift)

    monkeypatch.setattr(models, "_log_int_exp_shifted", counted)
    basis = WaveletBasis(3)
    spec = ScalingSpec(1.0, 1.0, 1, lam, "dyadic", levels=3)
    truth = CoefVec.dyadic(spec.unit().gamma() * np.random.default_rng(112).normal(size=15), 3)
    sample = de_simulate(truth, basis, 50, np.random.default_rng(113))
    cfg = ChainConfig(draws=50, burn_in=200, thin=2)
    chain = de_posterior_mcmc(sample, pexp_measure(spec), cfg, np.random.default_rng(114))
    total = cfg.burn_in + cfg.draws * cfg.thin
    accepts = np.rint(chain.step_log["per_level_accept"] * total).astype(int)
    assert len(calls) == total + accepts[:-1].sum()
    assert calls.count(4) == total
    if lam > 1.0:
        assert len(calls) == total and chain.acceptance_rate == 0.0
    else:
        assert accepts[:-1].sum() > 0


def test_log_int_exp_rows_match_single_rows_exactly():
    rng = np.random.default_rng(116)
    rows = 3.0 * rng.normal(size=(2, 5, 33))
    rows[0, 1] = 0.0  # a flat row: every gap floored
    rows[1, 2, ::2] = 700.0
    log_z, shares = _log_int_exp(rows)
    assert log_z.shape == (2, 5) and shares.shape == (2, 5, 32)
    for i, j in np.ndindex(2, 5):
        one = _log_int_exp(rows[i, j])
        assert log_z[i, j] == one[0]
        np.testing.assert_array_equal(shares[i, j], one[1])


@pytest.mark.parametrize(
    "bad",
    [
        {"draws": 150, "burn_in": 1200, "thin": 0},
        {"draws": 0, "burn_in": 1200, "thin": 4},
        {"draws": -2, "burn_in": 1200, "thin": 4},
        {"draws": 5, "burn_in": -3, "thin": 4},
    ],
)
def test_chain_config_rejects_empty_or_negative_sizes(bad):
    with pytest.raises(ValueError, match="ChainConfig"):
        ChainConfig(**bad)


@pytest.mark.slow
def test_de_mcmc_prior_recovery_without_data():
    # no observations: chain marginals must match the prior f_p
    spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=3)
    m = pexp_measure(spec)
    sample = np.empty(0)
    cfg = ChainConfig(draws=10000, burn_in=1500, thin=2)
    chain = de_posterior_mcmc(sample, m, cfg, np.random.default_rng(87))
    pr = PExpParams(1.0)
    for idx in (0, 3, 10):
        xs = chain.xi[:, idx]
        d = stats.kstest(xs, lambda t: cdf(pr, t)).statistic
        assert d < 0.05
    assert 0.1 <= chain.acceptance_rate <= 0.6


def test_de_mcmc_acceptance_and_detailed_balance():
    spec = ScalingSpec(1.5, 1.0, scheme="dyadic", levels=3)
    m = pexp_measure(spec)
    basis = WaveletBasis(3)
    truth = CoefVec.dyadic(np.zeros(15), 3)
    sample = de_simulate(truth, basis, 200, np.random.default_rng(88))
    cfg = ChainConfig(draws=50, burn_in=300, thin=1)
    chain = de_posterior_mcmc(sample, m, cfg, np.random.default_rng(89))
    assert 0.05 < chain.acceptance_rate < 0.7
    assert chain.xi.shape == (50, 15)
    # Metropolis ratio identity: a(x->y) pi(x) = a(y->x) pi(y) for symmetric
    # proposals, since both equal min(pi(x), pi(y))
    rng = np.random.default_rng(90)
    for _ in range(20):
        lpx, lpy = rng.normal(size=2)
        a_xy = min(1.0, math.exp(lpy - lpx))
        a_yx = min(1.0, math.exp(lpx - lpy))
        assert a_xy * math.exp(lpx) == pytest.approx(a_yx * math.exp(lpy), rel=1e-12)


def test_de_mcmc_posterior_mode_tracks_strong_data():
    # p=2, plenty of data: posterior mean density close to the truth
    spec = ScalingSpec(2.0, 1.0, scheme="dyadic", levels=3)
    m = pexp_measure(spec)
    basis = WaveletBasis(3)
    vals = np.zeros(15)
    vals[0] = 0.8
    truth = CoefVec.dyadic(vals, 3)
    pi0 = de_density(truth, basis)
    sample = de_simulate(truth, basis, 4000, np.random.default_rng(91))
    cfg = ChainConfig(draws=150, burn_in=800, thin=2)
    chain = de_posterior_mcmc(sample, m, cfg, np.random.default_rng(92))
    post_mean = CoefVec.dyadic(chain.u.mean(axis=0), 3)
    h = hellinger(de_density(post_mean, basis), pi0)
    assert h < 0.08


@pytest.mark.slow
def test_de_mcmc_mean_matches_penalized_mle_oracle():
    # p=2: the posterior mode is the penalized MLE; an independent optimizer
    # (L-BFGS on the negative log-posterior) must land where the chain sits
    from scipy.optimize import minimize

    spec = ScalingSpec(2.0, 1.0, scheme="dyadic", levels=3)
    m = pexp_measure(spec)
    basis = WaveletBasis(3)
    rng = np.random.default_rng(94)
    vals = spec.gamma() * rng.normal(size=15)
    truth = CoefVec.dyadic(vals, 3)
    X = de_simulate(truth, basis, 6000, rng)
    gamma = spec.gamma()

    def neg_logpost(xi):
        u = CoefVec.dyadic(gamma * xi, 3)
        dens = de_density(u, basis)
        at_x = np.interp(X, basis.node_grid(), np.log(dens))
        return -(at_x.sum() - 0.5 * (xi**2).sum())

    opt = minimize(neg_logpost, np.zeros(15), method="Nelder-Mead",
                   options={"maxiter": 20000, "xatol": 1e-6, "fatol": 1e-8})
    cfg = ChainConfig(draws=300, burn_in=1000, thin=2)
    chain = de_posterior_mcmc(
        de_simulate(truth, basis, 6000, np.random.default_rng(94 + 1)), m, cfg,
        np.random.default_rng(95),
    )
    # the chain explores the posterior ball around the mode: compare means
    # to the optimizer mode within a few posterior standard deviations
    post_sd = chain.xi.std(axis=0)
    gap = np.abs(chain.xi.mean(axis=0) - opt.x)
    assert np.all(gap < 4 * post_sd + 0.05)


def test_wn_rejection_sampler_finite_for_extreme_observations():
    # very informative data push the posterior far from the prior scale; the
    # tangent envelope must still follow it and return finite draws
    spec = lin_spec(1.5, 1.0, 4)
    m = pexp_measure(spec)
    y = np.array([50.0, -30.0, 10.0, 0.001])
    data = WhiteNoiseData(10.0, CoefVec.linear(y))
    xi, _ = univariate.tilted_sample(*tilted_args(data, m), np.random.default_rng(96), (200, 4))
    assert np.isfinite(xi).all()


# --- Hellinger -------------------------------------------------------------------


def test_density_rows_match_one_draw_at_a_time():
    # a cell evaluates all its draws at once; each row must equal its own call
    basis = WaveletBasis(5)
    rows = 0.7 * np.random.default_rng(102).standard_normal((12, 63))
    dens = de_density(rows, basis)
    single = [de_density(CoefVec.dyadic(r, 5), basis) for r in rows]
    assert np.array_equal(dens, np.array(single))
    pi0 = de_density(CoefVec.dyadic(rows[0] / 2.0, 5), basis)
    h = hellinger(dens, pi0)
    assert isinstance(h, np.ndarray) and h.shape == (12,)
    assert np.array_equal(h, [hellinger(d, pi0) for d in single])
    # shorter rows leave the finer levels out
    short = rows[:, :15]
    assert np.array_equal(
        evaluate_function(short, basis.node_grid()),
        [evaluate_function(CoefVec.dyadic(r, 3), basis.node_grid()) for r in short],
    )
    with pytest.raises(ValueError):
        evaluate_function(rows[:, :14], basis.node_grid())


def test_density_truth_may_be_coarser_than_the_basis_not_finer():
    # a finer u is not linear between the basis nodes, so neither its
    # density nor its sample can be read there
    coarse = de_density(CoefVec.dyadic(np.zeros(15), 3), WaveletBasis(5))
    assert np.array_equal(coarse, np.ones(65))
    fine = CoefVec.dyadic(np.zeros(127), 6)
    for call in (
        lambda: de_density(fine, WaveletBasis(3)),
        lambda: de_density(np.zeros((2, 127)), WaveletBasis(3)),
        lambda: de_simulate(fine, WaveletBasis(3), 10, np.random.default_rng(0)),
    ):
        with pytest.raises(ValueError, match="127 coefficients exceed the 15 of the 3-level"):
            call()


def test_hellinger_identical_zero():
    assert hellinger(np.ones(33), np.ones(33)) == 0.0
    basis = WaveletBasis(4)
    dens = de_density(CoefVec.dyadic(np.random.default_rng(92).normal(size=31), 4), basis)
    assert hellinger(dens, dens) == 0.0


def test_hellinger_separated_tilts_approach_sqrt2():
    # e^{cx} against e^{-cx}: affinity (c/2) / sinh(c/2), so H -> sqrt(2)
    hs = []
    for c in (1.0, 5.0, 20.0, 80.0):
        target = math.sqrt(2.0 - c / math.sinh(c / 2.0))
        hs.append(hellinger(tilt(c), tilt(-c)))
        assert hs[-1] == pytest.approx(target, rel=1e-10)
    assert hs == sorted(hs)
    assert hs[-1] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_hellinger_uniform_vs_exponential_closed_form():
    # A = int sqrt(c e^{cx} / (e^c - 1)) dx = (2 / c) expm1(c / 2) sqrt(c / expm1(c))
    for c in (0.5, 2.0, -3.0, 10.0):
        affinity = 2.0 / c * math.expm1(c / 2.0) * math.sqrt(c / math.expm1(c))
        target = math.sqrt(2.0 - 2.0 * affinity)
        assert hellinger(np.ones(129), tilt(c)) == pytest.approx(target, rel=1e-10)
        # both normalizers divide out, so the scale of either input is irrelevant
        scaled = hellinger(np.full(129, 5.0), 0.2 * tilt(c))
        assert scaled == pytest.approx(target, rel=1e-10)


def test_hellinger_rejects_negative():
    for bad in (-np.ones(33), np.zeros(33), np.r_[np.ones(32), 0.0]):
        with pytest.raises(ValueError):
            hellinger(bad, np.ones(33))
        with pytest.raises(ValueError):
            hellinger(np.ones(33), bad)


def test_hellinger_metric_properties():
    basis = WaveletBasis(4)
    rng = np.random.default_rng(93)
    ds = [
        de_density(CoefVec.dyadic(rng.normal(size=31) * 0.4, 4), basis)
        for _ in range(3)
    ]
    d01 = hellinger(ds[0], ds[1])
    d10 = hellinger(ds[1], ds[0])
    assert d01 == d10  # symmetry exact
    assert 0.0 < d01 < math.sqrt(2.0)
    assert hellinger(ds[0], ds[2]) <= d01 + hellinger(ds[1], ds[2]) + 1e-12
