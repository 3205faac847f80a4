import math

import numpy as np
import pytest
from oracles import log_int_exp_where, metropolis_loop
from scipy import integrate, stats

from pexp import univariate
from pexp.measure import WaveletBasis, evaluate_function, pexp_measure
from pexp.models import (
    ChainConfig,
    WhiteNoiseData,
    _log_int_exp,
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
        chain = wn_posterior_sample(data, m, 4000, rng, method="rejection")
        emp_mean = chain.u.mean(axis=0)
        z = np.abs(emp_mean - mean_u) / np.sqrt(var_u / 4000)
        assert z.max() < 4.0
        ratio = chain.u.var(axis=0) / var_u
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
    with pytest.raises(univariate.SamplerError, match="white-noise rejection"):
        wn_posterior_sample(data, m, 20_000, np.random.default_rng(78))


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
    assert abs(s.points.mean() - 0.5) < 3 * (1 / math.sqrt(12 * 10**5))
    d = stats.kstest(s.points, "uniform").statistic
    assert d < 1.63 / math.sqrt(10**5)


def test_de_simulate_nonuniform_ks_against_cdf():
    basis = WaveletBasis(5)
    rng = np.random.default_rng(84)
    u = CoefVec.dyadic(rng.normal(size=63) * 0.4, 5)
    n = 10**5
    s = de_simulate(u, basis, n, np.random.default_rng(85))
    F, total = exact_cdf(de_density(u, basis))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert s.points.min() >= 0.0 and s.points.max() <= 1.0
    d = stats.kstest(s.points, F).statistic
    assert d < 1.63 / math.sqrt(n)


def test_de_simulate_deterministic():
    basis = WaveletBasis(4)
    u = CoefVec.dyadic(np.zeros(31), 4)
    a = de_simulate(u, basis, 100, np.random.default_rng(86))
    b = de_simulate(u, basis, 100, np.random.default_rng(86))
    np.testing.assert_array_equal(a.points, b.points)


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
        target = evaluate_function(CoefVec.dyadic(gamma * xi, 6), basis, X).sum()
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
        sample = type("S", (), {"points": np.empty(0), "n": 0})()
    cfg = ChainConfig(draws=50, burn_in=200, thin=2)
    chain = de_posterior_mcmc(sample, m, basis, cfg, np.random.default_rng(101))
    want = metropolis_loop(sample, m, basis, cfg, np.random.default_rng(101))
    assert chain.xi.shape == (50, spec.size)
    np.testing.assert_array_equal(chain.xi, want["xi"])
    assert chain.acceptance_rate == want["acceptance_rate"]
    np.testing.assert_array_equal(chain.step_log["scales"], want["scales"])
    np.testing.assert_array_equal(chain.step_log["per_level_accept"], want["per_level_accept"])


@pytest.mark.parametrize(
    "bad", [{"thin": 0}, {"draws": 0}, {"draws": -2}, {"burn_in": -3, "draws": 5}]
)
def test_chain_config_rejects_empty_or_negative_sizes(bad):
    with pytest.raises(ValueError, match="ChainConfig"):
        ChainConfig(**bad)


@pytest.mark.slow
def test_de_mcmc_prior_recovery_without_data():
    # no observations: chain marginals must match the prior f_p
    spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=3)
    m = pexp_measure(spec)
    basis = WaveletBasis(3)
    sample = type("S", (), {"points": np.empty(0), "n": 0})()
    cfg = ChainConfig(draws=10000, burn_in=1500, thin=2)
    chain = de_posterior_mcmc(sample, m, basis, cfg, np.random.default_rng(87))
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
    chain = de_posterior_mcmc(sample, m, basis, cfg, np.random.default_rng(89))
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
    chain = de_posterior_mcmc(sample, m, basis, cfg, np.random.default_rng(92))
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
    X = de_simulate(truth, basis, 6000, rng).points
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
        de_simulate(truth, basis, 6000, np.random.default_rng(94 + 1)), m, basis, cfg,
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
    chain = wn_posterior_sample(data, m, 200, np.random.default_rng(96), method="rejection")
    assert np.isfinite(chain.xi).all()


# --- Hellinger -------------------------------------------------------------------


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
