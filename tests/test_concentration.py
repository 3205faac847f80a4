import math

import numpy as np
import pytest
from oracles import norm_samples_blocks, projected_subgradient_batch, smallball_agree

from pexp import concentration
from pexp.concentration import (
    SmallBallResolutionError,
    ZeroHitsError,
    _kkt_residual,
    concentration_fn,
    fg_values,
    inf_term_exact,
    inf_term_truncation_ub,
    rate_solve_numeric,
    smallball_l2_tilted,
    smallball_mc,
    smallball_slope,
    smallball_sup_nodes,
    unit_norm_sample,
)
from pexp.measure import PExpMeasure, WaveletBasis, pexp_measure
from pexp.sequences import BesovParams, CoefVec, ScalingSpec, make_truth
from pexp.univariate import PExpParams, cdf, prox


def lin_spec(p, alpha, n, lam=1.0):
    return ScalingSpec(p, alpha, 1, lam, "linear", n=n)


# --- exact approximation term -------------------------------------------------


def test_inf_term_zero_when_feasible():
    spec = lin_spec(1.5, 1.0, 10)
    w = np.full(10, 0.01)
    value, h = inf_term_exact(w, 1.0, spec)
    assert value == 0.0
    assert np.all(h == 0)


def test_inf_term_single_active_coordinate():
    # w = (c, 0, ...), eps < |c|: value ((|c|-eps)/gamma_1)^p, h_1 = sign(c)(|c|-eps)
    for p in (1.0, 1.5, 2.0):
        spec = lin_spec(p, 1.0, 5)
        w = np.array([-0.8, 0.0, 0.0, 0.0, 0.0])
        value, h = inf_term_exact(w, 0.3, spec)
        assert value == pytest.approx(0.5**p, rel=1e-9)
        assert h[0] == pytest.approx(-0.5, abs=1e-9)
        assert np.all(h[1:] == 0)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("N", [1, 4, 256])
def test_inf_term_extreme_radii(p, N):
    # eps / ||w|| = 1e-9 brackets the multiplier upward from 1, 1 - 1e-9 downward
    spec = lin_spec(p, 0.7, N)
    w = np.random.default_rng(N).normal(size=N) * np.arange(1, N + 1.0) ** -1.0
    norm_w = float(np.linalg.norm(w))
    c = spec.gamma() ** (-p)
    values = []
    for frac in (1e-9, 1.0 - 1e-9):
        eps = frac * norm_w
        value, h = inf_term_exact(w, eps, spec)
        assert abs(np.linalg.norm(h - w) - eps) <= 1e-10 * eps + 1e-14
        assert 0.0 < value <= inf_term_truncation_ub(w, eps, spec)[0] * (1.0 + 1e-12)
        if N == 1:  # h = sign(w) (|w| - eps)
            assert value == pytest.approx(c[0] * (norm_w - eps) ** p, rel=1e-6)
        values.append(value)
    assert values[0] > values[1]


def test_kkt_certificate_sees_tiny_coordinates():
    # c p h^{p-1} = 2 lam (a - h) has its root at 1.3e-89; h = 4e-32 is off by
    # 57 orders of magnitude, yet its bracket [0, h] is narrow relative to a
    a = np.array([1e-4])
    c, lam, p = 1e8, 1e-6, 1.2
    wrong = np.array([4e-32])
    assert _kkt_residual(a, c, lam, p, wrong, np.zeros(1), wrong) > 1e-9
    h, lo, hi = prox(a, c, lam, p)
    assert h[0] == pytest.approx(1.286008e-89, rel=1e-6)
    assert _kkt_residual(a, c, lam, p, h, lo, hi) <= 1e-9


def test_inf_term_monotone_and_continuous_in_eps():
    spec = lin_spec(1.3, 0.7, 40)
    rng = np.random.default_rng(40)
    w = rng.normal(size=40) * np.arange(1, 41.0) ** -1.0
    eps_grid = np.linspace(0.05, 1.2, 60)
    vals = [inf_term_exact(w, e, spec)[0] for e in eps_grid]
    assert np.all(np.diff(vals) <= 1e-12)
    jumps = np.abs(np.diff(vals)) / (np.abs(np.diff(eps_grid)))
    assert np.isfinite(jumps).all()


def test_inf_term_matches_subgradient_oracle():
    rng = np.random.default_rng(41)
    ws, cs, epss, ps, exact = [], [], [], [], []
    for trial in range(12):
        dim = int(rng.integers(2, 5))
        p = [1.0, 1.5, 2.0][trial % 3]
        spec = lin_spec(p, float(rng.uniform(0.3, 1.5)), dim)
        w = rng.normal(size=dim) * rng.uniform(0.5, 2.0)
        eps = float(rng.uniform(0.1, 0.9)) * float(np.linalg.norm(w))
        ws.append(w)
        cs.append(spec.gamma() ** (-p))
        epss.append(eps)
        ps.append(p)
        exact.append(inf_term_exact(w, eps, spec)[0])
    oracle = projected_subgradient_batch(ws, cs, epss, ps, iters=2 * 10**5, seed=1)
    np.testing.assert_allclose(exact, oracle, atol=1e-6)


def test_truncation_ub_dominates_exact():
    spec = lin_spec(2.0, 1.0, 60)
    w = make_truth(BesovParams(1.0, 2.0, 1), n=60).values
    for eps in (0.02, 0.1, 0.4):
        v_exact, _ = inf_term_exact(w, eps, spec)
        v_ub, L = inf_term_truncation_ub(w, eps, spec)
        assert v_exact <= v_ub + 1e-12
        assert 0 < L <= 60


def test_truncation_ub_feasible_zero():
    spec = lin_spec(1.5, 1.0, 10)
    w = np.full(10, 0.01)
    assert inf_term_truncation_ub(w, 10.0, spec) == (0.0, 0)


@pytest.mark.slow
def test_truncation_ub_slope_matches_lemma():
    # beta=1, q=2, alpha=1, p=2, d=1: upper-bound exponent 2p((b-a)q-d)/((2b+d)q-2d)
    bp = BesovParams(1.0, 2.0, 1)
    w = make_truth(bp, n=2 * 10**5)
    spec = lin_spec(2.0, 1.0, len(w))
    eps_grid = np.geomspace(1e-3, 1e-1, 9)
    vals = [inf_term_truncation_ub(w.values, e, spec)[0] for e in eps_grid]
    slope = np.polyfit(np.log(eps_grid), np.log(vals), 1)[0]
    # with the margin-delta truth the effective smoothness is beta + delta
    beta_eff = 1.0 + 0.05
    theory = 2 * 2.0 * ((beta_eff - 1.0) * 2 - 1) / ((2 * beta_eff + 1) * 2 - 2)
    assert slope == pytest.approx(theory, abs=0.1 * abs(theory))


# --- small-ball Monte Carlo ----------------------------------------------------


def test_smallball_huge_ball_neglog_near_zero():
    m = pexp_measure(lin_spec(2.0, 1.0, 32))
    scale = math.sqrt(float((m.spec.gamma() ** 2).sum()))
    est = smallball_mc(m, 5 * scale, "l2", 20000, np.random.default_rng(50))
    assert est.neglog < 0.01


def test_smallball_univariate_normal_oracle():
    # truncation N=1, p=2, gamma_1=1: p_hat -> P(|Z| <= eps)
    m = pexp_measure(lin_spec(2.0, 1.0, 1))
    est = smallball_mc(m, 0.9, "l2", 2 * 10**5, np.random.default_rng(51))
    target = 2 * cdf(PExpParams(2.0), 0.9) - 1
    lo, hi = est.ci
    assert -math.log(target) >= lo - 1e-12
    assert -math.log(target) <= hi + 1e-12


def test_smallball_neglog_monotone_in_eps():
    m = pexp_measure(lin_spec(1.0, 1.0, 64))
    ests = smallball_mc(m, [0.4, 0.7, 1.0, 1.4], "l2", 10**5, np.random.default_rng(52))
    neglogs = [e.neglog for e in ests]
    assert np.all(np.diff(neglogs) < 0)


def test_smallball_zero_hits_raises():
    m = pexp_measure(lin_spec(2.0, 1.0, 64))
    with pytest.raises(ZeroHitsError):
        smallball_mc(m, 1e-6, "l2", 2000, np.random.default_rng(53))


def test_smallball_sup_norm_runs():
    spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=5)
    m = pexp_measure(spec)
    est = smallball_mc(m, 1.0, "sup", 20000, np.random.default_rng(54))
    assert 0 < est.p_hat < 1


def test_smallball_slope_fit():
    m = pexp_measure(lin_spec(1.0, 1.0, 128))
    ests = smallball_mc(
        m, np.geomspace(0.3, 1.5, 7), "l2", 10**5, np.random.default_rng(55)
    )
    slope, se = smallball_slope(ests)
    assert slope < 0 and se < 0.1


@pytest.mark.parametrize("norm", ["l2", "sup"])
def test_smallball_passed_sample_matches_plain_call(norm):
    # the sorted sample drawn from a generator answers every eps exactly as a
    # plain call on a copy of that generator does
    if norm == "l2":
        m, basis = pexp_measure(lin_spec(1.5, 1.0, 64)), None
    else:
        m = pexp_measure(ScalingSpec(1.0, 1.0, scheme="dyadic", levels=5))
        basis = WaveletBasis(5)
    eps = [0.4, 0.7, 1.0, 1.4]
    sample = unit_norm_sample(m, norm, 20000, np.random.default_rng(70), basis)
    plain = smallball_mc(m, eps, norm, 20000, np.random.default_rng(70), basis)
    passed = smallball_mc(m, eps, norm, sample=sample)
    assert [(e.hits, e.samples, e.neglog, e.ci) for e in passed] == [
        (e.hits, e.samples, e.neglog, e.ci) for e in plain
    ]


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_unit_norm_sample_l2_matches_block_oracle_for_any_split(p, monkeypatch):
    # four blocks of 300 rows against the oracle's one block of 1000: the l2
    # draw at p = 1 and p = 2 is one |xi| draw per coordinate, so the split
    # moves neither the norms nor the generator state left behind
    m = pexp_measure(lin_spec(p, 1.0, 32, lam=2.0))
    monkeypatch.setattr(concentration, "BLOCK_FLOATS", 300 * 32)
    rng, ref_rng = np.random.default_rng(73), np.random.default_rng(73)
    got = unit_norm_sample(m, "l2", 1000, rng)
    ref = norm_samples_blocks(PExpMeasure(m.spec.unit()), "l2", 1000, ref_rng)
    assert np.array_equal(got, np.sort(ref))
    assert rng.random() == ref_rng.random()


def test_unit_norm_sample_sup_matches_block_oracle_in_one_block():
    # at p = 1 the signed draw is the oracle's exponential block, then its
    # sign block
    m = pexp_measure(ScalingSpec(1.0, 1.0, lam=0.5, scheme="dyadic", levels=5))
    rng, ref_rng = np.random.default_rng(74), np.random.default_rng(74)
    got = unit_norm_sample(m, "sup", 3000, rng)
    ref = norm_samples_blocks(PExpMeasure(m.spec.unit()), "sup", 3000, ref_rng)
    assert np.array_equal(got, np.sort(ref))
    assert rng.random() == ref_rng.random()


def test_smallball_generic_p_matches_exact_one_coordinate_law():
    # N = 1: the norm is lam |xi|, so mu(eps B) = 2 F(eps / lam) - 1 exactly
    lam = 0.7
    m = pexp_measure(lin_spec(1.5, 1.0, 1, lam=lam))
    eps = [0.1, 0.5, 1.5]
    ests = smallball_mc(m, eps, "l2", 10**5, np.random.default_rng(75))
    for e, est in zip(eps, ests):
        exact = -math.log(2.0 * cdf(m.params, e / lam) - 1.0)
        assert est.ci[0] <= exact <= est.ci[1]


def test_smallball_rejects_unsorted_sample():
    m = pexp_measure(lin_spec(1.0, 1.0, 8))
    with pytest.raises(ValueError):
        smallball_mc(m, 0.5, "l2", sample=np.array([1.0, 0.5, 2.0]))


# --- deep-regime small balls ---------------------------------------------------


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_smallball_tilted_univariate_oracle(p):
    # N=1: mu(eps B) = P(|xi| <= eps) exactly.  eps=2 is plain Monte Carlo
    # (theta=0); at p=1, eps=0.9 and eps<=1e-3 use the two rejection branches;
    # eps=1e-8 sits at -log mu ~ 18, far below the Monte Carlo guard.  The
    # exact value must lie within 3 standard errors, which are below 1%.
    m = pexp_measure(lin_spec(p, 1.0, 1))
    eps = [2.0, 0.9, 1e-3, 1e-8]
    ests = smallball_l2_tilted(m, eps, 20000, np.random.default_rng(65))
    for e, est in zip(eps, ests):
        exact = -math.log(cdf(PExpParams(p), e) - cdf(PExpParams(p), -e))
        se = (est.ci[1] - est.ci[0]) / (2 * 1.959963984540054)
        assert se < 0.01
        assert abs(est.neglog - exact) <= 3 * se


def test_smallball_tilted_rejects_other_p():
    m = pexp_measure(lin_spec(1.5, 1.0, 8))
    with pytest.raises(ValueError):
        smallball_l2_tilted(m, 0.5, 1000, np.random.default_rng(66))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_smallball_tilted_matches_mc(p):
    m = pexp_measure(lin_spec(p, 1.0, 64))
    eps = [0.4, 0.8]
    mc = smallball_mc(m, eps, "l2", 10**5, np.random.default_rng(67))
    tilted = smallball_l2_tilted(m, eps, 20000, np.random.default_rng(68))
    for a, b in zip(mc, tilted):
        assert smallball_agree(a, b)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_smallball_sup_nodes_single_level_exact(p):
    # levels=0: one node at 1/2 carrying lam * xi
    m = pexp_measure(ScalingSpec(p, 1.0, lam=0.7, scheme="dyadic", levels=0))
    for e in (0.05, 0.5, 2.0):
        exact = -math.log(cdf(PExpParams(p), e / 0.7) - cdf(PExpParams(p), -e / 0.7))
        assert smallball_sup_nodes(m, e, 11).neglog == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_smallball_sup_nodes_matches_mc(p):
    m = pexp_measure(ScalingSpec(p, 1.0, scheme="dyadic", levels=5))
    eps = [0.5, 1.0]
    mc = smallball_mc(m, eps, "sup", 10**5, np.random.default_rng(69))
    for a, b in zip(mc, smallball_sup_nodes(m, eps)):
        assert smallball_agree(a, b)


def test_smallball_sup_nodes_grid_convergence():
    # cells G -> 2G-1 halves the cell width; the error is second order, so
    # successive differences shrink about fourfold, in the bulk and deep
    m = pexp_measure(ScalingSpec(1.0, 1.0, scheme="dyadic", levels=7))
    eps = [0.03, 0.3, 1.5]
    g51, g101, g201 = (smallball_sup_nodes(m, eps, g) for g in (51, 101, 201))
    for a, b, c in zip(g51, g101, g201):
        d1, d2 = abs(a.neglog - b.neglog), abs(b.neglog - c.neglog)
        assert d2 < 1e-3 * c.neglog
        assert 3.0 < d1 / d2 < 5.0


def test_smallball_sup_nodes_rejects_bad_input():
    dyadic = pexp_measure(ScalingSpec(1.0, 1.0, scheme="dyadic", levels=3))
    with pytest.raises(ValueError):
        smallball_sup_nodes(dyadic, 0.5, cells=100)
    with pytest.raises(ValueError):
        smallball_sup_nodes(pexp_measure(lin_spec(1.0, 1.0, 8)), 0.5)


# --- assembled concentration function ------------------------------------------


def test_concentration_zero_center_is_smallball_only():
    m = pexp_measure(lin_spec(1.5, 1.0, 32))
    est = concentration_fn(np.zeros(32), 0.5, m, "l2", 20000, np.random.default_rng(56))
    assert est.inf_term == 0.0
    assert est.phi == est.neglog_smallball


def test_concentration_monotone_within_ci():
    m = pexp_measure(lin_spec(1.5, 1.0, 32))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    rng = np.random.default_rng(57)
    e1 = concentration_fn(w, 0.4, m, "l2", 10**5, rng)
    e2 = concentration_fn(w, 0.8, m, "l2", 10**5, rng)
    width = (e1.neglog_ci[1] - e1.neglog_ci[0]) + (e2.neglog_ci[1] - e2.neglog_ci[0])
    assert e1.phi >= e2.phi - width


def test_concentration_monotone_with_one_sample():
    # one passed sample: phi and its CI bounds are non-increasing in eps
    m = pexp_measure(lin_spec(1.5, 1.0, 32, lam=0.8))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    sample = unit_norm_sample(m, "l2", 20000, np.random.default_rng(71))
    ests = [
        concentration_fn(w, e, m, "l2", sample=sample)
        for e in np.geomspace(0.2, 1.5, 200)
    ]
    for key in (lambda e: e.phi, lambda e: e.neglog_ci[0], lambda e: e.neglog_ci[1]):
        assert np.all(np.diff([key(e) for e in ests]) <= 0.0)


def test_concentration_rescaled_identity():
    # phi_lam(eps) assembled from the unit measure matches the lam-spec path
    w = make_truth(BesovParams(1.5, 2.0, 1), n=48).values
    lam = 0.37
    spec_l = lin_spec(1.0, 1.0, 48, lam=lam)
    m_l = pexp_measure(spec_l)
    m_u = pexp_measure(spec_l.unit())
    est = concentration_fn(w, 0.5, m_l, "l2", 40000, np.random.default_rng(58))
    v_unit, _ = inf_term_exact(w, 0.5, m_u.spec)
    manual_inf = lam ** (-1.0) * v_unit
    sb = smallball_mc(m_u, 0.5 / lam, "l2", 40000, np.random.default_rng(58))
    assert est.inf_term == pytest.approx(manual_inf, rel=1e-12)
    assert est.neglog_smallball == sb.neglog  # identical stream, identical estimate
    sample = unit_norm_sample(m_l, "l2", 40000, np.random.default_rng(58))
    passed = concentration_fn(w, 0.5, m_l, "l2", sample=sample)
    assert passed.neglog_smallball == sb.neglog
    assert est.phi == pytest.approx(manual_inf / 1.0 + sb.neglog, rel=1e-12)


def test_concentration_lam_one_equals_plain():
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    m = pexp_measure(lin_spec(1.5, 1.0, 32))
    a = concentration_fn(w, 0.5, m, "l2", 20000, np.random.default_rng(59))
    b = concentration_fn(w, 0.5, m, "l2", 20000, np.random.default_rng(59))
    assert a.phi == b.phi


# --- complexity-bound functions -------------------------------------------------


def test_fg_gaussian_legs():
    f, g = fg_values(2.0, 1.0, 1, "l2", 2.0, 1.0)
    assert f == 4.0 and g == 2.0


def test_fg_l2_example():
    f, g = fg_values(1.0, 1.0, 1, "l2", 4.0, 0.5)
    assert f == pytest.approx(4 * 4 ** (1 / 3), rel=1e-12)
    assert g == pytest.approx(2 * 2 ** (2 / 3), rel=1e-12)


def test_fg_sup_setting():
    f, g = fg_values(1.5, 1.0, 1, "sup", 2.0, 0.25)
    assert f == pytest.approx(2.0 ** ((2 - 1.5 + 2 * 1.5) / 2), rel=1e-12)
    assert g == pytest.approx(4.0, rel=1e-12)


def test_fg_dominance_along_rate():
    # f(sqrt(n) eps_n) g(eps_n)^{1-p/2} <= 2 n eps_n^2 for eps_n = n^{-rate}
    from pexp.rates import RateQuery, rate_l2

    for p in (1.0, 1.5, 2.0):
        for alpha, beta in [(1.0, 1.0), (2.0, 1.0), (0.7, 1.4)]:
            expo = float(rate_l2(RateQuery(alpha, beta, p, 2.0, 1)).poly_exponent)
            for n in (10**2, 10**4, 10**6, 10**8):
                eps_n = n ** (-expo)
                f, g = fg_values(p, alpha, 1, "l2", math.sqrt(n) * eps_n, eps_n)
                assert f * g ** (1 - p / 2) <= 2.0 * n * eps_n**2 * (1 + 1e-12)


# --- rate equation solver --------------------------------------------------------


def test_rate_solve_univariate_gaussian_crossing():
    # N=1, p=2, gamma_1=1: phi_0(eps) = -log P(|Z|<=eps) exactly known
    m = pexp_measure(lin_spec(2.0, 1.0, 1))
    rng = np.random.default_rng(60)
    n = 25.0
    eps = rate_solve_numeric(np.zeros(1), m, n, mc_samples=4 * 10**5, rng=rng)
    # analytic crossing of -log(2 Phi(e) - 1) = n e^2
    from scipy.optimize import brentq

    target = brentq(
        lambda e: -math.log(2 * cdf(PExpParams(2.0), e) - 1) - n * e * e, 1e-3, 5.0
    )
    assert eps == pytest.approx(target, rel=0.08)


def test_rate_solve_decreasing_in_n():
    m = pexp_measure(lin_spec(1.0, 1.0, 64))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=64).values
    rng = np.random.default_rng(61)
    eps_small = rate_solve_numeric(w, m, 16.0, mc_samples=10**5, rng=rng)
    eps_large = rate_solve_numeric(w, m, 256.0, mc_samples=10**5, rng=rng)
    assert eps_large < eps_small


def test_rate_solve_stable_under_sample_doubling():
    m = pexp_measure(lin_spec(2.0, 1.0, 32))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    e1 = rate_solve_numeric(w, m, 64.0, mc_samples=10**5, rng=np.random.default_rng(62))
    e2 = rate_solve_numeric(
        w, m, 64.0, mc_samples=2 * 10**5, rng=np.random.default_rng(63)
    )
    assert abs(math.log(e1 / e2)) < 2 * math.log(1.02) + 0.02


def test_rate_solve_reports_resolution_failure():
    m = pexp_measure(lin_spec(2.0, 1.0, 32))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    with pytest.raises(SmallBallResolutionError):
        rate_solve_numeric(w, m, 10**7, mc_samples=20000, rng=np.random.default_rng(64))


@pytest.mark.parametrize("norm", ["l2", "sup"])
def test_rate_solve_draws_one_sample(norm, monkeypatch):
    calls = []
    original = concentration.unit_norm_sample

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(concentration, "unit_norm_sample", counting)
    if norm == "l2":
        m = pexp_measure(lin_spec(1.5, 1.0, 32))
        w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    else:
        m = pexp_measure(ScalingSpec(1.0, 1.0, scheme="dyadic", levels=4))
        w = np.zeros(m.spec.size)
    rate_solve_numeric(w, m, 16.0, 5000, np.random.default_rng(72), norm)
    assert calls == [5000]


@pytest.mark.slow
def test_rate_solve_slope_tracks_theory_on_resolvable_window():
    # matched smoothness p=2, alpha=beta=1: eps_n ~ n^{-1/3}.  The n-window is
    # capped at 2^9: beyond that the crossing needs ball probabilities below
    # the Monte Carlo guard (n eps_n^2 ~ n^{1/3} > -log p_min).
    w = make_truth(BesovParams(1.0, 2.0, 1), n=384)
    m = pexp_measure(lin_spec(2.0, 1.0, 384))
    rng = np.random.default_rng(14)
    ns = [2**k for k in range(4, 10)]
    eps = [
        rate_solve_numeric(w.values, m, n, mc_samples=5 * 10**4, rng=rng, grid_tol=0.03)
        for n in ns
    ]
    slope = np.polyfit(np.log(ns), np.log(eps), 1)[0]
    assert abs(slope + 1 / 3) < 0.05
