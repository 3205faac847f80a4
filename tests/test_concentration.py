import math

import numpy as np
import pytest
from oracles import (
    block_generators,
    norm_samples_blocks,
    projected_subgradient_batch,
    rate_solve_loop,
    smallball_agree,
    tilted_x_blocks,
)

from pexp import concentration, measure
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


def test_truncation_ub_keeps_every_coordinate_at_a_tiny_radius():
    # the tail sums total - cumsum(w^2) kept a rounding residue at L = N, so
    # below eps ~ sqrt(N ulp(total)) no L passed and the bound was (0.0, 0)
    spec = lin_spec(1.5, 1.0, 100)
    c = spec.gamma() ** -1.5
    rng = np.random.default_rng(130)
    for _ in range(50):
        w = rng.normal(size=100)
        value, L = inf_term_truncation_ub(w, 1e-12, spec)
        assert L == 100
        assert value == float((c * np.abs(w) ** 1.5).sum())


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.5, 0.0])
def test_truncation_ub_rejects_a_bad_radius(eps):
    # each returned (0.0, 0), where inf_term_exact raises
    spec = lin_spec(1.5, 1.0, 4)
    with pytest.raises(ValueError, match="finite and > 0"):
        inf_term_truncation_ub(np.array([0.3, 0.5, -0.2, 0.1]), eps, spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", [inf_term_exact, inf_term_truncation_ub])
def test_inf_terms_reject_a_non_finite_truth(solver, bad):
    # with one NaN the bound returned (0.0, 0), and the exact solve spent
    # seconds before a bracket SolverError
    spec = lin_spec(1.5, 1.0, 4)
    w = np.array([0.3, bad, -0.2, 0.1])
    with pytest.raises(ValueError, match="w must be finite"):
        solver(w, 0.5, spec)


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
    plain = smallball_mc(m, eps, norm, 20000, np.random.default_rng(70))
    passed = smallball_mc(m, eps, norm, sample=sample)
    assert [(e.hits, e.samples, e.neglog, e.ci) for e in passed] == [
        (e.hits, e.samples, e.neglog, e.ci) for e in plain
    ]


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_unit_norm_sample_l2_matches_block_oracle_for_any_split(p, monkeypatch):
    # 1000 rows of 32 coordinates in one block, in four near-equal blocks of
    # at most 300 rows, and in 13 blocks: each split gives the oracle's serial
    # block draws, norm for norm, and leaves the caller's generator at the
    # same point
    m = pexp_measure(lin_spec(p, 1.0, 32, lam=2.0))
    for block_rows in (1000, 300, 77):
        monkeypatch.setattr(measure, "BLOCK_FLOATS", block_rows * 32)
        rng, ref_rng = np.random.default_rng(73), np.random.default_rng(73)
        got = unit_norm_sample(m, "l2", 1000, rng)
        ref = norm_samples_blocks(PExpMeasure(m.spec.unit()), "l2", 1000, ref_rng, block_rows * 32)
        assert np.array_equal(got, np.sort(ref))
        assert rng.random() == ref_rng.random()


def test_unit_norm_sample_sup_matches_block_oracle_in_one_block(monkeypatch):
    # at p = 1 the signed draw is the oracle's exponential block, then its
    # sign block; 3000 rows of 65 node values fill one block
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 3000 * 65)
    m = pexp_measure(ScalingSpec(1.0, 1.0, lam=0.5, scheme="dyadic", levels=5))
    rng, ref_rng = np.random.default_rng(74), np.random.default_rng(74)
    got = unit_norm_sample(m, "sup", 3000, rng)
    ref = norm_samples_blocks(PExpMeasure(m.spec.unit()), "sup", 3000, ref_rng, 3000 * 65)
    assert np.array_equal(got, np.sort(ref))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("norm", ["l2", "sup"])
def test_unit_norm_sample_same_for_any_thread_count(norm, monkeypatch):
    # 5000 rows in 50 blocks on pools of 1 and 3 threads, against the oracle
    if norm == "l2":
        m, width = pexp_measure(lin_spec(2.0, 1.0, 64)), 64
    else:
        m, width = pexp_measure(ScalingSpec(1.0, 1.0, scheme="dyadic", levels=5)), 65
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 100 * width)
    samples = []
    for threads in (1, 3):
        monkeypatch.setattr(measure, "MC_THREADS", threads)
        samples.append(unit_norm_sample(m, norm, 5000, np.random.default_rng(76)))
    ref = norm_samples_blocks(m, norm, 5000, np.random.default_rng(76), 100 * width)
    assert np.array_equal(samples[0], samples[1])
    assert np.array_equal(samples[0], np.sort(ref))


def test_unit_norm_sample_l2_sums_squares_in_coordinate_order():
    # one block of 512 rows of 256 coordinates: the norms agree with the
    # pairwise sum of np.sum to rounding
    m = pexp_measure(lin_spec(1.0, 1.0, 256))
    got = unit_norm_sample(m, "l2", 512, np.random.default_rng(77))
    [(gen, rows)] = block_generators(512, 256, np.random.default_rng(77), measure.BLOCK_FLOATS)
    mags = gen.standard_exponential((rows, 256))
    ref = np.sqrt(np.sum((mags * m.spec.gamma()) ** 2, axis=1))
    assert np.allclose(got, np.sort(ref), rtol=4e-15, atol=0)


@pytest.mark.parametrize("samples", [0, -3])
def test_unit_norm_sample_rejects_fewer_than_one_sample(samples):
    m = pexp_measure(lin_spec(1.0, 1.0, 8))
    with pytest.raises(ValueError, match="samples must be >= 1"):
        unit_norm_sample(m, "l2", samples, np.random.default_rng(0))


def test_smallball_mc_rejects_zero_samples():
    m = pexp_measure(lin_spec(1.0, 1.0, 8))
    with pytest.raises(ValueError, match="samples must be >= 1"):
        smallball_mc(m, 0.5, "l2", 0, np.random.default_rng(0))


def test_smallball_mc_refuses_to_draw_unseeded():
    m = pexp_measure(lin_spec(1.0, 1.0, 8))
    with pytest.raises(ValueError, match="seeded rng"):
        smallball_mc(m, 0.5, "l2", 1000)


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


@pytest.mark.parametrize(
    "sample", [[0.1, math.nan], [math.nan, 0.1], [0.1, math.nan, 0.2], [-0.1, 0.2], []]
)
def test_smallball_rejects_nan_negative_or_empty_sample(sample):
    # NaN compares False both ways, so a check for descending pairs alone
    # passed [0.1, nan] and reported p = 0.5 at eps 0.5
    m = pexp_measure(lin_spec(1.0, 1.0, 8))
    with pytest.raises(ValueError):
        smallball_mc(m, 0.5, "l2", sample=np.array(sample))


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


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_smallball_tilted_matches_block_oracle(p, monkeypatch):
    # 3000 rows of 16 coordinates in 6 blocks per radius, tilted (eps = 0.3)
    # and plain (eps = 1.7, theta = 0): the hits and the estimate of the
    # oracle's serial block draws, and the caller's generator at the same point
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 500 * 16)
    m = pexp_measure(lin_spec(p, 1.0, 16))
    g2 = m.spec.gamma() ** 2
    eps = [0.3, 1.7]
    rng, ref_rng = np.random.default_rng(78), np.random.default_rng(78)
    ests = smallball_l2_tilted(m, eps, 3000, rng)
    for e, est in zip(eps, ests):
        theta = concentration._saddlepoint_theta(p, g2, e * e)
        x = tilted_x_blocks(p, theta * g2, g2, 3000, ref_rng, 500 * 16)
        inside = x <= e * e
        mean = np.where(inside, np.exp(theta * (x - e * e)), 0.0).mean()
        log_bound = theta * e * e + concentration._log_mgf_sq(p, theta * g2).sum()
        assert est.hits == inside.sum() > 0
        assert est.neglog == pytest.approx(-(log_bound + math.log(mean)), rel=1e-12, abs=1e-14)
    assert (theta == 0.0) and est.hits < 3000
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_smallball_tilted_same_for_any_thread_count(p, monkeypatch):
    # 5000 rows in 50 blocks per radius on pools of 1 and 3 threads
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 100 * 32)
    m = pexp_measure(lin_spec(p, 1.0, 32))
    results = []
    for threads in (1, 3):
        monkeypatch.setattr(measure, "MC_THREADS", threads)
        results.append(smallball_l2_tilted(m, [0.3, 0.6], 5000, np.random.default_rng(79)))
    assert results[0] == results[1]


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
def test_smallball_sup_nodes_single_level_exact(p, monkeypatch):
    # levels=0: one node at 1/2 carrying lam * xi
    monkeypatch.setattr(concentration, "SUP_CELLS", 11)
    m = pexp_measure(ScalingSpec(p, 1.0, lam=0.7, scheme="dyadic", levels=0))
    for e in (0.05, 0.5, 2.0):
        exact = -math.log(cdf(PExpParams(p), e / 0.7) - cdf(PExpParams(p), -e / 0.7))
        assert smallball_sup_nodes(m, e).neglog == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_smallball_sup_nodes_matches_mc(p):
    m = pexp_measure(ScalingSpec(p, 1.0, scheme="dyadic", levels=5))
    eps = [0.5, 1.0]
    mc = smallball_mc(m, eps, "sup", 10**5, np.random.default_rng(69))
    for a, b in zip(mc, smallball_sup_nodes(m, eps)):
        assert smallball_agree(a, b)


def test_smallball_sup_nodes_grid_convergence(monkeypatch):
    # cells G -> 2G-1 halves the cell width; the error is second order, so
    # successive differences shrink about fourfold, in the bulk and deep
    m = pexp_measure(ScalingSpec(1.0, 1.0, scheme="dyadic", levels=7))
    eps = [0.03, 0.3, 1.5]

    def at(cells):
        monkeypatch.setattr(concentration, "SUP_CELLS", cells)
        return smallball_sup_nodes(m, eps)

    g51, g101, g201 = at(51), at(101), at(201)
    for a, b, c in zip(g51, g101, g201):
        d1, d2 = abs(a.neglog - b.neglog), abs(b.neglog - c.neglog)
        assert d2 < 1e-3 * c.neglog
        assert 3.0 < d1 / d2 < 5.0


def test_smallball_sup_nodes_rejects_bad_input():
    with pytest.raises(ValueError):
        smallball_sup_nodes(pexp_measure(lin_spec(1.0, 1.0, 8)), 0.5)


# --- non-finite radii ------------------------------------------------------------

BAD_EPS = [math.nan, math.inf, [0.5, math.nan], [0.5, math.inf]]
BAD_IDS = ["nan", "inf", "grid-nan", "grid-inf"]


@pytest.mark.parametrize("eps", BAD_EPS, ids=BAD_IDS)
def test_smallball_mc_rejects_non_finite_eps(eps):
    m = pexp_measure(lin_spec(1.0, 1.0, 8))
    with pytest.raises(ValueError, match="finite and > 0"):
        smallball_mc(m, eps, "l2", 1000, np.random.default_rng(0))


@pytest.mark.parametrize("eps", BAD_EPS, ids=BAD_IDS)
def test_smallball_tilted_rejects_non_finite_eps(eps):
    m = pexp_measure(lin_spec(1.0, 1.0, 8))
    with pytest.raises(ValueError, match="finite and > 0"):
        smallball_l2_tilted(m, eps, 1000, np.random.default_rng(0))


@pytest.mark.parametrize("eps", BAD_EPS, ids=BAD_IDS)
def test_smallball_sup_nodes_rejects_non_finite_eps(eps):
    m = pexp_measure(ScalingSpec(1.0, 1.0, scheme="dyadic", levels=3))
    with pytest.raises(ValueError, match="finite and > 0"):
        smallball_sup_nodes(m, eps)


@pytest.mark.parametrize("eps", [math.nan, math.inf])
def test_inf_term_exact_rejects_non_finite_eps(eps):
    spec = lin_spec(1.5, 1.0, 8)
    w = make_truth(BesovParams(1.0, 2.0, 1), n=8).values
    with pytest.raises(ValueError, match="finite and > 0"):
        inf_term_exact(w, eps, spec)


# --- assembled concentration function ------------------------------------------


def test_concentration_zero_center_is_smallball_only():
    m = pexp_measure(lin_spec(1.5, 1.0, 32))
    sample = unit_norm_sample(m, "l2", 20000, np.random.default_rng(56))
    est = concentration_fn(np.zeros(32), 0.5, m, "l2", sample)
    assert est.inf_term == 0.0
    assert est.phi == est.neglog_smallball


def test_concentration_monotone_within_ci():
    m = pexp_measure(lin_spec(1.5, 1.0, 32))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    rng = np.random.default_rng(57)
    e1 = concentration_fn(w, 0.4, m, "l2", unit_norm_sample(m, "l2", 10**5, rng))
    e2 = concentration_fn(w, 0.8, m, "l2", unit_norm_sample(m, "l2", 10**5, rng))
    width = (e1.neglog_ci[1] - e1.neglog_ci[0]) + (e2.neglog_ci[1] - e2.neglog_ci[0])
    assert e1.phi >= e2.phi - width


def test_concentration_monotone_with_one_sample():
    # one passed sample: phi and its CI bounds are non-increasing in eps
    m = pexp_measure(lin_spec(1.5, 1.0, 32, lam=0.8))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    sample = unit_norm_sample(m, "l2", 20000, np.random.default_rng(71))
    ests = [
        concentration_fn(w, e, m, "l2", sample)
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
    est = concentration_fn(
        w, 0.5, m_l, "l2", unit_norm_sample(m_l, "l2", 40000, np.random.default_rng(58))
    )
    v_unit, _ = inf_term_exact(w, 0.5, m_u.spec)
    manual_inf = lam ** (-1.0) * v_unit
    sb = smallball_mc(m_u, 0.5 / lam, "l2", 40000, np.random.default_rng(58))
    assert est.inf_term == pytest.approx(manual_inf, rel=1e-12)
    assert est.neglog_smallball == sb.neglog  # identical stream, identical estimate
    sample = unit_norm_sample(m_l, "l2", 40000, np.random.default_rng(58))
    passed = concentration_fn(w, 0.5, m_l, "l2", sample)
    assert passed.neglog_smallball == sb.neglog
    assert est.phi == pytest.approx(manual_inf / 1.0 + sb.neglog, rel=1e-12)


def test_concentration_lam_one_equals_plain():
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    m = pexp_measure(lin_spec(1.5, 1.0, 32))
    sample_a = unit_norm_sample(m, "l2", 20000, np.random.default_rng(59))
    sample_b = unit_norm_sample(m, "l2", 20000, np.random.default_rng(59))
    a = concentration_fn(w, 0.5, m, "l2", sample_a)
    b = concentration_fn(w, 0.5, m, "l2", sample_b)
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


def test_rate_solve_rejects_zero_samples():
    # zero samples used to surface as SmallBallResolutionError ("reduce n")
    m = pexp_measure(lin_spec(2.0, 1.0, 32))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=32).values
    with pytest.raises(ValueError, match="mc_samples"):
        rate_solve_numeric(w, m, 100, mc_samples=0, rng=np.random.default_rng(64))


@pytest.mark.parametrize(
    "n, grid_tol",
    [(16, 0.0), (16, -0.5), (16, 1e-17), (16, math.nan), (16, math.inf),
     (math.nan, 0.02), (math.inf, 0.02), (0.5, 0.02)],
)
def test_rate_solve_rejects_bad_n_or_grid_tol_before_drawing(n, grid_tol):
    # grid_tol <= 0, or below the ratio floating point resolves, made the
    # bisection loop forever; a NaN grid_tol skipped it and returned the
    # bracket top, and a NaN or infinite n ended in "reduce n"
    m = pexp_measure(ScalingSpec(1.5, 1.0, 1, 1.0, "linear", n=64))
    w = make_truth(BesovParams(1.0, 2.0, 1), n=64).values
    rng = np.random.default_rng(65)
    with pytest.raises(ValueError, match="grid_tol" if n == 16 else "n must be"):
        rate_solve_numeric(w, m, n, 2000, rng, grid_tol=grid_tol)
    assert rng.random() == np.random.default_rng(65).random()  # nothing drawn


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


def _rate_family(norm, seed):
    # the benchmark's rate-solve families: l2 at p = 1.5 with a Besov truth,
    # sup at p = 1 on dyadic level 7 with seeded signs
    if norm == "l2":
        m = pexp_measure(ScalingSpec(1.5, 1.0, 1, 1.0, "linear", n=256))
        return make_truth(BesovParams(1.0, 2.0), n=256), m, None
    m = pexp_measure(ScalingSpec(1.0, 1.0, 1, 1.0, "dyadic", levels=7))
    ks = m.spec.level_index()
    signs = np.where(np.random.default_rng(seed).random(len(ks)) < 0.5, -1.0, 1.0)
    return CoefVec.dyadic(2.0 ** (-1.5 * ks) * signs, 7), m, WaveletBasis(7)


@pytest.mark.parametrize("seed", [0, 21])
def test_rate_solve_evaluates_each_eps_once(seed, monkeypatch):
    # the memoized search visits the same points as the plain loop and
    # returns the same eps, but evaluates phi at each point once
    seen = []
    plain = concentration.concentration_fn

    def recorded(w, eps, *args):
        seen.append(eps)
        return plain(w, eps, *args)

    monkeypatch.setattr(concentration, "concentration_fn", recorded)
    memo_calls = loop_calls = 0
    for i, (norm, n) in enumerate([("l2", 16), ("l2", 128), ("sup", 16), ("sup", 32)]):
        w, m, basis = _rate_family(norm, seed)
        seen.clear()
        rng = np.random.default_rng((seed, i))
        eps = rate_solve_numeric(w, m, n, 10_000, rng, norm, 0.03, basis)
        memo = list(seen)
        seen.clear()
        rng = np.random.default_rng((seed, i))
        assert eps == rate_solve_loop(w, m, n, 10_000, rng, norm, 0.03, basis)
        assert len(memo) == len(set(memo)) and set(memo) == set(seen)
        memo_calls += len(memo)
        loop_calls += len(seen)
    assert memo_calls < loop_calls


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
