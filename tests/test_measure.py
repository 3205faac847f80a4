import math
import multiprocessing
import os
import threading

import numpy as np
import pytest
from oracles import anderson_hits_blocks, ball_probability_loop

from pexp import measure
from pexp.measure import (
    QUADRATURE_TOL,
    PExpMeasure,
    QuadratureError,
    WaveletBasis,
    _ball_probability,
    _kink_angles,
    anderson_check,
    decentering_check,
    evaluate_function,
    pexp_measure,
    regularity_scan,
    sample_prior,
    sample_prior_block,
)
from pexp.sequences import CoefVec, ScalingSpec, z_norm_p
from pexp.univariate import PExpParams, cdf, sample, variance


def lin_spec(p, alpha, n, lam=1.0):
    return ScalingSpec(p, alpha, 1, lam, "linear", n=n)


def test_measure_params_follow_spec():
    m = PExpMeasure(lin_spec(1.5, 1.0, 4))
    assert m.params == PExpParams(1.5)
    assert PExpMeasure(m.spec.with_lam(3.0)).params == m.params


def test_degenerate_lambda_rejected():
    with pytest.raises(ValueError):
        lin_spec(2.0, 1.0, 4, lam=0.0)


def test_prior_coordinate_variances():
    # Var(u_ell) = gamma_ell^2 E xi^2 at ell in {1, 10, 100}
    m = pexp_measure(lin_spec(1.5, 1.0, 128))
    rng = np.random.default_rng(21)
    draws = sample_prior_block(m, rng, 10**5)
    g = m.spec.gamma()
    v2 = variance(m.params)
    for ell in (1, 10, 100):
        emp = draws[:, ell - 1].var()
        target = g[ell - 1] ** 2 * v2
        se = target * math.sqrt(2.0 / len(draws)) * 2  # generous spread for 4th moments
        assert abs(emp - target) < 3 * se + 1e-12


def test_prior_mean_squared_norm():
    m = pexp_measure(lin_spec(2.0, 1.0, 256))
    rng = np.random.default_rng(22)
    draws = sample_prior_block(m, rng, 2 * 10**4)
    emp = (draws**2).sum(axis=1).mean()
    target = float((m.spec.gamma() ** 2).sum())
    assert abs(emp - target) < 4 * (draws**2).sum(axis=1).std() / math.sqrt(len(draws))


def test_prior_coordinates_independent():
    m = pexp_measure(lin_spec(1.0, 1.0, 8))
    rng = np.random.default_rng(23)
    draws = sample_prior_block(m, rng, 10**5)
    z = (draws - draws.mean(axis=0)) / draws.std(axis=0)
    corr = (z[:, 2] * z[:, 5]).mean()
    assert abs(corr) < 3.0 / math.sqrt(len(draws))


def test_draws_l2_norm_stabilizes():
    # gamma in l2 so ||u||_2 converges with the truncation: extending each
    # draw from 2^8 to 2^12 coordinates barely moves its norm
    rng = np.random.default_rng(24)
    m_large = pexp_measure(lin_spec(1.5, 1.0, 2**12))
    draws = sample_prior_block(m_large, rng, 400)
    full = np.linalg.norm(draws, axis=1)
    head = np.linalg.norm(draws[:, : 2**8], axis=1)
    assert np.median((full - head) / full) < 1e-3


def test_sample_prior_returns_coefvec():
    m = pexp_measure(ScalingSpec(1.5, 1.0, scheme="dyadic", levels=4))
    u = sample_prior(m, np.random.default_rng(0))
    assert u.scheme == "dyadic" and u.levels == 4 and len(u) == 31


# --- wavelet basis -----------------------------------------------------------


def test_evaluate_zero_function():
    u = CoefVec.dyadic(np.zeros(31), 4)
    assert np.all(evaluate_function(u, np.linspace(0, 1, 17)) == 0)


def test_evaluate_single_level0_hat():
    vals = np.zeros(15)
    vals[0] = 1.0
    u = CoefVec.dyadic(vals, 3)
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(evaluate_function(u, x), [0, 0.5, 1.0, 0.5, 0])


def test_evaluate_is_linear_in_coefficients():
    rng = np.random.default_rng(25)
    x = rng.random(50)
    a = rng.normal(size=63)
    b = rng.normal(size=63)
    fa = evaluate_function(CoefVec.dyadic(a, 5), x)
    fb = evaluate_function(CoefVec.dyadic(b, 5), x)
    fab = evaluate_function(CoefVec.dyadic(2 * a - 3 * b, 5), x)
    np.testing.assert_allclose(fab, 2 * fa - 3 * fb, atol=1e-12)


def test_sup_norm_level_bound():
    # ||u||_inf <= sum_k 2^{k/2} max_l |u_kl| for the hat system
    basis = WaveletBasis(6)
    rng = np.random.default_rng(26)
    vals = rng.normal(size=127)
    u = CoefVec.dyadic(vals, 6)
    dense = np.abs(evaluate_function(u, np.linspace(0, 1, 4097))).max()
    ks = np.concatenate([np.full(2**k, k) for k in range(7)])
    bound = sum(
        2.0 ** (k / 2) * np.abs(vals[ks == k]).max() for k in range(7)
    )
    assert dense <= bound + 1e-12
    on_nodes = np.abs(evaluate_function(u, basis.node_grid())).max()
    assert on_nodes >= dense - 1e-12


def test_sup_norm_exact_on_node_grid():
    basis = WaveletBasis(4)
    rng = np.random.default_rng(27)
    u = CoefVec.dyadic(rng.normal(size=31), 4)
    exact = np.abs(evaluate_function(u, basis.node_grid())).max()
    dense = np.abs(evaluate_function(u, np.linspace(0, 1, 2**12 + 1))).max()
    assert exact == pytest.approx(dense, rel=1e-12)


# --- regularity scan ---------------------------------------------------------


@pytest.mark.slow
def test_regularity_scan_verdicts():
    m = pexp_measure(lin_spec(1.5, 1.0, 2**14))
    rng = np.random.default_rng(28)
    rows = regularity_scan(m, [0.5, 1.0, 1.5], 2.0, 40, rng)
    verdicts = {r.s: r.verdict for r in rows}
    assert verdicts[0.5] == "CONVERGED"
    assert verdicts[1.0] == "DIVERGING"
    assert verdicts[1.5] == "DIVERGING"


def test_regularity_scan_same_for_any_thread_count(monkeypatch):
    # 30 trials of 2^14 coordinates in 8 blocks on pools of 1 and 3 threads
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 4 * 2**14)
    m = pexp_measure(lin_spec(1.5, 1.0, 64))
    rows = []
    for threads in (1, 3):
        monkeypatch.setattr(measure, "MC_THREADS", threads)
        rows.append(regularity_scan(m, [0.5, 1.0], 2.0, 30, np.random.default_rng(81)))
    for a, b in zip(*rows):
        assert np.array_equal(a.median_norms, b.median_norms)
        assert (a.slope, a.verdict) == (b.slope, b.verdict)


def test_regularity_scan_needs_trials():
    m = pexp_measure(lin_spec(1.5, 1.0, 64))
    with pytest.raises(ValueError):
        regularity_scan(m, [0.5], 2.0, 10, np.random.default_rng(0))


# --- Anderson inequality -----------------------------------------------------


def test_anderson_zero_shift_exact_tie():
    m = pexp_measure(lin_spec(1.0, 1.0, 3))
    [res] = anderson_check(m, 1.0, np.zeros((1, 3)), 10**5, np.random.default_rng(29))
    assert res.p_centered == res.p_shifted
    assert res.verdict == "PASS"


def test_anderson_unit_shift():
    m = pexp_measure(lin_spec(1.0, 1.0, 3))
    [res] = anderson_check(m, 1.0, [[1.0, 0.0, 0.0]], 2 * 10**5, np.random.default_rng(30))
    assert res.p_shifted <= res.p_centered
    assert res.verdict == "PASS"


def test_anderson_random_shifts_pass():
    rng = np.random.default_rng(31)
    for p in (1.0, 1.5, 2.0):
        m = pexp_measure(lin_spec(p, 1.0, 3))
        for _ in range(4):
            shift = rng.normal(scale=0.7, size=3)
            [res] = anderson_check(m, 1.0, shift[None], 10**5, rng)
            assert res.verdict == "PASS"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_anderson_counts_match_row_sums(dim, monkeypatch):
    # 50,000 rows in 2 to 5 blocks: per block, the column-accumulated squared
    # norms give the counts of np.sum(axis=1) in the oracle's serial draws,
    # and the caller's generator is left at the same point
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 30_000)
    m = pexp_measure(lin_spec(1.5, 1.0, dim))
    shift = np.random.default_rng(40 + dim).normal(scale=0.8, size=dim)
    n = 50_000
    rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
    [res] = anderson_check(m, 1.0, shift[None], n, rng)
    hits_c, [hits_s] = anderson_hits_blocks(m, 1.0, shift[None], n, ref_rng, 30_000)
    assert round(res.p_centered * n) == hits_c
    assert round(res.p_shifted * n) == hits_s
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("dim", [1, 3])
def test_anderson_same_for_any_thread_count(dim, monkeypatch):
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 6_000)
    m = pexp_measure(lin_spec(1.0, 1.0, dim))
    shift = np.full((1, dim), 0.4)
    results = []
    for threads in (1, 3):
        monkeypatch.setattr(measure, "MC_THREADS", threads)
        results.append(anderson_check(m, 1.0, shift, 40_001, np.random.default_rng(42)))
    assert results[0] == results[1]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_anderson_stack_rows_equal_single_calls(p, dim, monkeypatch):
    # 20,001 rows in several blocks: each row of a stack is bit for bit the
    # one-row stack's call on an equally seeded generator
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 9_000)
    m = pexp_measure(lin_spec(p, 1.0, dim))
    stack = np.random.default_rng(50 + dim).normal(scale=0.8, size=(4, dim))
    stack[2] = 0.0
    results = anderson_check(m, 1.0, stack, 20_001, np.random.default_rng(51))
    assert isinstance(results, list) and len(results) == 4
    for x, res in zip(stack, results):
        assert [res] == anderson_check(m, 1.0, x[None], 20_001, np.random.default_rng(51))
    assert results[2].p_shifted == results[2].p_centered


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_anderson_stack_counts_match_row_sums(dim, monkeypatch):
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 30_000)
    m = pexp_measure(lin_spec(1.5, 1.0, dim))
    stack = np.random.default_rng(60 + dim).normal(scale=0.8, size=(5, dim))
    n = 50_000
    rng, ref_rng = np.random.default_rng(61), np.random.default_rng(61)
    results = anderson_check(m, 1.0, stack, n, rng)
    hits_c, hits_s = anderson_hits_blocks(m, 1.0, stack, n, ref_rng, 30_000)
    assert [round(r.p_centered * n) for r in results] == [hits_c] * 5
    assert [round(r.p_shifted * n) for r in results] == hits_s
    assert rng.random() == ref_rng.random()


def test_anderson_stack_same_for_any_thread_count(monkeypatch):
    monkeypatch.setattr(measure, "BLOCK_FLOATS", 6_000)
    m = pexp_measure(lin_spec(1.0, 1.0, 3))
    stack = np.random.default_rng(70).normal(scale=0.8, size=(6, 3))
    results = []
    for threads in (1, 3):
        monkeypatch.setattr(measure, "MC_THREADS", threads)
        results.append(anderson_check(m, 1.0, stack, 40_001, np.random.default_rng(71)))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "stack",
    [np.zeros((0, 2)), np.zeros((2, 2, 2)), np.zeros((3, 3)), np.zeros((3, 1))],
    ids=["empty", "3-D", "too wide", "too narrow"],
)
def test_anderson_rejects_bad_stack_shape(stack):
    m = pexp_measure(lin_spec(1.0, 1.0, 2))
    with pytest.raises(ValueError, match="shift"):
        anderson_check(m, 1.0, stack, 1000, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 2])
def test_anderson_rejects_nonfinite_stack_row(bad, row):
    m = pexp_measure(lin_spec(1.0, 1.0, 2))
    stack = np.full((3, 2), 0.3)
    stack[row, 1] = bad
    with pytest.raises(ValueError, match="shift"):
        anderson_check(m, 1.0, stack, 1000, np.random.default_rng(0))


def test_anderson_rejects_large_dimension():
    m = pexp_measure(lin_spec(1.0, 1.0, 60))
    with pytest.raises(ValueError, match="truncation <= 50"):
        anderson_check(m, 1.0, np.zeros((1, 60)), 100, np.random.default_rng(0))


def test_anderson_rejects_zero_samples():
    m = pexp_measure(lin_spec(1.0, 1.0, 2))
    with pytest.raises(ValueError, match="mc_samples"):
        anderson_check(m, 1.0, np.zeros((1, 2)), 0, np.random.default_rng(0))


def test_anderson_rejects_negative_samples():
    m = pexp_measure(lin_spec(1.0, 1.0, 2))
    with pytest.raises(ValueError, match="mc_samples"):
        anderson_check(m, 1.0, np.zeros((1, 2)), -3, np.random.default_rng(0))


def test_anderson_rejects_a_single_shift_naming_its_shape():
    m = pexp_measure(lin_spec(1.0, 1.0, 2))
    with pytest.raises(ValueError, match=r"\(S, 2\) stack, got shape \(2,\)"):
        anderson_check(m, 1.0, np.zeros(2), 1000, np.random.default_rng(0))


@pytest.mark.parametrize("samples", [0, -3])
def test_mc_blocks_rejects_fewer_than_one_sample(samples):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        measure.mc_blocks(lambda gen, rows: rows, samples, 4, rng)
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn


def _centered_hits(_):
    m = pexp_measure(lin_spec(1.0, 1.0, 2))
    return anderson_check(m, 1.0, np.zeros((1, 2)), 300_000, np.random.default_rng(3))[0].p_centered


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_mc_blocks_run_in_a_forked_child():
    # the child inherits the parent's pool object but not its threads, so a
    # pool shared across the fork would leave the child waiting forever
    here = _centered_hits(0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        child = pool.map_async(_centered_hits, [0])
        child.wait(60)
        assert child.ready()
        assert child.get() == [here]


def _nested_pool_map(_):
    # every outer item holds a pool thread while its inner map runs
    measure.MC_THREADS = 1
    return measure.pool_map(lambda i: measure.pool_map(lambda j: 10 * i + j, range(3)), range(2))


def test_pool_map_runs_serially_on_a_pool_thread():
    # a pool task that waited on the one-thread pool would wait forever, so
    # the check runs in a child that the context exit can kill
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        child = pool.map_async(_nested_pool_map, [0])
        child.wait(60)
        assert child.ready()
        assert child.get() == [[[0, 1, 2], [10, 11, 12]]]


def test_pool_map_holds_one_pool_at_a_time():
    # a call with another thread count replaces the pool, and the old
    # pool's threads end once their tasks are done
    ran = set(measure.pool_map(lambda _: threading.current_thread(), range(6), threads=3))
    assert all(t.name.startswith("pexp-mc") for t in ran)
    assert measure.pool_map(lambda x: 2 * x, range(3), threads=2) == [0, 2, 4]
    for t in ran:
        t.join(10)
        assert not t.is_alive()


def test_mc_blocks_split_rows_in_order():
    # near-equal blocks of at most about BLOCK_FLOATS / width rows, results
    # in block order, and four integers taken from the caller's generator
    rng = np.random.default_rng(5)
    rows = measure.mc_blocks(lambda gen, r: r, 10, measure.BLOCK_FLOATS * 3 // 10, rng)
    assert rows == [3, 3, 4]
    ref = np.random.default_rng(5)
    ref.integers(2**63, size=4)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
def test_anderson_rejects_bad_radius(eps):
    m = pexp_measure(lin_spec(1.0, 1.0, 2))
    with pytest.raises(ValueError, match="radius"):
        anderson_check(m, eps, np.zeros((1, 2)), 1000, np.random.default_rng(0))


def test_anderson_rejects_nonfinite_shift():
    m = pexp_measure(lin_spec(1.0, 1.0, 2))
    with pytest.raises(ValueError, match="finite"):
        anderson_check(m, 1.0, [[math.nan, 0.0]], 1000, np.random.default_rng(0))


# --- decentering bound -------------------------------------------------------


@pytest.mark.parametrize("eps", [0.0, math.nan])
def test_decentering_rejects_bad_radius(eps):
    m = pexp_measure(lin_spec(1.5, 1.0, 2))
    with pytest.raises(ValueError):
        decentering_check(m, eps, [0.3, 0.1])


def test_decentering_rejects_nonfinite_shift():
    m = pexp_measure(lin_spec(1.5, 1.0, 2))
    with pytest.raises(ValueError):
        decentering_check(m, 0.7, [math.nan, 0.1])


def test_decentering_negative_radius_is_not_a_quadrature_error():
    m = pexp_measure(lin_spec(1.0, 1.0, 3))
    with pytest.raises(ValueError) as info:
        decentering_check(m, -0.7, [0.2, 0.1, 0.0])
    assert not isinstance(info.value, QuadratureError)


# Centres with zero components put the arccos kinks on +-pi/2, where they are
# dropped; |c_i| > eps gives no kinks; the rest mix the two.
BALL_CENTERS = [
    [0.0, 0.0, 0.0],
    [0.0, 0.3, 0.0],
    [0.2, 0.0, -0.5],
    [0.9, -1.1, 0.8],
    [0.9, 0.1, 0.0],
    [-0.3, 0.3, 0.3],
]

# At eps = 0.7 these discs touch the face x_last = 0, where the kink angles
# +-arccos(1) split the panels at theta = 0.
TOUCHING_CENTERS = [[0.7, 0.7], [0.938, -0.007, 0.7]]


def test_kink_angles_by_hand():
    # c = 0.5, face 0.5: r = 1 crosses (arcsin(-1/2), +-arccos(1/2)), r = 0.5
    # touches (arcsin(-1) = -pi/2 is dropped, +-arccos(1) = +-0), r = 0.25 misses
    kinks, count = _kink_angles(0.5, [0.5], np.array([1.0, 0.5, 0.25]))
    third, nan = np.pi / 3, np.nan
    expected = [[-third, -0.5 * third, third], [0.0, 0.0, nan], [nan, nan, nan]]
    np.testing.assert_allclose(kinks, expected, rtol=1e-15, atol=0)
    assert count.tolist() == [3, 2, 0]
    # centre 0 splits at theta = 0; face 0 puts +-pi/2 on the ends, dropped
    kinks, count = _kink_angles(0.0, [0.0, 0.6], np.array([1.0]))
    a = math.acos(0.6)
    np.testing.assert_allclose(kinks, [[-a, 0.0, a, nan, nan]], rtol=1e-15, atol=0)
    assert count.tolist() == [3]


# 48 and 38 are decentering_check's rule and its coarse rule; no program
# uses 200 or 160 nodes, whose dim-3 cases at p = 1.5 took 3-5 s each
LOOP_ORACLE_CASES = [
    pytest.param(dim, nodes, p, id=f"{dim}-{nodes}-{p}")
    for dim in (1, 2, 3)
    for nodes in (200, 160, 64, 51, 48, 38)
    for p in (1.0, 1.5, 2.0)
    if not (dim == 3 and nodes > 64 and p == 1.5)
]


@pytest.mark.parametrize("dim, nodes, p", LOOP_ORACLE_CASES)
def test_ball_probability_matches_loop_oracle_exactly(dim, nodes, p):
    rng = np.random.default_rng(int(10 * p) + nodes + dim)
    centers = [np.array(c[:dim]) for c in BALL_CENTERS]
    centers += [rng.normal(scale=0.5, size=dim) for _ in range(2)]
    centers += [np.array(c) for c in TOUCHING_CENTERS if len(c) == dim]
    m = pexp_measure(lin_spec(p, 1.0, dim))
    for c in centers:
        for eps in (0.7, 0.45):
            assert _ball_probability(m, eps, c, nodes) == ball_probability_loop(m, eps, c, nodes)


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_ball_probability_default_rule_converged(p, dim):
    # graded panels split at every kink converge spectrally: a 64-node rule
    # agrees with 256 nodes to 1e-11 (worst case 3.7e-12, at p = 1.2)
    m = pexp_measure(lin_spec(p, 1.0, dim))
    for c in BALL_CENTERS:
        c = np.array(c[:dim])
        for eps in (0.7, 0.45):
            ref = _ball_probability(m, eps, c, 256)
            assert _ball_probability(m, eps, c, 64) == pytest.approx(ref, rel=1e-11, abs=0)


@pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 1.8, 2.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_ball_probability_decentering_rule_converged(p, dim):
    # decentering_check's 48-node rule agrees with 256 nodes to 1e-10
    # (worst case 3.1e-11)
    m = pexp_measure(lin_spec(p, 1.0, dim))
    for c in BALL_CENTERS:
        c = np.array(c[:dim])
        for eps in (0.7, 0.45):
            ref = _ball_probability(m, eps, c, 256)
            assert _ball_probability(m, eps, c, 48) == pytest.approx(ref, rel=1e-10, abs=0)


# Far from the origin F(c + r) - F(c - r) is a difference of two numbers
# near 1, which rounds the mass away; the lower-tail form keeps the mass
# even in the centre to rounding (the two-sided difference was off by
# 4.2e-3, 4.6e-7, 6.7e-7 and 2.6e-6 here).
@pytest.mark.parametrize(
    "p, center",
    [(2.0, (0.0, 3.5)), (2.0, (0.3, 3.0)), (1.0, (0.0, 9.0)), (2.0, (0.1, 0.1, 2.0))],
)
def test_ball_probability_even_in_far_centers(p, center):
    m = pexp_measure(lin_spec(p, 1.0, len(center)))
    c = np.array(center)
    mass = _ball_probability(m, 0.7, c, 48)
    assert mass == pytest.approx(_ball_probability(m, 0.7, -c, 48), rel=1e-13, abs=0)


def test_decentering_far_shift_keeps_its_mass():
    # the two-sided difference gave lhs = 0, a FAIL, at h = (0, 0, 2.5)
    m = pexp_measure(lin_spec(2.0, 1.0, 3))
    res = decentering_check(m, 0.7, [0.0, 0.0, 2.5])
    ref = decentering_check(m, 0.7, [0.0, 0.0, -2.5])
    assert res.verdict == "PASS"
    assert res.lhs == pytest.approx(ref.lhs, rel=1e-12, abs=0)


def test_decentering_far_laplace_shift_converges():
    # rounding in the two-sided difference moved the lhs by 1.9e-6 between
    # rules, a QuadratureError, at p = 1, h = (0, 0, 6)
    m = pexp_measure(lin_spec(1.0, 1.0, 3))
    res = decentering_check(m, 0.7, [0.0, 0.0, 6.0])
    assert res.achieved_tol <= QUADRATURE_TOL
    assert res.verdict == "PASS"


def test_decentering_far_generic_p_shift_converges():
    # at p = 1.5 the lower-tail CDF was 0.5 (1 - gammainc), whose rounding
    # floor moved the lhs by 1.11e-5 between rules, a QuadratureError, and
    # put the 48- and 256-node masses at c = (0, 4) in dim 2 2.8e-8 apart
    m = pexp_measure(lin_spec(1.5, 1.0, 3))
    res = decentering_check(m, 0.7, [0.2, 0.1, 3.0])
    assert res.achieved_tol <= 1e-12
    assert res.verdict == "PASS"
    plane, c = pexp_measure(lin_spec(1.5, 1.0, 2)), np.array([0.0, 4.0])
    ref = _ball_probability(plane, 0.7, c, 256)
    assert _ball_probability(plane, 0.7, c, 48) == pytest.approx(ref, rel=1e-13, abs=0)


# The hardest shifts for the 48/38 pair: at p = 1.5 a disc that nearly
# touches the face x_last = 0 (certificate up to 5.2e-8, at
# (0.938, -0.007, 0.701); an exact touch reads below 2e-15), and a p = 2
# battery-law shift (1.5e-8).
HARD_SHIFTS = [
    (1.5, [lead, 0.7 + d]) for lead in (0.0, 0.35, 0.7, -0.85) for d in (0.0, 1e-4, -1e-3, 1e-2)
]
HARD_SHIFTS += [(1.5, [0.938, -0.007, 0.7 + d]) for d in (0.0, -1e-4, 1e-3)]
HARD_SHIFTS += [(1.5, [-0.4, 0.3, 0.7 - 1e-6]), (2.0, [-0.209, -0.753, 1.743])]


@pytest.mark.parametrize("p, h", HARD_SHIFTS)
def test_decentering_certificate_on_hard_shifts(p, h):
    m = pexp_measure(lin_spec(p, 1.0, len(h)))
    res = decentering_check(m, 0.7, h)
    assert res.achieved_tol <= 1e-7
    assert res.verdict == "PASS"


@pytest.mark.parametrize("h", TOUCHING_CENTERS)
def test_decentering_touching_face_converges(h):
    # the panels split where the disc touches the face; without that split
    # the certificate read 4.9e-8 and 6.5e-8 here, and the 48-node mass was
    # 1.6e-8 off the 256-node one
    m = pexp_measure(lin_spec(1.5, 1.0, len(h)))
    res = decentering_check(m, 0.7, h)
    assert res.achieved_tol <= 1e-12
    assert res.verdict == "PASS"
    ref = _ball_probability(m, 0.7, np.array(h), 256)
    assert _ball_probability(m, 0.7, np.array(h), 48) == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("h", [[0.3], [0.3, 0.1, 0.0], [[0.3, 0.1]], 0.3])
def test_decentering_rejects_a_shift_of_the_wrong_shape(h):
    m = pexp_measure(lin_spec(1.5, 1.0, 2))
    with pytest.raises(ValueError, match="shape"):
        decentering_check(m, 0.7, h)


def test_decentering_coarse_rule_is_coarser_at_minimum_nodes():
    # the 38-node coarse rule differs from the 48-node one, so achieved_tol
    # is a real estimate, not 0
    m = pexp_measure(lin_spec(1.5, 1.0, 3))
    res = decentering_check(m, 0.7, [0.3, -0.2, 0.4])
    assert 0.0 < res.achieved_tol <= QUADRATURE_TOL
    assert res.verdict == "PASS"


def test_decentering_zero_shift_identity():
    m = pexp_measure(lin_spec(1.5, 1.0, 2))
    res = decentering_check(m, 0.6, np.zeros(2))
    assert res.lhs == res.rhs
    assert res.verdict == "PASS"


def test_decentering_zero_shift_is_one_quadrature(monkeypatch):
    # lhs and the centered mass are the same quadrature at h = 0: the fine
    # rule runs once, plus the coarse rule, and both sides keep its bits
    m = pexp_measure(lin_spec(1.0, 1.0, 3))
    calls = []

    def counted(*args):
        calls.append(args[3])
        return _ball_probability(*args)

    monkeypatch.setattr(measure, "_ball_probability", counted)
    res = decentering_check(m, 0.5, np.zeros(3))
    assert sorted(calls) == [38, 48]  # concurrent, so in no fixed order
    mass = _ball_probability(m, 0.5, np.zeros(3), 48)
    assert res.lhs == mass and res.rhs == mass and res.shift_cost == 1.0
    assert res.verdict == "PASS"


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_decentering_same_for_any_thread_count(p, dim, monkeypatch):
    # the three quadratures run on the pool; each thread count gives the
    # result of three serial _ball_probability calls, bit for bit
    m = pexp_measure(lin_spec(p, 1.0, dim))
    h = np.random.default_rng(1100 + dim).normal(scale=0.5, size=dim)
    lhs = _ball_probability(m, 0.7, h, 48)
    lhs_lo = _ball_probability(m, 0.7, h, 38)
    cost = float(np.exp(-z_norm_p(h, m.spec) / p))
    rhs = cost * _ball_probability(m, 0.7, np.zeros(dim), 48)
    achieved = abs(lhs - lhs_lo) / lhs
    for threads in (1, 2, 3):
        monkeypatch.setattr(measure, "MC_THREADS", threads)
        res = decentering_check(m, 0.7, h)
        assert res == measure.DecenteringResult(lhs, rhs, cost, achieved, "PASS")


def test_decentering_laplace_univariate_analytic():
    # gamma_1 = 1: lhs = F(1.5) - F(0.5), rhs = e^{-1} (2 F(0.5) - 1)
    m = pexp_measure(lin_spec(1.0, 1.0, 1))
    res = decentering_check(m, 0.5, [1.0])
    F = lambda x: cdf(PExpParams(1.0), x)
    assert res.lhs == pytest.approx(F(1.5) - F(0.5), rel=1e-12)
    assert res.rhs == pytest.approx(math.exp(-1.0) * (2 * F(0.5) - 1), rel=1e-12)
    assert res.verdict == "PASS"


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_decentering_passes_random_shifts(p, dim):
    rng = np.random.default_rng(1000 + dim)
    m = pexp_measure(lin_spec(p, 1.0, dim))
    h = rng.normal(scale=0.5, size=dim)
    res = decentering_check(m, 0.7, h)
    assert res.verdict == "PASS"
    assert res.achieved_tol < 1e-9
