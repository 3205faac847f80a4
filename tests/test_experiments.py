import json

import numpy as np
import pytest
from oracles import ball_probability_loop

from pexp import measure
from pexp.experiments import (
    ExperimentConfig,
    LambdaRule,
    config_hash,
    fit_slope,
    run_contraction,
    run_inequalities,
    theory_exponent,
    write_outputs,
)


def small_wn_config(**overrides):
    base = dict(
        model="white-noise",
        p=2.0,
        alpha=1.0,
        beta=1.0,
        q=2.0,
        n_grid=[64, 128, 256, 512, 1024],
        replicates=4,
        posterior_draws=50,
        master_seed=11,
        max_truncation=512,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# --- slope fitting ---------------------------------------------------------------


def test_fit_slope_exact_power():
    ns = [10, 100, 1000, 10000]
    vals = [n**-0.4 for n in ns]
    slope, se = fit_slope(ns, vals)
    assert slope == pytest.approx(-0.4, abs=1e-12)
    assert se < 1e-12


def test_fit_slope_scale_invariant():
    ns = [16, 32, 64, 128, 256]
    vals = [7.3 * n**-0.25 for n in ns]
    slope, _ = fit_slope(ns, vals)
    assert slope == pytest.approx(-0.25, abs=1e-12)


def test_fit_slope_recovers_noisy_synthetic():
    rng = np.random.default_rng(100)
    ns = np.array([2**k for k in range(6, 15)])
    vals = ns ** (-1 / 3) * np.exp(rng.normal(scale=0.05, size=len(ns)))
    slope, se = fit_slope(ns, vals)
    assert abs(slope + 1 / 3) < 2 * se + 0.02


def test_fit_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_slope([1, 2, 3], [1.0, 0.5, 0.3])
    with pytest.raises(ValueError):
        fit_slope([1, 2, 3, 4], [1.0, -0.5, 0.3, 0.1])


# --- configuration -----------------------------------------------------------------


def test_config_rejects_unknown_keys():
    raw = dict(
        model="white-noise",
        p=2.0,
        alpha=1.0,
        beta=1.0,
        q=2.0,
        n_grid=[16, 32, 64, 128],
        replicates=2,
        posterior_draws=10,
        master_seed=0,
        typo_key=1,
    )
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict(raw)


def test_config_requires_increasing_grid():
    with pytest.raises(ValueError):
        small_wn_config(n_grid=[64, 32, 128, 256])
    with pytest.raises(ValueError):
        small_wn_config(n_grid=[64, 128])  # too short


@pytest.mark.parametrize(
    "bad",
    [{"replicates": 0}, {"posterior_draws": 0}, {"thin": 0}, {"burn_in": -5}],
)
def test_config_rejects_empty_or_negative_sizes(bad):
    # each used to run: a NaN verdict, failed cells or too few draws
    with pytest.raises(ValueError, match="must be >= "):
        small_wn_config(**bad)
    with pytest.raises(ValueError, match="must be >= "):
        ExperimentConfig.from_dict(dict(small_wn_config().to_dict(), model="density", **bad))


def test_config_roundtrip_and_hash(tmp_path):
    cfg = small_wn_config(lambda_rule=LambdaRule(0.2, 0.0))
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    cfg2 = ExperimentConfig.from_json(path)
    assert cfg2 == cfg
    assert config_hash(cfg2) == config_hash(cfg)
    assert len(config_hash(cfg)) == 40


def test_theory_exponent_dispatch():
    assert theory_exponent(small_wn_config()) == pytest.approx(1 / 3)
    cfg = small_wn_config(p=1.0, q=1.0, beta=2.0, lambda_rule=LambdaRule(0.2))
    assert theory_exponent(cfg) == pytest.approx(0.4)
    de = ExperimentConfig(
        model="density",
        p=1.0,
        alpha=1.0,
        beta=1.0,
        q=2.0,
        n_grid=[100, 200, 400, 800],
        replicates=2,
        posterior_draws=10,
        master_seed=0,
    )
    assert theory_exponent(de) == pytest.approx(7 / 24)


# --- contraction runs ----------------------------------------------------------------


def test_run_contraction_small_gaussian():
    cfg = small_wn_config()
    res = run_contraction(cfg)
    assert len(res.rows) == 5 * 4
    assert res.verdict in ("CONSISTENT", "UNDERPOWERED")
    # q90 medians decay
    assert res.median_q90[0] > res.median_q90[-1]


def test_run_contraction_monotone_up_to_ci():
    cfg = small_wn_config(replicates=6)
    res = run_contraction(cfg)
    for a, b in zip(res.median_q90, res.median_q90[1:]):
        assert b <= a * 1.25


def test_run_contraction_underpowered_with_two_replicates():
    cfg = small_wn_config(
        n_grid=[8, 12, 16, 24], replicates=2, posterior_draws=4, master_seed=3
    )
    res = run_contraction(cfg)
    assert res.stderr > cfg.slope_tol
    assert res.verdict == "UNDERPOWERED"


def test_run_contraction_thread_determinism():
    density = small_wn_config(
        model="density", p=1.0, n_grid=[100, 200, 400], replicates=2, posterior_draws=10,
        burn_in=100, thin=2, levels=3,
    )
    for cfg in (small_wn_config(replicates=3), density):
        r1 = run_contraction(cfg, threads=1)
        r8 = run_contraction(cfg, threads=8)
        assert r1.fitted_slope == r8.fitted_slope
        for a, b in zip(r1.rows, r8.rows):
            assert (a.n, a.rep, a.error_median, a.q90, a.lo, a.hi) == (
                b.n,
                b.rep,
                b.error_median,
                b.q90,
                b.lo,
                b.hi,
            )


def test_run_contraction_rescaled_laplace_small():
    cfg = small_wn_config(
        p=1.0,
        q=1.0,
        beta=2.0,
        alpha=1.0,
        lambda_rule=LambdaRule(0.2),
        n_grid=[64, 128, 256, 512],
        replicates=3,
        posterior_draws=40,
    )
    res = run_contraction(cfg)
    assert res.theory_exponent == pytest.approx(0.4)
    assert res.median_q90[0] > res.median_q90[-1]


def test_write_outputs_files(tmp_path):
    cfg = small_wn_config(replicates=2, n_grid=[32, 64, 128, 256])
    res = run_contraction(cfg)
    out = tmp_path / "out"
    write_outputs(res, out)
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == "n,rep,error_median,q90,lo,hi"
    assert len(results) == 1 + 4 * 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdict"] == res.verdict
    assert summary["config_hash"] == res.config_sha
    plot = (out / "plotdata.csv").read_text().splitlines()
    assert plot[0] == "log_n,log_q90"
    assert len(plot) == 5


# --- inequality battery ----------------------------------------------------------------


@pytest.mark.slow
def test_run_inequalities_all_pass():
    rows = run_inequalities(seed=5, anderson_shifts=6, anderson_samples=10**5)
    assert all(r.verdict == "PASS" for r in rows)
    checks = {r.check for r in rows}
    assert checks == {"anderson", "decentering", "tail-lower-bound"}


def test_run_inequalities_decentering_rows_match_loop_oracle(monkeypatch):
    # the same seed gives the same h draws, so only the quadrature differs
    kw = dict(seed=3, anderson_shifts=2, anderson_samples=500, lemma_grid=10)
    rows = [r for r in run_inequalities(**kw) if r.check == "decentering"]
    monkeypatch.setattr(measure, "_ball_probability", ball_probability_loop)
    ref = [r for r in run_inequalities(**kw) if r.check == "decentering"]
    assert len(rows) == 12
    assert rows == ref


@pytest.mark.slow
def test_regime_discrimination_never_certifies_wrong_exponent():
    # Gaussian prior, inhomogeneous truth (p=2, q=1, beta=2), best alpha and
    # lambda_n schedule: the rate theory gives the linear-minimax exponent
    # 3/8, not the minimax 2/5.  At desk scale the fitted slope lands between
    # the two; the run must never certify minimax while rejecting
    # linear-minimax, and with stderr above tol it must report UNDERPOWERED.
    cfg = ExperimentConfig(
        model="white-noise",
        p=2.0,
        alpha=1.0,  # beta - d/q
        beta=2.0,
        q=1.0,
        n_grid=[2**k for k in range(8, 17)],
        replicates=20,
        posterior_draws=200,
        master_seed=13,
        slope_tol=0.02,
        lambda_rule=LambdaRule(0.125),
    )
    res = run_contraction(cfg)
    assert res.theory_exponent == pytest.approx(0.375)
    if res.stderr > cfg.slope_tol:
        assert res.verdict == "UNDERPOWERED"
    else:
        certifies_minimax = abs(res.fitted_slope + 0.4) <= cfg.slope_tol
        rejects_linear = abs(res.fitted_slope + 0.375) > cfg.slope_tol
        assert not (certifies_minimax and rejects_linear)
        assert res.verdict in ("CONSISTENT", "INCONSISTENT")
