import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from oracles import ball_probability_loop

from pexp import experiments, measure, rates
from pexp.experiments import (
    ExperimentConfig,
    ExperimentError,
    LambdaRule,
    _de_truth,
    _wn_cell,
    _wn_scale,
    _wn_truth,
    config_hash,
    run_contraction,
    run_inequalities,
    theory_exponent,
    write_outputs,
)
from pexp.sequences import loglog_fit, save_coefvec


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
    slope, se = loglog_fit(ns, vals)
    assert slope == pytest.approx(-0.4, abs=1e-12)
    assert se < 1e-12


def test_fit_slope_scale_invariant():
    ns = [16, 32, 64, 128, 256]
    vals = [7.3 * n**-0.25 for n in ns]
    slope, _ = loglog_fit(ns, vals)
    assert slope == pytest.approx(-0.25, abs=1e-12)


def test_fit_slope_recovers_noisy_synthetic():
    rng = np.random.default_rng(100)
    ns = np.array([2**k for k in range(6, 15)])
    vals = ns ** (-1 / 3) * np.exp(rng.normal(scale=0.05, size=len(ns)))
    slope, se = loglog_fit(ns, vals)
    assert abs(slope + 1 / 3) < 2 * se + 0.02


def test_fit_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        loglog_fit([1, 2], [1.0, 0.5])
    with pytest.raises(ValueError):
        loglog_fit([1, 2, 3, 4], [1.0, -0.5, 0.3, 0.1])


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


@pytest.mark.parametrize(
    "key,value",
    [
        ("n_grid", [64.7, 128, 256]),
        ("replicates", 1.5),
        ("posterior_draws", True),
        ("levels", 6.5),
        ("burn_in", False),
        ("thin", 2.5),
        ("max_truncation", 64.7),
    ],
)
def test_config_rejects_non_integer_counts(key, value):
    # 64.7 used to be truncated to 64, 1.5 and true to fail mid-run
    with pytest.raises(ValueError, match=f"config key {key} needs an integer"):
        ExperimentConfig.from_dict(dict(small_wn_config().to_dict(), **{key: value}))


@pytest.mark.parametrize(
    "model, bad, error",
    [
        ("white-noise", {"beta": 0.2, "q": 1.0}, rates.InvalidRateQuery),  # beta <= 1/q - 1/2
        ("white-noise", {"alpha": -1.0}, rates.DegenerateRateQuery),
        ("density", {"alpha": -1.0}, rates.DegenerateRateQuery),
        ("white-noise", {"p": 3.0}, rates.DegenerateRateQuery),
        ("density", {"p": 3.0}, rates.DegenerateRateQuery),
    ],
)
def test_config_outside_the_rate_theory_is_rejected_at_load(model, bad, error):
    # each used to run its cells: a traceback from theory_exponent after the
    # last one, or every cell failing
    with pytest.raises(error):
        small_wn_config(model=model, **bad)


def criterion_9_config():
    return ExperimentConfig(
        model="white-noise", p=1.0, alpha=1.0, beta=2.0, q=1.0,
        n_grid=[2**k for k in range(8, 17)], replicates=20, posterior_draws=200,
        master_seed=42, slope_tol=0.07, lambda_rule=LambdaRule(0.2),
    )


def test_config_roundtrip_and_hash(tmp_path):
    cfg = criterion_9_config()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    cfg2 = ExperimentConfig.from_json(path)
    assert cfg2 == cfg
    assert config_hash(cfg2) == config_hash(cfg)
    assert len(config_hash(cfg)) == 40


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({}, "rescaled rates require q < 2"),  # q = 2: no rescaled theory
        ({"q": 1.0, "lambda_rule": LambdaRule(0.9)}, "poly_exponent=0.9.*n\\^-0.2 log\\^0 n"),
        ({"q": 1.0, "lambda_rule": LambdaRule(0.2 * (1 + 1e-11))}, "n\\^-0.2 log\\^0 n"),
        ({"q": 1.5}, "n\\^-0.2 log\\^0.2 n"),  # q > p: lambda_n carries a log factor
    ],
    ids=["q=2", "0.9", "0.2 off by 1e-11", "log factor"],
)
def test_config_rejects_a_lambda_rule_off_the_rescaled_theory(overrides, match):
    # these ran every cell; then q = 2 raised InvalidRateQuery and 0.9 read
    # INCONSISTENT, blaming the prior for the config's lambda_n
    base = dict(p=1.0, beta=2.0, lambda_rule=LambdaRule(0.2))
    with pytest.raises(ValueError, match=match):
        small_wn_config(**dict(base, **overrides))


@pytest.mark.parametrize(
    "p, rule", [(1.0, 0.2), (1.0, 0.2 * (1 + 1e-13)), (2.0, 0.125), (1.5, 2 / 13)]
)
def test_config_accepts_the_rescaled_theory_lambda_rule(p, rule):
    # q = 1 < p, beta = 2: lambda_n = n^-(1 / (2 + 3p))
    cfg = ExperimentConfig.from_dict(
        dict(small_wn_config(p=p, beta=2.0, q=1.0).to_dict(), lambda_rule={"poly_exponent": rule})
    )
    assert cfg.lambda_rule == LambdaRule(rule)


@pytest.mark.parametrize(
    "raw",
    [
        {"d": 1},
        {"delta": 0.05},
        {"truth_signs_seed": 0},
        {"lambda_rule": {"poly_exponent": 0.2, "log_exponent": 0.0}},
    ],
    ids=["d", "delta", "truth_signs_seed", "log_exponent"],
)
def test_config_rejects_deleted_keys(raw):
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_dict(dict(small_wn_config().to_dict(), **raw))


def test_readme_documents_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = readme.index("| key | default | meaning |") + 2
    keys = []
    for line in readme[start:]:
        if not line.startswith("|"):
            break
        keys.append(line.split("|")[1].strip().strip("`"))
    assert keys == [f.name for f in fields(ExperimentConfig)]


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


@pytest.mark.parametrize("model", ["white-noise", "density"])
def test_truth_file_reproduces_the_default_truth(tmp_path, model):
    cfg = small_wn_config(
        model=model, p=1.0, n_grid=[40, 80, 160], replicates=1, posterior_draws=10,
        burn_in=50, thin=1, levels=3,
    )
    truth = _wn_truth(cfg) if model == "white-noise" else _de_truth(cfg)
    path = tmp_path / "truth.csv"
    save_coefvec(truth, path)
    from_file = run_contraction(replace(cfg, truth_file=str(path)))
    assert from_file.rows == run_contraction(cfg).rows


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


def order_config():
    # truncations N = 283, 449, 512, 512: the cap ties the two largest n
    return small_wn_config(n_grid=[64, 256, 1024, 4096], replicates=2, posterior_draws=20)


def grid_cells(cfg, skip=()):
    truth = _wn_truth(cfg)
    return [_wn_cell(cfg, truth, i, r) for i in range(len(cfg.n_grid))
            for r in range(cfg.replicates) if (i, r) not in skip]


@pytest.mark.parametrize("threads", [1, 2])
def test_run_contraction_rows_are_the_cells_in_grid_order(threads):
    cfg = order_config()
    assert run_contraction(cfg, threads=threads).rows == grid_cells(cfg)


def test_serial_white_noise_sweep_runs_largest_truncation_first(monkeypatch):
    cfg = order_config()
    assert [_wn_scale(cfg, n)[1] for n in cfg.n_grid] == [283, 449, 512, 512]
    calls, cell = [], experiments._wn_cell

    def record(cfg, truth, i_n, rep):
        calls.append((i_n, rep))
        return cell(cfg, truth, i_n, rep)

    monkeypatch.setattr(experiments, "_wn_cell", record)
    run_contraction(cfg)
    assert calls == [(2, 0), (2, 1), (3, 0), (3, 1), (1, 0), (1, 1), (0, 0), (0, 1)]


@pytest.mark.parametrize("threads", [1, 2])
def test_experiment_error_names_the_first_failing_cell_in_grid_order(monkeypatch, threads):
    # (3, 0) runs before (0, 1), which is first in grid order
    cfg = order_config()
    bad, cell = {(0, 1), (3, 0)}, experiments._wn_cell

    def planted(cfg, truth, i_n, rep):
        if (i_n, rep) in bad:
            raise RuntimeError(f"planted {cfg.n_grid[i_n]}/{rep}")
        return cell(cfg, truth, i_n, rep)

    monkeypatch.setattr(experiments, "_wn_cell", planted)
    with pytest.raises(ExperimentError) as err:
        run_contraction(cfg, threads=threads)
    assert str(err.value) == "2 cell(s) failed, first: n=64 rep=1: planted 64/1"
    assert str(err.value.__cause__) == "planted 64/1"
    assert err.value.partial_rows == grid_cells(cfg, skip=bad)


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
    rows = run_inequalities(seed=5)
    assert all(r.verdict == "PASS" for r in rows)
    checks = {r.check for r in rows}
    assert checks == {"anderson", "decentering", "tail-lower-bound"}


def test_run_inequalities_one_anderson_call_per_group(monkeypatch):
    # 20 shifts fall into three (p, dim) groups; the zero shift joins the first
    calls, check = [], measure.anderson_check

    def counted(m, eps, shift, mc_samples, rng):
        calls.append((m.spec.p, np.shape(shift)))
        return check(m, eps, shift, mc_samples, rng)

    monkeypatch.setattr(measure, "anderson_check", counted)
    rows = run_inequalities(seed=4)
    assert calls == [(1.0, (8, 1)), (1.5, (7, 2)), (2.0, (6, 3))]
    anderson = [r for r in rows if r.check == "anderson"]
    assert len(anderson) == 21
    assert [a.params.split(" shift")[0] for a in anderson[:4]] == [
        "p=1.0 dim=1", "p=1.5 dim=2", "p=2.0 dim=3", "p=1.0 dim=1"
    ]
    assert anderson[20].params == "p=1 dim=1 shift=0"
    assert anderson[20].margin == 0.0


def test_run_inequalities_decentering_rows_same_for_any_thread_count(monkeypatch):
    rows = []
    for threads in (1, 3):
        monkeypatch.setattr(measure, "MC_THREADS", threads)
        rows.append([r for r in run_inequalities(seed=6) if r.check == "decentering"])
    assert len(rows[0]) == 12
    assert rows[0] == rows[1]


def test_run_inequalities_decentering_rows_match_loop_oracle(monkeypatch):
    # the same seed gives the same h draws, so only the quadrature differs
    rows = [r for r in run_inequalities(seed=3) if r.check == "decentering"]
    monkeypatch.setattr(measure, "_ball_probability", ball_probability_loop)
    ref = [r for r in run_inequalities(seed=3) if r.check == "decentering"]
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
