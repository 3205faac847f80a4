import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pexp import concentration, experiments, measure
from pexp.cli import main
from pexp.measure import pexp_measure
from pexp.sequences import (
    BesovParams,
    CoefVec,
    ScalingSpec,
    load_coefvec,
    make_truth,
    save_coefvec,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rate_json_output(capsys):
    code, out = run_cli(
        capsys, "rate", "--setting", "l2", "--alpha", "1", "--beta", "1", "--p", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["poly_exponent"] == pytest.approx(1 / 3)
    assert payload["minimax"] == pytest.approx(1 / 3)
    assert payload["switch_point"] == 1.0


def test_rate_rescaled_output(capsys):
    code, out = run_cli(
        capsys,
        "rate",
        "--setting",
        "l2-rescaled",
        "--alpha",
        "1",
        "--beta",
        "2",
        "--p",
        "1",
        "--q",
        "1",
    )
    payload = json.loads(out)
    assert payload["poly_exponent"] == pytest.approx(0.4)
    assert payload["lambda_poly_exponent"] == pytest.approx(0.2)


@pytest.mark.parametrize("grid", [(), ("--grid", "0.5", "2.0", "4")])
def test_rate_sup_rejects_other_dimensions(capsys, grid):
    # rate_sup is a d = 1 calculator; d = 2 used to print its d = 1 legs
    with pytest.raises(SystemExit, match="d=2"):
        run_cli(capsys, "rate", "--setting", "sup", "--alpha", "1", "--beta", "1",
                "--p", "1", "--d", "2", *grid)


def test_rate_linear_minimax_is_null_for_other_dimensions(capsys):
    code, out = run_cli(capsys, "rate", "--alpha", "1", "--beta", "1", "--p", "2", "--d", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["linear_minimax"] is None
    assert payload["minimax"] == pytest.approx(1 / 4)


def test_rate_grid_sweep(capsys):
    code, out = run_cli(
        capsys,
        "rate",
        "--setting",
        "l2",
        "--alpha",
        "1",
        "--beta",
        "1",
        "--p",
        "1.5",
        "--grid",
        "0.5",
        "2.0",
        "4",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,poly_exponent,log_exponent,regime"
    assert len(lines) == 5


@pytest.mark.parametrize("setting", ["l2", "l2-rescaled", "sup"])
def test_rate_grid_rows_match_single_queries(capsys, setting):
    prior = ("--beta", "2", "--p", "1", "--q", "1")
    _, out = run_cli(capsys, "rate", "--setting", setting, "--alpha", "1", *prior,
                     "--grid", "0.25", "3", "12")
    # a rescaled regime name holds a comma, so the writer quotes it
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["alpha", "poly_exponent", "log_exponent", "regime"]
    for alpha, poly, log, regime in rows:
        _, single = run_cli(capsys, "rate", "--setting", setting, "--alpha", alpha, *prior)
        payload = json.loads(single)
        if setting == "sup":  # contracts at the slower leg, rho on a tie
            legs = (payload["rho"], payload["rho_tilde"])
            leg = min(legs, key=lambda r: r["poly_exponent"])
            assert payload["poly_exponent"] == leg["poly_exponent"]
            payload = leg
        assert (float(poly), float(log), regime) == (
            payload["poly_exponent"], payload["log_exponent"], payload["regime"]
        )


def test_sample_prior_writes_csv(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "sample-prior",
        "--p",
        "1",
        "--alpha",
        "1",
        "--scheme",
        "dyadic",
        "--levels",
        "4",
        "--seed",
        "9",
        "--count",
        "2",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    u = load_coefvec(tmp_path / "draw_0000.csv")
    assert u.scheme == "dyadic" and len(u) == 31
    values = (tmp_path / "draw_0000_values.csv").read_text().splitlines()
    assert values[0] == "x,value"
    assert len(values) == 2 + 2**10


def test_conc_csv_output(tmp_path, capsys):
    w = make_truth(BesovParams(1.0, 2.0, 1), n=64)
    path = tmp_path / "w.csv"
    save_coefvec(w, path)
    code, out = run_cli(
        capsys,
        "conc",
        "--w-file",
        str(path),
        "--eps-grid",
        "0.4,0.8",
        "--p",
        "1.5",
        "--alpha",
        "1",
        "--mc-samples",
        "20000",
        "--seed",
        "4",
    )
    lines = out.strip().splitlines()
    assert (
        lines[0]
        == "eps,inf_term,inf_argmin_l2norm,neglog,neglog_lo,neglog_hi,phi"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    assert float(rows[0][6]) > float(rows[1][6])  # phi decreasing in eps


def test_conc_shares_one_sample_across_the_grid(tmp_path, capsys):
    # a fresh draw per eps would give two different rows at the same eps
    path = tmp_path / "w.csv"
    save_coefvec(make_truth(BesovParams(1.0, 2.0, 1), n=16), path)
    code, out = run_cli(
        capsys, "conc", "--w-file", str(path), "--eps-grid", "0.6,0.6",
        "--p", "1.5", "--alpha", "1", "--mc-samples", "5000", "--seed", "5",
    )
    assert code == 0
    first, second = out.strip().splitlines()[1:]
    assert first == second


@pytest.mark.parametrize("norm", ["l2", "sup"])
def test_conc_takes_scheme_and_truncation_from_the_w_file(tmp_path, capsys, norm):
    # a dyadic w-file used to be read under the default linear prior
    spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=4)
    w = CoefVec.dyadic(spec.gamma() * np.random.default_rng(6).normal(size=spec.size), 4)
    path = tmp_path / "w.csv"
    save_coefvec(w, path)
    code, out = run_cli(
        capsys, "conc", "--w-file", str(path), "--eps-grid", "0.5,1", "--p", "1",
        "--alpha", "1", "--norm", norm, "--mc-samples", "20000", "--seed", "7",
    )
    assert code == 0
    m = pexp_measure(spec)
    sample = concentration.unit_norm_sample(m, norm, 20000, np.random.default_rng(7))
    for line, eps in zip(out.strip().splitlines()[1:], (0.5, 1.0), strict=True):
        est = concentration.concentration_fn(w, eps, m, norm, sample)
        assert [float(v) for v in line.split(",")[1:]] == [
            est.inf_term, np.linalg.norm(est.argmin), est.neglog_smallball,
            *est.neglog_ci, est.phi,
        ]


@pytest.mark.parametrize("flag", [["--scheme", "dyadic"], ["--levels", "4"], ["--n", "16"]])
def test_conc_has_no_truncation_flags(tmp_path, capsys, flag):
    # argparse reads --n as an abbreviation of --norm, which rejects "16"
    path = tmp_path / "w.csv"
    save_coefvec(make_truth(BesovParams(1.0, 2.0, 1), n=16), path)
    with pytest.raises(SystemExit) as exit_:
        main(["conc", "--w-file", str(path), "--eps-grid", "0.6", "--p", "1.5",
              "--alpha", "1", *flag])
    assert exit_.value.code == 2 and "error:" in capsys.readouterr().err


def test_smallball_fit_slope(capsys):
    code, out = run_cli(
        capsys,
        "smallball",
        "--eps-grid",
        "0.5,0.8,1.2",
        "--p",
        "1",
        "--alpha",
        "1",
        "--n",
        "128",
        "--mc-samples",
        "30000",
        "--seed",
        "2",
        "--fit-slope",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "eps,p_hat,neglog,neglog_lo,neglog_hi"
    assert lines[-1].startswith("slope,")
    assert "theory_slope,-1" in lines[-1]


@pytest.mark.parametrize("grid", ["0.5", "0.5,0.8"])
def test_smallball_fit_slope_needs_three_radii(capsys, grid):
    # one radius used to die in polyfit; two printed a standard error of 0
    code = main(["smallball", "--eps-grid", grid, "--p", "1", "--alpha", "1", "--n", "16",
                 "--mc-samples", "1000", "--fit-slope"])
    captured = capsys.readouterr()
    assert code == 1
    assert "slope," not in captured.out
    assert "at least 3 points" in captured.err


def test_smallball_rejects_non_finite_eps(capsys):
    # a nan radius used to print p_hat = 1
    with pytest.raises(ValueError, match="finite and > 0"):
        run_cli(capsys, "smallball", "--eps-grid", "0.5,nan", "--p", "1", "--alpha", "1",
                "--n", "16", "--mc-samples", "1000")


def test_wn_experiment_end_to_end(tmp_path, capsys):
    cfg = dict(
        model="white-noise",
        p=2.0,
        alpha=1.0,
        beta=1.0,
        q=2.0,
        n_grid=[32, 64, 128, 256],
        replicates=2,
        posterior_draws=20,
        master_seed=5,
        max_truncation=256,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out = run_cli(
        capsys,
        "wn-experiment",
        "--config",
        str(cfg_path),
        "--out",
        str(out_dir),
        "--threads",
        "2",
    )
    assert code == 0
    assert "verdict=" in out
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "plotdata.csv").exists()


WN_CFG = dict(model="white-noise", p=2.0, alpha=1.0, beta=1.0, q=2.0, n_grid=[32, 64, 128],
              replicates=2, posterior_draws=20, master_seed=5, max_truncation=256)


@pytest.mark.parametrize(
    "command, text, problem",
    [
        ("wn-experiment", json.dumps(dict(WN_CFG, n_grid=[64.7, 128, 256])), "n_grid"),
        ("wn-experiment", json.dumps(dict(WN_CFG, replicates=1.5)), "replicates"),
        ("de-experiment", json.dumps(dict(WN_CFG, posterior_draws=True)), "posterior_draws"),
        ("wn-experiment", '{"model": "white-noise", "p": 2.0,', "Expecting"),
        ("wn-experiment", '{"model": "white-noise", "p": 2.0}', "missing 7 required"),
        ("wn-experiment", json.dumps(dict(WN_CFG, n_grid=256)), "not iterable"),
        ("de-experiment", None, "No such file"),
        # outside the rate theory: a traceback after every cell, or failed cells
        ("wn-experiment", json.dumps(dict(WN_CFG, beta=0.2, q=1.0)), "beta must exceed"),
        ("wn-experiment", json.dumps(dict(WN_CFG, alpha=-1.0)), "alpha must be positive"),
        ("de-experiment", json.dumps(dict(WN_CFG, model="density", p=3.0)), "p must lie"),
    ],
)
def test_experiment_reports_a_bad_config_in_one_line(tmp_path, capsys, command, text, problem):
    # each used to end in a traceback
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and problem in err and str(cfg_path) in err
    assert not (tmp_path / "out").exists()


def test_wn_experiment_writes_partial_rows_when_cells_fail(tmp_path, capsys, monkeypatch):
    cell = experiments._wn_cell

    def planted(cfg, truth, i_n, rep):
        if (i_n, rep) in {(0, 1), (2, 0)}:
            raise RuntimeError("planted failure")
        return cell(cfg, truth, i_n, rep)

    monkeypatch.setattr(experiments, "_wn_cell", planted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(WN_CFG))
    out_dir = tmp_path / "out"
    code, out = run_cli(capsys, "wn-experiment", "--config", str(cfg_path), "--out",
                        str(out_dir), "--threads", "2")
    assert code == 1
    assert "n=32 rep=1" in out and "partial results" in out
    with open(out_dir / "results.csv", newline="") as fh:
        rows = [(int(r["n"]), int(r["rep"])) for r in csv.DictReader(fh)]
    assert rows == [(32, 0), (64, 0), (64, 1), (128, 1)]
    assert not (out_dir / "summary.json").exists()


def test_de_experiment_end_to_end(tmp_path, capsys):
    cfg = dict(
        model="density",
        p=1.0,
        alpha=1.0,
        beta=1.0,
        q=2.0,
        n_grid=[40, 80, 160],
        replicates=1,
        posterior_draws=20,
        master_seed=5,
        levels=3,
        burn_in=100,
        thin=1,
    )
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out = run_cli(
        capsys, "de-experiment", "--config", str(cfg_path), "--out", str(out_dir)
    )
    assert code == 0
    assert (out_dir / "results.csv").exists()


def test_check_inequalities_csv_same_for_any_thread_count(tmp_path, capsys, monkeypatch):
    csvs = []
    for threads in (1, 3):
        monkeypatch.setattr(measure, "MC_THREADS", threads)
        out = tmp_path / f"t{threads}"
        code, _ = run_cli(capsys, "check-inequalities", "--seed", "2", "--out", str(out))
        assert code == 0
        csvs.append((out / "inequalities.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_check_inequalities_cli(tmp_path, capsys):
    code, out = run_cli(
        capsys, "check-inequalities", "--seed", "1", "--out", str(tmp_path)
    )
    # full battery passes and writes the report
    assert code == 0
    assert (tmp_path / "inequalities.csv").exists()
    assert "checks passed" in out


def test_cli_import_loads_no_scipy():
    # scipy.special clones numpy's namespace on import, loading numpy.f2py,
    # numpy.testing and numpy.ma: about 0.2 s and 25 MiB of every run's set-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, pexp.cli; "
        "print(sorted(m for m in ('scipy', 'numpy.f2py', 'numpy.testing') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_what_the_run_paths_use():
    # numpy imports numpy.ma (reached by np.median and np.unique) and
    # numpy.random on first use; pexp imports both itself, so that their
    # cost falls in set-up and not inside the first timed operation
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import sys, numpy as np, pexp.cli; before = set(sys.modules); "
        "np.median(np.arange(3.0)); np.unique(np.arange(3)); "
        "np.quantile(np.arange(3.0), 0.9); np.random.default_rng(0).random(); "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
