"""The four benchmark workloads: inputs from a seed, timed operations, checks.

Each workload is built in three steps that the worker times apart:

* the constructor builds the configs, truths, specs and bases (set-up);
* ``run()`` performs the operations through pexp's public entry points
  (timed; it includes the output files the CLI writes);
* ``check()`` reads the outputs and returns an ``Outcome`` (not timed).

Every operation that raises is recorded and the remaining operations still
run.  Nothing is retried or re-seeded.  Entry points are looked up as module
attributes at call time (``cli.main``, ``concentration.rate_solve_numeric``)
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from pexp import cli, concentration, experiments
from pexp.measure import WaveletBasis, pexp_measure
from pexp.sequences import BesovParams, CoefVec, ScalingSpec, make_truth

# Criterion 9 (rescaled Laplace prior) and criterion 8 (Gaussian prior).  Five
# replicates are too few: median q90 then rose from n=2^8 to 2^9 on one seed.
WN_COMMON = {
    "model": "white-noise",
    "n_grid": [2**k for k in range(8, 17)],
    "replicates": 10,
    "posterior_draws": 200,
}
WN_CONFIGS = {
    "laplace": {"p": 1.0, "alpha": 1.0, "beta": 2.0, "q": 1.0,
                "lambda_rule": {"poly_exponent": 0.2}, "slope_tol": 0.07},
    "gaussian": {"p": 2.0, "alpha": 1.0, "beta": 1.0, "q": 2.0, "slope_tol": 0.05},
}
# Criterion 11 with one replicate per pass: across 16 replicates the largest
# ratio of consecutive q90 values was 0.74.
DE_CONFIG = {
    "model": "density", "p": 1.0, "alpha": 1.0, "beta": 1.0, "q": 2.0,
    "n_grid": [250, 1000, 4000], "replicates": 1, "posterior_draws": 150,
    "levels": 6, "burn_in": 1200, "thin": 4,
}
RATE_MC_SAMPLES = 10_000
RATE_GRID_TOL = 0.03
# (family, n); n keeps n eps^2 below the Monte Carlo guard -log(1e-4).
RATE_SOLVES = [("l2", 16), ("l2", 128), ("sup", 16), ("sup", 32)]
INEQ_SEEDS_PER_PASS = 4
INEQ_ROWS = 37  # 21 Anderson, 12 decentering, 4 tail-bound rows per seed


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)  # output name -> sha256
    problems: list = field(default_factory=list)


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Sweeps:
    """Contraction sweeps run through ``pexp <model>-experiment``."""

    command = ""
    require_consistent = False

    def __init__(self, configs: dict, seed: int, out_dir: str, threads: int):
        self.threads = threads
        self.sweeps = {}
        for name, raw in configs.items():
            raw = dict(raw, master_seed=seed)
            experiments.ExperimentConfig.from_dict(raw)  # reject a bad config in set-up
            out = os.path.join(out_dir, name)
            os.makedirs(out)
            path = os.path.join(out, "config.json")
            with open(path, "w") as fh:
                json.dump(raw, fh)
            self.sweeps[name] = {
                "cfg": raw,
                "path": path,
                "out": out,
                "rc": None,
                "error": None,
            }

    def run(self) -> None:
        for sweep in self.sweeps.values():
            argv = [self.command, "--config", sweep["path"], "--out", sweep["out"],
                    "--threads", str(self.threads)]
            try:
                sweep["rc"] = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - the remaining sweeps still run
                sweep["error"] = repr(exc)

    def check(self) -> Outcome:
        oc = Outcome()
        for name, sweep in self.sweeps.items():
            cfg = sweep["cfg"]
            expected = {(n, r) for n in cfg["n_grid"] for r in range(cfg["replicates"])}
            oc.attempted += len(expected)
            if sweep["error"] is not None:
                oc.problems.append(f"{name}: raised {sweep['error']}")
            if sweep["rc"] not in (0, None):
                oc.problems.append(f"{name}: exit code {sweep['rc']} (partial rows)")
            path = os.path.join(sweep["out"], "results.csv")
            q90 = {}
            if os.path.exists(path):
                oc.outputs[f"{name}/results.csv"] = _sha256_file(path)
                with open(path, newline="") as fh:
                    for row in csv.DictReader(fh):
                        vals = [float(row[k]) for k in ("error_median", "q90", "lo", "hi")]
                        if all(math.isfinite(v) for v in vals):
                            q90[(int(row["n"]), int(row["rep"]))] = vals[1]
            done = expected & set(q90)
            ok = len(done)
            if sweep["rc"] == 0 and ok == len(expected):
                med = [float(np.median([q90[(n, r)] for r in range(cfg["replicates"])]))
                       for n in cfg["n_grid"]]
                if not all(b < a for a, b in zip(med, med[1:])):
                    oc.problems.append(f"{name}: median q90 not strictly decreasing {med}")
                    ok = 0
                if self.require_consistent:
                    with open(os.path.join(sweep["out"], "summary.json")) as fh:
                        verdict = json.load(fh)["verdict"]
                    if verdict != "CONSISTENT":
                        oc.problems.append(f"{name}: verdict {verdict}")
                        ok = 0
            oc.failed += len(expected) - ok
        return oc


class WnSweep(_Sweeps):
    command = "wn-experiment"
    require_consistent = True

    def __init__(self, seed, out_dir, threads):
        configs = {name: dict(WN_COMMON, **cfg) for name, cfg in WN_CONFIGS.items()}
        super().__init__(configs, seed, out_dir, threads)


class DeSweep(_Sweeps):
    command = "de-experiment"

    def __init__(self, seed, out_dir, threads):
        super().__init__({"density": DE_CONFIG}, seed, out_dir, threads)


class RateSolve:
    """Solves of phi_w(eps) <= n eps^2 through the library (no CLI exists)."""

    def __init__(self, seed, out_dir, threads):
        self.seed = seed
        l2_spec = ScalingSpec(1.5, 1.0, 1, 1.0, "linear", n=256)
        levels = 7
        sup_spec = ScalingSpec(1.0, 1.0, 1, 1.0, "dyadic", levels=levels)
        ks = sup_spec.level_index()
        signs = np.where(np.random.default_rng(seed).random(len(ks)) < 0.5, -1.0, 1.0)
        self.families = {
            "l2": (make_truth(BesovParams(1.0, 2.0), n=256), pexp_measure(l2_spec), None),
            "sup": (CoefVec.dyadic(2.0 ** (-1.5 * ks) * signs, levels),
                    pexp_measure(sup_spec), WaveletBasis(levels)),
        }
        self.eps = [None] * len(RATE_SOLVES)
        self.errors = {}

    def run(self) -> None:
        for i, (norm, n) in enumerate(RATE_SOLVES):
            w, m, basis = self.families[norm]
            rng = np.random.default_rng((self.seed, i))
            try:
                self.eps[i] = concentration.rate_solve_numeric(
                    w, m, n, RATE_MC_SAMPLES, rng, norm, RATE_GRID_TOL, basis
                )
            except Exception as exc:  # noqa: BLE001 - the remaining solves still run
                self.errors[i] = repr(exc)

    def check(self) -> Outcome:
        oc = Outcome(attempted=len(RATE_SOLVES))
        good = set()
        for i, (norm, n) in enumerate(RATE_SOLVES):
            e = self.eps[i]
            if i in self.errors:
                oc.problems.append(f"{norm} n={n}: raised {self.errors[i]}")
            elif not (math.isfinite(e) and e > 0):
                oc.problems.append(f"{norm} n={n}: eps {e!r}")
            else:
                good.add(i)
        for norm in self.families:
            idx = [i for i, (fam, _) in enumerate(RATE_SOLVES) if fam == norm]
            eps = [self.eps[i] for i in idx]
            if set(idx) <= good and not all(b < a for a, b in zip(eps, eps[1:])):
                oc.problems.append(f"{norm}: eps not strictly decreasing in n {eps}")
                good -= set(idx)
        oc.failed = len(RATE_SOLVES) - len(good)
        text = json.dumps([None if e is None else float(e).hex() for e in self.eps])
        oc.outputs["eps"] = hashlib.sha256(text.encode()).hexdigest()
        return oc


class Inequalities:
    """``pexp check-inequalities`` on consecutive seeds."""

    def __init__(self, seed, out_dir, threads):
        self.runs = [{"seed": seed + j, "out": os.path.join(out_dir, f"seed{j}"),
                      "rc": None, "error": None} for j in range(INEQ_SEEDS_PER_PASS)]

    def run(self) -> None:
        for r in self.runs:
            try:
                r["rc"] = cli.main(["check-inequalities", "--seed", str(r["seed"]),
                                    "--out", r["out"]])
            except Exception as exc:  # noqa: BLE001 - the remaining seeds still run
                r["error"] = repr(exc)

    def check(self) -> Outcome:
        oc = Outcome()
        for j, r in enumerate(self.runs):
            oc.attempted += INEQ_ROWS
            path = os.path.join(r["out"], "inequalities.csv")
            passed = 0
            if r["error"] is not None:
                oc.problems.append(f"seed {r['seed']}: raised {r['error']}")
            elif os.path.exists(path):
                oc.outputs[f"seed{j}/inequalities.csv"] = _sha256_file(path)
                with open(path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                passed = sum(row["verdict"] == "PASS" for row in rows)
                if len(rows) != INEQ_ROWS or passed != len(rows):
                    oc.problems.append(
                        f"seed {r['seed']}: {passed}/{len(rows)} rows PASS, "
                        f"{INEQ_ROWS} expected"
                    )
            oc.failed += INEQ_ROWS - min(passed, INEQ_ROWS)
        return oc


WORKLOADS = {
    "wn-sweep": WnSweep,
    "de-sweep": DeSweep,
    "rate-solve": RateSolve,
    "inequalities": Inequalities,
}
