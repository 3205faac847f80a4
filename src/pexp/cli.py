"""Command line interface: pexp <subcommand>.

Subcommands: rate, conc, smallball, sample-prior, wn-experiment,
de-experiment, check-inequalities.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import concentration, experiments, measure, rates
from .measure import WaveletBasis, pexp_measure
from .sequences import ScalingSpec, load_coefvec, save_coefvec


def _spec_from_args(args) -> ScalingSpec:
    if args.scheme == "dyadic":
        return ScalingSpec(
            args.p, args.alpha, args.d, args.lam, "dyadic", levels=args.levels
        )
    return ScalingSpec(args.p, args.alpha, args.d, args.lam, "linear", n=args.n)


def _regime_dict(r: rates.RateRegime | None) -> dict:
    if r is None:
        return {}
    out = {
        "poly_exponent": float(r.poly_exponent),
        "log_exponent": float(r.log_exponent),
        "regime": r.regime,
        "switch_point": None if r.switch_point is None else float(r.switch_point),
    }
    if r.lambda_poly_exponent is not None:
        out["lambda_poly_exponent"] = float(r.lambda_poly_exponent)
        out["lambda_log_exponent"] = float(r.lambda_log_exponent)
    return out


def _setting_rate(setting: str, rq: rates.RateQuery) -> tuple[rates.RateRegime, dict]:
    """The regime that sets the rate of rq in a setting, and the setting's
    report fields.  The sup setting reports both legs and contracts at the
    slower one."""
    if setting == "sup":
        rho, rho_t = rates.rate_sup(rq.alpha, rq.beta, rq.p)
        r = rho if rho.poly_exponent <= rho_t.poly_exponent else rho_t
        fields = {"rho": _regime_dict(rho), "rho_tilde": _regime_dict(rho_t)}
        return r, {**fields, "poly_exponent": float(r.poly_exponent)}
    r = rates.rate_l2(rq) if setting == "l2" else rates.rate_l2_rescaled(rq)
    return r, _regime_dict(r)


def cmd_rate(args) -> int:
    if args.setting == "sup" and args.d != 1:
        raise SystemExit(f"--setting sup is one-dimensional, got d={args.d}")
    if args.grid is not None:
        lo, hi, count = args.grid
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["alpha", "poly_exponent", "log_exponent", "regime"])
        for a in np.linspace(float(lo), float(hi), int(count)):
            q = rates.RateQuery(float(a), args.beta, args.p, args.q, args.d)
            r, _ = _setting_rate(args.setting, q)
            out.writerow([float(a), float(r.poly_exponent), float(r.log_exponent), r.regime])
        return 0
    rq = rates.RateQuery(args.alpha, args.beta, args.p, args.q, args.d)
    out = {
        "minimax": float(rates.minimax(args.beta, args.d)),
        "linear_minimax": (  # a d = 1 formula
            float(rates.linear_minimax(args.beta, args.q)) if args.d == 1 else None
        ),
    }
    out.update(_setting_rate(args.setting, rq)[1])
    print(json.dumps(out, indent=2))
    return 0


def _parse_eps_grid(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",") if tok])


def cmd_conc(args) -> int:
    w = load_coefvec(args.w_file)
    # the w-file fixes the prior's scheme and truncation: its levels or its length
    args.scheme, args.levels, args.n = w.scheme, w.levels, len(w)
    m = pexp_measure(_spec_from_args(args))
    rng = np.random.default_rng(args.seed)
    # one sample for the whole grid: phi is then non-increasing in eps
    sample = concentration.unit_norm_sample(m, args.norm, args.mc_samples, rng)
    print("eps,inf_term,inf_argmin_l2norm,neglog,neglog_lo,neglog_hi,phi")
    for eps in _parse_eps_grid(args.eps_grid):
        est = concentration.concentration_fn(w, float(eps), m, args.norm, sample)
        print(
            f"{eps},{est.inf_term:.17g},{np.linalg.norm(est.argmin):.17g},"
            f"{est.neglog_smallball:.17g},{est.neglog_ci[0]:.17g},"
            f"{est.neglog_ci[1]:.17g},{est.phi:.17g}"
        )
    return 0


def cmd_smallball(args) -> int:
    spec = _spec_from_args(args)
    m = pexp_measure(spec)
    rng = np.random.default_rng(args.seed)
    eps = _parse_eps_grid(args.eps_grid)
    ests = concentration.smallball_mc(m, eps, args.norm, args.mc_samples, rng)
    print("eps,p_hat,neglog,neglog_lo,neglog_hi")
    for e in ests:
        print(f"{e.eps},{e.p_hat:.17g},{e.neglog:.17g},{e.ci[0]:.17g},{e.ci[1]:.17g}")
    if args.fit_slope:
        try:
            slope, se = concentration.smallball_slope(ests)
        except ValueError as exc:
            print(f"pexp smallball: cannot fit a slope: {exc}", file=sys.stderr)
            return 1
        theory = -args.d / args.alpha if args.norm == "l2" else -1.0 / args.alpha
        print(f"slope,{slope:.17g},stderr,{se:.17g},theory_slope,{theory:.17g}")
    return 0


def cmd_sample_prior(args) -> int:
    spec = _spec_from_args(args)
    m = pexp_measure(spec)
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.count):
        u = measure.sample_prior(m, rng)
        save_coefvec(u, os.path.join(args.out, f"draw_{i:04d}.csv"))
        if spec.scheme == "dyadic":
            basis = WaveletBasis(spec.levels)
            grid = np.linspace(0.0, 1.0, 2**10 + 1)
            vals = measure.evaluate_function(u, basis, grid)
            with open(os.path.join(args.out, f"draw_{i:04d}_values.csv"), "w") as fh:
                fh.write("x,value\n")
                for x, v in zip(grid, vals):
                    fh.write(f"{x:.17g},{v:.17g}\n")
    print(f"wrote {args.count} draw(s) to {args.out}")
    return 0


def _run_experiment(args, model: str) -> int:
    try:
        cfg = experiments.ExperimentConfig.from_json(args.config)
    except (OSError, TypeError, ValueError) as exc:  # unreadable, not JSON, or a bad key
        print(f"pexp {args.command}: bad config {args.config}: {exc}", file=sys.stderr)
        return 1
    if cfg.model != model:
        raise SystemExit(f"config model {cfg.model!r} does not match subcommand")
    if args.seed is not None:
        cfg.master_seed = args.seed
    try:
        result = experiments.run_contraction(cfg, threads=args.threads)
    except experiments.ExperimentError as exc:
        path = experiments.write_rows(exc.partial_rows, args.out)
        print(f"experiment failed ({exc}); partial results in {path}")
        return 1
    experiments.write_outputs(result, args.out)
    print(
        f"fitted_slope={result.fitted_slope:.4f} stderr={result.stderr:.4f} "
        f"theory_exponent={result.theory_exponent:.4f} verdict={result.verdict}"
    )
    return 0


def cmd_check_inequalities(args) -> int:
    rows = experiments.run_inequalities(seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "inequalities.csv")
    with open(path, "w") as fh:
        fh.write("check,params,margin,verdict\n")
        for r in rows:
            fh.write(f"{r.check},{r.params},{r.margin:.17g},{r.verdict}\n")
    failures = [r for r in rows if r.verdict != "PASS"]
    for r in rows:
        print(f"{r.check:18s} {r.params:40s} margin={r.margin:+.3e} {r.verdict}")
    print(f"{len(rows) - len(failures)}/{len(rows)} checks passed; wrote {path}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pexp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    law = argparse.ArgumentParser(add_help=False)  # the prior's law
    law.add_argument("--p", type=float, required=True)
    law.add_argument("--alpha", type=float, required=True)
    law.add_argument("--d", type=int, default=1)
    law.add_argument("--lambda", dest="lam", type=float, default=1.0)
    truncation = argparse.ArgumentParser(add_help=False)  # its scheme and length
    truncation.add_argument("--scheme", choices=["linear", "dyadic"], default="linear")
    truncation.add_argument("--levels", type=int, default=6)
    truncation.add_argument("--n", type=int, default=256)

    sp = sub.add_parser("rate", help="closed-form contraction-rate calculators")
    sp.add_argument("--setting", choices=["l2", "l2-rescaled", "sup"], default="l2")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, default=2.0)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--grid", nargs=3, metavar=("LO", "HI", "COUNT"), default=None,
                    help="sweep alpha and emit CSV")
    sp.set_defaults(func=cmd_rate)

    sp = sub.add_parser("conc", parents=[law], help="concentration function on an eps grid")
    sp.add_argument("--w-file", required=True, help="CoefVec CSV; sets scheme and truncation")
    sp.add_argument("--eps-grid", required=True, help="comma-separated radii")
    sp.add_argument("--norm", choices=["l2", "sup"], default="l2")
    sp.add_argument("--mc-samples", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_conc)

    sp = sub.add_parser(
        "smallball", parents=[law, truncation], help="centered small-ball Monte Carlo"
    )
    sp.add_argument("--eps-grid", required=True)
    sp.add_argument("--norm", choices=["l2", "sup"], default="l2")
    sp.add_argument("--mc-samples", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fit-slope", action="store_true")
    sp.set_defaults(func=cmd_smallball)

    sp = sub.add_parser("sample-prior", parents=[law, truncation], help="draw from the prior")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--out", default="prior_draws")
    sp.set_defaults(func=cmd_sample_prior)

    for name, model in (("wn-experiment", "white-noise"), ("de-experiment", "density")):
        sp = sub.add_parser(name, help=f"{model} contraction experiment")
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default="experiment_out")
        sp.add_argument("--threads", type=int, default=1,
                        help="threads for white-noise cells; density cells run serially")
        sp.set_defaults(func=lambda a, m=model: _run_experiment(a, m))

    sp = sub.add_parser("check-inequalities", help="Anderson/decentering/tail battery")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default="inequalities_out")
    sp.set_defaults(func=cmd_check_inequalities)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
