"""Command line interface: pexp <subcommand>.

Subcommands: rate, conc, smallball, sample-prior, wn-experiment,
de-experiment, check-inequalities.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import concentration, experiments, measure, rates
from .measure import WaveletBasis, pexp_measure
from .sequences import ScalingSpec, load_coefvec, save_coefvec


def _spec_from_args(args, n=None) -> ScalingSpec:
    if args.scheme == "dyadic":
        return ScalingSpec(
            args.p, args.alpha, args.d, args.lam, "dyadic", levels=args.levels
        )
    return ScalingSpec(args.p, args.alpha, args.d, args.lam, "linear", n=n or args.n)


def _add_prior_args(sp, scheme_choice=True):
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    if scheme_choice:
        sp.add_argument("--scheme", choices=["linear", "dyadic"], default="linear")
        sp.add_argument("--levels", type=int, default=6)
        sp.add_argument("--n", type=int, default=256)


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


def cmd_rate(args) -> int:
    rq = rates.RateQuery(args.alpha, args.beta, args.p, args.q, args.d)
    if args.grid is not None:
        lo, hi, count = args.grid
        alphas = np.linspace(float(lo), float(hi), int(count))
        print("alpha,poly_exponent,log_exponent,regime")
        for a in alphas:
            q = rates.RateQuery(float(a), args.beta, args.p, args.q, args.d)
            if args.setting == "l2":
                r = rates.rate_l2(q)
            elif args.setting == "l2-rescaled":
                r = rates.rate_l2_rescaled(q)
            else:
                rho, rho_t = rates.rate_sup(float(a), args.beta, args.p)
                r = rho if rho.poly_exponent <= rho_t.poly_exponent else rho_t
            print(f"{a},{float(r.poly_exponent)},{float(r.log_exponent)},{r.regime}")
        return 0
    out = {
        "minimax": float(rates.minimax(args.beta, args.d)),
        "linear_minimax": float(rates.linear_minimax(args.beta, args.q)),
    }
    if args.setting == "l2":
        out.update(_regime_dict(rates.rate_l2(rq)))
    elif args.setting == "l2-rescaled":
        out.update(_regime_dict(rates.rate_l2_rescaled(rq)))
    else:
        rho, rho_t = rates.rate_sup(args.alpha, args.beta, args.p)
        out["rho"] = _regime_dict(rho)
        out["rho_tilde"] = _regime_dict(rho_t)
        out["poly_exponent"] = float(
            rates.sup_contraction_exponent(args.alpha, args.beta, args.p)
        )
    print(json.dumps(out, indent=2))
    return 0


def _parse_eps_grid(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.split(",") if tok])


def cmd_conc(args) -> int:
    w = load_coefvec(args.w_file)
    spec = _spec_from_args(args, n=len(w))
    m = pexp_measure(spec)
    rng = np.random.default_rng(args.seed)
    # one sample for the whole grid: phi is then non-increasing in eps
    sample = concentration.unit_norm_sample(m, args.norm, args.mc_samples, rng)
    print("eps,inf_term,inf_argmin_l2norm,neglog,neglog_lo,neglog_hi,phi")
    for eps in _parse_eps_grid(args.eps_grid):
        est = concentration.concentration_fn(w, float(eps), m, args.norm, sample=sample)
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
        slope, se = concentration.smallball_slope(ests)
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
    cfg = experiments.ExperimentConfig.from_json(args.config)
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

    sp = sub.add_parser("conc", help="concentration function on an eps grid")
    sp.add_argument("--w-file", required=True)
    sp.add_argument("--eps-grid", required=True, help="comma-separated radii")
    _add_prior_args(sp)
    sp.add_argument("--norm", choices=["l2", "sup"], default="l2")
    sp.add_argument("--mc-samples", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_conc)

    sp = sub.add_parser("smallball", help="centered small-ball Monte Carlo")
    sp.add_argument("--eps-grid", required=True)
    _add_prior_args(sp)
    sp.add_argument("--norm", choices=["l2", "sup"], default="l2")
    sp.add_argument("--mc-samples", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fit-slope", action="store_true")
    sp.set_defaults(func=cmd_smallball)

    sp = sub.add_parser("sample-prior", help="draw from the prior")
    _add_prior_args(sp)
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
