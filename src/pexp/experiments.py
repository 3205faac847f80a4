"""Contraction-rate sweeps, inequality batteries, slope fitting and emission.

Experiments are deterministic: every (n, replicate) cell draws from the
sub-stream seeded by (master_seed, n_index, replicate_index), cells are
written into preassigned slots, and aggregation never depends on execution
order, so results are bit-identical for any thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import measure, models, rates, univariate
from .measure import WaveletBasis, pexp_measure
from .sequences import BesovParams, CoefVec, ScalingSpec, load_coefvec, make_truth
from .sequences import dyadic_level_index, loglog_fit


@dataclass(frozen=True)
class LambdaRule:
    """Per-n rescaling lam_n = n^{-poly_exponent} * log(n)^{log_exponent}."""

    poly_exponent: float
    log_exponent: float = 0.0

    def at(self, n: float) -> float:
        lam = float(n) ** (-self.poly_exponent)
        if self.log_exponent:
            lam *= math.log(n) ** self.log_exponent
        return lam


@dataclass
class ExperimentConfig:
    model: str  # "white-noise" | "density"
    p: float
    alpha: float
    beta: float
    q: float
    n_grid: list[int]
    replicates: int
    posterior_draws: int
    master_seed: int
    d: int = 1
    delta: float = 0.05
    truth_file: str | None = None
    truth_signs_seed: int | None = None
    lambda_rule: LambdaRule | None = None
    levels: int = 6  # density model resolution
    slope_tol: float = 0.1
    burn_in: int = 1200
    thin: int = 4
    max_truncation: int = 2**15

    def __post_init__(self):
        if self.model not in ("white-noise", "density"):
            raise ValueError(f"unknown model {self.model!r}")
        ns = list(self.n_grid)
        if len(ns) < 3:
            raise ValueError("n_grid needs at least 3 points")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if any(n < 1 for n in ns):
            raise ValueError("n_grid entries must be positive")
        if not (self.replicates >= 1 and self.posterior_draws >= 1):
            raise ValueError("replicates and posterior_draws must be >= 1")
        if not (self.thin >= 1 and self.burn_in >= 0):
            raise ValueError("thin must be >= 1 and burn_in >= 0")
        self.n_grid = [int(n) for n in ns]

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        raw = dict(raw)
        rule = raw.get("lambda_rule")
        if rule is not None:
            extra = set(rule) - {"poly_exponent", "log_exponent"}
            if extra:
                raise ValueError(f"unknown lambda_rule keys: {sorted(extra)}")
            raw["lambda_rule"] = LambdaRule(**rule)
        return cls(**raw)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.lambda_rule is None:
            out.pop("lambda_rule")
        return out


def config_hash(cfg: ExperimentConfig) -> str:
    """Git-style blob hash of the canonical config JSON."""
    payload = json.dumps(cfg.to_dict(), sort_keys=True).encode()
    return hashlib.sha1(b"blob %d\0" % len(payload) + payload).hexdigest()


@dataclass
class ExperimentRow:
    n: int
    rep: int
    error_median: float
    q90: float
    lo: float
    hi: float


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow]
    n_grid: list[int]
    median_q90: list[float]
    fitted_slope: float
    stderr: float
    theory_exponent: float
    verdict: str
    config: ExperimentConfig
    config_sha: str = ""

    def __post_init__(self):
        if not self.config_sha:
            self.config_sha = config_hash(self.config)


def fit_slope(ns, values) -> tuple[float, float]:
    """OLS slope of log(value) against log(n) with residual standard error."""
    if len(list(ns)) < 4:
        raise ValueError("slope fit needs at least 4 rows")
    if (np.asarray(values, dtype=float) <= 0).any():
        raise ValueError("slope fit requires positive values")
    return loglog_fit(ns, values)


def theory_exponent(cfg: ExperimentConfig) -> float:
    """Decay exponent of the theoretical contraction rate for the config."""
    rq = rates.RateQuery(cfg.alpha, cfg.beta, cfg.p, cfg.q, cfg.d)
    if cfg.model == "white-noise":
        if cfg.lambda_rule is not None:
            return float(rates.rate_l2_rescaled(rq).poly_exponent)
        return float(rates.rate_l2(rq).poly_exponent)
    return float(rates.sup_contraction_exponent(cfg.alpha, cfg.beta, cfg.p))


def _truncation_for(cfg: ExperimentConfig, n: int, lam: float) -> int:
    """Smallest N with prior tail sum_{ell > N} gamma_ell^2 below (0.01 m_n)^2."""
    mn = float(n) ** (-float(rates.minimax(cfg.beta, cfg.d)))
    a_over_d = cfg.alpha / cfg.d
    budget = (0.01 * mn) ** 2
    # integral tail bound: lam^2 N^{-2 alpha/d} / (2 alpha/d)
    N = math.ceil((lam**2 / (2 * a_over_d) / budget) ** (1.0 / (2 * a_over_d)))
    return max(16, min(N, cfg.max_truncation))


def _wn_truth(cfg: ExperimentConfig) -> CoefVec:
    if cfg.truth_file:
        return load_coefvec(cfg.truth_file)
    w = make_truth(BesovParams(cfg.beta, cfg.q, cfg.d), cfg.delta)
    if cfg.truth_signs_seed is not None:
        rng = np.random.default_rng(cfg.truth_signs_seed)
        signs = np.where(rng.random(len(w)) < 0.5, -1.0, 1.0)
        w = CoefVec.linear(np.abs(w.values) * signs)
    return w


def _de_truth(cfg: ExperimentConfig) -> CoefVec:
    """Dyadic truth at the B^beta_{inf,inf} boundary: |u_kl| = 2^{-(1/2+beta)k}."""
    if cfg.truth_file:
        return load_coefvec(cfg.truth_file)
    K = cfg.levels
    ks = dyadic_level_index(K)
    mags = 2.0 ** (-(0.5 + cfg.beta) * ks)
    rng = np.random.default_rng(
        cfg.truth_signs_seed if cfg.truth_signs_seed is not None else cfg.master_seed
    )
    signs = np.where(rng.random(len(ks)) < 0.5, -1.0, 1.0)
    return CoefVec.dyadic(mags * signs, K)


def _row(n: int, rep: int, errors: np.ndarray, q: float = 0.9) -> ExperimentRow:
    """Median and q-quantile of a cell's per-draw errors, with the quantile's
    order-statistic normal-approximation 95% CI."""
    s = np.sort(errors)
    k = q * (len(s) - 1)
    half = 1.959963984540054 * math.sqrt(len(s) * q * (1 - q))
    lo = int(np.clip(math.floor(k - half), 0, len(s) - 1))
    hi = int(np.clip(math.ceil(k + half), 0, len(s) - 1))
    median, qq = float(np.median(errors)), float(np.quantile(errors, q))
    return ExperimentRow(n, rep, median, qq, float(s[lo]), float(s[hi]))


def _wn_cell(cfg: ExperimentConfig, truth: CoefVec, i_n: int, rep: int) -> ExperimentRow:
    n = cfg.n_grid[i_n]
    rng = np.random.default_rng((cfg.master_seed, i_n, rep))
    lam = cfg.lambda_rule.at(n) if cfg.lambda_rule else 1.0
    N = _truncation_for(cfg, n, lam)
    spec = ScalingSpec(cfg.p, cfg.alpha, cfg.d, lam, "linear", n=N)
    m = pexp_measure(spec)
    w_model = truth.values[:N]
    if len(w_model) < N:
        w_model = np.concatenate([w_model, np.zeros(N - len(w_model))])
    data = models.wn_simulate(w_model, n, rng)
    chain = models.wn_posterior_sample(data, m, cfg.posterior_draws, rng)
    return _row(n, rep, models.wn_error_radii(chain, truth))


def _de_cell(cfg: ExperimentConfig, truth: CoefVec, i_n: int, rep: int) -> ExperimentRow:
    n = cfg.n_grid[i_n]
    rng = np.random.default_rng((cfg.master_seed, i_n, rep))
    basis = WaveletBasis(cfg.levels)
    m = pexp_measure(ScalingSpec(cfg.p, cfg.alpha, cfg.d, 1.0, "dyadic", levels=cfg.levels))
    pi0 = models.de_density(truth, basis)
    sample = models.de_simulate(truth, basis, n, rng)
    ccfg = models.ChainConfig(
        draws=cfg.posterior_draws, burn_in=cfg.burn_in, thin=cfg.thin
    )
    chain = models.de_posterior_mcmc(sample, m, basis, ccfg, rng)
    dists = [
        models.hellinger(models.de_density(CoefVec.dyadic(u, cfg.levels), basis), pi0)
        for u in chain.u
    ]
    return _row(n, rep, np.array(dists))


class ExperimentError(RuntimeError):
    """A cell failed; the rows completed before the failure ride along."""

    def __init__(self, message, partial_rows):
        super().__init__(message)
        self.partial_rows = partial_rows


def run_contraction(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Sweep n and replicates, fit the q90-radius slope, compare to theory.
    Density cells run serially whatever ``threads`` says: their Metropolis
    loop is bound by per-call overhead under the GIL, so threads slow them."""
    truth = _wn_truth(cfg) if cfg.model == "white-noise" else _de_truth(cfg)
    cell = _wn_cell if cfg.model == "white-noise" else _de_cell
    jobs = [(i, r) for i in range(len(cfg.n_grid)) for r in range(cfg.replicates)]
    slots: list[ExperimentRow | None] = [None] * len(jobs)
    errors: list[Exception] = []

    def work(j):
        i_n, rep = jobs[j]
        try:
            slots[j] = cell(cfg, truth, i_n, rep)
        except Exception as exc:  # noqa: BLE001 - partial results must survive
            errors.append(exc)

    if threads > 1 and cfg.model == "white-noise":
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, range(len(jobs))))
    else:
        for j in range(len(jobs)):
            work(j)
    rows = [r for r in slots if r is not None]
    if errors:
        raise ExperimentError(
            f"{len(errors)} cell(s) failed, first: {errors[0]}", rows
        ) from errors[0]
    med_q90 = [
        float(np.median([r.q90 for r in rows if r.n == n])) for n in cfg.n_grid
    ]
    slope, se = loglog_fit(cfg.n_grid, med_q90)
    theory = theory_exponent(cfg)
    if se > cfg.slope_tol:
        verdict = "UNDERPOWERED"
    elif abs(slope + theory) <= cfg.slope_tol:
        verdict = "CONSISTENT"
    else:
        verdict = "INCONSISTENT"
    return ExperimentResult(rows, cfg.n_grid, med_q90, slope, se, theory, verdict, cfg)


@dataclass
class InequalityRow:
    check: str
    params: str
    margin: float
    verdict: str


def run_inequalities(
    seed: int = 0,
    anderson_shifts: int = 20,
    anderson_samples: int = 200_000,
    lemma_grid: int = 1000,
    p_values=(1.0, 1.5, 2.0),
) -> list[InequalityRow]:
    """Battery: Anderson shifts (MC), decentering bound (quadrature), and the
    univariate lower-tail bound P(|xi| <= x) >= r1 x (exact CDF)."""
    rng = np.random.default_rng(seed)
    rows: list[InequalityRow] = []
    # Anderson inequality across dims 1..3
    for j in range(anderson_shifts):
        dim = 1 + j % 3
        p = p_values[j % len(p_values)]
        spec = ScalingSpec(p, 1.0, 1, 1.0, "linear", n=dim)
        m = pexp_measure(spec)
        shift = rng.normal(scale=0.8, size=dim)
        res = measure.anderson_check(m, 1.0, shift, anderson_samples, rng)
        rows.append(
            InequalityRow(
                "anderson",
                f"p={p} dim={dim} shift_norm={np.linalg.norm(shift):.3f}",
                res.p_centered + 3 * res.stderr - res.p_shifted,
                res.verdict,
            )
        )
    # zero-shift row: probabilities coincide
    spec = ScalingSpec(1.0, 1.0, 1, 1.0, "linear", n=2)
    res = measure.anderson_check(pexp_measure(spec), 1.0, np.zeros(2), anderson_samples, rng)
    rows.append(
        InequalityRow(
            "anderson", "p=1 dim=2 shift=0", res.p_centered - res.p_shifted, res.verdict
        )
    )
    # decentering bound by quadrature
    for p in p_values:
        for dim in (1, 2, 3):
            spec = ScalingSpec(p, 1.0, 1, 1.0, "linear", n=dim)
            m = pexp_measure(spec)
            h = rng.normal(scale=0.5, size=dim)
            res = measure.decentering_check(m, 0.7, h)
            rows.append(
                InequalityRow(
                    "decentering",
                    f"p={p} dim={dim}",
                    res.lhs - res.rhs,
                    res.verdict,
                )
            )
        spec1 = ScalingSpec(p, 1.0, 1, 1.0, "linear", n=1)
        res0 = measure.decentering_check(pexp_measure(spec1), 0.5, np.zeros(1))
        rows.append(
            InequalityRow("decentering", f"p={p} h=0", abs(res0.lhs - res0.rhs), res0.verdict)
        )
    # univariate lower-tail bound on (0, 1]
    xs = np.linspace(1.0 / lemma_grid, 1.0, lemma_grid)
    for p in (1.0, 1.2, 1.5, 2.0):
        params = univariate.PExpParams(p)
        lhs = 2.0 * np.asarray(univariate.cdf(params, xs)) - 1.0
        margin = float((lhs - params.tail_lower_const * xs).min())
        rows.append(
            InequalityRow(
                "tail-lower-bound",
                f"p={p} grid={lemma_grid}",
                margin,
                "PASS" if margin >= 0 else "FAIL",
            )
        )
    return rows


def write_rows(rows, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "results.csv")
    with open(path, "w") as fh:
        fh.write("n,rep,error_median,q90,lo,hi\n")
        for r in rows:
            fh.write(
                f"{r.n},{r.rep},{r.error_median:.17g},{r.q90:.17g},"
                f"{r.lo:.17g},{r.hi:.17g}\n"
            )
    return path


def write_outputs(result: ExperimentResult, out_dir) -> None:
    """Emit results.csv, summary.json and plotdata.csv."""
    write_rows(result.rows, out_dir)
    summary = {
        "fitted_slope": result.fitted_slope,
        "stderr": result.stderr,
        "theory_exponent": result.theory_exponent,
        "verdict": result.verdict,
        "config": result.config.to_dict(),
        "config_hash": result.config_sha,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "plotdata.csv"), "w") as fh:
        fh.write("log_n,log_q90\n")
        for n, q in zip(result.n_grid, result.median_q90):
            fh.write(f"{math.log(n):.17g},{math.log(q):.17g}\n")
