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
import numbers
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import measure, models, rates, univariate
from .concentration import Z95
from .measure import WaveletBasis, pexp_measure
from .sequences import BesovParams, CoefVec, ScalingSpec, load_coefvec, make_truth
from .sequences import dyadic_level_index, loglog_fit

MIN_TRUNCATION = 16  # white-noise cells keep at least this many coefficients


@dataclass(frozen=True)
class LambdaRule:
    """Per-n rescaling lam_n = n^{-poly_exponent}."""

    poly_exponent: float

    def at(self, n: float) -> float:
        return float(n) ** (-self.poly_exponent)


def _count(key: str, value) -> int:
    """A config count as an int: integral numbers pass, bools and fractions raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise ValueError(f"config key {key} needs an integer, got {value!r}")
    return int(value)


@dataclass
class ExperimentConfig:
    """One contraction sweep in dimension d = 1; README lists every key."""

    model: str  # "white-noise" | "density"
    p: float
    alpha: float
    beta: float
    q: float
    n_grid: list[int]
    replicates: int
    posterior_draws: int
    master_seed: int
    truth_file: str | None = None
    lambda_rule: LambdaRule | None = None
    levels: int = 6  # density model resolution
    slope_tol: float = 0.1
    burn_in: int = 1200
    thin: int = 4
    max_truncation: int = 2**15

    def __post_init__(self):
        if self.model not in ("white-noise", "density"):
            raise ValueError(f"unknown model {self.model!r}")
        for k in ("replicates", "posterior_draws", "levels", "burn_in", "thin", "max_truncation"):
            setattr(self, k, _count(k, getattr(self, k)))
        ns = [_count("n_grid", n) for n in self.n_grid]
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
        if self.levels < 0:
            raise ValueError(f"levels must be >= 0, got {self.levels}")
        if self.max_truncation < MIN_TRUNCATION:
            raise ValueError(
                f"max_truncation must be >= {MIN_TRUNCATION}, got {self.max_truncation}")
        if not (math.isfinite(self.slope_tol) and self.slope_tol > 0):
            raise ValueError(f"slope_tol must be finite and > 0, got {self.slope_tol}")
        if self.lambda_rule is not None:  # InvalidRateQuery without a rescaled theory
            r = rates.rate_l2_rescaled(rates.RateQuery(self.alpha, self.beta, self.p, self.q))
            poly, log = float(r.lambda_poly_exponent), float(r.lambda_log_exponent)
            if log or not math.isclose(self.lambda_rule.poly_exponent, poly, rel_tol=1e-12):
                raise ValueError(f"lambda_rule {self.lambda_rule} is not the rescaled theory's "
                                 f"lambda_n = n^-{poly:.12g} log^{log:g} n")
        self.n_grid = ns
        theory_exponent(self)  # a ValueError outside the rate theory, before any cell runs

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        raw = dict(raw)
        rule = raw.get("lambda_rule")
        if rule is not None:
            extra = set(rule) - {"poly_exponent"}
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
    median_q90: list[float]  # one per config.n_grid entry
    fitted_slope: float
    stderr: float
    theory_exponent: float
    verdict: str
    config: ExperimentConfig


def theory_exponent(cfg: ExperimentConfig) -> float:
    """Decay exponent of the theoretical contraction rate for the config."""
    rq = rates.RateQuery(cfg.alpha, cfg.beta, cfg.p, cfg.q)
    if cfg.model == "white-noise":
        if cfg.lambda_rule is not None:
            return float(rates.rate_l2_rescaled(rq).poly_exponent)
        return float(rates.rate_l2(rq).poly_exponent)
    return float(rates.sup_contraction_rate(cfg.alpha, cfg.beta, cfg.p).poly_exponent)


def _truncation_for(cfg: ExperimentConfig, n: int, lam: float) -> int:
    """Smallest N with prior tail sum_{ell > N} gamma_ell^2 below (0.01 m_n)^2."""
    mn = float(n) ** (-float(rates.minimax(cfg.beta)))
    budget = (0.01 * mn) ** 2
    # integral tail bound: lam^2 N^{-2 alpha} / (2 alpha)
    N = math.ceil((lam**2 / (2 * cfg.alpha) / budget) ** (1.0 / (2 * cfg.alpha)))
    return max(MIN_TRUNCATION, min(N, cfg.max_truncation))


def _wn_truth(cfg: ExperimentConfig) -> CoefVec:
    if cfg.truth_file:
        return load_coefvec(cfg.truth_file)
    return make_truth(BesovParams(cfg.beta, cfg.q))


def _de_truth(cfg: ExperimentConfig) -> CoefVec:
    """Dyadic truth at the B^beta_{inf,inf} boundary: |u_kl| = 2^{-(1/2+beta)k};
    a truth_file may be coarser than ``levels``, not finer (ValueError)."""
    if cfg.truth_file:
        truth = load_coefvec(cfg.truth_file)
        models.check_depth(truth, WaveletBasis(cfg.levels))
        return truth
    K = cfg.levels
    ks = dyadic_level_index(K)
    mags = 2.0 ** (-(0.5 + cfg.beta) * ks)
    rng = np.random.default_rng(cfg.master_seed)
    signs = np.where(rng.random(len(ks)) < 0.5, -1.0, 1.0)
    return CoefVec.dyadic(mags * signs, K)


def _row(n: int, rep: int, errors: np.ndarray) -> ExperimentRow:
    """Median and 0.9-quantile (q90) of a cell's per-draw errors, with the
    quantile's order-statistic normal-approximation 95% CI."""
    q = 0.9
    s = np.sort(errors)
    k = q * (len(s) - 1)
    half = Z95 * math.sqrt(len(s) * q * (1 - q))
    lo = int(np.clip(math.floor(k - half), 0, len(s) - 1))
    hi = int(np.clip(math.ceil(k + half), 0, len(s) - 1))
    median, qq = float(np.median(errors)), float(np.quantile(errors, q))
    return ExperimentRow(n, rep, median, qq, float(s[lo]), float(s[hi]))


def _wn_scale(cfg: ExperimentConfig, n: int) -> tuple[float, int]:
    """Prior scale lam_n (1 without a lambda rule) and truncation N at n."""
    lam = cfg.lambda_rule.at(n) if cfg.lambda_rule else 1.0
    return lam, _truncation_for(cfg, n, lam)


def _wn_cell(cfg: ExperimentConfig, truth: CoefVec, i_n: int, rep: int) -> ExperimentRow:
    n = cfg.n_grid[i_n]
    rng = np.random.default_rng((cfg.master_seed, i_n, rep))
    lam, N = _wn_scale(cfg, n)
    spec = ScalingSpec(cfg.p, cfg.alpha, 1, lam, "linear", n=N)
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
    m = pexp_measure(ScalingSpec(cfg.p, cfg.alpha, 1, 1.0, "dyadic", levels=cfg.levels))
    pi0 = models.de_density(truth, basis)
    points = models.de_simulate(truth, basis, n, rng)
    ccfg = models.ChainConfig(
        draws=cfg.posterior_draws, burn_in=cfg.burn_in, thin=cfg.thin
    )
    chain = models.de_posterior_mcmc(points, m, ccfg, rng)
    return _row(n, rep, models.hellinger(models.de_density(chain.u, basis), pi0))


class ExperimentError(RuntimeError):
    """Cells failed; the rows of every other cell ride along in grid order."""

    def __init__(self, message, partial_rows):
        super().__init__(message)
        self.partial_rows = partial_rows


def run_contraction(cfg: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Sweep n and replicates, fit the q90-radius slope, compare to theory.

    White-noise cells start in descending order of their truncation N, ties
    in grid order: once the largest (draws, N) arrays are freed, the
    allocator serves every later cell from pages it already holds, where
    an ascending sweep maps fresh ones at each size step.  Density cells,
    whose cost does not grow with n, run serially in grid order whatever
    ``threads`` says: their Metropolis loop is bound by per-call overhead
    under the GIL, so threads slow them.  With ``threads`` > 1, white-noise
    cells run on the shared pool of that many threads (``measure.pool_map``),
    so a ``pool_map`` inside a cell maps serially.  Rows fill preassigned
    slots, and ``ExperimentError`` names the first failing cell in grid
    order, so neither depends on the execution order."""
    white_noise = cfg.model == "white-noise"
    truth = _wn_truth(cfg) if white_noise else _de_truth(cfg)
    cell = _wn_cell if white_noise else _de_cell
    jobs = [(i, r) for i in range(len(cfg.n_grid)) for r in range(cfg.replicates)]
    order = range(len(jobs))
    if white_noise:
        sizes = [_wn_scale(cfg, n)[1] for n in cfg.n_grid]
        order = sorted(order, key=lambda j: -sizes[jobs[j][0]])  # stable: ties in grid order
    slots: list[ExperimentRow | None] = [None] * len(jobs)
    errors: list[Exception | None] = [None] * len(jobs)

    def work(j):
        i_n, rep = jobs[j]
        try:
            slots[j] = cell(cfg, truth, i_n, rep)
        except Exception as exc:  # noqa: BLE001 - partial results must survive
            errors[j] = exc

    if threads > 1 and white_noise:
        measure.pool_map(work, order, threads=threads)
    else:
        for j in order:
            work(j)
    rows = [r for r in slots if r is not None]
    failed = [(jobs[j], exc) for j, exc in enumerate(errors) if exc is not None]
    if failed:
        (i_n, rep), first = failed[0]
        raise ExperimentError(
            f"{len(failed)} cell(s) failed, first: n={cfg.n_grid[i_n]} rep={rep}: {first}",
            rows,
        ) from first
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
    return ExperimentResult(rows, med_q90, slope, se, theory, verdict, cfg)


@dataclass
class InequalityRow:
    check: str
    params: str
    margin: float
    verdict: str


BATTERY_P = (1.0, 1.5, 2.0)  # p values of the Anderson and decentering rows
ANDERSON_SAMPLES = 200_000  # prior draws per Anderson group


def run_inequalities(seed: int = 0) -> list[InequalityRow]:
    """Battery: Anderson shifts (MC), decentering bound (quadrature), and the
    univariate lower-tail bound P(|xi| <= x) >= r1 x (exact CDF).

    One generator from ``seed`` draws every Anderson shift first, in row
    order, then keys one stacked ``measure.anderson_check`` call per (p, dim)
    group (``measure.mc_blocks``), so each group's balls share one prior
    sample and the rows are the same for any thread count.  The zero-shift
    row's ball is the centred ball, so it rides on the p = 1, dim 1 group
    and ties with it exactly.  Rows within a group are dependent; each row
    keeps its own standard error and 3-SE rule."""
    rng = np.random.default_rng(seed)
    rows: list[InequalityRow] = []
    # 20 Anderson shifts across dims 1..3, then the zero shift; one prior
    # sample per (p, dim)
    keys = [(BATTERY_P[j % len(BATTERY_P)], 1 + j % 3) for j in range(20)]
    shifts = [rng.normal(scale=0.8, size=dim) for _, dim in keys]
    keys.append((1.0, 1))
    shifts.append(np.zeros(1))
    results = {}
    for p, dim in dict.fromkeys(keys):
        group = [j for j, key in enumerate(keys) if key == (p, dim)]
        m = pexp_measure(ScalingSpec(p, 1.0, 1, 1.0, "linear", n=dim))
        stack = np.array([shifts[j] for j in group])
        results.update(zip(group, measure.anderson_check(m, 1.0, stack, ANDERSON_SAMPLES, rng)))
    *shifted, zero = (results[j] for j in range(len(keys)))
    for (p, dim), shift, res in zip(keys, shifts, shifted):
        rows.append(
            InequalityRow(
                "anderson",
                f"p={p} dim={dim} shift_norm={np.linalg.norm(shift):.3f}",
                res.p_centered + 3 * res.stderr - res.p_shifted,
                res.verdict,
            )
        )
    # zero-shift row: probabilities coincide
    rows.append(
        InequalityRow(
            "anderson", "p=1 dim=1 shift=0", zero.p_centered - zero.p_shifted, zero.verdict
        )
    )
    # decentering bound by quadrature
    for p in BATTERY_P:
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
    # univariate lower-tail bound on a 1000-point grid of (0, 1]
    xs = np.linspace(1.0 / 1000, 1.0, 1000)
    for p in (1.0, 1.2, 1.5, 2.0):
        params = univariate.PExpParams(p)
        lhs = 2.0 * np.asarray(univariate.cdf(params, xs)) - 1.0
        margin = float((lhs - params.tail_lower_const * xs).min())
        rows.append(
            InequalityRow(
                "tail-lower-bound",
                f"p={p} grid=1000",
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
        "config_hash": config_hash(result.config),
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "plotdata.csv"), "w") as fh:
        fh.write("log_n,log_q90\n")
        for n, q in zip(result.config.n_grid, result.median_q90):
            fh.write(f"{math.log(n):.17g},{math.log(q):.17g}\n")
