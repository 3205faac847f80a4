"""The p-exponential measure: prior sampling and direct checks of its properties.

A measure is the law of (gamma_ell xi_ell) with xi i.i.d. from the univariate
p-exponential distribution.  Dyadic draws are identified with random
functions on [0, 1] through a Faber-Schauder hat expansion
psi_{kl}(x) = 2^{k/2} Lambda(2^k x - (l - 1)), with Lambda the unit triangle
peaking at 1.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy imports numpy.ma when np.median or np.unique first runs (here and in
# experiments) and numpy.random when the first generator is made, about 13 ms
# each on a 2-CPU host (python -X importtime); imported here, they load in
# set-up and not inside the first timed median or draw
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401
from numpy.polynomial.legendre import leggauss

from . import univariate
from .sequences import BesovParams, CoefVec, ScalingSpec, besov_weights, z_norm_p
from .sequences import loglog_fit


@dataclass(frozen=True)
class PExpMeasure:
    spec: ScalingSpec

    @property
    def params(self) -> univariate.PExpParams:
        """The coordinate law of xi, fixed by spec.p."""
        return univariate.PExpParams(self.spec.p)


def pexp_measure(spec: ScalingSpec) -> PExpMeasure:
    return PExpMeasure(spec)


@dataclass(frozen=True)
class WaveletBasis:
    """Faber-Schauder hat system on [0, 1].

    Each psi_{kl} is supported on [(l-1) 2^{-k}, l 2^{-k}] with peak 2^{k/2}.
    Hats at one level have disjoint interiors, so the level sup bound holds
    with constant 1; the Lipschitz bound |psi(x)-psi(y)| <= C1 2^{3k/2} |x-y|
    holds with C1 = 2 (Hoelder exponent 1).
    """

    levels: int

    def __post_init__(self):
        if self.levels < 0:
            raise ValueError("levels must be >= 0")

    @property
    def n_coefficients(self) -> int:
        return 2 ** (self.levels + 1) - 1

    def node_grid(self) -> np.ndarray:
        """Dyadic nodes of level K+1; a piecewise-linear expansion attains its
        sup-norm on this grid."""
        m = 2 ** (self.levels + 1)
        return np.arange(m + 1) / m

    def gather(self, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per level k, the flat coefficient index and hat value at each point.

        Only one hat per level is nonzero at any x, so evaluation is a gather.
        """
        x = np.asarray(x, dtype=float)
        out = []
        for k in range(self.levels + 1):
            pos = np.clip((x * 2**k).astype(int), 0, 2**k - 1)  # l - 1
            t = x * 2**k - pos
            val = 2 ** (k / 2.0) * np.maximum(1.0 - np.abs(2.0 * t - 1.0), 0.0)
            out.append((2**k - 1 + pos, val))
        return out

    def evaluation_matrix(self, x: np.ndarray) -> np.ndarray:
        """Dense (len(x), n_coefficients) matrix of hat values."""
        x = np.asarray(x, dtype=float)
        mat = np.zeros((len(x), self.n_coefficients))
        rows = np.arange(len(x))
        for idx, val in self.gather(x):
            mat[rows, idx] += val
        return mat


def sample_prior(m: PExpMeasure, rng: np.random.Generator) -> CoefVec:
    """One draw u_ell = gamma_ell xi_ell."""
    values = sample_prior_block(m, rng, 1)[0]
    if m.spec.scheme == "dyadic":
        return CoefVec.dyadic(values, m.spec.levels)
    return CoefVec.linear(values)


def sample_prior_block(m: PExpMeasure, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, size) array of independent draws; rows are i.i.d. prior samples."""
    xi = univariate.sample(m.params, rng, size=(count, m.spec.size))
    return m.spec.gamma() * xi


BLOCK_FLOATS = 1 << 17  # floats per Monte Carlo row block: 1 MiB, within a per-core L2 cache
# the CPUs this process may run on
MC_THREADS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


_POOL_THREAD_PREFIX = "pexp-mc"


@lru_cache(maxsize=None)
def _mc_pool(threads: int, pid: int) -> ThreadPoolExecutor:
    """The shared pool; keyed by process id too, since a forked child
    inherits the pool object but none of its threads."""
    return ThreadPoolExecutor(threads, thread_name_prefix=_POOL_THREAD_PREFIX)


def pool_map(fn, *items) -> list:
    """``fn`` over ``items`` (zipped, as in ``map``) on the shared pool of
    MC_THREADS threads, results in item order.  On a pool thread it maps
    serially: a task that waits on the bounded pool can deadlock it."""
    if threading.current_thread().name.startswith(_POOL_THREAD_PREFIX):
        return list(map(fn, *items))
    return list(_mc_pool(MC_THREADS, os.getpid()).map(fn, *items))


def mc_blocks(draw, samples: int, width: int, rng: np.random.Generator) -> list:
    """``draw(block_rng, rows)`` over ``samples`` rows split into blocks, in block order.

    The rows are split into the fewest near-equal blocks of at most about
    BLOCK_FLOATS / ``width`` rows, and block b draws from its own generator,
    spawned from a seed sequence keyed by four integers from ``rng`` (so
    ``rng`` advances by the same amount whatever ``samples`` is).  Neither
    depends on the thread count, so a caller that combines the block results
    in order gets the same bits from any pool.  The blocks run on the shared
    pool (``pool_map``); numpy's generator fills and ufunc loops release the
    GIL.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    count = -(-samples * width // BLOCK_FLOATS)
    bounds = [samples * b // count for b in range(count + 1)]
    keys = np.random.SeedSequence(rng.integers(2**63, size=4)).spawn(count)
    rows = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    return pool_map(lambda key, r: draw(np.random.default_rng(key), r), keys, rows)


def evaluate_function(u, basis: WaveletBasis, xgrid) -> np.ndarray:
    """Pointwise sum over levels of u_{kl} psi_{kl}(x); exact for the hat system.

    ``u`` is a dyadic CoefVec, or a (draws, 2^{K+1} - 1) array of dyadic
    coefficient rows such as ``PosteriorChain.u``, which gives one row of
    values per draw from a single gather.
    """
    if isinstance(u, CoefVec):
        if u.scheme != "dyadic":
            raise ValueError("evaluate_function requires a dyadic coefficient vector")
        values, levels = u.values, u.levels
    else:
        values = np.asarray(u, dtype=float)
        levels = values.shape[-1].bit_length() - 1
        if values.shape[-1] != 2 ** (levels + 1) - 1:
            raise ValueError(f"{values.shape[-1]} coefficients fill no whole dyadic level")
    if levels > basis.levels:
        raise ValueError("coefficient levels exceed basis levels")
    xgrid = np.asarray(xgrid, dtype=float)
    out = np.zeros(values.shape[:-1] + xgrid.shape)
    for k, (idx, val) in enumerate(basis.gather(xgrid)):
        if k > levels:
            break
        out += values[..., idx] * val
    return out


@dataclass
class RegularityRow:
    s: float
    truncations: np.ndarray
    median_norms: np.ndarray
    slope: float
    verdict: str


def regularity_scan(
    m: PExpMeasure,
    s_grid,
    q: float,
    trials: int,
    rng: np.random.Generator,
) -> list[RegularityRow]:
    """Empirical norm-growth verdicts across truncations N = 2^6, ..., 2^14
    for each smoothness s.

    CONVERGED when the median norm stabilizes (relative increment below 1%),
    DIVERGING when it grows as a power of N (log-log slope above 0.05).
    Trials are drawn in ``mc_blocks`` blocks, the same for any thread count.
    """
    if trials < 30:
        raise ValueError("regularity_scan needs at least 30 trials")
    truncations = 2 ** np.arange(6, 15)
    nmax = int(truncations.max())
    full = PExpMeasure(ScalingSpec(m.spec.p, m.spec.alpha, m.spec.d, m.spec.lam, "linear", n=nmax))
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    weights = np.array([besov_weights(BesovParams(s, q, m.spec.d), nmax) for s in s_grid])

    def norms(block_rng, rows):  # (s, trial, truncation)
        uq = np.abs(sample_prior_block(full, block_rng, rows)) ** q
        return np.cumsum(weights[:, None] * uq, axis=2)[..., truncations - 1] ** (1.0 / q)

    medians = np.median(np.concatenate(mc_blocks(norms, trials, nmax, rng), axis=1), axis=1)
    rows = []
    for s, med in zip(s_grid, medians):
        slope = loglog_fit(truncations, med)[0]
        last_inc = med[-1] / med[-2] - 1.0
        if slope > 0.05:
            verdict = "DIVERGING"
        elif last_inc < 0.01:
            verdict = "CONVERGED"
        else:
            verdict = "UNDECIDED"
        rows.append(RegularityRow(float(s), truncations, med, float(slope), verdict))
    return rows


def _check_ball(eps: float, shifts: np.ndarray, dim: int) -> None:
    """ValueError unless the radius is finite and > 0 and ``shifts`` is a
    non-empty stack of finite shifts, shape (S, dim)."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"ball radius eps must be finite and > 0, got {eps}")
    if shifts.ndim != 2 or shifts.shape[1] != dim or shifts.size == 0:
        raise ValueError(f"shifts must be a non-empty (S, {dim}) stack, got shape {shifts.shape}")
    if not np.isfinite(shifts).all():
        raise ValueError("shift must be finite")


@dataclass
class AndersonResult:
    p_centered: float
    p_shifted: float
    stderr: float
    verdict: str


def anderson_check(
    m: PExpMeasure, eps: float, shifts, mc_samples: int, rng: np.random.Generator
) -> list[AndersonResult]:
    """MC comparison of mu(eps B + x) against mu(eps B) for a centered l2 ball.

    ``shifts`` is a stack of shifts x, shape (S, dim), and gives a list of S
    results, one per row.  All balls count hits in the same ``mc_blocks``
    draws: per block the centered squared norm is computed once and every
    shift's count is added in block order, so each result is the same for
    any thread count, and a row of a stack equals the one-row stack's call
    on an equally seeded generator.  PASS when the shifted estimate does not
    exceed the centered one by more than three joint standard errors.
    """
    n = m.spec.size
    if n > 50:
        raise ValueError("anderson_check requires truncation <= 50")
    shifts = np.asarray(shifts, dtype=float)
    _check_ball(eps, shifts, n)
    if mc_samples < 1:
        raise ValueError(f"anderson_check needs mc_samples >= 1, got {mc_samples}")

    def hits(block_rng, rows):
        u = sample_prior_block(m, block_rng, rows)
        # column by column: a reduction along a short axis is far slower than
        # n column adds, and below 8 columns np.sum adds in this same order
        # (longer rows it sums pairwise, so they differ by rounding)
        sq = u[:, 0] ** 2
        for k in range(1, n):
            sq += u[:, k] ** 2
        counts = [int((sq <= eps**2).sum())]
        d = np.empty(rows)
        for x in shifts:
            np.subtract(u[:, 0], x[0], out=sq)
            sq *= sq
            for k in range(1, n):
                np.subtract(u[:, k], x[k], out=d)
                d *= d
                sq += d
            counts.append(int((sq <= eps**2).sum()))
        return counts

    hits_c, *hits_s = map(sum, zip(*mc_blocks(hits, mc_samples, n, rng)))
    p_c = hits_c / mc_samples
    results = []
    for h in hits_s:
        p_s = h / mc_samples
        se = float(
            np.sqrt(p_c * (1 - p_c) / mc_samples + p_s * (1 - p_s) / mc_samples)
        )
        verdict = "PASS" if p_s <= p_c + 3.0 * se else "FAIL"
        results.append(AndersonResult(p_c, p_s, se, verdict))
    return results


@dataclass
class DecenteringResult:
    lhs: float
    rhs: float
    shift_cost: float
    achieved_tol: float
    verdict: str


class QuadratureError(RuntimeError):
    """Raised when the ball-probability quadrature fails to converge."""


@lru_cache(maxsize=8)
def _graded_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0, 1] pulled through theta(s) = s^2 (3 - 2 s).

    theta'(s) = 6 s (1 - s) vanishes at both ends, so an |x|^p-type cusp at
    a panel end becomes s^{2p} times a smooth factor: analytic at p = 1 and
    p = 1.5, and at other p smoother by a factor s^p than before the map, so
    Gauss-Legendre converges far faster.  Returns the mapped nodes and the
    weights times theta', per unit panel length.
    """
    t, w = leggauss(nodes)
    s = 0.5 * (t + 1.0)
    return s * s * (3.0 - 2.0 * s), 3.0 * s * (1.0 - s) * w


def _gl_panels(splits: np.ndarray, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Graded Gauss-Legendre nodes/weights on [-pi/2, pi/2], one row per row
    of ``splits`` (rows, k): each row is panel-split at its k sorted interior
    angles (where the integrand loses smoothness), and each panel [lo, hi]
    carries ``_graded_rule``.  Returns two arrays of shape
    (rows, (k + 1) nodes)."""
    g, gw = _graded_rule(nodes)
    rows = splits.shape[0]
    pts = np.empty((rows, splits.shape[1] + 2))
    pts[:, 0] = -0.5 * np.pi
    pts[:, 1:-1] = splits
    pts[:, -1] = 0.5 * np.pi
    lo, hi = pts[:, :-1, None], pts[:, 1:, None]
    xs = lo + (hi - lo) * g
    ws = (hi - lo) * gw
    return xs.reshape(rows, -1), ws.reshape(rows, -1)


def _kink_angles(c: float, faces, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per radius, the sorted angles theta in (-pi/2, pi/2) where the outer
    integrand loses smoothness, NaN-padded, and their count: where
    c + r sin(theta) crosses zero (density cusp of f_p), and the angles
    -a, a where r cos(theta) equals |f| for each face distance f in
    ``faces`` (cusps of the inner disc mass; a disc that touches the face
    gives a = 0).  Returns arrays of shape (len(r), 1 + 2 len(faces)) and
    (len(r),)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.arccos(np.abs(np.asarray(faces, dtype=float)) / r[:, None])
        kinks = np.hstack([np.arcsin(-c / r)[:, None], -a, a])
    inside = (-0.5 * np.pi < kinks) & (kinks < 0.5 * np.pi)
    return np.sort(np.where(inside, kinks, np.nan), axis=1), inside.sum(axis=1)


def _ball_probability(m: PExpMeasure, eps: float, center: np.ndarray, nodes: int) -> float:
    """mu(eps B_{l2} + center) in dimension <= 3 by iterated graded Gauss-Legendre.

    The innermost axis is integrated exactly through the univariate CDF, in
    one evaluation of ``univariate.abs_cdf`` where its center is 0, else as
    F(r - |c|) - F(-|c| - r).  That equals F(c + r) - F(c - r) by symmetry
    but keeps both terms in the lower tail: far from the origin a difference
    of two CDF values near 1 rounds the mass away (and breaks its evenness
    in the center), while the lower tail keeps the CDF's relative precision
    (full at p = 1 and p = 2).  Outer axes use the substitution
    x = c + eps sin(theta), which removes the square-root edge singularity,
    with panels split wherever the p-exponential density or the inner disc
    mass loses smoothness, and graded toward each panel end
    (``_graded_rule``), so the rule converges spectrally.  One recursion
    integrates a whole vector of radii per axis: the rows that share a kink
    count share a node layout, so together they make one array call per
    level, and its inner radii are the flattened (rows x nodes) array.
    """
    gamma = m.spec.gamma()
    dim = m.spec.size
    pr = m.params

    def mass(i: int, r: np.ndarray) -> np.ndarray:
        """Mass of the disc of radius r (each entry) about center[i:] in
        coordinates i, ..., dim - 1."""
        c = center[i]
        if i == dim - 1:
            if c == 0.0:
                return univariate.abs_cdf(pr, r / gamma[i])
            # F(c + r) - F(c - r) by symmetry, with both terms in the lower
            # tail, in one call: the CDF's cost per call is dozens of array
            # operations, whatever the number of points
            a = abs(c)
            upper, lower = univariate.cdf(pr, np.stack([r - a, -a - r]) / gamma[i])
            return upper - lower
        r = np.atleast_1d(r)
        # the inner disc mass about rest is non-smooth where the disc meets a
        # zero set of the density: a face x_k = 0 at radius |c_k| and, with
        # two coordinates left, their common zero at radius hypot(c_k, c_l)
        rest = center[i + 1 :]
        faces = list(rest) + ([math.hypot(*rest)] if rest.size == 2 else [])
        kinks, count = _kink_angles(c, faces, r)
        out = np.empty(r.size)
        for k in np.unique(count):
            rows = np.flatnonzero(count == k)
            rb = r[rows, None]
            theta, wts = _gl_panels(kinks[rows, :k], nodes)
            x = c + rb * np.sin(theta)
            cos = np.cos(theta)
            inner = mass(i + 1, (rb * cos).ravel()).reshape(theta.shape)
            dens = univariate.pdf(pr, x / gamma[i]) / gamma[i]
            out[rows] = np.sum(wts * dens * inner * rb * cos, axis=1)
        return out

    # a scalar radius keeps dimension 1 on the scalar path of the ufuncs
    return float(np.ravel(mass(0, float(eps)))[0])


QUADRATURE_TOL = 1e-6  # largest relative change against the coarse rule


def decentering_check(m: PExpMeasure, eps: float, h) -> DecenteringResult:
    """Quadrature check of mu(eps B + h) >= exp(-||h||_Z^p / p) mu(eps B).

    Deterministic: both sides are computed by the same 48-node iterated
    quadrature, so the h = 0 case is an exact identity.  ``achieved_tol`` is
    the relative change of the lhs against the coarser 38-node rule;
    QuadratureError when it exceeds QUADRATURE_TOL.  With the inner masses
    taken in the lower tail the change measures convergence, not rounding;
    on battery-law shifts it was measured below 1e-7, largest where a disc
    nearly touches a face x_k = 0 at 1 < p < 2.  The lhs, its coarse rule
    and the centered mass are independent quadratures; they run
    concurrently on the shared pool (``pool_map``; the CDF and density
    evaluations release the GIL), each with the same bits on any thread count.
    """
    dim = m.spec.size
    if dim > 3:
        raise ValueError("decentering_check requires dimension <= 3")
    h = np.asarray(h, dtype=float)
    _check_ball(eps, h[None], dim)
    rules = [(h, 48), (h, 38)]
    if h.any():  # at h = 0 both sides are the same quadrature on the same inputs
        rules.append((np.zeros(dim), 48))
    lhs, lhs_lo, *centered = pool_map(lambda rule: _ball_probability(m, eps, *rule), rules)
    cost = float(np.exp(-z_norm_p(h, m.spec) / m.spec.p))
    rhs = cost * (centered[0] if centered else lhs)
    achieved = abs(lhs - lhs_lo) / max(lhs, 1e-300)
    if achieved > QUADRATURE_TOL:
        raise QuadratureError(
            f"ball-probability quadrature not converged: relative change {achieved:.2e}"
        )
    verdict = "PASS" if lhs >= rhs * (1.0 - 1e-6) else "FAIL"
    return DecenteringResult(lhs, rhs, cost, achieved, verdict)
