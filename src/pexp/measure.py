"""The p-exponential measure: prior sampling and direct checks of its properties.

A measure is the law of (gamma_ell xi_ell) with xi i.i.d. from the univariate
p-exponential distribution.  Dyadic draws are identified with random
functions on [0, 1] through a Faber-Schauder hat expansion
psi_{kl}(x) = 2^{k/2} Lambda(2^k x - (l - 1)), with Lambda the unit triangle
peaking at 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    xi = univariate.sample(m.params, rng, size=m.spec.size)
    values = m.spec.gamma() * xi
    if m.spec.scheme == "dyadic":
        return CoefVec.dyadic(values, m.spec.levels)
    return CoefVec.linear(values)


def sample_prior_block(m: PExpMeasure, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, size) array of independent draws; rows are i.i.d. prior samples."""
    xi = univariate.sample(m.params, rng, size=(count, m.spec.size))
    return m.spec.gamma() * xi


def evaluate_function(u: CoefVec, basis: WaveletBasis, xgrid) -> np.ndarray:
    """Pointwise sum over levels of u_{kl} psi_{kl}(x); exact for the hat system."""
    if u.scheme != "dyadic":
        raise ValueError("evaluate_function requires a dyadic coefficient vector")
    if u.levels > basis.levels:
        raise ValueError("coefficient levels exceed basis levels")
    xgrid = np.asarray(xgrid, dtype=float)
    out = np.zeros_like(xgrid)
    for k, (idx, val) in enumerate(basis.gather(xgrid)):
        if k > u.levels:
            break
        out += u.values[idx] * val
    return out


def sup_norm_exact(u: CoefVec, basis: WaveletBasis) -> float:
    """Sup norm of the expansion, evaluated exactly on the level K+1 nodes."""
    vals = evaluate_function(u, basis, basis.node_grid())
    return float(np.abs(vals).max())


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
    truncations=None,
    slope_threshold: float = 0.05,
    increment_threshold: float = 0.01,
) -> list[RegularityRow]:
    """Empirical norm-growth verdicts across truncations for each smoothness s.

    CONVERGED when the median norm stabilizes (relative increment below 1%),
    DIVERGING when it grows as a power of N (log-log slope above 0.05).
    """
    if trials < 30:
        raise ValueError("regularity_scan needs at least 30 trials")
    if truncations is None:
        truncations = 2 ** np.arange(6, 15)
    truncations = np.asarray(truncations, dtype=int)
    nmax = int(truncations.max())
    spec_full = ScalingSpec(
        m.spec.p, m.spec.alpha, m.spec.d, m.spec.lam, "linear", n=nmax
    )
    gamma = spec_full.gamma()
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    norms = np.empty((trials, len(s_grid), len(truncations)))
    for t in range(trials):
        xi = univariate.sample(m.params, rng, size=nmax)
        u = gamma * xi
        for i, s in enumerate(s_grid):
            w = besov_weights(BesovParams(s, q, m.spec.d), nmax)
            csum = np.cumsum(w * np.abs(u) ** q)
            norms[t, i] = csum[truncations - 1] ** (1.0 / q)
    rows = []
    for i, s in enumerate(s_grid):
        med = np.median(norms[:, i, :], axis=0)
        slope = loglog_fit(truncations, med)[0]
        last_inc = med[-1] / med[-2] - 1.0
        if slope > slope_threshold:
            verdict = "DIVERGING"
        elif last_inc < increment_threshold:
            verdict = "CONVERGED"
        else:
            verdict = "UNDECIDED"
        rows.append(RegularityRow(float(s), truncations, med, float(slope), verdict))
    return rows


def _check_ball(eps: float, shift: np.ndarray) -> None:
    """ValueError unless the radius is finite and > 0 and the shift finite."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"ball radius eps must be finite and > 0, got {eps}")
    if not np.isfinite(shift).all():
        raise ValueError("shift must be finite")


@dataclass
class AndersonResult:
    p_centered: float
    p_shifted: float
    stderr: float
    verdict: str


def anderson_check(
    m: PExpMeasure, eps: float, shift, mc_samples: int, rng: np.random.Generator
) -> AndersonResult:
    """MC comparison of mu(eps B + x) against mu(eps B) for a centered l2 ball.

    PASS when the shifted estimate does not exceed the centered one by more
    than three joint standard errors.
    """
    n = m.spec.size
    if n > 50:
        raise ValueError("anderson_check requires truncation <= 50")
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (n,):
        raise ValueError("shift length must match the spec truncation")
    _check_ball(eps, shift)
    if mc_samples < 1:
        raise ValueError(f"anderson_check needs mc_samples >= 1, got {mc_samples}")
    gamma = m.spec.gamma()
    hits_c = 0
    hits_s = 0
    block = 200_000
    done = 0
    while done < mc_samples:
        b = min(block, mc_samples - done)
        u = gamma * univariate.sample(m.params, rng, size=(b, n))
        # column by column: a reduction along a short axis is far slower than
        # n column adds, and below 8 columns np.sum adds in this same order
        # (longer rows it sums pairwise, so they differ by rounding)
        sq_c = u[:, 0] ** 2
        sq_s = (u[:, 0] - shift[0]) ** 2
        for k in range(1, n):
            sq_c += u[:, k] ** 2
            sq_s += (u[:, k] - shift[k]) ** 2
        hits_c += int((sq_c <= eps**2).sum())
        hits_s += int((sq_s <= eps**2).sum())
        done += b
    p_c = hits_c / mc_samples
    p_s = hits_s / mc_samples
    se = float(
        np.sqrt(p_c * (1 - p_c) / mc_samples + p_s * (1 - p_s) / mc_samples)
    )
    verdict = "PASS" if p_s <= p_c + 3.0 * se else "FAIL"
    return AndersonResult(p_c, p_s, se, verdict)


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
    t, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (t + 1.0)
    return s * s * (3.0 - 2.0 * s), 3.0 * s * (1.0 - s) * w


_ROW_BLOCK = 64  # radii per quadrature block; each temporary is 64 rows x (kinks + 1) nodes


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


def _kink_angles_sin(c: float, r: np.ndarray) -> np.ndarray:
    """Per radius, the angle where c + r sin(theta) crosses zero (density
    cusp of f_p); NaN where there is none.  Shape (len(r), 1)."""
    out = np.full((r.size, 1), np.nan)
    cut = (r > 0) & (abs(c) < r)
    out[cut, 0] = np.arcsin(-c / r[cut])
    return out


def _kink_angles_cos(c: float, r: np.ndarray) -> np.ndarray:
    """Per radius, the angles -a, a where r cos(theta) equals |c| (CDF-difference
    cusp); NaN where there are none.  Shape (len(r), 2)."""
    out = np.full((r.size, 2), np.nan)
    cut = (r > 0) & (abs(c) < r)
    a = np.arccos(abs(c) / r[cut])
    out[cut, 0] = -a
    out[cut, 1] = a
    return out


def _ball_probability(m: PExpMeasure, eps: float, center: np.ndarray, nodes: int) -> float:
    """mu(eps B_{l2} + center) in dimension <= 3 by iterated graded Gauss-Legendre.

    The innermost axis is integrated exactly through the univariate CDF, in
    one evaluation of ``univariate.abs_cdf`` where its center is 0;
    outer axes use the substitution x = c + eps sin(theta), which removes the
    square-root edge singularity, with panels split wherever the p-exponential
    density or the inner disc mass loses smoothness, and graded toward each
    panel end (``_graded_rule``), so the rule converges spectrally.  One recursion
    integrates a whole vector of radii per axis: the rows that share a kink
    count share a node layout, so each block of them is one array call per
    level, and its inner radii are the flattened (rows x nodes) array.
    """
    gamma = m.spec.gamma()
    dim = m.spec.size
    pr = m.params
    if dim > 3:
        raise ValueError("decentering quadrature supports dimension <= 3")

    def mass(i: int, r: np.ndarray) -> np.ndarray:
        """Mass of the disc of radius r (each entry) about center[i:] in
        coordinates i, ..., dim - 1."""
        c = center[i]
        if i == dim - 1:
            if c == 0.0:
                return univariate.abs_cdf(pr, r / gamma[i])
            return univariate.cdf(pr, (c + r) / gamma[i]) - univariate.cdf(pr, (c - r) / gamma[i])
        r = np.atleast_1d(r)
        # the inner disc mass about rest is non-smooth where the disc meets a
        # zero set of the density: a face x_k = 0 at radius |c_k| and, with
        # two coordinates left, their common zero at radius hypot(c_k, c_l)
        rest = center[i + 1 :]
        faces = list(rest) + ([math.hypot(*rest)] if rest.size == 2 else [])
        kinks = np.hstack([_kink_angles_sin(c, r)] + [_kink_angles_cos(ck, r) for ck in faces])
        inside = (-0.5 * np.pi < kinks) & (kinks < 0.5 * np.pi)
        kinks = np.sort(np.where(inside, kinks, np.nan), axis=1)
        count = inside.sum(axis=1)
        out = np.empty(r.size)
        for k in np.unique(count):
            group = np.flatnonzero(count == k)
            for s in range(0, group.size, _ROW_BLOCK):
                rows = group[s : s + _ROW_BLOCK]
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
MIN_NODES = 32  # below this the rule's error on a unit-scale ball nears QUADRATURE_TOL


def decentering_check(m: PExpMeasure, eps: float, h, nodes: int = 64) -> DecenteringResult:
    """Quadrature check of mu(eps B + h) >= exp(-||h||_Z^p / p) mu(eps B).

    Deterministic: both sides are computed by the same iterated quadrature so
    the h = 0 case is an exact identity.  ``achieved_tol`` is the relative
    change of the lhs against the coarser rule of nodes * 4 // 5 points;
    QuadratureError when it exceeds QUADRATURE_TOL.
    """
    dim = m.spec.size
    if dim > 3:
        raise ValueError("decentering_check requires dimension <= 3")
    if nodes < MIN_NODES:
        raise ValueError(f"decentering_check needs nodes >= {MIN_NODES}, got {nodes}")
    h = np.asarray(h, dtype=float)
    if h.shape != (dim,):
        raise ValueError("shift length must match the spec truncation")
    _check_ball(eps, h)
    lhs = _ball_probability(m, eps, h, nodes)
    centered = _ball_probability(m, eps, np.zeros(dim), nodes)
    cost = float(np.exp(-z_norm_p(h, m.spec) / m.spec.p))
    rhs = cost * centered
    lhs_lo = _ball_probability(m, eps, h, nodes * 4 // 5)
    achieved = abs(lhs - lhs_lo) / max(lhs, 1e-300)
    if achieved > QUADRATURE_TOL:
        raise QuadratureError(
            f"ball-probability quadrature not converged: relative change {achieved:.2e}"
        )
    verdict = "PASS" if lhs >= rhs * (1.0 - 1e-6) else "FAIL"
    return DecenteringResult(lhs, rhs, cost, achieved, verdict)
