"""Numerical evaluation of the concentration function phi_w(eps).

phi_w(eps) = (1/p) inf { ||h||_Z^p : ||h - w||_2 <= eps } - log mu(eps B).

The approximation term is solved exactly: the objective is coordinate
separable and convex, so an outer safeguarded Newton solve on log lambda,
the log of the KKT multiplier, combined with per-coordinate proximal maps
(``univariate.prox``) reaches machine-level KKT residuals.  The small-ball
term is Monte Carlo with Wilson confidence intervals mapped through -log.
Rescaling factors out of the small ball, so a ``sample`` is always sorted
norms under the unit-scaling measure, read by ``searchsorted`` at eps / lam,
and ``unit_norm_sample`` is the only draw.  ``concentration_fn`` requires
such a sample and draws nothing: the rate solver and ``pexp conc`` draw it
once, which makes phi, and the solver's bisection predicate, monotone in eps
by construction.

Plain Monte Carlo resolves -log mu(eps B) only up to about log(samples),
which leaves the small-ball law -log mu(eps B) ~ eps^{-1/alpha} out of
reach.  Two estimators reach that regime: saddlepoint-tilted importance
sampling for l2 balls (p = 1 and p = 2) and an exact node recursion for
sup-norm balls of the dyadic Faber-Schauder prior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import univariate
from .measure import PExpMeasure, WaveletBasis, mc_blocks, sample_prior_block
from .sequences import ScalingSpec, coef_values, loglog_fit


class ZeroHitsError(RuntimeError):
    """No Monte Carlo draw landed inside the ball; raise eps or samples."""


class SolverError(RuntimeError):
    """Projection solver failed to reach its residual target."""


class SmallBallResolutionError(RuntimeError):
    """Required small-ball probability below what the estimator resolves."""


P_MIN_GUARD = 1e-4  # smallest probability treated as MC-estimable at desk scale
Z95 = 1.959963984540054  # two-sided 95% standard normal quantile
SUP_CELLS = 101  # odd cell count of smallball_sup_nodes' node-value grid


@dataclass
class ConcEstimate:
    eps: float
    inf_term: float
    argmin: np.ndarray
    neglog_smallball: float
    neglog_ci: tuple[float, float]
    phi: float


@dataclass
class SmallBallEstimate:
    eps: float
    p_hat: float
    neglog: float
    ci: tuple[float, float]
    hits: int
    samples: int


def inf_term_exact(w, eps: float, spec: ScalingSpec) -> tuple[float, np.ndarray]:
    """min sum gamma^{-p} |h|^p subject to ||h - w||_2 <= eps, solved by KKT.

    Returns the optimal value (the p-th power of the Z-norm, without the 1/p
    factor) and the minimizer.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    w = coef_values(w)
    if len(w) != spec.size or not np.isfinite(w).all():
        raise ValueError("w must be finite and match the spec truncation in length")
    a = np.abs(w)
    sgn = np.sign(w)
    p = spec.p
    c = spec.gamma() ** (-p)
    if math.sqrt(float((w**2).sum())) <= eps:
        return 0.0, np.zeros_like(w)

    def residual(t):
        """r^2 - eps^2 at lam = e^t, r = ||prox - a||, and its derivative in
        t, from dh/dlam = 2 (a - h) / (c p (p - 1) h^{p-2} + 2 lam) where h > 0."""
        lam = math.exp(t)
        h = univariate.prox(a, c, lam, p)[0]
        d = a - h
        active = h > 0
        curv = c * p * (p - 1.0) * np.where(active, h, 1.0) ** (p - 2.0)
        dh = np.where(active, 2.0 * d / (curv + 2.0 * lam), 0.0)
        return float((d * d).sum()) - eps * eps, -2.0 * lam * float((d * dh).sum())

    # r - eps decreases in lam = e^t: bracket its root in steps of log 4 from
    # t = 0, then Newton in t, bisecting where a step leaves the bracket; a
    # step below 1e-12 leaves an error of order its square, or r^2 is flat
    above = residual(0.0)[0] > 0
    step = math.log(4.0) if above else -math.log(4.0)
    t = 0.0
    for _ in range(500):  # 4^500 ~ 1e301
        t += step
        if (residual(t)[0] > 0) != above:
            break
    else:
        raise SolverError("multiplier bracket left [4^-500, 4^500]")
    t_lo, t_hi = sorted((t - step, t))
    t = 0.5 * (t_lo + t_hi)
    for _ in range(100):  # bisection alone shrinks the bracket below 1e-12 in 41
        f, df = residual(t)
        if f > 0:
            t_lo = t
        else:
            t_hi = t
        newton = t - f / df if df < 0 else math.inf
        if abs(newton - t) <= 1e-12 * max(1.0, abs(t)):
            t = newton
            break
        t = newton if t_lo < newton < t_hi else 0.5 * (t_lo + t_hi)
        if t_hi - t_lo <= 1e-12 * max(1.0, abs(t)):
            break
    else:
        raise SolverError("multiplier solve did not converge in 100 steps")
    lam = math.exp(t)
    h, lo, hi = univariate.prox(a, c, lam, p)
    r = math.sqrt(float(((h - a) ** 2).sum()))
    if abs(r - eps) > 1e-10 * eps + 1e-14:
        raise SolverError(f"primal residual {abs(r - eps):.3e} above tolerance")
    kkt = _kkt_residual(a, c, lam, p, h, lo, hi)
    if kkt > 1e-9:
        raise SolverError(f"KKT residual {kkt:.3e} above 1e-9")
    value = float((c * h**p).sum())
    return value, sgn * h


def _kkt_residual(a, c, lam, p, h, lo, hi) -> float:
    """Per-coordinate optimality residual of h = univariate.prox(a, c, lam, p)
    with its sign bracket [lo, hi]: the stationarity defect, except where the
    bracket certifies the root, in which case the bracket width relative to
    h bounds the error (the raw defect is ill-conditioned where the gradient
    of h^{p-1} blows up near zero)."""
    scale = c * p * np.maximum(a, 1e-300) ** (p - 1.0) + 2.0 * lam * a + 1e-300
    active = h > 0
    res = np.zeros_like(h)
    ha = np.where(active, h, 1.0)
    res[active] = np.abs(c * p * ha ** (p - 1.0) - 2.0 * lam * (a - ha))[active]
    if p == 1.0:
        res[~active] = np.maximum(2.0 * lam * a - c, 0.0)[~active]
    rel = res / scale
    bracket = (hi - lo) / np.maximum(h, 1e-300)
    return float(np.minimum(rel, bracket).max(initial=0.0))


def inf_term_truncation_ub(w, eps: float, spec: ScalingSpec) -> tuple[float, int]:
    """Upper bound from the proof construction: keep the first L coordinates,
    L minimal with ||h_{1:L} - w||_2 <= eps.  Always >= the exact value."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    w = coef_values(w)
    if len(w) != spec.size or not np.isfinite(w).all():
        raise ValueError("w must be finite and match the spec truncation in length")
    # tail2[L] = sum_{ell > L} w_ell^2 for L = 0..N, summed from the end, so it
    # is non-increasing in L and exactly 0 at L = N, where h = w is feasible
    tail2 = np.append(np.cumsum(w[::-1] ** 2)[::-1], 0.0)
    L = int(np.count_nonzero(np.sqrt(tail2) > eps))
    c = spec.gamma() ** (-spec.p)
    value = float((c[:L] * np.abs(w[:L]) ** spec.p).sum())
    return value, L


def _wilson_ci(hits: int, n: int) -> tuple[float, float]:
    ph = hits / n
    denom = 1.0 + Z95**2 / n
    center = (ph + Z95**2 / (2 * n)) / denom
    half = Z95 * math.sqrt(ph * (1 - ph) / n + Z95**2 / (4 * n**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _eps_grid(estimator):
    """Front end of the small-ball estimators: ``estimator(m, radii, ...)``
    maps a 1-d array of radii to a list of estimates; the wrapped function
    takes eps as a scalar or a grid, raises ValueError unless every radius
    is finite and > 0, and returns one estimate for a scalar, else the list.
    """

    @functools.wraps(estimator)
    def front(m, eps, *args, **kwargs):
        radii = np.atleast_1d(np.asarray(eps, dtype=float))
        if not (np.isfinite(radii) & (radii > 0)).all():
            raise ValueError(f"eps must be finite and > 0, got {eps}")
        results = estimator(m, radii, *args, **kwargs)
        return results[0] if np.ndim(eps) == 0 else results

    return front


def unit_norm_sample(
    m: PExpMeasure,
    norm: str,
    samples: int,
    rng: np.random.Generator,
    basis: WaveletBasis | None = None,
) -> np.ndarray:
    """Sorted norms of ``samples`` draws from the unit-scaling measure of m.

    The one Monte Carlo draw of prior norms, and the ``sample`` that
    ``smallball_mc`` and ``concentration_fn`` take: the ball of radius eps
    under m is the ball of radius eps / lam under the unit measure, so one
    sample serves every eps.  l2 norms need only |xi|
    (``univariate.abs_sample``), summed as sum_l xi_l^2 gamma_l^2 in
    coordinate order; sup norms take signed draws (``sample_prior_block``)
    to the node grid.  Rows are drawn in ``measure.mc_blocks`` blocks and
    their norms concatenated before the sort, so the sample is the same for
    any thread count.
    """
    unit = PExpMeasure(m.spec.unit())
    gamma = unit.spec.gamma()
    if norm == "l2":
        gamma_sq = gamma * gamma

        def norms(block_rng, rows):
            mags = univariate.abs_sample(unit.params, block_rng, (rows, len(gamma)))
            return np.sqrt(np.einsum("ij,ij,j->i", mags, mags, gamma_sq))

        width = len(gamma)
    elif norm == "sup":
        if unit.spec.scheme != "dyadic":
            raise ValueError("sup-norm small balls require the dyadic scheme")
        if basis is None:
            basis = WaveletBasis(unit.spec.levels)
        Psi_T = basis.evaluation_matrix(basis.node_grid())[:, : len(gamma)].T

        def norms(block_rng, rows):
            return np.abs(sample_prior_block(unit, block_rng, rows) @ Psi_T).max(axis=1)

        width = Psi_T.shape[1]  # the node values outnumber the coefficients
    else:
        raise ValueError(f"unknown norm {norm!r}")
    out = np.concatenate(mc_blocks(norms, samples, width, rng))
    out.sort()
    return out


@_eps_grid
def smallball_mc(
    m: PExpMeasure,
    eps,
    norm: str = "l2",
    samples: int = 10**6,
    rng: np.random.Generator | None = None,
    sample: np.ndarray | None = None,
):
    """-log mu(eps B) by Monte Carlo; eps may be a scalar or a grid.

    Hits are counted at eps / lam in sorted norms under the unit-scaling
    measure: ``sample`` from ``unit_norm_sample`` when given (nothing is
    drawn and ``samples`` is its length), else a fresh ``unit_norm_sample``
    of ``samples`` draws from ``rng``.  Returns a SmallBallEstimate (or a
    list of them for a grid).  Raises ValueError when it must draw and has
    no ``rng``, and ZeroHitsError when no draw lands inside a ball.
    """
    if sample is None:
        if rng is None:
            raise ValueError("smallball_mc needs a sample or a seeded rng")
        sample = unit_norm_sample(m, norm, samples, rng)
    # >= is False at a NaN, so a NaN anywhere fails the check
    elif not (len(sample) and sample[0] >= 0 and (sample[1:] >= sample[:-1]).all()):
        raise ValueError("sample must be nonempty, sorted and nonnegative, with no NaN")
    samples = len(sample)
    results = []
    for e in eps:
        hits = int(np.searchsorted(sample, e / m.spec.lam, side="right"))
        if hits == 0:
            raise ZeroHitsError(
                f"no draws inside the ball at eps={e}; raise eps or samples"
            )
        ph = hits / samples
        lo, hi = _wilson_ci(hits, samples)
        results.append(
            SmallBallEstimate(
                float(e),
                ph,
                -math.log(ph),
                (-math.log(hi), -math.log(lo) if lo > 0 else math.inf),
                hits,
                samples,
            )
        )
    return results


def _log_mgf_sq(p: float, a: np.ndarray) -> np.ndarray:
    """log M(a) = log E exp(-a xi^2) for xi univariate p-exponential, p in {1, 2}.

    p = 2: M = (1 + 2a)^{-1/2}.  p = 1: M = (1/2) sqrt(pi/a) erfcx(1/(2 sqrt a)),
    which is the integral of exp(-x - a x^2) over x >= 0.
    """
    if p == 2.0:
        return -0.5 * np.log1p(2.0 * a)
    pos = a > 0
    safe = np.where(pos, a, 1.0)
    out = 0.5 * np.log(math.pi / safe) - math.log(2.0) + np.log(
        univariate._erfcx(0.5 / np.sqrt(safe))
    )
    return np.where(pos, out, 0.0)


def _saddlepoint_theta(p: float, g2: np.ndarray, eps2: float) -> float:
    """The tilt theta >= 0 of X = sum g2_l xi_l^2 with E_theta X = eps2.

    It minimises the Chernoff bound theta eps2 + sum log M(theta g2_l), a
    convex function of theta, so golden-section search in log theta finds
    it from values alone.  theta = 0 when eps2 >= E X.  Beyond
    theta = N / eps2 the tilted mean is below eps2 / 2, since E_theta xi^2
    <= 1 / (2 theta g2) at p = 1 and p = 2.
    """
    if eps2 >= float(g2.sum()) * univariate.variance(univariate.PExpParams(p)):
        return 0.0

    def bound(u):
        theta = math.exp(u)
        return theta * eps2 + float(_log_mgf_sq(p, theta * g2).sum())

    hi = math.log(len(g2) / eps2)
    lo = hi - 60.0
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = bound(c), bound(d)
    while hi - lo > 1e-9:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = bound(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = bound(d)
    return math.exp(0.5 * (lo + hi))


def _tilted_squares(p: float, a: np.ndarray, g2: np.ndarray, rng: np.random.Generator, rows: int):
    """X = sum_l g2_l xi_l^2 for ``rows`` draws of xi_l from the density prop.
    to f_p(x) exp(-a_l x^2): at p = 2 xi ~ N(0, 1 / (1 + 2a)), at p = 1 by
    ``univariate.tilted_sample`` with b = 0.  Each row is summed by einsum,
    not by a BLAS product, whose sums depend on its thread count.
    """
    if p == 2.0:
        sq = rng.standard_normal((rows, len(a))) ** 2 / (1.0 + 2.0 * a)
    else:
        sq = univariate.tilted_sample(1.0, a, 0.0, rng, (rows, len(a)))[0] ** 2
    return np.einsum("ij,j->i", sq, g2)


@_eps_grid
def smallball_l2_tilted(m: PExpMeasure, eps, samples: int, rng: np.random.Generator):
    """-log mu(eps B_l2) by saddlepoint-tilted importance sampling, p in {1, 2}.

    With X = sum gamma_l^2 xi_l^2 and theta >= 0 such that E_theta X = eps^2,
    each xi_l is drawn from the density prop. to f_p(x) exp(-theta gamma_l^2
    x^2) and

        mu_hat = prod_l M_l(theta) * mean(exp(theta X) 1{X <= eps^2}).

    The weights are bounded by exp(theta eps^2), so the relative error stays
    near 1/sqrt(samples) however small mu is; theta = 0 (eps^2 >= E X) is
    plain Monte Carlo.  The confidence interval is the normal 95% interval
    from the sample standard error of the weights, mapped through -log.
    Rows are drawn in ``measure.mc_blocks`` blocks, the same for any thread count.

    Returns a SmallBallEstimate (or a list of them for a grid) whose ``hits``
    counts the draws inside the ball.  Raises ValueError for other p and
    ZeroHitsError when no draw lands inside a ball.
    """
    p = m.spec.p
    if p not in (1.0, 2.0):
        raise ValueError(f"tilted l2 small balls need p = 1 or p = 2, got {p}")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    g2 = m.spec.gamma() ** 2
    results = []
    for e in eps:
        e2 = float(e) ** 2
        theta = _saddlepoint_theta(p, g2, e2)
        a = theta * g2
        log_bound = theta * e2 + float(_log_mgf_sq(p, a).sum())
        draw = functools.partial(_tilted_squares, p, a, g2)
        x = np.concatenate(mc_blocks(draw, samples, len(g2), rng))
        inside = x <= e2
        hits = int(inside.sum())
        if hits == 0:
            raise ZeroHitsError(
                f"no draws inside the ball at eps={e}; raise eps or samples"
            )
        w = np.where(inside, np.exp(theta * (np.minimum(x, e2) - e2)), 0.0)
        mean = float(w.mean())
        half = Z95 * float(w.std(ddof=1)) / math.sqrt(samples)
        neglog = -(log_bound + math.log(mean))
        lo = mean - half
        results.append(
            SmallBallEstimate(
                float(e),
                math.exp(-neglog),
                neglog,
                (
                    -(log_bound + math.log(mean + half)),
                    -(log_bound + math.log(lo)) if lo > 0 else math.inf,
                ),
                hits,
                samples,
            )
        )
    return results


@_eps_grid
def smallball_sup_nodes(m: PExpMeasure, eps):
    """-log mu(eps B_sup) for the dyadic Faber-Schauder prior by a node recursion.

    The expansion is piecewise linear with f(0) = f(1) = 0, and each
    level-(k+1) node value is the mean of its level-k interval's endpoint
    values plus gamma_k 2^{k/2} xi_{kl}.  Given its endpoint values, what
    happens inside an interval is independent of the rest, so

        P(sup |f| <= eps) = Q_0(0, 0),
        Q_k(a, b) = int_{-eps}^{eps} phi_k(m - (a + b)/2) Q_{k+1}(a, m) Q_{k+1}(m, b) dm,

    with Q_{K+1} = 1 and phi_k the density of gamma_k 2^{k/2} xi.  The node
    values are discretised to the centers of SUP_CELLS equal cells over
    [-eps, eps] (an odd count, so 0 is a center), with exact cell masses from
    univariate.cdf; the cost is O(K SUP_CELLS^3).  With levels = 0 the result
    is exact.  The value is deterministic: ``ci`` is the point itself and
    ``hits = samples = 0``; its discretisation error is checked by refining
    the grid (raising SUP_CELLS).

    Returns a SmallBallEstimate (or a list of them for a grid).
    """
    spec = m.spec
    if spec.scheme != "dyadic":
        raise ValueError("sup-norm node recursion requires the dyadic scheme")
    cells = SUP_CELLS
    gamma = spec.gamma()
    scales = [gamma[2**k - 1] * 2.0 ** (k / 2.0) for k in range(spec.levels + 1)]
    results = []
    for e in eps:
        edges = np.linspace(-e, e, cells + 1)
        width = edges[1] - edges[0]
        # (c_i + c_j) / 2 depends on i + j only
        mids = edges[0] + 0.5 * width + 0.5 * width * np.arange(2 * cells - 1)
        q = np.ones((cells, cells))
        for s in reversed(scales):
            mass = np.diff(univariate.cdf(m.params, (edges - mids[:, None]) / s), axis=1)
            q_up = np.empty_like(q)
            for i in range(cells):
                q_up[i] = (mass[i : i + cells] * q[i] * q.T).sum(axis=1)
            q = q_up
        prob = float(q[cells // 2, cells // 2])
        if prob <= 0.0:
            raise SmallBallResolutionError(
                f"sup-norm ball probability at eps={e} underflows"
            )
        neglog = -math.log(prob)
        results.append(SmallBallEstimate(float(e), prob, neglog, (neglog, neglog), 0, 0))
    return results


def smallball_slope(estimates) -> tuple[float, float]:
    """OLS slope of log(-log p) against log(eps) with its standard error."""
    return loglog_fit([e.eps for e in estimates], [e.neglog for e in estimates])


def concentration_fn(
    w, eps: float, m: PExpMeasure, norm: str, sample: np.ndarray
) -> ConcEstimate:
    """Assemble phi_w(eps) = inf_term / p + neglog small ball from a sample.

    ``sample`` is required: the sorted ``norm`` norms under the unit-scaling
    measure that ``unit_norm_sample`` returns.  Nothing is drawn, so calls
    that share one sample give phi non-increasing in eps.  Rescaling by lam
    factors out exactly: the approximation term is lam^{-p} times its
    unit-scaling value (same minimizer), and ``smallball_mc`` counts the
    centered ball in the sample at eps / lam.
    """
    value, argmin = inf_term_exact(w, eps, m.spec.unit())
    value *= m.spec.lam ** (-m.spec.p)
    sb = smallball_mc(m, eps, norm, len(sample), sample=sample)
    phi = value / m.spec.p + sb.neglog
    return ConcEstimate(float(eps), value, argmin, sb.neglog, sb.ci, phi)


def fg_values(p: float, alpha: float, d: int, setting: str, a: float, eps: float):
    """The complexity-bound functions f(a), g(eps) for the two settings.

    l2:  f(a) = a^p (1 v a^{(2d - pd)/(d + 2 alpha)}),
         g(e) = 2 (1 v e^{-2d/(d + 2 alpha)}).
    sup: f(a) = c a^{(2 - p + 2 alpha p)/(2 alpha)} with c = 1 reported here,
         g(e) = e^{-1/alpha}.
    """
    if a <= 0 or eps <= 0:
        raise ValueError("a and eps must be positive")
    if setting == "l2":
        f = a**p * max(1.0, a ** ((2 * d - p * d) / (d + 2 * alpha)))
        g = 2.0 * max(1.0, eps ** (-2 * d / (d + 2 * alpha)))
        return f, g
    if setting == "sup":
        f = a ** ((2 - p + 2 * alpha * p) / (2 * alpha))
        g = eps ** (-1.0 / alpha)
        return f, g
    raise ValueError(f"unknown setting {setting!r}")


def rate_solve_numeric(
    w,
    m: PExpMeasure,
    n: float,
    mc_samples: int,
    rng: np.random.Generator,
    norm: str = "l2",
    grid_tol: float = 0.02,
    basis: WaveletBasis | None = None,
) -> float:
    """Smallest grid eps with phi_w(eps) <= n eps^2, using the CI upper bound.

    One sorted sample of ``mc_samples`` unit-measure norms is drawn per solve
    (``unit_norm_sample``), and every bisection step reads its hit count from
    it.  The hit count, hence the Wilson upper bound on -log mu, moves
    monotonically in eps and the approximation term is deterministic, so the
    predicate phi_w(eps) > n eps^2 is monotone by construction and the
    crossing is unique; the search bisects in log eps until e_hi / e_lo is at
    most 1 + ``grid_tol``.  The predicate is
    memoized per solve: the first halving point repeats the last doubling
    point, and the halving loop's e_hi / 2 is the first bisection midpoint
    (both exactly, in floating point).  Raises SmallBallResolutionError when
    the crossing requires probabilities below the MC guard, and ValueError,
    before any draw, unless n is finite and >= 1 and ``grid_tol`` is finite
    and >= 1e-12 (a ratio that floating point can resolve, so the bisection
    ends).
    """
    if not (math.isfinite(n) and n >= 1):
        raise ValueError(f"n must be finite and >= 1, got {n}")
    if not (math.isfinite(grid_tol) and grid_tol >= 1e-12):
        raise ValueError(f"grid_tol must be finite and >= 1e-12, got {grid_tol}")
    if mc_samples < 1:
        raise ValueError(f"rate_solve_numeric needs mc_samples >= 1, got {mc_samples}")
    guard = -math.log(P_MIN_GUARD)
    sample = unit_norm_sample(m, norm, mc_samples, rng, basis)

    @functools.cache
    def exceeds(e) -> bool:
        """True when phi_w(e) provably exceeds n e^2 at CI confidence."""
        try:
            est = concentration_fn(w, e, m, norm, sample)
        except ZeroHitsError as exc:
            if n * e**2 < guard:
                return True
            raise SmallBallResolutionError(
                f"small-ball probability at eps={e:.4g} below the MC guard; reduce n"
            ) from exc
        if est.neglog_smallball > guard:
            if n * e**2 < est.neglog_ci[0]:
                return True
            raise SmallBallResolutionError(
                f"small-ball probability at eps={e:.4g} below the MC guard; reduce n"
            )
        return est.inf_term / m.spec.p + est.neglog_ci[1] > n * e**2

    # initial scale: prior root-mean-square size
    e_hi = math.sqrt(float((m.spec.gamma() ** 2).sum()) * univariate.variance(m.params))
    for _ in range(60):
        if not exceeds(e_hi):
            break
        e_hi *= 2.0
    else:
        raise SolverError("failed to bracket the rate equation from above")
    e_lo = e_hi
    for _ in range(60):
        e_lo *= 0.5
        if exceeds(e_lo):
            break
    while e_hi / e_lo > 1.0 + grid_tol:
        mid = math.sqrt(e_lo * e_hi)
        if exceeds(mid):
            e_lo = mid
        else:
            e_hi = mid
    return e_hi
