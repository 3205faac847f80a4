"""Independent brute-force oracles shared by the module and acceptance tests.

These deliberately avoid the package's solver machinery: the projection
solver is checked against plain projected subgradient descent on the raw
objective, vectorized across instances and restarts.  Small-ball estimators
are checked against each other through ``smallball_agree``, and the
row-batched ball quadrature against ``ball_probability_loop``, the same rule
written one outer node at a time, and the density Metropolis kernel against
``metropolis_loop``, which keeps the likelihood as the sum of an (n,) state.
``norm_samples_blocks`` is the earlier Monte Carlo norm draw with its own
|xi| sampler and sign draw, kept as the reference stream for
``concentration.unit_norm_sample``.
"""

import math

import numpy as np

from pexp import univariate
from pexp.measure import WaveletBasis


def smallball_agree(a, b, z=3.0) -> bool:
    """True when two estimates of -log mu(eps B) agree within z combined
    standard errors, each read off the estimate's 95% interval.

    A degenerate interval (a deterministic value) has no error of its own.
    At z = 3 a correct pair fails about once in 370 points, so a gate over a
    whole eps window stays meaningful under any random stream.
    """
    se = [(e.ci[1] - e.ci[0]) / (2 * 1.959963984540054) for e in (a, b)]
    return abs(a.neglog - b.neglog) <= z * math.hypot(*se)


def projected_subgradient_batch(ws, cs, epss, ps, iters=10**6, restarts=3, seed=0):
    """Best objective value of min sum c|h|^p s.t. ||h - w||_2 <= eps, per instance.

    Needs p >= 1, where the problem is convex.  Instances are padded to a
    common dimension with zero weight and zero center, which leaves both the
    objective and the projection unchanged, and stacked with the restarts
    into one array so each iteration is a handful of vectorized operations.
    Geometric step decay drives the iterates to the optimum; the best
    feasible value seen is returned (projected iterates are always feasible).

    The arrays are small, so the cost is the per-call overhead of about a
    dozen ufuncs per iteration.  They are stored coordinate-major (one row
    per coordinate, one column per instance and restart), every operation
    writes into a preallocated buffer, and the offset D = H - w is kept as
    the state, which saves the subtraction before each projection.  The
    subgradient at 0 is +-c for p = 1 (0^0 = 1), a valid choice.
    """
    rng = np.random.default_rng(seed)
    n_inst = len(ws)
    dim = max(len(w) for w in ws)
    rows = n_inst * restarts
    W = np.zeros((n_inst, dim))
    C = np.zeros((n_inst, dim))
    for i, (w, c) in enumerate(zip(ws, cs)):
        W[i, : len(w)] = w
        C[i, : len(c)] = c
    W = np.repeat(W, restarts, axis=0)
    C = np.repeat(C, restarts, axis=0)
    E = np.repeat(np.asarray(epss, dtype=float), restarts)[:, None]
    P = np.repeat(np.asarray(ps, dtype=float), restarts)[:, None]
    scale0 = np.abs(W).max(axis=1, keepdims=True) + E

    H = W + rng.normal(size=(rows, dim)) * scale0
    H[::restarts] = W[::restarts]
    if restarts > 1:
        H[1::restarts] = 0.0

    # coordinate-major from here on: shape (dim, rows)
    W, C, H = (np.ascontiguousarray(X.T) for X in (W, C, H))
    P = np.ascontiguousarray(np.broadcast_to(P.T, (dim, rows)))
    Pm1 = P - 1.0
    CPS = C * P * scale0.T  # gradient weight times the initial step
    E = E[:, 0].copy()
    E2 = E * E
    D = H - W
    A = np.empty_like(H)
    nrm = np.empty(rows)

    def project():
        # D *= min(1, eps / ||D||), written as eps / sqrt(max(||D||^2, eps^2))
        np.square(D, out=A)
        np.add.reduce(A, axis=0, out=nrm)
        np.maximum(nrm, E2, out=nrm)
        np.sqrt(nrm, out=nrm)
        np.divide(E, nrm, out=nrm)
        np.multiply(D, nrm, out=D)
        np.add(W, D, out=H)

    def objective():
        return (C * np.abs(H) ** P).sum(axis=0)

    project()
    best = objective()
    decay = (1e-12) ** (1.0 / iters)
    step = 1.0
    for k in range(iters):
        np.abs(H, out=A)
        np.power(A, Pm1, out=A)
        np.copysign(A, H, out=A)
        np.multiply(A, CPS, out=A)
        np.multiply(A, step, out=A)
        np.subtract(D, A, out=D)
        project()
        step *= decay
        if k % 16 == 0:
            np.minimum(best, objective(), out=best)
    np.minimum(best, objective(), out=best)
    return best.reshape(n_inst, restarts).min(axis=1)


def ball_probability_loop(m, eps, center, nodes):
    """mu(eps B_{l2} + center) in dimension <= 3 by iterated graded
    Gauss-Legendre, one outer node at a time with scalar kink and panel helpers.

    The rule is that of ``measure._ball_probability``: the innermost axis is
    the exact CDF difference, or ``univariate.abs_cdf`` at a zero center;
    outer axes use x = c + r sin(theta) on [-pi/2, pi/2], split at the
    arcsin density cusp, at the arccos cusps of
    the inner CDF differences and, on the outer axis of a 3-D ball, at the
    arccos corner where the inner disc reaches the zero of both remaining
    coordinates, wherever these lie strictly inside.  Each panel [lo, hi]
    maps Gauss-Legendre through theta = lo + (hi - lo) s^2 (3 - 2 s),
    s = (t + 1) / 2.  Every product keeps the same operand order, so the two
    agree bit for bit.
    """
    gamma = m.spec.gamma()
    dim = m.spec.size
    pr = m.params
    t, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * (t + 1.0)
    g = s * s * (3.0 - 2.0 * s)
    gw = 3.0 * s * (1.0 - s) * w

    def panels(splits):
        pts = [-0.5 * np.pi]
        pts += sorted(a for a in splits if -0.5 * np.pi < a < 0.5 * np.pi)
        pts.append(0.5 * np.pi)
        xs, ws = [], []
        for lo, hi in zip(pts[:-1], pts[1:]):
            xs.append(lo + (hi - lo) * g)
            ws.append((hi - lo) * gw)
        return np.concatenate(xs), np.concatenate(ws)

    def kink_sin(c, r):
        return [float(np.arcsin(-c / r))] if r > 0 and abs(c) < r else []

    def kink_cos(c, r):
        if r > 0 and abs(c) < r:
            a = float(np.arccos(abs(c) / r))
            return [-a, a]
        return []

    def disc(i, c, r):
        if c == 0.0:
            return univariate.abs_cdf(pr, r / gamma[i])
        return univariate.cdf(pr, (c + r) / gamma[i]) - univariate.cdf(pr, (c - r) / gamma[i])

    def f(i, x):
        return univariate.pdf(pr, np.asarray(x) / gamma[i]) / gamma[i]

    if dim == 1:
        return float(disc(0, center[0], eps))
    if dim == 2:
        theta, wts = panels(kink_sin(center[0], eps) + kink_cos(center[1], eps))
        x1 = center[0] + eps * np.sin(theta)
        r = eps * np.cos(theta)
        inner = disc(1, center[1], r)
        return float(np.sum(wts * f(0, x1) * inner * eps * np.cos(theta)))
    if dim == 3:
        theta, wts = panels(
            kink_sin(center[0], eps)
            + kink_cos(center[1], eps)
            + kink_cos(center[2], eps)
            + kink_cos(math.hypot(center[1], center[2]), eps)
        )
        x1 = center[0] + eps * np.sin(theta)
        rho = eps * np.cos(theta)
        mid = np.empty_like(theta)
        for j, rj in enumerate(rho):
            phi, wphi = panels(kink_sin(center[1], rj) + kink_cos(center[2], rj))
            x2 = center[1] + rj * np.sin(phi)
            r2 = rj * np.cos(phi)
            inner = disc(2, center[2], r2)
            mid[j] = np.sum(wphi * f(1, x2) * inner * rj * np.cos(phi))
        return float(np.sum(wts * f(0, x1) * mid * eps * np.cos(theta)))
    raise ValueError("the loop oracle supports dimension <= 3")


def log_int_exp_where(W):
    """log int_0^1 e^w for w linear between equally spaced node values W, and
    each node segment's share, with the d = 0 limit of (1 - e^{-d}) / d set
    by a masked divide."""
    d = np.abs(np.diff(W))
    top = np.maximum(W[:-1], W[1:])
    mx = top.max()
    shape = np.divide(-np.expm1(-d), d, out=np.ones_like(d), where=d > 0)
    seg = np.exp(top - mx) * shape
    total = seg.sum()
    return mx + math.log(total / len(d)), seg / total


def metropolis_loop(sample, m, basis, cfg, rng):
    """The density model's adaptive random-walk Metropolis with the
    likelihood sum_i W(X_i) kept as an (n,) state W(X) and updated through
    each level's gather at the sample points.

    Same proposals, adaptation and random stream as
    ``models.de_posterior_mcmc``; returns its chain fields and the final
    state's log-posterior as a dict.
    """
    K = m.spec.levels
    p = m.spec.p
    gamma = m.spec.gamma()
    X = np.asarray(sample.points, dtype=float)
    nodes = basis.node_grid()
    gathers_grid = basis.gather(nodes)[: K + 1]
    gathers_X = basis.gather(X)[: K + 1]
    level_slices = [slice(2**k - 1, 2 ** (k + 1) - 1) for k in range(K + 1)]

    xi = np.zeros(m.spec.size)
    Wg = np.zeros(len(nodes))
    Wx = np.zeros(len(X))
    lpost = 0.0

    scales = np.full(K + 1, 0.5)
    acc = np.zeros(K + 1)
    tries = np.zeros(K + 1)
    acc_post = 0
    tries_post = 0
    kept = []
    total = cfg.burn_in + cfg.draws * cfg.thin
    for it in range(total):
        for k in range(K + 1):
            sl = level_slices[k]
            step = scales[k] * rng.standard_normal(2**k)
            du = gamma[sl] * step
            gidx, gval = gathers_grid[k]
            xidx, xval = gathers_X[k]
            Wg2 = Wg + du[gidx - (2**k - 1)] * gval
            Wx2 = Wx + du[xidx - (2**k - 1)] * xval
            xi2 = xi.copy()
            xi2[sl] += step
            prior = float(np.sum(np.abs(xi2) ** p) / p)
            lpost2 = Wx2.sum() - len(X) * log_int_exp_where(Wg2)[0] - prior
            if not np.isfinite(lpost2):
                raise FloatingPointError(f"non-finite log-posterior at level {k}")
            accept = np.log(rng.random()) < lpost2 - lpost
            if accept:
                xi, Wg, Wx, lpost = xi2, Wg2, Wx2, lpost2
            tries[k] += 1
            acc[k] += accept
            if it >= cfg.burn_in:
                tries_post += 1
                acc_post += accept
            elif tries[k] % 25 == 0:
                rate = acc[k] / tries[k]
                scales[k] *= np.exp(0.5 * (rate - 0.234))
        if it >= cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            kept.append(xi.copy())
    return {
        "xi": np.array(kept),
        "acceptance_rate": float(acc_post / max(tries_post, 1)),
        "scales": scales,
        "per_level_accept": acc / np.maximum(tries, 1),
        "log_posterior": lpost,
    }


def norm_samples_blocks(m, norm, samples, rng, basis=None, block=50_000):
    """Unsorted norms of ``samples`` draws from m, ``block`` draws at a time.
    |xi| is drawn as Exp(1) at p = 1, |N(0, 1)| at p = 2 and (p G)^{1/p} with
    G ~ Gamma(1/p) otherwise; sup norms take a separate uniform sign draw
    per block."""
    p = m.spec.p
    gamma = m.spec.gamma()
    ncoef = m.spec.size
    out = np.empty(samples)
    if norm == "sup":
        if basis is None:
            basis = WaveletBasis(m.spec.levels)
        Psi = basis.evaluation_matrix(basis.node_grid())[:, :ncoef]
    done = 0
    while done < samples:
        b = min(block, samples - done)
        if p == 1.0:
            mags = rng.standard_exponential((b, ncoef))
        elif p == 2.0:
            mags = np.abs(rng.standard_normal((b, ncoef)))
        else:
            mags = (p * rng.standard_gamma(1.0 / p, size=(b, ncoef))) ** (1.0 / p)
        if norm == "l2":
            out[done : done + b] = np.sqrt(((mags * gamma) ** 2).sum(axis=1))
        else:
            signs = np.where(rng.random((b, ncoef)) < 0.5, -1.0, 1.0)
            u = signs * mags * gamma
            out[done : done + b] = np.abs(u @ Psi.T).max(axis=1)
        done += b
    return out
