"""Independent brute-force oracles shared by the module and acceptance tests.

These deliberately avoid the package's solver machinery: the projection
solver is checked against plain projected subgradient descent on the raw
objective, vectorized across instances and restarts.  Small-ball estimators
are checked against each other through ``smallball_agree``, and the
row-batched ball quadrature against ``ball_probability_loop``, the same rule
written one outer node at a time, and the density Metropolis kernel against
``metropolis_loop``, which keeps the likelihood as the sum of an (n,) state.
``block_generators`` writes out the row blocks of ``measure.mc_blocks`` one
after another; ``norm_samples_blocks`` (with its own |xi| sampler and sign
draw) and ``anderson_hits_blocks`` draw from them serially, as the reference
streams of ``concentration.unit_norm_sample`` and ``measure.anderson_check``,
and ``tilted_x_blocks`` as that of ``concentration.smallball_l2_tilted``.
``tilted_loop`` and its side law ``halfline_loop`` are
``univariate.tilted_sample``, the white-noise posterior's sampler, written
with one index gather per array and round; it and
``models.wn_posterior_sample`` must make the same draws.
``laplace_sample_where`` is the p = 1 draw of ``univariate.sample`` with its
sign as a product, which the ``copysign`` form must match bit for bit.  ``rate_solve_loop`` is
``concentration.rate_solve_numeric`` without its memo, which re-evaluates
the points its search visits twice; the memoized solve must return the
same eps.
"""

import math

import numpy as np
from scipy import special

from pexp import concentration, univariate
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
    the exact CDF difference F(r - |c|) - F(-|c| - r), taken in the lower
    tail, or ``univariate.abs_cdf`` at a zero center;
    outer axes use x = c + r sin(theta) on [-pi/2, pi/2], split at the
    arcsin density cusp, at the arccos cusps of
    the inner CDF differences (a split at 0 where the disc touches the face)
    and, on the outer axis of a 3-D ball, at the
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
        if r > 0 and abs(c) <= r:
            a = float(np.arccos(abs(c) / r))
            return [-a, a]
        return []

    def disc(i, c, r):
        if c == 0.0:
            return univariate.abs_cdf(pr, r / gamma[i])
        a = abs(c)
        return univariate.cdf(pr, (r - a) / gamma[i]) - univariate.cdf(pr, (-a - r) / gamma[i])

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


def metropolis_loop(points, m, basis, cfg, rng):
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
    X = np.asarray(points, dtype=float)
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
        z = rng.standard_normal(m.spec.size)
        with np.errstate(divide="ignore"):  # log 0 = -inf accepts
            log_u = np.log(rng.random(K + 1))
        for k in range(K + 1):
            sl = level_slices[k]
            step = scales[k] * z[sl]
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
            accept = log_u[k] < lpost2 - lpost
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


def block_generators(samples, width, rng, block_floats):
    """(generator, rows) per row block of ``measure.mc_blocks``, in order: the
    fewest blocks of at most about block_floats / width rows, with edges at
    samples * b // count, each drawing from its own child of one seed
    sequence keyed by four integers from rng."""
    count = -(-samples * width // block_floats)
    root = np.random.SeedSequence(rng.integers(2**63, size=4))
    out, lo = [], 0
    for b, child in enumerate(root.spawn(count), start=1):
        hi = samples * b // count
        out.append((np.random.default_rng(child), hi - lo))
        lo = hi
    return out


def norm_samples_blocks(m, norm, samples, rng, block_floats, basis=None):
    """Unsorted norms of ``samples`` draws from m, block by block.  |xi| is
    drawn as Exp(1) at p = 1 and |N(0, 1)| at p = 2; sup norms take a
    separate uniform sign draw per block.  l2 norms add the squares in
    coordinate order (a running sum)."""
    p = m.spec.p
    if p not in (1.0, 2.0):
        raise ValueError("the reference |xi| sampler covers p = 1 and p = 2")
    gamma = m.spec.gamma()
    ncoef = m.spec.size
    width = ncoef
    if norm == "sup":
        if basis is None:
            basis = WaveletBasis(m.spec.levels)
        Psi = basis.evaluation_matrix(basis.node_grid())[:, :ncoef]
        width = len(Psi)
    parts = []
    for gen, b in block_generators(samples, width, rng, block_floats):
        if p == 1.0:
            mags = gen.standard_exponential((b, ncoef))
        else:
            mags = np.abs(gen.standard_normal((b, ncoef)))
        if norm == "l2":
            parts.append(np.sqrt(np.cumsum(mags * mags * gamma**2, axis=1)[:, -1]))
        else:
            signs = np.where(gen.random((b, ncoef)) < 0.5, -1.0, 1.0)
            u = signs * mags * gamma
            parts.append(np.abs(u @ Psi.T).max(axis=1))
    return np.concatenate(parts)


def tilted_x_blocks(p, a, g2, samples, rng, block_floats):
    """X = sum_l g2_l xi_l^2 for ``samples`` draws of
    ``concentration.smallball_l2_tilted`` at tilts a, block by block: xi_l
    has density prop. to f_p(x) exp(-a_l x^2), drawn as N(0, 1 / (1 + 2 a))
    at p = 2 and by ``tilted_loop`` at p = 1, and rows are summed by np.sum."""
    parts = []
    for gen, b in block_generators(samples, len(a), rng, block_floats):
        if p == 2.0:
            xi = gen.standard_normal((b, len(a))) / np.sqrt(1.0 + 2.0 * a)
        else:
            xi = tilted_loop(1.0, a, 0.0, gen, (b, len(a)))[0]
        parts.append(np.sum(xi * xi * g2, axis=1))
    return np.concatenate(parts)


def anderson_hits_blocks(m, eps, shifts, samples, rng, block_floats):
    """Hits of the centered l2 ball of radius eps and of its shifts by each
    row of the stack ``shifts`` (S, dim) in ``samples`` prior draws, block by
    block, with norms from np.sum: the centered count and a list of S
    shifted counts, all in the same draws."""
    dim = m.spec.size
    hits_c, hits_s = 0, [0] * len(shifts)
    for gen, b in block_generators(samples, dim, rng, block_floats):
        u = m.spec.gamma() * univariate.sample(m.params, gen, size=(b, dim))
        hits_c += int((np.sum(u**2, axis=1) <= eps**2).sum())
        for i, x in enumerate(shifts):
            hits_s[i] += int((np.sum((u - x) ** 2, axis=1) <= eps**2).sum())
    return hits_c, hits_s


def halfline_loop(lam, a, rng):
    """``univariate._halfline_sample``, the side law of ``tilted_loop``, with
    every pending entry's lam, a and proposal gathered by index in each
    round, and both branches' costs computed for every entry."""
    lam, a = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(a, dtype=float))
    x = np.empty(lam.shape)
    lam, a, flat = lam.ravel(), a.ravel(), x.reshape(-1)
    todo = np.arange(lam.size)
    rounds = 0
    while todo.size:
        if rounds == univariate.MAX_ROUNDS:
            raise univariate.SamplerError(
                f"tilted_sample: {todo.size} half-line draws left after {rounds} rounds"
            )
        rounds += 1
        l, q = lam[todo], a[todo]
        from_exp = (l > 0) & (q < math.pi / 4.0 * l * l)
        z = np.empty(todo.size)
        z[from_exp] = rng.standard_exponential(int(from_exp.sum())) / l[from_exp]
        hn = ~from_exp
        z[hn] = rng.standard_normal(int(hn.sum())) / np.sqrt(2.0 * q[hn])
        whole = hn & (l < 0)
        z[whole] -= l[whole] / (2.0 * q[whole])
        z[hn & ~whole] = np.abs(z[hn & ~whole])
        cost = np.where(from_exp, q * z * z, l * z)
        ok = (rng.standard_exponential(todo.size) >= cost) & (z >= 0)
        flat[todo[ok]] = z[ok]
        todo = todo[~ok]
    return x


def tilted_loop(p, a, b, rng, size):
    """``univariate.tilted_sample`` over a flat state with a column map: each
    round gathers every pending entry's side, rate and tangent by index,
    draws the half-line laws by ``halfline_loop`` and the tangent gap's
    exponentials at every p; the side odds come from scipy.  Returns the
    draws and the log."""
    shape = tuple(size)
    cols = shape[-1] if shape else 1
    a, b = (np.broadcast_to(np.asarray(v, dtype=float), (cols,)) for v in (a, b))
    if not (np.isfinite(a).all() and np.isfinite(b).all() and (a >= 0).all()):
        raise ValueError("tilted_sample needs finite a >= 0 and finite b")
    curved = a > 0
    safe_a = np.where(curved, a, 1.0)
    x0 = np.ones(cols)
    if p != 1.0:
        mode = univariate.prox(np.where(curved, np.abs(b), 0.0) / (2.0 * safe_a), 1.0 / p,
                               safe_a, p)[0]
        x0 = np.maximum(mode, 1.0)
    s = x0 ** (p - 1.0)
    lam = np.stack([s - b, s + b])
    if not (curved | (lam > 0)).all():
        raise ValueError("tilted_sample needs a > 0 where a side's rate s -+ b is <= 0")
    # log of each side's mass up to a common factor: log erfcx(z) at z >= 0,
    # and z^2 + log erfc(z) below, from scipy; the masses are 1 / lam at a = 0
    z = lam / (2.0 * np.sqrt(safe_a))
    neg = z < 0
    log_mass = np.log(special.erfcx(np.where(neg, 0.0, z)))
    log_mass[neg] = z[neg] ** 2 + np.log(special.erfc(z[neg]))
    inv = np.divide(1.0, lam, out=np.ones_like(lam), where=lam > 0)
    p_plus = np.where(curved, special.expit(log_mass[0] - log_mass[1]), inv[0] / inv.sum(axis=0))
    x = np.empty(math.prod(shape))
    todo = np.arange(x.size)
    accept = []
    while todo.size:
        if len(accept) == univariate.MAX_ROUNDS:
            raise univariate.SamplerError(
                f"tilted_sample: {todo.size} draws left after {len(accept)} rounds"
            )
        c = todo % cols
        minus = (rng.random(todo.size) >= p_plus[c]).astype(int)
        h = halfline_loop(lam[minus, c], a[c], rng)
        gap = (h**p - x0[c] ** p) / p - s[c] * (h - x0[c])
        tight = gap > 0.0
        ok = ~tight
        ok[tight] = rng.standard_exponential(int(tight.sum())) >= gap[tight]
        x[todo[ok]] = np.where(minus[ok], -h[ok], h[ok])
        accept.append(float(ok.mean()))
        todo = todo[~ok]
    log = {"rounds": len(accept), "first_round_accept": accept[0] if accept else 1.0}
    return x.reshape(shape), log


def laplace_sample_where(rng, size=None):
    """``univariate.sample`` at p = 1 with the sign as a product: an Exp(1)
    magnitude times -1 where its uniform is below 1/2, else times 1."""
    e = rng.standard_exponential(size=size)
    return np.where(rng.random(size=size) < 0.5, -1.0, 1.0) * e


def rate_solve_loop(w, m, n, mc_samples, rng, norm, grid_tol, basis):
    """Smallest grid eps with phi_w(eps) <= n eps^2: the search of
    ``concentration.rate_solve_numeric``, evaluating the predicate afresh at
    every point it visits, repeats included."""
    guard = -math.log(concentration.P_MIN_GUARD)
    sample = concentration.unit_norm_sample(m, norm, mc_samples, rng, basis)

    def exceeds(e):
        try:
            est = concentration.concentration_fn(w, e, m, norm, sample)
        except concentration.ZeroHitsError as exc:
            if n * e**2 < guard:
                return True
            raise concentration.SmallBallResolutionError(f"eps={e:.4g}") from exc
        if est.neglog_smallball > guard:
            if n * e**2 < est.neglog_ci[0]:
                return True
            raise concentration.SmallBallResolutionError(f"eps={e:.4g}")
        return est.inf_term / m.spec.p + est.neglog_ci[1] > n * e**2

    e_hi = math.sqrt(float((m.spec.gamma() ** 2).sum()) * univariate.variance(m.params))
    for _ in range(60):
        if not exceeds(e_hi):
            break
        e_hi *= 2.0
    else:
        raise concentration.SolverError("failed to bracket the rate equation from above")
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
