"""Coefficient vectors, scaling sequences, Besov weights and the weighted-ell_p norm.

Sequences are stored as finite numpy arrays in one of two index schemes:

* ``linear``: entries indexed ell = 1..N,
* ``dyadic``: entries indexed (k, l), level k = 0..K carrying 2^k entries,
  flattened in level order so that (k, l) sits at linear position
  ell = 2^k + l - 1.  The flattening is exactly the dyadic-to-linear
  bijection used for shared norm code.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np


def dyadic_level_index(levels: int) -> np.ndarray:
    """Level k of each entry of a level-ordered dyadic vector, k = 0..levels."""
    return np.concatenate([np.full(2**k, k) for k in range(levels + 1)])


def loglog_fit(x, y) -> tuple[float, float]:
    """OLS slope of log(y) against log(x) with its residual standard error;
    ValueError unless there are at least 3 points, all finite and > 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError(f"a log-log fit needs at least 3 points, got {len(x)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and (x > 0).all() and (y > 0).all()):
        raise ValueError("a log-log fit needs finite positive values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    var = float(resid @ resid) / (len(lx) - 2)
    return float(slope), math.sqrt(var / float(((lx - lx.mean()) ** 2).sum()))


@dataclass(frozen=True)
class BesovParams:
    """Weighted-ell_q sequence space parameters (smoothness s, integrability q, dimension d)."""

    s: float
    q: float
    d: int = 1

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"integrability q must be >= 1, got {self.q}")
        if self.d < 1 or int(self.d) != self.d:
            raise ValueError(f"dimension d must be a positive integer, got {self.d}")


@dataclass(frozen=True)
class ScalingSpec:
    """Prior hyperparameters defining the scaling sequence gamma.

    linear scheme: gamma_ell = lam * ell^{-1/2 - alpha/d}, ell = 1..n.
    dyadic scheme (d = 1 only): gamma_{kl} = lam * 2^{-(1/2 + alpha) k}, k = 0..levels.
    """

    p: float
    alpha: float
    d: int = 1
    lam: float = 1.0
    scheme: str = "linear"
    n: int | None = None
    levels: int | None = None

    def __post_init__(self):
        if not (1.0 <= self.p <= 2.0):
            raise ValueError(f"p must lie in [1, 2], got {self.p}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.d < 1 or int(self.d) != self.d:
            raise ValueError(f"d must be a positive integer, got {self.d}")
        if not self.lam > 0:
            raise ValueError(f"rescaling lam must be positive, got {self.lam}")
        if self.scheme == "linear":
            if self.n is None or self.n < 1:
                raise ValueError("linear scheme requires truncation length n >= 1")
        elif self.scheme == "dyadic":
            if self.levels is None or self.levels < 0:
                raise ValueError("dyadic scheme requires max level >= 0")
            if self.d != 1:
                raise ValueError(f"dyadic scheme is one-dimensional, got d={self.d}")
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def size(self) -> int:
        if self.scheme == "linear":
            return int(self.n)
        return 2 ** (self.levels + 1) - 1

    def level_index(self) -> np.ndarray:
        """Level k of each entry (dyadic scheme only)."""
        if self.scheme != "dyadic":
            raise ValueError("level_index is defined for the dyadic scheme")
        return dyadic_level_index(self.levels)

    def gamma(self) -> np.ndarray:
        if self.scheme == "linear":
            ell = np.arange(1, self.n + 1, dtype=float)
            return self.lam * ell ** (-0.5 - self.alpha / self.d)
        k = self.level_index()
        return self.lam * 2.0 ** (-(0.5 + self.alpha) * k)

    def with_lam(self, lam: float) -> "ScalingSpec":
        return replace(self, lam=lam)

    def unit(self) -> "ScalingSpec":
        """The same spec with the rescaling removed (lam = 1)."""
        return self.with_lam(1.0)


@dataclass(frozen=True)
class CoefVec:
    """Finite coefficient vector with its index scheme."""

    scheme: str
    values: np.ndarray
    levels: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1:
            raise ValueError("CoefVec values must be one-dimensional")
        if self.scheme == "dyadic":
            if self.levels is None:
                raise ValueError("dyadic CoefVec requires max level")
            expected = 2 ** (self.levels + 1) - 1
            if len(self.values) != expected:
                raise ValueError(
                    f"dyadic vector with levels={self.levels} must have "
                    f"{expected} entries, got {len(self.values)}"
                )
        elif self.scheme != "linear":
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def linear(cls, values) -> "CoefVec":
        return cls("linear", np.asarray(values, dtype=float))

    @classmethod
    def dyadic(cls, values, levels: int) -> "CoefVec":
        return cls("dyadic", np.asarray(values, dtype=float), levels)

    def kl_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(k, l) pairs of a dyadic vector, l = 1..2^k within level k."""
        if self.scheme != "dyadic":
            raise ValueError("kl_index is defined for the dyadic scheme")
        ks = dyadic_level_index(self.levels)
        return ks, np.arange(1, len(ks) + 1) - 2**ks + 1  # l = ell - 2^k + 1


def dyadic_to_linear(k, l):
    """Index bijection ell = 2^k + l - 1."""
    return 2**k + l - 1


def coef_values(u) -> np.ndarray:
    """Accept a CoefVec or a plain array and return the value array."""
    if isinstance(u, CoefVec):
        return u.values
    return np.asarray(u, dtype=float)


def besov_weights(bp: BesovParams, n: int) -> np.ndarray:
    """Weights ell^{q (s/d + 1/2) - 1}, ell = 1..n."""
    ell = np.arange(1, n + 1, dtype=float)
    return ell ** (bp.q * (bp.s / bp.d + 0.5) - 1.0)


def z_norm_p(h, spec: ScalingSpec) -> float:
    """p-th power of the weighted-ell_p norm, sum |h_ell / gamma_ell|^p."""
    v = coef_values(h)
    if isinstance(h, CoefVec) and h.scheme != spec.scheme:
        raise ValueError(f"scheme mismatch: vector {h.scheme}, spec {spec.scheme}")
    if len(v) != spec.size:
        raise ValueError(f"length mismatch: vector {len(v)}, spec {spec.size}")
    return float(np.sum(np.abs(v / spec.gamma()) ** spec.p))


def make_truth(bp: BesovParams, n: int | None = None) -> CoefVec:
    """Boundary-decay test sequence sitting strictly inside B^s_q for all s < bp.s.

    |w_ell| = ell^{-s/d - 1/2 - 0.05}; the power boundary of membership in
    B^s_q is the exponent s/d + 1/2, so the margin 0.05 places w in B^t_q
    exactly for t < s + 0.05 d.  Signs alternate, starting with +.  When n
    is omitted it is chosen so the relative ell_2 tail mass is below 1e-6.
    """
    expo = bp.s / bp.d + 0.5 + 0.05
    if n is None:
        # sum_{l>N} l^{-2e} <= N^{1-2e}/(2e-1); relative to the head, which is >= 1
        n = int(np.ceil((1e6 / (2 * expo - 1)) ** (1.0 / (2 * expo - 1))))
        n = max(16, min(n, 2**16))
    ell = np.arange(1, n + 1, dtype=float)
    mags = ell ** (-expo)
    return CoefVec.linear(mags * np.where(ell % 2 == 0, -1.0, 1.0))


def save_coefvec(u: CoefVec, path) -> None:
    """CSV with columns (scheme, k, l, ell, value); 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "k", "l", "ell", "value"])
        if u.scheme == "dyadic":
            ks, ls = u.kl_index()
            for k, l, v in zip(ks, ls, u.values):
                writer.writerow(["dyadic", k, l, dyadic_to_linear(k, l), f"{v:.17g}"])
        else:
            for ell, v in enumerate(u.values, start=1):
                writer.writerow(["linear", "", "", ell, f"{v:.17g}"])


def load_coefvec(path) -> CoefVec:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append(row)
    if not rows:
        raise ValueError("empty CoefVec file")
    scheme = rows[0]["scheme"]
    values = np.array([float(r["value"]) for r in rows])
    if scheme == "dyadic":
        levels = int(rows[-1]["k"])
        return CoefVec.dyadic(values, levels)
    return CoefVec.linear(values)
