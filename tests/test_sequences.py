import numpy as np
import pytest
from scipy import stats

from pexp.sequences import (
    BesovParams,
    CoefVec,
    ScalingSpec,
    besov_weights,
    dyadic_level_index,
    dyadic_to_linear,
    load_coefvec,
    loglog_fit,
    make_truth,
    save_coefvec,
    z_norm_p,
)


def _besov_norm(u, bp):
    """( sum ell^{q(s/d+1/2)-1} |u_ell|^q )^{1/q} over the stored entries."""
    return float(np.sum(besov_weights(bp, len(u)) * np.abs(u.values) ** bp.q) ** (1.0 / bp.q))


def test_scaling_spec_invariants():
    spec = ScalingSpec(1.5, 1.0, n=10)
    g = spec.gamma()
    assert np.all(g > 0) and np.all(np.diff(g) < 0)
    with pytest.raises(ValueError):
        ScalingSpec(1.5, 1.0, lam=0.0, n=10)
    with pytest.raises(ValueError):
        ScalingSpec(1.5, -1.0, n=10)
    with pytest.raises(ValueError):
        ScalingSpec(2.5, 1.0, n=10)


def test_dyadic_gamma_levels():
    spec = ScalingSpec(2.0, 1.0, scheme="dyadic", levels=3)
    g = spec.gamma()
    assert len(g) == 15
    ks = spec.level_index()
    np.testing.assert_allclose(g, 2.0 ** (-1.5 * ks))


def test_dyadic_spec_rejects_other_dimensions():
    # its gamma has no d in it, so d = 3 used to give the d = 1 sequence
    with pytest.raises(ValueError, match="d=3"):
        ScalingSpec(1.0, 1.0, 3, 1.0, "dyadic", levels=2)


def test_dyadic_level_index_counts():
    ks = dyadic_level_index(4)
    np.testing.assert_array_equal(np.bincount(ks), 2 ** np.arange(5))
    assert np.all(np.diff(ks) >= 0)
    spec = ScalingSpec(1.0, 1.0, scheme="dyadic", levels=4)
    np.testing.assert_array_equal(spec.level_index(), ks)


def test_loglog_fit_matches_linregress():
    rng = np.random.default_rng(13)
    x = 2.0 ** np.arange(3, 12)
    y = x**-0.7 * np.exp(rng.normal(scale=0.1, size=len(x)))
    slope, se = loglog_fit(x, y)
    ref = stats.linregress(np.log(x), np.log(y))
    assert slope == pytest.approx(ref.slope, rel=1e-12)
    assert se == pytest.approx(ref.stderr, rel=1e-10)


def test_coefvec_dyadic_length_checked():
    with pytest.raises(ValueError):
        CoefVec.dyadic(np.zeros(10), 3)  # needs 15


def test_besov_norm_rejects_q_below_one():
    with pytest.raises(ValueError):
        BesovParams(0.5, 0.7, 1)


def test_z_norm_trivial_cases():
    spec = ScalingSpec(1.5, 1.0, n=25)
    assert z_norm_p(CoefVec.linear(np.zeros(25)), spec) == 0.0
    assert z_norm_p(CoefVec.linear(spec.gamma()), spec) == pytest.approx(25.0, rel=1e-13)


def test_z_norm_lambda_scaling_exact():
    spec1 = ScalingSpec(1.3, 0.8, n=30)
    spec2 = spec1.with_lam(2.0)
    rng = np.random.default_rng(9)
    h = CoefVec.linear(rng.normal(size=30))
    assert z_norm_p(h, spec2) == 2.0 ** (-1.3) * z_norm_p(h, spec1)


def test_z_norm_equals_besov_power_for_unit_lam():
    # weights ell^{p(alpha/d + 1/p + 1/2) - 1} coincide with gamma^{-p} exactly
    spec = ScalingSpec(1.5, 1.2, d=2, n=40)
    rng = np.random.default_rng(10)
    h = CoefVec.linear(rng.normal(size=40))
    bp = BesovParams(spec.alpha + spec.d / spec.p, spec.p, spec.d)
    weighted = float(np.sum(besov_weights(bp, 40) * np.abs(h.values) ** bp.q))
    assert z_norm_p(h, spec) == pytest.approx(weighted, rel=1e-12)


def test_norm_scheme_mismatch_rejected():
    spec = ScalingSpec(1.5, 1.0, scheme="dyadic", levels=3)
    with pytest.raises(ValueError):
        z_norm_p(CoefVec.linear(np.ones(15)), spec)


def test_make_truth_profile_and_membership():
    bp = BesovParams(1.0, 2.0, 1)
    w = make_truth(bp)
    ell = np.arange(1, len(w) + 1, dtype=float)
    np.testing.assert_allclose(np.abs(w.values), ell**-1.55, rtol=1e-14)
    assert np.isfinite(_besov_norm(w, bp))
    # membership boundary: partial sums converge below s = 1, diverge above
    big = make_truth(bp, n=2**15)

    def growth(s):
        n_half = len(big) // 2
        head = _besov_norm(CoefVec.linear(big.values[:n_half]), BesovParams(s, 2.0, 1))
        full = _besov_norm(big, BesovParams(s, 2.0, 1))
        return full / head

    assert growth(0.9) < 1.01  # converged
    assert growth(1.1) > 1.05  # still growing as a power of N


def test_dyadic_linear_weight_equivalence():
    # gamma_{kl} / gamma_{2^k+l-1} stays within [2^{-(1/2+a)}, 2^{(1/2+a)}]
    alpha = 1.0
    spec = ScalingSpec(1.5, alpha, scheme="dyadic", levels=6)
    g_dyadic = spec.gamma()
    ks, ls = CoefVec.dyadic(np.zeros(spec.size), 6).kl_index()
    ell = dyadic_to_linear(ks, ls)
    g_linear = ell ** (-0.5 - alpha)
    ratio = g_dyadic / g_linear
    bound = 2.0 ** (0.5 + alpha)
    assert np.all(ratio <= bound + 1e-12)
    assert np.all(ratio >= 1.0 / bound - 1e-12)


def test_dyadic_to_linear_is_bijection():
    spec = ScalingSpec(1.5, 1.0, scheme="dyadic", levels=5)
    ks, ls = CoefVec.dyadic(np.zeros(spec.size), 5).kl_index()
    ell = dyadic_to_linear(ks, ls)
    assert sorted(ell) == list(range(1, spec.size + 1))


def test_coefvec_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(12)
    u = CoefVec.linear(rng.normal(size=37) * 10.0 ** rng.integers(-8, 8, size=37))
    path = tmp_path / "u.csv"
    save_coefvec(u, path)
    v = load_coefvec(path)
    assert v.scheme == "linear"
    np.testing.assert_array_equal(u.values, v.values)
    ud = CoefVec.dyadic(rng.normal(size=31), 4)
    save_coefvec(ud, path)
    vd = load_coefvec(path)
    assert vd.scheme == "dyadic" and vd.levels == 4
    np.testing.assert_array_equal(ud.values, vd.values)
