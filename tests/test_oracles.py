"""Numerical kernels against independent oracles.

numpy's own quantile, dense products and solvers, the two-branch
logistic, and scipy's distributions and optimizer.  scipy and hypothesis
are test-only dependencies: the module skips without hypothesis, each
scipy test without scipy.  Examples are derandomized, so a run is
repeatable.
"""

import math

import numpy as np
import pytest

from seqdi.design import PI_FLOOR, _scale_clamp_rescale, equal_probabilities
from seqdi.errors import Infeasible
from seqdi.homogeneity import fgls_p
from seqdi.numerics import (
    _logistic,
    chisq_sf,
    gram,
    inv_spd,
    logistic_fit,
    quantile,
    solve_spd,
    weighted_ls,
)
from seqdi.pilot import (
    GAMMA_CAP,
    RESIDUAL_DROP_TOL,
    _variance_regression,
    fit_power_variance,
    predict_sigma2,
)
from test_layout import frame

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SEEDS = st.integers(0, 2**32 - 1)
QUANTILES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestQuantile:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(n=st.integers(1, 3000), levels=st.sampled_from([0, 1, 2, 7]), q=QUANTILES, seed=SEEDS)
    def test_bit_identical_to_numpy(self, n, levels, q, seed):
        # levels > 0 draws integer values, so most order statistics are ties
        rng = np.random.default_rng(seed)
        v = rng.lognormal(size=n) - 1.0 if levels == 0 else rng.integers(0, levels, size=n) * 1.5
        assert np.float64(quantile(v, q)).tobytes() == np.quantile(v, q).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(v=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=40), q=QUANTILES)
    def test_bit_identical_on_any_floats(self, v, q):
        # infinities and signed zeros included: both give NaN where the
        # interpolation meets inf - inf, and the same sign on tied zeros
        v = np.array(v)
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.float64(quantile(v, q)).tobytes() == np.quantile(v, q).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.integers(1, 3000), q=QUANTILES, seed=SEEDS)
    def test_nan_propagates(self, n, q, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n)
        v[rng.integers(n)] = np.nan
        assert math.isnan(quantile(v, q))
        assert math.isnan(np.quantile(v, q))

    def test_out_of_range_level_rejected(self):
        with pytest.raises(ValueError):
            quantile(np.ones(3), 1.5)


class TestSpdSolves:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(d=st.integers(1, 6), seed=SEEDS)
    def test_match_linalg_on_well_conditioned(self, d, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** int(rng.integers(-3, 4))
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        a = scale * (basis * rng.uniform(1.0, 10.0, size=d)) @ basis.T
        a = (a + a.T) / 2.0
        b = rng.normal(size=d)
        np.testing.assert_allclose(solve_spd(a, b), np.linalg.solve(a, b),
                                   rtol=1e-12, atol=1e-12 / scale)
        np.testing.assert_allclose(inv_spd(a), np.linalg.inv(a), rtol=1e-12, atol=1e-12 / scale)


def two_branch_logistic(eta):
    """Reference logistic: 1/(1+exp(-eta)) for eta >= 0, exp(eta)/(1+exp(eta)) otherwise."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestLogistic:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(eta=st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=50))
    def test_bit_identical_to_two_branch_form(self, eta):
        # infinities and signed zeros included
        eta = np.array(eta)
        assert _logistic(eta).tobytes() == two_branch_logistic(eta).tobytes()

    def test_nan_gives_nan(self):
        eta = np.array([np.nan, -np.nan, 0.5, -3.0])
        out = _logistic(eta)
        assert np.isnan(out[:2]).all()
        assert out[2:].tobytes() == two_branch_logistic(eta[2:]).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 400), d=st.integers(1, 6), seed=SEEDS)
def test_gram_matches_dense_diagonal_product(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    w = rng.uniform(0.0, 50.0, size=n)
    dense = x.T @ np.diag(w) @ x
    # relative to the diagonal: off-diagonal sums of mixed-sign terms may cancel
    scale = np.sqrt(np.outer(np.diag(dense), np.diag(dense)))
    assert np.all(np.abs(gram(x, w) - dense) <= 1e-12 * scale)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 20_000), data=st.data())
def test_equal_design_is_uniform_or_infeasible(n, data):
    # the equal design runs through the general clamp-and-rescale allocation
    k = data.draw(st.integers(1, n))
    if 100 * k < n:
        with pytest.raises(Infeasible):
            equal_probabilities(n, k)
    else:
        assert equal_probabilities(n, k).pi.tobytes() == np.full(n, k / n).tobytes()


def anticipated_variance(pi, score):
    return float(np.sum((1.0 / pi - 1.0) * score**2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(2, 300), spread=st.floats(0.0, 4.0), floor=st.sampled_from([0.0, PI_FLOOR]),
       mix=st.floats(0.0, 1.0), seed=SEEDS, data=st.data())
def test_allocation_is_the_clipped_optimum(n, spread, floor, mix, seed, data):
    # the minimizer of sum (1/pi - 1) s^2 under sum pi = n_p, floor <= pi <= 1
    # is clip(c s, floor, 1): free units proportional to s, the clamped ones
    # on the side of the bound their score puts them
    rng = np.random.default_rng(seed)
    score = rng.lognormal(0.0, spread, size=n)
    n_p = data.draw(st.integers(max(1, math.ceil(floor * n)), n))
    pi = _scale_clamp_rescale(score, n_p, floor)
    assert abs(pi.sum() - n_p) <= 1e-12 * n_p
    assert np.all((pi >= floor) & (pi <= 1.0) & (pi > 0.0))
    free = (pi > floor) & (pi < 1.0)
    if free.any():
        c = pi[free] / score[free]
        assert np.ptp(c) <= 1e-12 * c.max()
        assert np.all(score[pi == 1.0] * c[0] >= 1.0 - 1e-12)
        assert np.all(score[pi == floor] * c[0] <= floor * (1.0 + 1e-12))
    # any feasible design, moved part of the way toward from the optimum, is no better
    other = _scale_clamp_rescale(rng.lognormal(0.0, 2.0, size=n), n_p, floor)
    moved = (1.0 - mix) * pi + mix * other
    # to rounding on the scale of sum s^2 / pi, from which the terms -s^2 cancel
    slack = 1e-12 * float(np.sum(score**2 / pi))
    assert anticipated_variance(pi, score) <= anticipated_variance(moved, score) + slack


@pytest.mark.parametrize("case", range(3))
def test_fgls_p_model_variance_matches_explicit_inverse(case):
    rng = np.random.default_rng(40 + case)  # three data sets, seeds 40-42
    n = 300
    x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
    mu = x @ [2.0, 3.0, 1.0]
    y = mu + rng.normal(size=n) * mu**0.8
    pi = rng.uniform(0.1, 0.9, size=n)
    beta, v = fgls_p(x, y, pi, include_model_variance=True)

    tau_model = fit_power_variance(x, y, 1.0 / pi)
    tau2 = predict_sigma2(tau_model, x)
    e = y - x @ tau_model.beta
    w = 1.0 / (pi * tau2)
    m_inv = np.linalg.inv(x.T @ np.diag(w) @ x)
    m_design = x.T @ np.diag((1.0 - pi) * e**2 / (pi * tau2) ** 2) @ x
    m_model = x.T @ np.diag(w / tau2 * e**2) @ x
    expected = m_inv @ m_design @ m_inv + m_inv @ m_model @ m_inv
    assert np.array_equal(beta, tau_model.beta)
    np.testing.assert_allclose(v, expected, rtol=1e-10, atol=0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(50, 600), seed=SEEDS)
def test_variance_slope_matches_linregress_and_cholesky_form(n, seed):
    # on the first-stage residuals of C- and F-ordered copies of one frame
    stats = pytest.importorskip("scipy.stats")
    x_c, y, pi = frame(n, seed)
    for x in (x_c, np.asfortranarray(x_c)):
        m = x @ weighted_ls(x, y, 1.0 / pi)
        e = y - m
        e2 = e**2
        sigma2, gamma = _variance_regression(e2, float(np.mean(e2)), m, m > 0)
        keep = (m > 0) & (e2 > RESIDUAL_DROP_TOL * np.mean(e2))
        mk, e2k = m[keep], e2[keep]
        # the form it replaced: least squares on [1, log m] through the Cholesky
        z = np.array([np.ones(mk.size), np.log(mk)]).T
        for slope in (stats.linregress(np.log(mk), np.log(e2k)).slope,
                      weighted_ls(z, np.log(e2k), np.ones(mk.size))[1]):
            want = float(np.clip(slope, -GAMMA_CAP, GAMMA_CAP))
            assert gamma == pytest.approx(want, rel=1e-12, abs=0)
        assert sigma2 == float(np.mean(e2k / mk**gamma))


def test_logistic_fit_matches_scipy_minimize():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2000)
    n = 2000
    x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.normal(size=n)])
    delta = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-(x @ [-0.4, 1.5, 0.8])))).astype(float)

    def negative_loglik(alpha):
        eta = x @ alpha
        return float(np.sum(np.logaddexp(0.0, eta) - delta * eta))

    def gradient(alpha):
        return x.T @ (1.0 / (1.0 + np.exp(-(x @ alpha))) - delta)

    oracle = optimize.minimize(negative_loglik, np.zeros(3), jac=gradient, method="BFGS",
                               options={"gtol": 1e-10})
    np.testing.assert_allclose(logistic_fit(x, delta), oracle.x, rtol=0, atol=1e-6)


@pytest.mark.parametrize("df", range(1, 11))
def test_chisq_sf_matches_scipy(df):
    stats = pytest.importorskip("scipy.stats")
    xs = np.concatenate([np.linspace(0.0, 5.0, 101), np.linspace(5.0, 150.0, 291)])
    ours = np.array([chisq_sf(float(v), df) for v in xs])
    np.testing.assert_allclose(ours, stats.chi2.sf(xs, df), rtol=0, atol=1e-10)


@pytest.mark.parametrize("df", [25, 50, 101, 400, 1500])
def test_chisq_sf_large_df_matches_scipy(df):
    # around the bulk x ~ df, where e^(-x/2) alone underflows for df > ~1490
    stats = pytest.importorskip("scipy.stats")
    xs = np.linspace(df / 2.0, 2.0 * df, 301)
    ours = np.array([chisq_sf(float(v), df) for v in xs])
    np.testing.assert_allclose(ours, stats.chi2.sf(xs, df), rtol=0, atol=1e-10)
