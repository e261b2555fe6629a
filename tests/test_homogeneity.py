import math

import numpy as np
import pytest

from seqdi.errors import SingularVariance
from seqdi.estimators import Estimate
from seqdi.homogeneity import (
    HomogeneityResult,
    _sandwich,
    adaptive_estimate,
    design_variance_meat,
    fgls_np,
    fgls_p,
    homogeneity_test,
)
from seqdi.numerics import RngStream, gram, inv_spd
from seqdi.pilot import PilotVarianceModel, fit_pilot, fit_power_variance, predict_sigma2
from seqdi.population import generate_population

LOGNORMAL_PARAMS = {"N": 20_000, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}


def certainty_fgls(x, y):
    """fgls_np of the rows x, y at the pilot fitted on them, as the harness runs it."""
    model = fit_pilot(x, y)
    return fgls_np(x, y, model, predict_sigma2(model, x), x @ model.beta)


def stratum_data(seed, n, het=True):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
    mu = x @ np.array([8.0, 5.0, 3.0])
    noise = rng.normal(size=n) * (mu if het else 1.0) * 0.2
    return x, mu + noise


class TestFglsNp:
    def test_homoscedastic_model_scale_cancels(self):
        x, y = stratum_data(1, 400)
        results = []
        for s in (0.5, 8.0):
            model = PilotVarianceModel(
                beta=np.linalg.lstsq(x, y, rcond=None)[0],
                sigma2=s, gamma=0.0, mean_floor=1.0, sigma2_floor=1e-12,
            )
            results.append(fgls_np(x, y, model, predict_sigma2(model, x), x @ model.beta)[1])
        np.testing.assert_allclose(results[0], results[1], rtol=1e-9)
        # collapse to the classical OLS sandwich
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        e = y - x @ beta
        g_inv = np.linalg.inv(x.T @ x)
        classical = g_inv @ (x.T @ ((e**2)[:, None] * x)) @ g_inv
        np.testing.assert_allclose(results[0], classical, rtol=1e-8)

    def test_zero_residuals_zero_variance(self):
        x, _ = stratum_data(2, 100)
        y = x @ np.array([2.0, 1.0, 0.5])
        beta, v = certainty_fgls(x, y)
        np.testing.assert_allclose(v, 0.0, atol=1e-18)

    def test_variance_shrinks_with_sample_size(self):
        pop = generate_population(LOGNORMAL_PARAMS, RngStream(3, 0))
        half = pop.size // 2
        _, v_half = certainty_fgls(pop.x[:half], pop.y[:half])
        _, v_full = certainty_fgls(pop.x, pop.y)
        for j in range(3):
            ratio = v_half[j, j] / v_full[j, j]
            assert 1.7 <= ratio <= 2.3


class TestFglsP:
    def test_census_design_variance_is_zero(self):
        x, y = stratum_data(4, 150)
        _, v = fgls_p(x, y, np.ones(150))
        np.testing.assert_allclose(v, 0.0, atol=1e-18)

    def test_perfect_fit_zero_variance(self):
        x, _ = stratum_data(5, 120)
        y = x @ np.array([3.0, 2.0, 1.0])
        pi = np.full(120, 0.5)
        _, v = fgls_p(x, y, pi)
        np.testing.assert_allclose(v, 0.0, atol=1e-16)

    def test_model_term_increases_variance(self):
        x, y = stratum_data(6, 300)
        pi = np.full(300, 0.4)
        _, v_design = fgls_p(x, y, pi, include_model_variance=False)
        _, v_both = fgls_p(x, y, pi, include_model_variance=True)
        extra = v_both - v_design
        assert np.all(np.diag(extra) > 0)

    def test_certainty_stratum_is_the_pi_one_sample(self):
        # the certainty stratum is a sample with every pi = 1: no design
        # variance, and the model sandwich is fgls_np's, whose weight
        # 1/sigma2^2 fgls_p forms as (1/(1*tau2))/tau2, so V agrees to rounding
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(20, 300))
            x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
            mu = x @ rng.uniform(1.0, 10.0, size=3)
            y = mu * np.exp(rng.normal(0.0, rng.uniform(0.1, 0.8), size=n))
            beta_np, v_np = certainty_fgls(x, y)
            beta_p, v_p = fgls_p(x, y, np.ones(n), include_model_variance=True)
            assert beta_np.tobytes() == beta_p.tobytes()
            np.testing.assert_allclose(v_p, v_np, rtol=0, atol=1e-13 * np.max(np.abs(v_np)))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("include_model_variance", [False, True])
    def test_equals_its_predict_sigma2_form(self, order, include_model_variance):
        # fgls_p reads the fit's own fitted means; written out with the rows'
        # variances and residuals formed again from the model, it is the same
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(20, 3000))
            x, y = stratum_data(int(rng.integers(2**31)), n)
            x = np.asarray(x, order=order)
            pi = rng.uniform(0.05, 1.0, size=n)
            model = fit_power_variance(x, y, 1.0 / pi)
            tau2, residuals = predict_sigma2(model, x), y - x @ model.beta
            w = 1.0 / (pi * tau2)
            inv_bread = inv_spd(gram(x, w))
            v = inv_bread @ design_variance_meat(x, residuals, pi, tau2) @ inv_bread
            if include_model_variance:
                v = v + _sandwich(x, inv_bread, w / tau2, residuals)
            beta_p, v_p = fgls_p(x, y, pi, include_model_variance=include_model_variance)
            assert beta_p.tobytes() == model.beta.tobytes()
            assert v_p.tobytes() == v.tobytes()


class TestHomogeneityTest:
    def test_identical_coefficients(self):
        beta = np.array([1.0, 2.0])
        v = np.eye(2) * 0.3
        result = homogeneity_test((beta, v), (beta.copy(), v), alpha=0.05)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert not result.reject

    def test_hand_quadratic_form(self):
        b1, b2 = np.array([2.0, 5.0]), np.array([1.0, 5.0])
        half = np.eye(2) / 2.0
        result = homogeneity_test((b1, half), (b2, half))
        assert result.statistic == pytest.approx(1.0, rel=1e-12)
        assert result.p_value == pytest.approx(math.exp(-0.5), rel=1e-10)
        assert result.df == 2

    def test_singular_variance(self):
        beta = np.array([1.0, 2.0])
        zero = np.zeros((2, 2))
        with pytest.raises(SingularVariance):
            homogeneity_test((beta, zero), (beta + 1.0, zero))

    def test_f_nonnegative_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            b1, b2 = rng.normal(size=d), rng.normal(size=d)
            m1, m2 = rng.normal(size=(d, d)), rng.normal(size=(d, d))
            v1 = m1 @ m1.T + 0.1 * np.eye(d)
            v2 = m2 @ m2.T + 0.1 * np.eye(d)
            result = homogeneity_test((b1, v1), (b2, v2))
            assert result.statistic >= 0.0
            assert 0.0 <= result.p_value <= 1.0
            assert result.reject == (result.p_value < 0.05)

    def test_reparametrization_invariance(self):
        rng = np.random.default_rng(8)
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=4000), RngStream(9, 0))
        split = rng.uniform(size=4000) < 0.6
        x_np, y_np_vals = pop.x[split], pop.y[split]
        x_p, y_p = pop.x[~split], pop.y[~split]
        pi = np.full((~split).sum(), 0.45)

        base = homogeneity_test(certainty_fgls(x_np, y_np_vals),
                                fgls_p(x_p, y_p, pi))
        for _ in range(5):
            a = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
            x_a = x_np @ a
            rep = homogeneity_test(
                certainty_fgls(x_a, y_np_vals), fgls_p(x_p @ a, y_p, pi)
            )
            assert rep.statistic == pytest.approx(base.statistic, rel=1e-6)

    def test_result_fields(self):
        result = homogeneity_test(
            (np.array([1.0]), np.eye(1)), (np.array([2.0]), np.eye(1))
        )
        assert result.df == 1
        assert result.statistic == pytest.approx(0.5)


class TestAdaptive:
    def _result(self, reject):
        return HomogeneityResult(
            statistic=1.0, df=2, p_value=0.01 if reject else 0.9, reject=reject,
        )

    def test_reject_branch(self):
        sep = Estimate(10.0, 1.0, 8.0, 12.0, "sepDI_sigma")
        com = Estimate(11.0, 0.5, 9.6, 12.4, "comDI_sigma")
        out = adaptive_estimate(sep, com, self._result(True))
        assert out.point == sep.point and out.variance == sep.variance
        assert out.tag == "adDI"

    def test_accept_branch(self):
        sep = Estimate(10.0, 1.0, 8.0, 12.0, "sepDI_sigma")
        com = Estimate(11.0, 0.5, 9.6, 12.4, "comDI_sigma")
        out = adaptive_estimate(sep, com, self._result(False))
        assert out.point == com.point and out.variance == com.variance
