"""Exact design-distribution oracles by full enumeration of Poisson outcomes.

Every subset of a small complement stratum is a possible Poisson sample;
its probability is the product of the per-unit inclusion terms.  These
tests check design unbiasedness of the HT total and the agreement of the
plug-in variance formulas with exactly enumerated design variances.  The
certainty stratum may be chosen from y itself: conditional on it, the
design alone carries the randomness, whatever the selection mechanism.
"""

import itertools

import numpy as np
import pytest

from seqdi.estimators import Arm, poisson_plugin_variance, y_ht_seq
from seqdi.homogeneity import design_variance_meat
from seqdi.numerics import inv_spd


def enumerate_outcomes(pi):
    """Yield (mask, probability) over all 2^n Poisson outcomes."""
    n = len(pi)
    for bits in itertools.product((False, True), repeat=n):
        mask = np.asarray(bits)
        prob = float(np.prod(np.where(mask, pi, 1.0 - pi)))
        yield mask, prob


def toy_stratum(seed, n1=10):
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n1), rng.uniform(0.2, 1.8, size=n1)])
    y = x @ np.array([2.0, 3.0]) + rng.normal(size=n1)
    pi = rng.uniform(0.15, 0.9, size=n1)
    return x, y, pi


def ht_strata(case):
    """Certainty-stratum y, complement y and complement pi.  An integer case
    is a toy complement beside a fixed certainty stratum; "y_above_median"
    takes a 20-unit frame and puts its units with y above the median in the
    certainty stratum, so the strata depend on y."""
    if case == "y_above_median":
        x, y, pi = toy_stratum(8, n1=20)
        delta = y > np.median(y)
        return y[delta], y[~delta], pi[~delta]
    x, y, pi = toy_stratum(case)
    return np.array([5.0, 7.0]), y, pi


HT_CASES = [0, 1, 2, "y_above_median"]


class TestHtUnbiasedness:
    @pytest.mark.parametrize("case", HT_CASES)
    def test_total_unbiased(self, case):
        y_np, y, pi = ht_strata(case)
        target = y_np.sum() + y.sum()
        mean = 0.0
        for mask, prob in enumerate_outcomes(pi):
            arm = Arm.of(y[mask], np.ones((mask.sum(), 1)), pi[mask])
            mean += prob * y_ht_seq(arm, y_np.sum()).point
        assert mean == pytest.approx(target, rel=1e-10)

    @pytest.mark.parametrize("case", HT_CASES)
    def test_plugin_variance_unbiased(self, case):
        y_np, y, pi = ht_strata(case)
        mean = second = plugin_mean = 0.0
        for mask, prob in enumerate_outcomes(pi):
            est = y_ht_seq(Arm.of(y[mask], np.ones((mask.sum(), 1)), pi[mask]), y_np.sum())
            mean += prob * est.point
            second += prob * est.point**2
            plugin_mean += prob * est.variance
        exact_variance = second - mean**2
        assert exact_variance == pytest.approx(float(np.sum((1.0 - pi) / pi * y**2)), rel=1e-9)
        assert plugin_mean == pytest.approx(exact_variance, rel=1e-9)

    def test_covariate_totals_unbiased(self):
        x, y, pi = toy_stratum(3, n1=9)
        target = x.sum(axis=0)
        mean = np.zeros(x.shape[1])
        for mask, prob in enumerate_outcomes(pi):
            if mask.any():
                mean += prob * (x[mask] / pi[mask][:, None]).sum(axis=0)
        np.testing.assert_allclose(mean, target, rtol=1e-10)


class TestFrozenCoefficientVariance:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_plugin_mean_equals_exact_variance(self, seed):
        x, y, pi = toy_stratum(seed, n1=11)
        frozen_b = np.array([1.7, 2.9])
        e = y - x @ frozen_b
        x_total = x.sum(axis=0)

        exact_mean = 0.0
        exact_second = 0.0
        plugin_mean = 0.0
        for mask, prob in enumerate_outcomes(pi):
            ht = float(np.sum(y[mask] / pi[mask])) if mask.any() else 0.0
            ht_x = (
                (x[mask] / pi[mask][:, None]).sum(axis=0) if mask.any() else np.zeros(2)
            )
            linearized = ht + float((x_total - ht_x) @ frozen_b)
            exact_mean += prob * linearized
            exact_second += prob * linearized**2
            plugin_mean += prob * poisson_plugin_variance(e[mask], pi[mask])
        exact_variance = exact_second - exact_mean**2

        closed_form = float(np.sum((1.0 - pi) / pi * e**2))
        assert exact_variance == pytest.approx(closed_form, rel=1e-9)
        assert plugin_mean == pytest.approx(exact_variance, rel=1e-9)

    def test_exact_mean_is_population_total(self):
        x, y, pi = toy_stratum(6, n1=8)
        frozen_b = np.array([0.5, 1.0])
        mean = 0.0
        for mask, prob in enumerate_outcomes(pi):
            ht = float(np.sum(y[mask] / pi[mask])) if mask.any() else 0.0
            ht_x = (
                (x[mask] / pi[mask][:, None]).sum(axis=0) if mask.any() else np.zeros(2)
            )
            mean += prob * (ht + float((x.sum(axis=0) - ht_x) @ frozen_b))
        assert mean == pytest.approx(y.sum(), rel=1e-10)


class TestCoefficientDesignVariance:
    def test_frozen_weights_linear_form(self):
        """The coefficient design-variance kernel matches enumeration for the
        frozen-weights linear statistic M^{-1} sum_{i in s} x_i e_i/(pi_i tau2_i)."""
        rng = np.random.default_rng(7)
        n1 = 6
        x = np.column_stack([np.ones(n1), rng.uniform(0.3, 1.5, size=n1)])
        y = x @ np.array([1.0, 2.0]) + rng.normal(size=n1)
        pi = rng.uniform(0.2, 0.85, size=n1)
        tau2 = rng.uniform(0.5, 2.0, size=n1)
        frozen_b = np.array([0.9, 2.2])
        e = y - x @ frozen_b
        m = x.T @ (x / tau2[:, None])
        m_inv = inv_spd(m)

        mean_t = np.zeros(2)
        second_t = np.zeros((2, 2))
        formula_mean = np.zeros((2, 2))
        for mask, prob in enumerate_outcomes(pi):
            if mask.any():
                t = m_inv @ (
                    x[mask].T @ (e[mask] / (pi[mask] * tau2[mask]))
                )
                v_hat = m_inv @ design_variance_meat(
                    x[mask], e[mask], pi[mask], tau2[mask]
                ) @ m_inv
            else:
                t = np.zeros(2)
                v_hat = np.zeros((2, 2))
            mean_t += prob * t
            second_t += prob * np.outer(t, t)
            formula_mean += prob * v_hat
        exact_variance = second_t - np.outer(mean_t, mean_t)

        scale = np.max(np.abs(exact_variance))
        np.testing.assert_allclose(formula_mean, exact_variance, rtol=1e-9, atol=1e-9 * scale)
