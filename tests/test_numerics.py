import math

import numpy as np
import pytest

from seqdi.errors import NoConvergence, NotPositiveDefinite, Separation
from seqdi.numerics import (
    RngStream,
    Z_975,
    chisq_sf,
    inv_spd,
    logistic_fit,
    normal_quantile,
    solve_spd,
    weighted_ls,
)


def normal_sf_by_quadrature(z, panels=4000):
    """Independent oracle: P(N(0,1) > z) by Simpson integration of the density."""
    grid = np.linspace(0.0, z, 2 * panels + 1)
    pdf = np.exp(-grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
    h = grid[1] - grid[0]
    integral = h / 3.0 * (pdf[0] + pdf[-1] + 4 * pdf[1:-1:2].sum() + 2 * pdf[2:-2:2].sum())
    return 0.5 - integral


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(2), np.array([3.0, 5.0]))
        np.testing.assert_allclose(x, [3.0, 5.0], rtol=0, atol=1e-14)

    def test_diagonal(self):
        x = solve_spd(np.diag([4.0, 9.0]), np.array([8.0, 27.0]))
        np.testing.assert_allclose(x, [2.0, 3.0], rtol=1e-14)

    def test_rank_deficient(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.ones((2, 2)), np.array([1.0, 2.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 0.5], [0.2, 1.0]]), np.array([1.0, 1.0]))

    def test_random_spd_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.integers(1, 11)
            m = rng.normal(size=(d, d))
            a = m @ m.T + 0.1 * np.eye(d)
            b = rng.normal(size=d)
            x = solve_spd(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_pivot_contract_on_diagonal(self):
        # the last pivot of diag(1, 1, p) is p; the contract rejects p <= 1e-12 * trace / 3
        def bound(p):
            return 1e-12 * (1.0 + 1.0 + p) / 3

        edge = 2e-12 / (3.0 - 1e-12)
        while edge > bound(edge):
            edge = math.nextafter(edge, 0.0)
        while math.nextafter(edge, 1.0) <= bound(math.nextafter(edge, 1.0)):
            edge = math.nextafter(edge, 1.0)
        above = math.nextafter(edge, 1.0)
        x = solve_spd(np.diag([1.0, 1.0, above]), np.array([1.0, 2.0, above]))
        np.testing.assert_allclose(x, [1.0, 2.0, 1.0], rtol=1e-15)
        assert inv_spd(np.diag([1.0, 1.0, above]))[2, 2] == pytest.approx(1.0 / above)
        for p in (edge, 0.0, -1.0):
            for call in (lambda a: solve_spd(a, np.ones(3)), inv_spd):
                with pytest.raises(NotPositiveDefinite, match="at column 2"):
                    call(np.diag([1.0, 1.0, p]))

    def test_inv_spd(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4))
        a = m @ m.T + np.eye(4)
        np.testing.assert_allclose(inv_spd(a) @ a, np.eye(4), atol=1e-10)


class TestWeightedLs:
    def test_intercept_only_is_mean(self):
        y = np.array([1.0, 4.0, -2.0, 7.0])
        beta = weighted_ls(np.ones((4, 1)), y, np.ones(4))
        np.testing.assert_allclose(beta, [y.mean()], rtol=1e-14)

    def test_perfect_fit(self):
        x1 = np.array([0.0, 1.0, 2.0, 5.0])
        x = np.column_stack([np.ones(4), x1])
        y = 2.0 + 3.0 * x1
        beta = weighted_ls(x, y, np.array([1.0, 2.0, 0.5, 4.0]))
        np.testing.assert_allclose(beta, [2.0, 3.0], rtol=1e-12)

    def test_hand_normal_equations(self):
        # sums: n=3, Sx=3, Sxx=5, Sy=6, Sxy=9 -> beta = (0.5, 1.5)
        x = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        beta = weighted_ls(x, np.array([1.0, 1.0, 4.0]), np.ones(3))
        np.testing.assert_allclose(beta, [0.5, 1.5], rtol=1e-12)

    def test_uniform_weight_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            x = np.column_stack([np.ones(n), rng.normal(size=n)])
            y = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            c = float(rng.uniform(0.01, 100.0))
            b1 = weighted_ls(x, y, w)
            b2 = weighted_ls(x, y, c * w)
            np.testing.assert_allclose(b1, b2, rtol=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(6, 50))
            x = np.column_stack([np.ones(n), rng.normal(size=n), rng.uniform(size=n)])
            y = rng.normal(size=n) * 3.0 + 1.0
            w = rng.uniform(0.05, 3.0, size=n)
            beta = weighted_ls(x, y, w)
            resid = y - x @ beta
            bound = 1e-6 * np.sum(w * np.abs(y))
            for j in range(x.shape[1]):
                assert abs(np.sum(w * resid * x[:, j])) <= bound

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_ls(np.ones((3, 1)), np.zeros(3), np.array([1.0, -1.0, 1.0]))


class TestLogisticFit:
    def test_intercept_only_mean_03(self):
        delta = np.zeros(1000)
        delta[:300] = 1.0
        alpha = logistic_fit(np.ones((1000, 1)), delta)
        assert alpha[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-7)

    def test_intercept_only_symmetric(self):
        delta = np.array([0.0, 1.0] * 50)
        alpha = logistic_fit(np.ones((100, 1)), delta)
        assert abs(alpha[0]) < 1e-10

    def test_separation(self):
        rng = np.random.default_rng(3)
        indicator = (rng.uniform(size=200) < 0.4).astype(float)
        x = np.column_stack([np.ones(200), indicator])
        with pytest.raises((Separation, NoConvergence)):
            logistic_fit(x, indicator)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(4)
        n = 60_000
        x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
        true = np.array([0.3, 1.2, -0.8])
        p = 1.0 / (1.0 + np.exp(-(x @ true)))
        delta = (rng.uniform(size=n) < p).astype(float)
        alpha = logistic_fit(x, delta)
        np.testing.assert_allclose(alpha, true, atol=0.08)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            logistic_fit(np.ones((10, 1)), np.ones(10))


class TestChisqSf:
    def test_zero_statistic(self):
        for df in (1, 2, 3, 7, 50):
            assert chisq_sf(0.0, df) == 1.0

    def test_df2_quantile(self):
        assert chisq_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-4)

    def test_df2_matches_exponential_identity(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.991465, 10.0, 40.0):
            assert chisq_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-10)

    def test_df1_against_normal_quadrature(self):
        oracle = 2.0 * normal_sf_by_quadrature(1.959964)
        assert chisq_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-4)
        assert chisq_sf(1.959964**2, 1) == pytest.approx(oracle, abs=1e-10)

    def test_df1_general_points_vs_quadrature(self):
        for z in (0.5, 1.0, 1.5, 2.5, 3.2):
            assert chisq_sf(z * z, 1) == pytest.approx(
                2.0 * normal_sf_by_quadrature(z), abs=1e-10
            )

    def test_monotone_decreasing(self):
        for df in (1, 2, 5, 11):
            grid = np.linspace(0.0, 30.0, 200)
            values = [chisq_sf(x, df) for x in grid]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chisq_sf(-1.0, 2)

    def test_infinite_statistic(self):
        for df in (1, 2, 3, 7, 50):
            assert chisq_sf(math.inf, df) == 0.0

    @pytest.mark.parametrize("df", [2.5, 0, -1, 0.5, math.inf, math.nan])
    def test_df_not_positive_integer_rejected(self, df):
        with pytest.raises(ValueError, match="positive integer"):
            chisq_sf(1.0, df)

    def test_integral_df_types_agree(self):
        for x in (0.5, 3.0, 12.0):
            assert chisq_sf(x, np.int64(3)) == chisq_sf(x, 3.0) == chisq_sf(x, 3)


class TestNormalQuantile:
    def test_pinned_constant(self):
        assert normal_quantile(0.975) == Z_975 == 1.959964

    def test_symmetry_and_accuracy(self):
        for p in (0.6, 0.9, 0.95, 0.99, 0.999):
            z = normal_quantile(p)
            assert normal_quantile(1.0 - p) == pytest.approx(-z, abs=2e-9)
            assert normal_sf_by_quadrature(z) == pytest.approx(1.0 - p, abs=1e-8)


class TestRngStream:
    def test_same_stream_reproduces(self):
        a = RngStream(123, 5).uniform(size=1000)
        b = RngStream(123, 5).uniform(size=1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).uniform(size=100)
        b = RngStream(123, 6).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_bernoulli_matches_uniform_threshold(self):
        p = np.full(50, 0.3)
        drawn = RngStream(9, 1).bernoulli(p)
        uniforms = RngStream(9, 1).uniform(size=50)
        assert np.array_equal(drawn, uniforms < 0.3)
