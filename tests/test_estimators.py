import numpy as np
import pytest

from seqdi.errors import EmptySample
from seqdi.estimators import (
    Arm,
    Estimate,
    WeightSpec,
    certainty_block,
    poisson_plugin_variance,
    y_com_di,
    y_di,
    y_dr,
    y_fusion,
    y_greg_independent,
    y_ht_seq,
    y_ipw,
    y_sep_di,
)
from seqdi.numerics import RngStream, Z_975, quantile, weighted_ls
from seqdi.pilot import fit_pilot, predict_sigma2
from seqdi.population import Partition, Population, generate_population

LOGNORMAL_PARAMS = {"N": 2000, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}


def random_setup(seed, n1=40, d=3, span_y=False):
    """Small complement stratum with a drawn Poisson sample."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n1)] + [rng.uniform(0.1, 2.0, size=n1) for _ in range(d - 1)])
    coef = rng.uniform(0.5, 2.0, size=d)
    y = x @ coef if span_y else x @ coef + rng.normal(size=n1)
    pi = rng.uniform(0.2, 0.9, size=n1)
    members = rng.uniform(size=n1) < pi
    while members.sum() < d + 1:
        members = rng.uniform(size=n1) < pi
    return x, y, pi, members


class TestYDi:
    def test_census_second_stage(self):
        y_np = np.array([4.0, 6.0])
        y_u1 = np.array([1.0, 2.0, 3.0])
        out = y_di(Arm.of(y_u1, None, np.ones(3)), y_np.sum(), 3)
        assert out.point == pytest.approx(16.0, rel=1e-12)
        assert out.variance == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        out = y_di(Arm.of([2.0], None, [0.5]), 10.0, 2)
        assert out.point == pytest.approx(14.0, rel=1e-12)

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySample):
            y_di(Arm.of([], None, []), 1.0, 2)

    def test_wald_interval_uses_pinned_quantile(self):
        out = y_di(Arm.of([2.0, 5.0], None, [0.5, 0.5]), 10.0, 4)
        half = Z_975 * np.sqrt(out.variance)
        assert out.ci_low == pytest.approx(out.point - half, rel=1e-12)
        assert out.ci_high == pytest.approx(out.point + half, rel=1e-12)


class TestYHtSeq:
    def test_census(self):
        out = y_ht_seq(Arm.of([1.0, 2.0], None, np.ones(2)), 4.0)
        assert out.point == pytest.approx(7.0, rel=1e-12)
        assert out.variance == pytest.approx(0.0, abs=1e-12)

    def test_hand_poisson_variance(self):
        out = y_ht_seq(Arm.of([3.0], None, [0.5]), 0.0)
        assert out.point == pytest.approx(6.0, rel=1e-12)
        assert out.variance == pytest.approx(18.0, rel=1e-12)

    def test_empty_sample_is_defined(self):
        out = y_ht_seq(Arm.of([], None, []), 10.0)
        assert out.point == pytest.approx(10.0)
        assert out.variance == 0.0


class TestRegressionCoefficient:
    def test_single_covariate_equal_to_y(self):
        y = np.array([1.0, 3.0, 7.0])
        coef = weighted_ls(y[:, None], y, np.array([0.5, 1.0, 2.0]))
        assert coef[0] == pytest.approx(1.0, rel=1e-12)

    def test_intercept_only_is_hajek_mean(self):
        y = np.array([2.0, 4.0, 10.0])
        pi = np.array([0.4, 0.5, 0.8])
        coef = weighted_ls(np.ones((3, 1)), y, 1.0 / pi)
        hajek = np.sum(y / pi) / np.sum(1.0 / pi)
        assert coef[0] == pytest.approx(hajek, rel=1e-12)

    def test_perfect_fit_any_weights(self):
        x, y, pi, members = random_setup(1, span_y=True)
        q = np.random.default_rng(2).uniform(0.1, 5.0, size=members.sum())
        coef = weighted_ls(x[members], y[members], q)
        np.testing.assert_allclose(x @ coef, y, rtol=1e-9)


class TestGregExactness:
    @pytest.mark.parametrize("kind", ["inverse_pi", "inverse_pi_sigma"])
    def test_sep_exact_for_spanned_outcome(self, kind):
        x, y, pi, members = random_setup(3, span_y=True)
        model = fit_pilot(x, y + np.random.default_rng(4).normal(size=len(y)))
        arm = Arm.of(y[members], x[members], pi[members], predict_sigma2(model, x[members]))
        out = y_sep_di(arm, 100.0, x.sum(axis=0), WeightSpec(kind))
        assert out.point == pytest.approx(100.0 + y.sum(), rel=1e-9)
        assert out.variance == pytest.approx(0.0, abs=1e-9)

    def test_com_exact_for_common_coefficient(self):
        x, y, pi, members = random_setup(5, span_y=True)
        coef = np.linalg.lstsq(x, y, rcond=None)[0]
        x_np = np.column_stack([np.ones(7), np.linspace(0.2, 1.4, 7), np.linspace(2.0, 0.4, 7)])
        y_np = x_np @ coef
        arm = Arm.of(y[members], x[members], pi[members])
        block = certainty_block(x_np, y_np, WeightSpec("inverse_pi"), None, len(y_np) + arm.size)
        out = y_com_di(arm, y_np.sum(), block, x.sum(axis=0))
        assert out.point == pytest.approx(y_np.sum() + y.sum(), rel=1e-9)

    def test_greg_independent_census_and_exact(self):
        x, y, _, _ = random_setup(6)
        out = y_greg_independent(Arm.of(y, x, np.ones(len(y))), x.sum(axis=0))
        assert out.point == pytest.approx(y.sum(), rel=1e-12)
        x2, y2, pi2, members2 = random_setup(7, span_y=True)
        out2 = y_greg_independent(Arm.of(y2[members2], x2[members2], pi2[members2]), x2.sum(axis=0))
        assert out2.point == pytest.approx(y2.sum(), rel=1e-9)


class TestComSepRelations:
    def test_com_with_empty_certainty_equals_sep(self):
        x, y, pi, members = random_setup(8)
        model = fit_pilot(x, y)
        arm = Arm.of(y[members], x[members], pi[members], predict_sigma2(model, x[members]))
        for kind in ("inverse_pi", "inverse_pi_sigma"):
            sep = y_sep_di(arm, 0.0, x.sum(axis=0), WeightSpec(kind))
            block = certainty_block(np.empty((0, x.shape[1])), np.empty(0), WeightSpec(kind),
                                    np.empty(0), arm.size)
            com = y_com_di(arm, 0.0, block, x.sum(axis=0))
            assert com.point == sep.point
            assert com.variance == sep.variance


def plugin_variance_double_sum(
    residuals: np.ndarray, pi: np.ndarray, joint: np.ndarray | None = None
) -> float:
    """General double-sum plug-in variance over the realized sample.

    sum_ij Delta_ij / pi_ij * (e_i/pi_i) * (e_j/pi_j) with
    Delta_ij = pi_ij - pi_i pi_j.  When ``joint`` is omitted the Poisson
    identities pi_ij = pi_i pi_j (i != j), pi_ii = pi_i apply, and the
    expression collapses to :func:`poisson_plugin_variance`; the test
    below checks that the package's Poisson form is this collapse.
    """
    residuals = np.asarray(residuals, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = len(pi)
    if joint is None:
        joint = np.outer(pi, pi)
        np.fill_diagonal(joint, pi)
    delta = joint - np.outer(pi, pi)
    z = residuals / pi
    total = 0.0
    for i in range(n):
        total += float(np.sum(delta[i] / joint[i] * z[i] * z))
    return total


class TestPluginVariance:
    def test_double_sum_matches_poisson_specialization(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            e = rng.normal(size=n)
            pi = rng.uniform(0.05, 0.95, size=n)
            assert plugin_variance_double_sum(e, pi) == pytest.approx(
                poisson_plugin_variance(e, pi), rel=1e-12
            )


class TestIpwDr:
    def test_ipw_unit_weights(self):
        pop = generate_population(LOGNORMAL_PARAMS, RngStream(10, 0))
        delta = RngStream(11, 0).uniform(size=pop.size) < 0.5
        part = Partition(delta=delta)
        # every planted propensity is 1
        out = y_ipw(pop.y[part.certainty_idx], np.ones(len(part.certainty_idx)))
        assert out.point == pytest.approx(pop.y[part.certainty_idx].sum(), rel=1e-12)
        assert out.variance is None

    def test_dr_equals_ipw_when_weights_reproduce_totals(self):
        pop = Population(x=np.ones((2, 1)), y=np.array([3.0, 9.0]))
        part = Partition(delta=np.array([1, 0]))
        # planted propensity 0.5, so sum x/pi over the stratum is 2 = N
        idx, prop = part.certainty_idx, np.array([0.5])
        ipw = y_ipw(pop.y[idx], prop)
        dr = y_dr(pop.rows(idx), pop.y[idx], prop, pop.x_total)
        assert dr.point == pytest.approx(ipw.point, rel=1e-12)

    def test_dr_exact_for_linear_outcome(self):
        rng = np.random.default_rng(12)
        n = 300
        x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
        y = x @ np.array([4.0, 2.0, -1.0]) + 10.0 * 0.0
        pop = Population(x=x, y=y + 12.0)  # keep positive, still linear via intercept
        delta = rng.uniform(size=n) < 0.6
        part = Partition(delta=delta)
        idx = part.certainty_idx
        prop = 1.0 / (1.0 + np.exp(-x[idx] @ np.array([0.3, -0.2, 0.1])))  # planted propensities
        out = y_dr(x[idx], pop.y[idx], prop, pop.x_total)
        assert out.point == pytest.approx(pop.true_total, rel=1e-9)


class TestFusion:
    def test_branches(self):
        greg = Estimate(10.0, None, None, None, "GREG")
        dr = Estimate(20.0, None, None, None, "DR")
        assert y_fusion(greg, dr, 1.0).point == 10.0
        assert y_fusion(greg, dr, 0.0).point == 20.0
        assert y_fusion(greg, dr, 0.25).point == pytest.approx(17.5)

    def test_alpha_range(self):
        greg = Estimate(1.0, None, None, None, "GREG")
        with pytest.raises(ValueError):
            y_fusion(greg, greg, 1.5)


class TestWeightSpec:
    def test_truncation_caps_extremes(self):
        pi = np.full(1000, 0.5)
        pi[0] = 1e-6
        spec = WeightSpec("inverse_pi", truncation_quantile=0.99)
        q = spec.build(pi)
        assert q[0] == pytest.approx(np.quantile(1.0 / pi, 0.99))
        assert q[1] == pytest.approx(2.0)

    def test_sigma_kind_needs_variances(self):
        with pytest.raises(ValueError):
            WeightSpec("inverse_pi_sigma").build(np.array([0.5]))

    def test_weights_are_build_untruncated(self):
        rng = np.random.default_rng(3)
        pi, sigma2 = rng.uniform(1e-4, 1.0, 500), rng.uniform(0.1, 9.0, 500)
        by_pi, by_sigma = WeightSpec("inverse_pi", 0.9), WeightSpec("inverse_pi_sigma", 0.9)
        assert np.array_equal(by_pi.weights(pi), 1.0 / pi)
        assert np.array_equal(by_sigma.weights(pi, sigma2), 1.0 / (pi * sigma2))
        for spec in (by_pi, by_sigma):
            w = spec.weights(pi, sigma2)
            assert np.array_equal(spec.build(pi, sigma2), np.minimum(w, quantile(w, 0.9)))
        # certainty rows (pi = 1) weigh 1 or 1/sigma2, bit for bit
        assert np.array_equal(by_pi.weights(np.ones(500)), np.ones(500))
        assert np.array_equal(by_sigma.weights(np.ones(500), sigma2), 1.0 / sigma2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec("bogus")


class TestSerialization:
    def test_csv_row(self):
        out = y_ht_seq(Arm.of([3.0], None, [0.5]), 1.0)
        row = out.to_csv_row()
        assert row[0] == "HT_seq"
        assert float(row[1]) == out.point
