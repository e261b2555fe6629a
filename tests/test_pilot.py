import math

import numpy as np
import pytest

from seqdi import pilot
from seqdi.errors import InvalidParams, NotPositiveDefinite, Unidentifiable
from seqdi.numerics import RngStream, quantile, weighted_ls
from seqdi.pilot import (
    GAMMA_CAP,
    RESIDUAL_DROP_TOL,
    PilotVarianceModel,
    _sigma2_at,
    _sigma2_from,
    _variance_regression,
    fit_pilot,
    fit_power_variance,
    predict_sigma2,
)
from seqdi.population import generate_population

LOGNORMAL_PARAMS = {"N": 50_000, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}


def planted_design(n_pairs, exponent, seed=0):
    """Rows in +/- residual pairs so OLS recovers the mean exactly and
    squared residuals sit exactly on e^2 = m^exponent."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(1.0, 4.0, size=n_pairs)
    x = np.column_stack([np.ones(2 * n_pairs), np.repeat(base, 2)])
    beta_true = np.array([0.5, 2.0])
    m = x @ beta_true
    e = np.sqrt(m**exponent)
    e[1::2] *= -1.0
    return x, m + e


def kept_rows_spy(calls, real=_variance_regression):
    """``_variance_regression`` that appends to ``calls`` whether it keeps every row."""
    def spy(e2, mean_e2, m, positive, *args):
        calls.append(bool(((e2 > RESIDUAL_DROP_TOL * mean_e2) & positive).all()))
        return real(e2, mean_e2, m, positive, *args)
    return spy


class TestVariancesOutput:
    """``variances=`` receives the returned model's variances of the rows,
    _sigma2_at(model, fitted) bit for bit, on each path of the fit."""

    @pytest.fixture
    def kept(self, monkeypatch):
        """Per variance regression of the fits that follow, whether it kept every row."""
        monkeypatch.setattr(pilot, "_variance_regression", kept_rows_spy(calls := []))
        return calls

    @staticmethod
    def fit(x, y, base=None):
        fitted, variances = np.empty(len(y)), np.empty(len(y))
        model = (fit_pilot(x, y, fitted=fitted, variances=variances) if base is None else
                 fit_power_variance(x, y, base, fitted=fitted, variances=variances))
        assert fitted.tobytes() == (x @ model.beta).tobytes()
        assert variances.tobytes() == _sigma2_at(model, fitted).tobytes()
        return model

    def test_all_rows_kept(self, kept):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=5000), RngStream(101, 0))
        pi = RngStream(101, 1).uniform(size=5000) * 0.5 + 0.05
        self.fit(pop.x, pop.y)
        self.fit(pop.x, pop.y, 1.0 / pi)
        assert kept == [True] * 4

    @pytest.mark.parametrize("x1, e", [(2.5, [0.0]), (-1.0, [0.5, -0.5])],
                             ids=["exact_fit", "nonpositive_mean"])
    def test_dropped_rows(self, kept, x1, e):
        # rows the variance regression drops: one on the planted mean, whose squared
        # residual is rounding, or a residual pair whose fitted mean is below 0
        x, y = planted_design(60, 1.0)
        x = np.vstack([x, [[1.0, x1]] * len(e)])
        y = np.append(y, 0.5 + 2.0 * x1 + np.array(e))
        self.fit(x, y)
        assert kept == [False, False]

    def test_homoscedastic_return(self, kept):
        x, _ = planted_design(30, 1.0)
        model = self.fit(x, x @ np.array([0.5, 2.0]))
        assert model.gamma == 0.0 and kept == []

    @pytest.mark.parametrize("exponent, gamma", [(10.0, GAMMA_CAP), (-9.0, -GAMMA_CAP)])
    def test_capped_gamma(self, kept, exponent, gamma):
        x, y = planted_design(80, exponent)
        assert self.fit(x, y).gamma == gamma
        assert kept == [True, True]

    @pytest.mark.parametrize("gamma", [-GAMMA_CAP, -1.0, 0.5, 1.0, 1.37, 2.0, GAMMA_CAP])
    def test_power_rule_at_fast_path_exponents(self, gamma):
        # numpy's **= takes fast paths at some exponents; the rule holds at each
        m = RngStream(7, 0).uniform(size=20_000) * 30.0 + 0.5
        v = np.maximum(m, quantile(m, 0.05)) ** gamma * 1.7
        model = PilotVarianceModel(np.ones(2), 1.7, gamma, quantile(m, 0.05), quantile(v, 0.2))
        power = m.copy()
        power **= gamma
        got = _sigma2_from(model, m, power, np.empty(m.size, dtype=bool))
        assert got is power
        assert got.tobytes() == _sigma2_at(model, m).tobytes()


class TestFitPilot:
    def test_planted_line_gamma_one(self):
        x, y = planted_design(60, 1.0)
        model = fit_pilot(x, y)
        assert model.gamma == pytest.approx(1.0, abs=1e-8)
        assert model.sigma2 == pytest.approx(1.0, abs=1e-8)

    def test_lognormal_dgp_recovery(self):
        pop = generate_population(LOGNORMAL_PARAMS, RngStream(100, 0))
        model = fit_pilot(pop.x, pop.y)
        assert 1.85 <= model.gamma <= 2.15
        assert model.sigma2 == pytest.approx(math.exp(0.36) - 1.0, rel=0.25)

    def test_gamma_cap_exact(self):
        x, y = planted_design(80, 10.0)
        model = fit_pilot(x, y)
        assert model.gamma == 3.0

    def test_negative_gamma_cap(self):
        x, y = planted_design(80, -9.0)
        model = fit_pilot(x, y)
        assert model.gamma == -3.0

    def test_fgls_noop_under_constant_variance(self):
        # planted constant |residual| makes the fitted model exactly homoscedastic
        rng = np.random.default_rng(5)
        base = rng.uniform(1.0, 3.0, size=50)
        x = np.column_stack([np.ones(100), np.repeat(base, 2)])
        y = x @ np.array([1.0, 1.5])
        e = np.full(100, 0.7)
        e[1::2] *= -1.0
        y = y + e
        # the fit before the FGLS step: equal-weight beta, its variance regression
        beta0 = weighted_ls(x, y, np.ones(100))
        m1 = fit_pilot(x, y)
        # beta0 is off by ~2e-15, so log e^2 follows m over a 1.5e-14 spread
        # and the fitted slope is ~1e-15, not 0
        m0 = x @ beta0
        e2 = (y - m0) ** 2
        assert abs(_variance_regression(e2, float(np.mean(e2)), m0, m0 > 0)[1]) <= 1e-14
        assert abs(m1.gamma) < 1e-12
        np.testing.assert_allclose(beta0, m1.beta, atol=1e-10)

    def test_unidentifiable_single_mean(self):
        x = np.ones((30, 1))
        y = RngStream(6, 0).normal(5.0, 1.0, size=30)
        with pytest.raises(Unidentifiable):
            fit_pilot(x, y)

    @pytest.mark.parametrize("seed", range(12))
    def test_near_constant_means_are_singular(self, seed):
        # m = 50 (1 + spread U): log m varies too little to fit a slope.  It
        # raises where the Cholesky of the [1, log m] fit it replaced raised:
        # for every draw up to spread 1e-7, for some at 1e-5, for none at 1e-4
        raised = []
        for spread in (1e-11, 1e-9, 1e-7, 1e-5, 3e-5, 1e-4):
            rng = np.random.default_rng(seed)
            m = 50.0 * (1.0 + spread * rng.uniform(size=400))
            e = rng.normal(size=400)
            z = np.column_stack([np.ones(400), np.log(m)])
            try:
                weighted_ls(z, np.log(e**2), np.ones(400))
            except NotPositiveDefinite:
                with pytest.raises(NotPositiveDefinite, match="at column 1"):
                    _variance_regression(e**2, float(np.mean(e**2)), m, m > 0)
                raised.append(spread)
            else:
                _variance_regression(e**2, float(np.mean(e**2)), m, m > 0)
        assert raised[:3] == [1e-11, 1e-9, 1e-7] and 1e-4 not in raised

    def test_too_few_rows(self):
        with pytest.raises(Unidentifiable):
            fit_pilot(np.ones((3, 2)), np.ones(3))

    def test_exact_fit_degenerates_to_floor(self):
        x1 = np.linspace(1.0, 2.0, 30)
        x = np.column_stack([np.ones(30), x1])
        y = x @ np.array([2.0, 3.0])
        model = fit_pilot(x, y)
        assert model.gamma == 0.0
        preds = predict_sigma2(model, x)
        assert np.all(preds == model.sigma2_floor)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = 400
            x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
            mu = x @ np.array([5.0, 3.0, 2.0])
            y = mu * np.exp(rng.normal(-0.08, 0.4, size=n))
            c = float(rng.uniform(0.1, 50.0))
            m1 = fit_pilot(x, y)
            m2 = fit_pilot(x, c * y)
            assert m2.gamma == pytest.approx(m1.gamma, rel=1e-9)
            xs = np.column_stack([np.ones(5), rng.uniform(size=5), rng.uniform(size=5)])
            np.testing.assert_allclose(
                predict_sigma2(m2, xs), c**2 * np.asarray(predict_sigma2(m1, xs)), rtol=1e-9
            )

    @pytest.mark.parametrize("scale, spread, message", [
        (1e160, 1.0, "var\\(y\\) overflows"),  # outcomes and deviations beyond 1.3e154
        (1e155, 1e-3, "squared outcomes overflow"),  # deviations near 1e152 square finitely
    ])
    def test_overflow_is_refused_before_numpy_warns(self, scale, spread, message):
        # pytest turns numpy's RuntimeWarning into an error, so an overflow that
        # reached numpy's warning would fail here before InvalidParams
        rng = np.random.default_rng(3)
        x = np.column_stack([np.ones(36), 1.0 + np.arange(36) / 10])
        y = scale * (1.0 + spread * rng.uniform(size=36))
        with pytest.raises(InvalidParams, match=message):
            fit_pilot(x, y)

    def test_gamma_always_capped(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            n = int(rng.integers(20, 200))
            x = np.column_stack([np.ones(n), rng.uniform(0.5, 2.0, size=n)])
            y = np.abs(rng.normal(size=n)) + 0.1
            model = fit_pilot(x, y)
            assert abs(model.gamma) <= 3.0
            assert model.sigma2 > 0.0

    def test_pi_weighted_first_stage_changes_fit(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=4000), RngStream(9, 0))
        w = np.linspace(1.0, 5.0, 4000)
        m_flat = fit_power_variance(pop.x, pop.y, np.ones(4000))
        m_wt = fit_power_variance(pop.x, pop.y, w)
        assert not np.allclose(m_flat.beta, m_wt.beta)


class TestFittedOutput:
    # fitted= receives the fitted means of the returned model, x @ model.beta

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fitted_is_x_beta(self, order):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=3000), RngStream(12, 0))
        x = np.asarray(pop.x, order=order)
        weights = np.linspace(1.0, 5.0, 3000)
        fits = (lambda out: fit_pilot(x, pop.y, fitted=out),
                lambda out: fit_power_variance(x, pop.y, weights, fitted=out))
        for fit in fits:
            fitted = np.full(3000, np.nan)
            model, plain = fit(fitted), fit(None)
            assert fitted.tobytes() == (x @ model.beta).tobytes()
            for field in ("beta", "sigma2", "gamma", "mean_floor", "sigma2_floor"):
                got, want = getattr(model, field), getattr(plain, field)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_homoscedastic_early_return(self, order):
        # residuals at rounding noise end the fit on its first pass
        x = np.asarray(np.column_stack([np.ones(30), np.linspace(1.0, 2.0, 30)]), order=order)
        y = x @ np.array([2.0, 3.0])
        fitted = np.full(30, np.nan)
        model = fit_pilot(x, y, fitted=fitted)
        assert model.gamma == 0.0 and model.sigma2 == model.sigma2_floor
        assert fitted.tobytes() == (x @ model.beta).tobytes()


class TestModelChecks:
    @pytest.mark.parametrize("field", ["sigma2", "mean_floor", "sigma2_floor"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    def test_scales_must_be_finite_and_positive(self, field, bad):
        fields = dict(beta=np.array([0.0, 1.0]), sigma2=1.0, gamma=1.0, mean_floor=0.5,
                      sigma2_floor=1e-8)
        with pytest.raises(ValueError, match="positive and finite"):
            PilotVarianceModel(**dict(fields, **{field: bad}))


class TestPredictSigma2:
    def test_constant_when_gamma_zero(self):
        model = PilotVarianceModel(
            beta=np.array([1.0, 1.0]), sigma2=2.5, gamma=0.0,
            mean_floor=0.1, sigma2_floor=1e-12,
        )
        xs = np.column_stack([np.ones(4), np.linspace(0.0, 9.0, 4)])
        np.testing.assert_allclose(predict_sigma2(model, xs), 2.5)

    def test_direct_evaluation(self):
        model = PilotVarianceModel(
            beta=np.array([0.0, 1.0]), sigma2=2.0, gamma=1.0,
            mean_floor=0.4, sigma2_floor=1e-12,
        )
        assert predict_sigma2(model, np.array([1.0, 3.0])) == pytest.approx(6.0, rel=1e-12)

    def test_floored_mean_path(self):
        model = PilotVarianceModel(
            beta=np.array([0.0, 1.0]), sigma2=1.0, gamma=2.0,
            mean_floor=0.4, sigma2_floor=1e-12,
        )
        assert predict_sigma2(model, np.array([1.0, -5.0])) == pytest.approx(0.16, rel=1e-12)

    def test_output_floor(self):
        model = PilotVarianceModel(
            beta=np.array([0.0, 1.0]), sigma2=1e-30, gamma=1.0,
            mean_floor=0.5, sigma2_floor=1e-8,
        )
        assert predict_sigma2(model, np.array([1.0, 2.0])) == 1e-8
