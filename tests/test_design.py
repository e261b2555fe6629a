import numpy as np
import pytest

from seqdi.design import (
    PI_FLOOR,
    SecondStageDesign,
    _scale_clamp_rescale,
    equal_probabilities,
    optimal_probabilities,
    poisson_draw,
    pps_probabilities,
)
from seqdi.errors import EmptySample, Infeasible, InvalidParams, NonpositiveSize
from seqdi.numerics import RngStream
from seqdi.pilot import PilotVarianceModel, fit_pilot, predict_sigma2
from seqdi.population import generate_population


def model_with_sd(values):
    """Model whose predicted standard deviations on rows (1, v) equal v."""
    return PilotVarianceModel(
        beta=np.array([0.0, 1.0]), sigma2=1.0, gamma=2.0,
        mean_floor=1e-9, sigma2_floor=1e-30,
    ), np.column_stack([np.ones(len(values)), np.asarray(values, dtype=float)])


class TestOptimal:
    def test_constant_sd_gives_equal_design(self):
        model, x = model_with_sd([2.0] * 10)
        dsgn = optimal_probabilities(predict_sigma2(model, x), 4)
        np.testing.assert_allclose(dsgn.pi, 0.4, rtol=1e-12)

    def test_hand_scaling_with_unit_at_ceiling(self):
        model, x = model_with_sd([1.0, 2.0, 3.0])
        dsgn = optimal_probabilities(predict_sigma2(model, x), 2)
        np.testing.assert_allclose(dsgn.pi, [1.0 / 3.0, 2.0 / 3.0, 1.0], rtol=1e-12)

    def test_floor_binds_and_remainder_splits(self):
        model, x = model_with_sd([0.0001, 1.0, 1.0])
        dsgn = optimal_probabilities(predict_sigma2(model, x), 1)
        np.testing.assert_allclose(dsgn.pi, [0.01, 0.495, 0.495], rtol=1e-12)

    def test_infeasible_size(self):
        model, x = model_with_sd([1.0, 2.0])
        with pytest.raises(Infeasible):
            optimal_probabilities(predict_sigma2(model, x), 3)

    def test_floor_exceeds_size(self):
        model, x = model_with_sd([1.0] * 300)
        with pytest.raises(Infeasible):
            optimal_probabilities(predict_sigma2(model, x), 2)

    def test_scale_invariance_under_outcome_scaling(self):
        rng = np.random.default_rng(1)
        n = 600
        x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
        mu = x @ np.array([5.0, 4.0, 3.0])
        y = mu * np.exp(rng.normal(-0.05, 0.3, size=n))
        for c in (0.25, 8.0, 1024.0):
            d1 = optimal_probabilities(predict_sigma2(fit_pilot(x, y), x), 200)
            d2 = optimal_probabilities(predict_sigma2(fit_pilot(x, c * y), x), 200)
            np.testing.assert_allclose(d1.pi, d2.pi, rtol=1e-9)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
    def test_unusable_variance_rejected(self, bad):
        # a caller's own variances: the pilot fit refuses outcomes whose variances overflow
        sigma2 = np.array([1.0, 2.0, bad, 4.0])
        with pytest.raises(InvalidParams, match="1 of 4 predicted variances are not finite"):
            optimal_probabilities(sigma2, 2)


class TestSecondStageDesign:
    @pytest.mark.parametrize("kind", ["optimal", "equal", "pps"])
    @pytest.mark.parametrize("bad", [np.nan, 0.0, 1.5])
    def test_probability_outside_range_rejected(self, kind, bad):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            SecondStageDesign(indices=np.arange(3), pi=[0.5, bad, 0.5], kind=kind)

    @pytest.mark.parametrize("kind", ["optimal", "equal"])
    def test_probability_below_floor_rejected(self, kind):
        with pytest.raises(ValueError, match="floor"):
            SecondStageDesign(indices=np.arange(2), pi=[0.5, 0.005], kind=kind)
        SecondStageDesign(indices=np.arange(2), pi=[0.5, 0.005], kind="pps")


class TestEqual:
    def test_definition(self):
        dsgn = equal_probabilities(10, 4)
        np.testing.assert_allclose(dsgn.pi, 0.4)

    def test_census(self):
        dsgn = equal_probabilities(5, 5)
        np.testing.assert_allclose(dsgn.pi, 1.0)

    def test_below_floor_infeasible(self):
        with pytest.raises(Infeasible):
            equal_probabilities(1000, 5)


class TestPps:
    def test_equal_sizes_degenerate(self):
        dsgn = pps_probabilities(np.full(8, 3.7), 2)
        np.testing.assert_allclose(dsgn.pi, 0.25, rtol=1e-12)

    def test_hand_scaling(self):
        dsgn = pps_probabilities(np.array([1.0, 3.0]), 1)
        np.testing.assert_allclose(dsgn.pi, [0.25, 0.75], rtol=1e-12)

    def test_zero_size_rejected(self):
        with pytest.raises(NonpositiveSize):
            pps_probabilities(np.array([1.0, 0.0, 2.0]), 1)


class TestClampProperties:
    def test_optimal_bounds_and_expected_size_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n1 = int(rng.integers(3, 60))
            sd = rng.uniform(0.001, 10.0, size=n1)
            n_p = int(rng.integers(1, n1 + 1))
            model, x = model_with_sd(sd)
            dsgn = optimal_probabilities(predict_sigma2(model, x), n_p)
            assert np.all(dsgn.pi >= PI_FLOOR - 1e-12)
            assert np.all(dsgn.pi <= 1.0 + 1e-12)
            interior = (dsgn.pi > PI_FLOOR + 1e-12) & (dsgn.pi < 1.0 - 1e-12)
            if interior.all():
                assert abs(dsgn.pi.sum() - n_p) <= 1e-6 * n_p

    def test_pps_keeps_small_probabilities(self):
        sizes = np.array([1e-4, 1.0, 1.0])
        dsgn = pps_probabilities(sizes, 1)
        assert dsgn.pi[0] < PI_FLOOR
        assert dsgn.pi.sum() == pytest.approx(1.0, rel=1e-12)

    def test_pps_bounds_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n1 = int(rng.integers(2, 60))
            raw = rng.lognormal(0.0, 2.0, size=n1)
            n_p = int(rng.integers(1, n1 + 1))
            dsgn = pps_probabilities(raw, n_p)
            assert np.all(dsgn.pi > 0.0)
            assert np.all(dsgn.pi <= 1.0 + 1e-12)
            if np.all(dsgn.pi < 1.0 - 1e-12):
                assert abs(dsgn.pi.sum() - n_p) <= 1e-6 * n_p

    def test_ceiling_and_floor_in_one_pass_keep_expected_size(self):
        # a ceiling and a floor clamp at the same scale must still spend the
        # whole expected size, here on the eight units left free
        raw = np.array([1000.0, 100.0] + [1.0] * 8)
        for n_p, rest in ((3, 0.125), (8, 0.75)):
            pi = _scale_clamp_rescale(raw, n_p, PI_FLOOR)
            np.testing.assert_allclose(pi, [1.0, 1.0] + [rest] * 8, rtol=1e-12)
            assert pi.sum() == pytest.approx(n_p, rel=1e-12)

    def test_sum_preserved_when_feasible_with_bounds(self):
        dsgn = pps_probabilities(np.array([100.0, 1.0, 1.0, 1.0]), 2)
        assert dsgn.pi[0] == 1.0
        assert dsgn.pi.sum() == pytest.approx(2.0, rel=1e-12)


class TestPoissonDraw:
    def test_census_always_full(self):
        dsgn = equal_probabilities(6, 6)
        for r in range(25):
            draw = poisson_draw(dsgn, RngStream(3, r))
            assert draw.size == 6

    def test_empty_sample_frequency_at_floor(self):
        # three units at the pi floor of 0.01
        tiny = SecondStageDesign(
            indices=np.arange(3), pi=np.full(3, 0.01), kind="equal"
        )
        empties = 0
        draws = 4000
        for r in range(draws):
            try:
                poisson_draw(tiny, RngStream(4, r))
            except EmptySample:
                empties += 1
        expected = 0.99**3
        se = np.sqrt(expected * (1 - expected) / draws)
        assert abs(empties / draws - expected) <= 4 * se

    def test_mean_realized_size(self):
        rng = np.random.default_rng(5)
        raw = rng.lognormal(size=607)
        dsgn = pps_probabilities(raw, 242)
        sizes = [poisson_draw(dsgn, RngStream(6, r)).size for r in range(10_000)]
        tol = 3.0 * np.sqrt(np.sum(dsgn.pi * (1 - dsgn.pi))) / 100.0
        assert abs(np.mean(sizes) - dsgn.pi.sum()) <= tol

    def test_members_subset_and_pi_recorded(self):
        model, x = model_with_sd(np.linspace(1, 4, 30))
        dsgn = optimal_probabilities(predict_sigma2(model, x), 10, indices=np.arange(100, 130))
        draw = poisson_draw(dsgn, RngStream(7, 0))
        assert set(draw.members).issubset(set(dsgn.indices))
        lookup = dict(zip(dsgn.indices, dsgn.pi))
        np.testing.assert_allclose(draw.pi_realized, [lookup[m] for m in draw.members])
        assert draw.members.tobytes() == dsgn.indices[draw.positions].tobytes()
        assert draw.pi_realized.tobytes() == dsgn.pi[draw.positions].tobytes()


class TestExpectedSizeProperty:
    def test_large_mc_expected_size(self):
        pop = generate_population(
            {"N": 400, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}, RngStream(8, 0)
        )
        model = fit_pilot(pop.x, pop.y)
        dsgn = optimal_probabilities(predict_sigma2(model, pop.x), 150)
        m = 100_000
        gen = RngStream(9, 0)
        count = 0.0
        for _ in range(200):
            count += np.sum(gen.uniform(size=(m // 200, len(dsgn.pi))) < dsgn.pi)
        mean_size = count / m
        tol = 4.0 * np.sqrt(np.sum(dsgn.pi * (1 - dsgn.pi)) / m)
        assert abs(mean_size - dsgn.pi.sum()) <= tol
