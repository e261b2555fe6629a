import csv
import math

import numpy as np
import pytest

from seqdi.errors import (
    DegeneratePartition,
    InvalidParams,
    MissingColumn,
    OutOfBracket,
    ParseError,
)
from seqdi.numerics import RngStream, weighted_ls
from seqdi.population import (
    Partition,
    Population,
    SelectionMechanism,
    calibrate_intercept,
    draw_nonprob,
    generate_population,
    load_population_csv,
    load_sample_csv,
    save_population_csv,
    write_csv,
)

LOGNORMAL_PARAMS = {"N": 100_000, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}


def mu_of(pop):
    x1, x2 = pop.x[:, 1], pop.x[:, 2]
    return 10.0 + 15.0 * x1 + 10.0 * x2 + 20.0 * x1 * x2


class TestGeneratePopulation:
    def test_degenerate_sigma_limit(self):
        params = dict(LOGNORMAL_PARAMS, N=5000, sigma=1e-8)
        pop = generate_population(params, RngStream(1, 0))
        ratio = pop.y / mu_of(pop)
        assert np.mean(ratio) == pytest.approx(1.0, abs=1e-4)

    def test_mean_ratio_one(self):
        pop = generate_population(LOGNORMAL_PARAMS, RngStream(2, 0))
        assert np.mean(pop.y / mu_of(pop)) == pytest.approx(1.0, abs=0.01)

    def test_relative_variance_matches_lognormal(self):
        pop = generate_population(LOGNORMAL_PARAMS, RngStream(3, 0))
        ratio = pop.y / mu_of(pop)
        assert np.var(ratio) == pytest.approx(math.exp(0.36) - 1.0, abs=0.05)

    def test_true_total_consistency(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=500), RngStream(4, 0))
        assert pop.true_total == pytest.approx(float(np.sum(pop.y)), rel=1e-9)

    def test_negative_mean_rejected(self):
        params = {"N": 100, "beta": (-5.0, 0.0, 0.0, 0.0), "sigma": 0.5}
        with pytest.raises(InvalidParams):
            generate_population(params, RngStream(5, 0))

    def test_small_n_rejected(self):
        with pytest.raises(InvalidParams):
            generate_population(dict(LOGNORMAL_PARAMS, N=5), RngStream(6, 0))


class TestCalibrateIntercept:
    def test_flat_slopes_half(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=2000), RngStream(7, 0))
        mech = SelectionMechanism("MAR", (0.0, 0.0), 0.5)
        assert calibrate_intercept(mech, pop) == pytest.approx(0.0, abs=1e-9)

    def test_flat_slopes_closed_form(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=2000), RngStream(8, 0))
        mech = SelectionMechanism("MAR", (0.0, 0.0), 0.7)
        assert calibrate_intercept(mech, pop) == pytest.approx(math.log(7.0 / 3.0), abs=1e-9)

    def test_calibrated_slopes_hit_target_rate(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=10_000), RngStream(9, 0))
        mech = SelectionMechanism("MAR", (2.0, -2.0), 0.7)
        mech.intercept = calibrate_intercept(mech, pop)
        rates = []
        for r in range(40):
            part = draw_nonprob(pop, mech, RngStream(10, r))
            rates.append(part.n_certainty / pop.size)
        assert np.mean(rates) == pytest.approx(0.70, abs=0.01)

    def test_monotone_in_target(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=2000), RngStream(11, 0))
        values = []
        for f in (0.2, 0.4, 0.6, 0.8):
            mech = SelectionMechanism("MAR", (2.0, -2.0), f)
            values.append(calibrate_intercept(mech, pop))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_deterministic(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=2000), RngStream(12, 0))
        mech = SelectionMechanism("NMAR", (2.0, -2.0, 0.5), 0.7)
        assert calibrate_intercept(mech, pop) == calibrate_intercept(mech, pop)

    def test_out_of_bracket(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=500), RngStream(13, 0))
        mech = SelectionMechanism("MAR", (0.0, 0.0), 1e-30)
        with pytest.raises(OutOfBracket):
            calibrate_intercept(mech, pop)


class TestDrawNonprob:
    def test_probabilities_kept_per_population_and_parameters(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=500), RngStream(20, 0))
        other = generate_population(dict(LOGNORMAL_PARAMS, N=500), RngStream(21, 0))
        mech = SelectionMechanism("NMAR", [2.0, -2.0, 0.5], 0.7, intercept=-1.0)
        first = mech.probabilities(pop)
        assert mech.probabilities(pop) is first and not first.flags.writeable
        fresh = SelectionMechanism("NMAR", [2.0, -2.0, 0.5], 0.7, intercept=-1.0)
        assert first.tobytes() == fresh.probabilities(pop).tobytes()
        assert mech.probabilities(other).tobytes() == fresh.probabilities(other).tobytes()
        mech.slopes[2] = 0.0  # changed in place
        mech.intercept = 0.0
        changed = SelectionMechanism("NMAR", [2.0, -2.0, 0.0], 0.7, intercept=0.0)
        assert mech.probabilities(pop).tobytes() == changed.probabilities(pop).tobytes()
        assert mech.probabilities(pop).tobytes() != first.tobytes()

    def test_stratum_indices_kept_read_only(self):
        part = Partition(delta=np.array([1, 0, 1, 0, 0]))
        assert part.certainty_idx is part.certainty_idx
        assert part.complement_idx is part.complement_idx
        assert (part.certainty_idx.tolist(), part.complement_idx.tolist()) == ([0, 2], [1, 3, 4])
        assert not (part.certainty_idx.flags.writeable or part.complement_idx.flags.writeable)

    def test_degenerate_partition(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=50), RngStream(14, 0))
        mech = SelectionMechanism("MAR", (0.0, 0.0), 0.5, intercept=40.0)
        with pytest.raises(DegeneratePartition):
            draw_nonprob(pop, mech, RngStream(15, 0))

    def test_binomial_concentration(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=10_000), RngStream(16, 0))
        mech = SelectionMechanism("MAR", (0.0, 0.0), 0.7)
        mech.intercept = calibrate_intercept(mech, pop)
        part = draw_nonprob(pop, mech, RngStream(17, 0))
        assert abs(part.n_certainty - 7000) <= 150

    def test_partition_sizes_sum(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=3000), RngStream(18, 0))
        mech = SelectionMechanism("MAR", (2.0, -2.0), 0.7)
        mech.intercept = calibrate_intercept(mech, pop)
        for r in range(20):
            part = draw_nonprob(pop, mech, RngStream(19, r))
            assert part.n_certainty + part.n_complement == pop.size

    def test_nmar_selects_high_outcomes(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=10_000), RngStream(20, 0))
        mech = SelectionMechanism("NMAR", (2.0, -2.0, 0.5), 0.7)
        mech.intercept = calibrate_intercept(mech, pop)
        wins = 0
        draws = 200
        for r in range(draws):
            part = draw_nonprob(pop, mech, RngStream(21, r))
            if pop.y[part.certainty_idx].mean() > pop.y[part.complement_idx].mean():
                wins += 1
        assert wins >= 0.99 * draws

    def test_mar_independent_of_outcome_given_covariates(self):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=8000), RngStream(22, 0))
        mech = SelectionMechanism("MAR", (2.0, -2.0), 0.7)
        mech.intercept = calibrate_intercept(mech, pop)
        z = np.column_stack([pop.x, np.log1p(pop.y)])
        slopes = []
        for r in range(60):
            part = draw_nonprob(pop, mech, RngStream(23, r))
            beta = weighted_ls(z, part.delta.astype(float), np.ones(pop.size))
            slopes.append(beta[-1])
        mc_se = np.std(slopes, ddof=1) / math.sqrt(len(slopes))
        assert abs(np.mean(slopes)) < 3.0 * mc_se

    def test_nmar_negative_y_rejected(self):
        pop = Population(
            x=np.column_stack([np.ones(20), np.linspace(0, 1, 20), np.linspace(1, 0, 20)]),
            y=np.linspace(-1.0, 1.0, 20),
        )
        mech = SelectionMechanism("NMAR", (1.0, 1.0, 1.0), 0.5, intercept=0.0)
        with pytest.raises(InvalidParams):
            mech.probabilities(pop)


class TestCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,x1,y,delta\n1,0.5,2,1\n2,0.3,1,0\n3,0.9,4,0\n")
        data = load_population_csv(path)
        assert data.population.size == 3
        assert data.partition.n_certainty == 1
        assert data.partition.n_complement == 2
        np.testing.assert_allclose(data.population.x[:, 1], [0.5, 0.3, 0.9])

    def test_parse_error_row_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x1,y\n1,0.5,2\n2,0.3,abc\n3,0.9,4\n")
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert err.value.row == 2
        assert err.value.column == "y"

    def test_no_delta_column(self, tmp_path):
        path = tmp_path / "nodelta.csv"
        path.write_text("id,x1,y\n1,0.5,2\n2,0.3,1\n")
        data = load_population_csv(path)
        assert data.partition is None

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "noy.csv"
        path.write_text("id,x1\n1,0.5\n")
        with pytest.raises(MissingColumn):
            load_population_csv(path)

    def test_pi_column(self, tmp_path):
        # a population file's pi column is an extra column like any other: not read
        (tmp_path / "plain.csv").write_text("id,x1,y\n1,0.5,2\n2,0.3,1\n")
        (tmp_path / "pi.csv").write_text("id,x1,y,pi\n1,0.5,2,0.25\n2,0.3,1,7\n")
        plain, with_pi = (load_population_csv(tmp_path / f) for f in ("plain.csv", "pi.csv"))
        assert np.array_equal(with_pi.population.x, plain.population.x)
        assert np.array_equal(with_pi.population.y, plain.population.y)

    @pytest.mark.parametrize("pi", ["0", "1.5", "-0.2"])
    def test_pi_outside_unit_interval_names_row(self, tmp_path, pi):
        path = tmp_path / "sample.csv"
        path.write_text(f"id,pi\n1,0.25\n2,{pi}\n")
        with pytest.raises(ParseError) as err:
            load_sample_csv(path)
        assert (err.value.row, err.value.column) == (2, "pi")

    @pytest.mark.parametrize("pi", ["7.45e-155", "1e-160", "1e-200", "5e-324"])
    def test_pi_whose_inverse_square_overflows_names_row(self, tmp_path, pi):
        # the plug-in variance scales by 1/pi^2: a pi that overflows it is refused
        path = tmp_path / "sample.csv"
        path.write_text(f"id,pi\n1,0.25\n2,{pi}\n")
        with pytest.raises(ParseError, match="1/pi\\^2 overflows") as err:
            load_sample_csv(path)
        assert (err.value.row, err.value.column) == (2, "pi")

    def test_smallest_pi_with_a_finite_inverse_square_is_read(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("id,pi\n1,7.5e-155\n")
        assert load_sample_csv(path)[1].tolist() == [7.5e-155]

    def test_repeated_id_names_both_rows(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,x1,y\n1,0.5,2\n2,0.3,1\n2,0.9,4\n")
        with pytest.raises(ParseError, match="id '2' repeated in rows 2 and 3"):
            load_population_csv(path)

    @pytest.mark.parametrize("prefix", ["# written by hand\n#\n", "\ufeff", "\ufeff# bom\n"])
    def test_comments_and_bom_above_header(self, tmp_path, prefix):
        text = "id,x1,y,delta,pi\na,0.5,2,1,0.5\nb,0.3,1,0,0.25\n"
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "prefixed.csv").write_text(prefix + text, encoding="utf-8")
        plain = load_population_csv(tmp_path / "plain.csv")
        prefixed = load_population_csv(tmp_path / "prefixed.csv")
        assert prefixed.ids == plain.ids == {"a": 0, "b": 1}
        assert np.array_equal(prefixed.population.x, plain.population.x)
        assert np.array_equal(prefixed.population.y, plain.population.y)
        assert np.array_equal(prefixed.partition.delta, plain.partition.delta)

    @pytest.mark.parametrize("body, column", [("2,0.3,1,7\n", None), ("2,0.3\n", "y"),
                                              ("2,,1\n", "x1")])
    def test_extra_or_missing_cell_names_row(self, tmp_path, body, column):
        path = tmp_path / "cells.csv"
        path.write_text("id,x1,y\n1,0.5,2\n" + body)
        with pytest.raises(ParseError) as err:
            load_population_csv(path)
        assert (err.value.row, err.value.column) == (2, column)

    def test_round_trip_exact(self, tmp_path):
        pop = generate_population(dict(LOGNORMAL_PARAMS, N=200), RngStream(24, 0))
        part = Partition(delta=(RngStream(25, 0).uniform(size=200) < 0.5))
        path = tmp_path / "rt.csv"
        save_population_csv(path, pop, partition=part)
        data = load_population_csv(path)
        assert np.array_equal(data.population.x, pop.x)
        assert np.array_equal(data.population.y, pop.y)
        assert np.array_equal(data.partition.delta, part.delta)

    def test_write_read_cells(self, tmp_path):
        floats = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 0.1,
                  1.0 / 3.0, np.float64(2.5e-310), np.float64(-7.25)]
        path = tmp_path / "cells.csv"
        write_csv(path, ["value", "absent", "count", "name"],
                  [floats, [None] * len(floats), range(len(floats)),
                   [f"unit {i}" for i in range(len(floats))]], seed=3)
        assert path.read_text().startswith("# seed=3\n")
        with open(path, newline="", encoding="utf-8") as handle:
            next(handle)  # the "# seed=3" line
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(floats)
        for i, (value, row) in enumerate(zip(floats, rows)):
            back = float(row["value"])
            assert back == value and math.copysign(1.0, back) == math.copysign(1.0, value)
            assert (row["absent"], row["count"], row["name"]) == ("", str(i), f"unit {i}")
