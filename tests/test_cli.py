import json
import math

import numpy as np
import pytest

from seqdi import estimators as est
from seqdi import homogeneity, numerics
from seqdi.cli import main
from seqdi.errors import ConfigError
from seqdi.harness import McConfig, StratumInputs
from seqdi.homogeneity import fgls_p, homogeneity_test
from seqdi.numerics import RngStream
from seqdi.pilot import fit_pilot, predict_sigma2
from seqdi.population import (
    Partition,
    generate_population,
    load_population_csv,
    save_population_csv,
    write_csv,
)
from test_homogeneity import certainty_fgls

POP_PARAMS = {"N": 600, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}


@pytest.fixture
def pop_csv(tmp_path):
    pop = generate_population(POP_PARAMS, RngStream(1, 0))
    delta = (RngStream(2, 0).uniform(size=600) < 0.6).astype(int)
    path = tmp_path / "pop.csv"
    save_population_csv(path, pop, partition=Partition(delta=delta))
    return path, pop, delta


@pytest.fixture
def config_path(tmp_path):
    config = {
        "replications": 12,
        "seed": 321,
        "mechanism": "MAR",
        "population": {"N": 400, "beta": [10, 15, 10, 20], "sigma": 0.6},
        "designs": ["optimal"],
        "estimators": ["DI", "sepDI_b"],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestHelp:
    @pytest.mark.parametrize("cmd", ["simulate", "design", "estimate", "test"])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as err:
            main([cmd, "--help"])
        assert err.value.code == 0
        assert "--" in capsys.readouterr().out


class TestSimulate:
    def test_runs_and_writes(self, config_path, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        assert (out / "test_summary.csv").exists()
        assert (out / "replication_errors.csv").exists()
        assert (out / "run_metadata.json").exists()
        assert "Estimator" in capsys.readouterr().out

    def test_byte_identical_reruns(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", str(config_path), "--out", str(out1)])
        main(["simulate", "--config", str(config_path), "--out", str(out2)])
        for name in ("summary.csv", "test_summary.csv", "replication_errors.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_replications_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 0,
                                    "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "replications" in capsys.readouterr().err

    def test_repeated_estimator_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "estimators": ["DI", "DI"],
                                    "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "duplicates" in capsys.readouterr().err

    @pytest.mark.parametrize("config_seed, flag", [(-1, []), (5, ["--seed", "-3"])])
    def test_negative_seed_exit_two(self, tmp_path, capsys, config_seed, flag):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "seed": config_seed,
                                    "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")] + flag)
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("mechanism, slopes", [("MAR", ["a", "b"]), ("MAR", [1]),
                                                   ("NMAR", [1, 2]), ("NMAR", [1, True, 2]),
                                                   ("MAR", [math.nan, -2.0]),
                                                   ("NMAR", [2.0, -2.0, math.inf])])
    def test_bad_slopes_exit_two(self, tmp_path, capsys, mechanism, slopes):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "mechanism": mechanism, "slopes": slopes,
                                    "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "slopes" in capsys.readouterr().err

    def test_fixed_partition_slopes_exit_two(self, pop_csv, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "mechanism": "FixedPartition",
                                    "population_csv": str(pop_csv[0]), "slopes": [9, 9]}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'slopes'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fixed_partition_frame_tag_exit_two(self, pop_csv, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "mechanism": "FixedPartition",
                                    "population_csv": str(pop_csv[0]),
                                    "estimators": ["DI", "DR", "GREG"]}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: FixedPartition reports sequential estimators only, not 'DR'\n")
        assert not (tmp_path / "o").exists()

    def test_population_csv_and_block_exit_two(self, pop_csv, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "population_csv": str(pop_csv[0]),
                                    "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        message = capsys.readouterr().err
        assert "population_csv" in message and "'population'" in message
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n_p", [0, -2])
    def test_n_p_below_one_exit_two(self, tmp_path, capsys, n_p):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "n_p": n_p, "estimators": ["DI"],
                                    "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}}))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "n_p" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 5, "reps": 2}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "reps" in capsys.readouterr().err

    def test_level_unknown_key(self, tmp_path, capsys):
        # Coverage always counts the 95% intervals that every Estimate reports
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "level": 0.9, "estimators": ["DI"],
                                    "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'level'\n"
        assert not (tmp_path / "o").exists()

    def test_fgls_iterations_unknown_key(self, tmp_path, capsys):
        # every fit takes one FGLS step; no key or argument sets a step count
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "fgls_iterations": 2, "estimators": ["DI"],
                                    "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'fgls_iterations'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, kind", [
        ("seed", 1.5, "an integer"), ("replications", True, "an integer"),
        ("replications", 2.5, "an integer"), ("n_p", 1.5, "an integer"),
        ("designs", "optimal", "an array"),
    ])
    def test_library_refuses_with_cli_message(self, tmp_path, capsys, key, value, kind):
        config = {"replications": 3, "estimators": ["DI"],
                  "population": {"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}, key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        kwargs = dict(config, population_params=config.pop("population"))
        with pytest.raises(ConfigError) as err:
            McConfig(**kwargs)
        assert str(err.value) == f"config key {key!r} must be {kind}"
        assert capsys.readouterr().err == f"config error: {err.value}\n"

    @pytest.mark.parametrize("block, message", [({"N": 5}, "N must be at least 10"),
                                                ({"sigma": -0.5}, "sigma must be positive")])
    def test_population_value_exit_two(self, tmp_path, capsys, block, message):
        population = dict({"N": 100, "beta": [1, 1, 1, 0], "sigma": 0.5}, **block)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": 3, "estimators": ["DI"],
                                    "population": population}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: config key 'population': {message}\n"
        assert not (tmp_path / "o").exists()

    def test_wrong_type_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"replications": "many"}))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        message = capsys.readouterr().err
        assert "replications" in message and "integer" in message


class TestDesign:
    def test_constant_pi_for_homoscedastic_pilot(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        n = 400
        x1 = rng.uniform(1.0, 1.00001, size=n)  # essentially constant means
        y = 5.0 + x1 + rng.normal(0, 0.1, size=n)
        from seqdi.population import Population

        pop = Population(x=np.column_stack([np.ones(n), x1]), y=y)
        delta = np.zeros(n, dtype=int)
        delta[:300] = 1
        path = tmp_path / "pop.csv"
        save_population_csv(path, pop, partition=Partition(delta=delta))
        out = tmp_path / "design.csv"
        assert main(["design", "--pop", str(path), "--np", "40",
                     "--kind", "optimal", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        pis = np.array([float(r[1]) for r in rows])
        assert np.allclose(pis, pis[0], rtol=1e-3)

    def test_turnover_shape_sums_to_target(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 2839
        x1 = rng.lognormal(3.0, 1.0, size=n)
        y = 2.0 * x1 * np.exp(rng.normal(-0.02, 0.2, size=n))
        from seqdi.population import Population

        pop = Population(x=np.column_stack([np.ones(n), x1]), y=y)
        delta = np.zeros(n, dtype=int)
        delta[: n - 607] = 1
        path = tmp_path / "pop.csv"
        save_population_csv(path, pop, partition=Partition(delta=delta))
        out = tmp_path / "design.csv"
        assert main(["design", "--pop", str(path), "--np", "242",
                     "--kind", "optimal", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 607
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(242.0, abs=1e-6 * 242)

    def test_optimal_matches_harness_design(self, pop_csv, tmp_path):
        # seqdi design and a FixedPartition run on the same file build the
        # optimal design from the same pilot variances, bit for bit
        path, _, _ = pop_csv
        n_p = 90
        out = tmp_path / "design.csv"
        assert main(["design", "--pop", str(path), "--np", str(n_p),
                     "--kind", "optimal", "--out", str(out)]) == 0
        pi = np.array([float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]])
        data = load_population_csv(path)
        config = McConfig(replications=1, mechanism="FixedPartition", population_csv=str(path),
                          designs=("optimal",), n_p=n_p)
        inputs = StratumInputs(data.population, data.require_partition(), True, False, config)
        assert pi.tobytes() == inputs.designs["optimal"].pi.tobytes()

    def test_pps_without_size_covariate_exit_one(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text("id,y,delta\n1,10,1\n2,2,0\n3,4,0\n")
        code = main(["design", "--pop", str(tmp_path / "pop.csv"), "--np", "1",
                     "--kind", "pps", "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "x1" in capsys.readouterr().err

    def test_infeasible_size_exit_one(self, pop_csv, tmp_path, capsys):
        path, pop, delta = pop_csv
        n1 = int((delta == 0).sum())
        code = main(["design", "--pop", str(path), "--np", str(n1 + 50),
                     "--kind", "equal", "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err


def _strata_and_sample(pop_path, delta):
    """The loaded population, its certainty rows and x total of the complement,
    and every third complement unit as a sample with unequal pi."""
    pop = load_population_csv(pop_path).population
    s_np, u1 = np.flatnonzero(delta == 1), np.flatnonzero(delta == 0)
    rows = u1[::3]
    pi_s = 0.2 + 0.6 * (rows % 7) / 6.0
    x_np, y_np = pop.rows(s_np), pop.y[s_np]
    return pop, x_np, y_np, pop.x_total - x_np.sum(axis=0), rows, pi_s


class TestEstimate:
    def _write_sample(self, tmp_path, ids, pis):
        lines = ["id,pi"] + [f"{i},{p}" for i, p in zip(ids, pis)]
        path = tmp_path / "sample.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("weights", [None, "b", "sigma"])
    @pytest.mark.parametrize("names", ["di", "ht", "sep", "com", None])
    def test_rows_match_direct_calls(self, pop_csv, tmp_path, names, weights):
        # None leaves the flag out: all four names, inverse-pi weights
        path, _, delta = pop_csv
        pop, x_np, y_np, x_total_u1, rows, pi_s = _strata_and_sample(path, delta)
        sample = tmp_path / "sample.csv"
        write_csv(sample, ["id", "pi"], [rows + 1, pi_s])
        y_s, x_s = pop.y[rows], pop.rows(rows)
        pilot = fit_pilot(x_np, y_np)
        wspec = est.WeightSpec("inverse_pi_sigma" if weights == "sigma" else "inverse_pi")
        # the smallest certainty block and variances predicted from the rows,
        # where the CLI sizes its block to the frame and gathers sigma2_u1
        arm = est.Arm.of(y_s, x_s, pi_s, predict_sigma2(pilot, x_s))
        block = est.certainty_block(x_np, y_np, wspec, predict_sigma2(pilot, x_np),
                                    len(y_np) + arm.size)
        y_total, n1 = float(y_np.sum()), len(pop.y) - len(y_np)
        direct = {
            "di": lambda: est.y_di(arm, y_total, n1),
            "ht": lambda: est.y_ht_seq(arm, y_total),
            "sep": lambda: est.y_sep_di(arm, y_total, x_total_u1, wspec),
            "com": lambda: est.y_com_di(arm, y_total, block, x_total_u1),
        }
        wanted = names.split(",") if names else list(direct)
        expected = tmp_path / "expected.csv"
        write_csv(expected, ["tag", "point", "variance", "ci_low", "ci_high"],
                  list(zip(*(direct[name]().to_csv_row() for name in wanted))))
        out = tmp_path / "est.csv"
        argv = ["estimate", "--pop", str(path), "--sample", str(sample), "--out", str(out)]
        argv += ["--estimators", names] if names else []
        argv += ["--weights", weights] if weights else []
        assert main(argv) == 0
        assert out.read_bytes() == expected.read_bytes()

    def test_census_sample_recovers_total(self, pop_csv, tmp_path, capsys):
        path, pop, delta = pop_csv
        u1_ids = [str(i + 1) for i in np.flatnonzero(delta == 0)]
        sample = self._write_sample(tmp_path, u1_ids, [1.0] * len(u1_ids))
        assert main(["estimate", "--pop", str(path), "--sample", str(sample),
                     "--estimators", "di,ht"]) == 0
        out = capsys.readouterr().out
        point = float(out.splitlines()[0].split("point=")[1].split()[0])
        assert point == pytest.approx(pop.true_total, rel=1e-6)

    def test_worked_hajek_example(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text(
            "id,x1,y,delta\n1,0.5,10,1\n2,0.4,2,0\n3,0.8,4,0\n"
        )
        (tmp_path / "sample.csv").write_text("id,pi\n2,0.5\n")
        assert main(["estimate", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv"),
                     "--estimators", "di"]) == 0
        out = capsys.readouterr().out
        assert "point=14" in out

    def test_unknown_estimator_exit_two(self, pop_csv, tmp_path, capsys):
        path, pop, delta = pop_csv
        sample = self._write_sample(tmp_path, ["1"], [0.5])
        code = main(["estimate", "--pop", str(path), "--sample", str(sample),
                     "--estimators", "di,bogus"])
        assert code == 2

    @pytest.mark.parametrize("names", ["", " , ", "di,di", "di,ht,di"])
    def test_empty_or_repeated_estimators_exit_two(self, pop_csv, tmp_path, capsys, names):
        path, pop, delta = pop_csv
        u1_ids = [str(i + 1) for i in np.flatnonzero(delta == 0)][:50]
        sample = self._write_sample(tmp_path, u1_ids, [0.5] * 50)
        out = tmp_path / "est.csv"
        code = main(["estimate", "--pop", str(path), "--sample", str(sample),
                     "--estimators", names, "--out", str(out)])
        assert code == 2
        assert "nonempty list without duplicates" in capsys.readouterr().err
        assert not out.exists()

    def test_id_mismatch_exit_one(self, pop_csv, tmp_path, capsys):
        path, pop, delta = pop_csv
        certainty_id = str(int(np.flatnonzero(delta == 1)[0]) + 1)
        sample = self._write_sample(tmp_path, [certainty_id], [0.5])
        code = main(["estimate", "--pop", str(path), "--sample", str(sample),
                     "--estimators", "di"])
        assert code == 1

    @pytest.mark.parametrize("pi", ["0", "7", "abc"])
    def test_bad_pi_names_row_exit_one(self, pop_csv, tmp_path, capsys, pi):
        path, pop, delta = pop_csv
        u1_ids = [str(i + 1) for i in np.flatnonzero(delta == 0)][:2]
        sample = self._write_sample(tmp_path, u1_ids, ["0.5", pi])
        code = main(["estimate", "--pop", str(path), "--sample", str(sample)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 2" in err and "pi" in err

    def test_repeated_id_named_exit_one(self, pop_csv, tmp_path, capsys):
        path, pop, delta = pop_csv
        uid = str(int(np.flatnonzero(delta == 0)[0]) + 1)
        sample = self._write_sample(tmp_path, [uid, uid], [0.5, 0.5])
        code = main(["estimate", "--pop", str(path), "--sample", str(sample)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(uid) in err

    def test_population_repeated_id_exit_one(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text(
            "id,x1,y,delta\n1,0.5,10,1\n2,0.4,2,0\n2,0.8,400,0\n"
        )
        (tmp_path / "sample.csv").write_text("id,pi\n2,0.5\n")
        code = main(["estimate", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv"), "--estimators", "di"])
        assert code == 1
        captured = capsys.readouterr()
        assert "point=" not in captured.out
        assert captured.err.startswith("error:") and "'2' repeated in rows 2 and 3" in captured.err

    @pytest.mark.parametrize("pop_text, sample_text, what, column", [
        ("id,x1,x2,y,delta,y\n1,0.5,0.2,10,1,20\n2,0.4,0.1,2,0,4\n3,0.8,0.3,4,0,8\n",
         "id,pi\n2,0.5\n", "population", "y"),
        ("id,x1,x1,y,delta\n1,0.5,0.2,10,1\n2,0.4,0.1,2,0\n3,0.8,0.3,4,0\n",
         "id,pi\n2,0.5\n", "population", "x1"),
        ("id,x1,x2,y,delta\n1,0.5,0.2,10,1\n2,0.4,0.1,2,0\n3,0.8,0.3,4,0\n",
         "id,pi,pi\n2,0.5,0.25\n", "sample", "pi"),
    ], ids=["population-y", "population-x1", "sample-pi"])
    def test_column_named_twice_exit_one(self, tmp_path, capsys, pop_text, sample_text,
                                         what, column):
        (tmp_path / "pop.csv").write_text(pop_text)
        (tmp_path / "sample.csv").write_text(sample_text)
        code = main(["estimate", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv"), "--estimators", "ht"])
        assert code == 1
        captured = capsys.readouterr()
        assert "point=" not in captured.out
        assert captured.err == f"error: {what} file names column '{column}' twice\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_value_names_row_exit_one(self, tmp_path, capsys, value):
        (tmp_path / "pop.csv").write_text(
            "id,x1,y,delta\n1,0.5,10,1\n2,0.4,2,0\n3,0.8,4,0\n"
        )
        (tmp_path / "sample.csv").write_text(f"id,pi,y\n3,0.5,4\n2,0.5,{value}\n")
        code = main(["estimate", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv"), "--estimators", "di"])
        assert code == 1
        captured = capsys.readouterr()
        assert "point=" not in captured.out
        assert captured.err.startswith("error:")
        assert "row 2" in captured.err and "'y'" in captured.err

    def test_non_finite_population_value_names_row_exit_one(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text(
            "id,x1,y,delta\n1,0.5,10,1\n2,0.4,inf,0\n3,0.8,4,0\n"
        )
        (tmp_path / "sample.csv").write_text("id,pi\n2,0.5\n")
        code = main(["estimate", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv"), "--estimators", "di"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 2" in err and "'y'" in err

    def test_missing_delta_column_exit_one(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text("id,x1,y\n1,0.5,10\n2,0.4,2\n")
        (tmp_path / "sample.csv").write_text("id,pi\n2,0.5\n")
        code = main(["estimate", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "delta" in err

    def test_comment_lines_only_above_header(self, tmp_path, capsys):
        # a '#' line below the header is a data row, here the unit with id '#2'
        (tmp_path / "pop.csv").write_text(
            "id,x1,y,delta\n1,0.5,10,1\n3,0.4,2,0\n#2,0.8,4,0\n"
        )
        (tmp_path / "sample.csv").write_text("# seed=7\n# design\nid,pi\n3,0.5\n#2,0.5\n")
        assert main(["estimate", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv"), "--estimators", "ht"]) == 0
        assert "HT_seq: point=22 " in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["id,pi\n", "# seed=7\nid,pi,y\n\n"])
    def test_header_only_sample_exit_one(self, pop_csv, tmp_path, capsys, text):
        (tmp_path / "sample.csv").write_text(text)
        code = main(["estimate", "--pop", str(pop_csv[0]), "--sample",
                     str(tmp_path / "sample.csv"), "--estimators", "ht"])
        assert code == 1
        captured = capsys.readouterr()
        assert "point=" not in captured.out
        assert captured.err == "error: sample file has no data rows\n"

    def test_sample_extra_cell_names_row_exit_one(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text("id,x1,y,delta\n1,0.5,10,1\n2,0.4,2,0\n3,0.8,4,0\n")
        (tmp_path / "sample.csv").write_text("id,pi\n3,0.5\n2,0.5,9\n")
        code = main(["estimate", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv"), "--estimators", "ht"])
        assert code == 1
        captured = capsys.readouterr()
        assert "point=" not in captured.out
        assert captured.err.startswith("error: extra value in row 2")

    @pytest.mark.parametrize("header", ["pid,pi", "id,prob"])
    def test_sample_missing_column_exit_one(self, pop_csv, tmp_path, capsys, header):
        path, pop, delta = pop_csv
        (tmp_path / "sample.csv").write_text(f"{header}\n2,0.5\n")
        code = main(["estimate", "--pop", str(path), "--sample", str(tmp_path / "sample.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_writes_output_csv(self, pop_csv, tmp_path):
        path, pop, delta = pop_csv
        u1_ids = [str(i + 1) for i in np.flatnonzero(delta == 0)][:50]
        sample = self._write_sample(tmp_path, u1_ids, [0.5] * 50)
        out = tmp_path / "est.csv"
        assert main(["estimate", "--pop", str(path), "--sample", str(sample),
                     "--estimators", "di,sep", "--weights", "sigma",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tag,point,variance,ci_low,ci_high"
        assert len(lines) == 3


class TestTestCommand:
    def test_prints_direct_statistic(self, pop_csv, tmp_path, capsys):
        path, _, delta = pop_csv
        pop, x_np, y_np, _, rows, pi_s = _strata_and_sample(path, delta)
        sample = tmp_path / "sample.csv"
        write_csv(sample, ["id", "pi"], [rows + 1, pi_s])
        p_fit = fgls_p(pop.rows(rows), pop.y[rows], pi_s)
        result = homogeneity_test(certainty_fgls(x_np, y_np), p_fit, 0.1)
        assert main(["test", "--pop", str(path), "--sample", str(sample), "--alpha", "0.1"]) == 0
        assert capsys.readouterr().out.startswith(
            f"F = {result.statistic:.6g}, df = {result.df}, p = {result.p_value:.6g} -> ")

    def test_duplicated_strata_accepts(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        n = 120
        x1 = rng.uniform(size=n)
        y = 5.0 + 2.0 * x1 + rng.normal(0, 0.5, size=n)
        rows = ["id,x1,y,delta"]
        for i in range(n):
            rows.append(f"a{i},{float(x1[i])!r},{float(y[i])!r},1")
            rows.append(f"b{i},{float(x1[i])!r},{float(y[i])!r},0")
        (tmp_path / "pop.csv").write_text("\n".join(rows) + "\n")
        sample = ["id,pi"] + [f"b{i},0.5" for i in range(n)]
        (tmp_path / "sample.csv").write_text("\n".join(sample) + "\n")
        assert main(["test", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv")]) == 0
        out = capsys.readouterr().out
        assert "do not reject" in out

    def test_heterogeneous_strata_reject(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        n = 800
        x1 = rng.uniform(1.0, 2.0, size=n)
        y_np_vals = 10.0 + 1.0 * x1[: n // 2] + rng.normal(0, 0.3, size=n // 2)
        y_p = 2.0 + 6.0 * x1[n // 2 :] + rng.normal(0, 0.3, size=n // 2)
        rows = ["id,x1,y,delta"]
        for i in range(n // 2):
            rows.append(f"a{i},{float(x1[i])!r},{float(y_np_vals[i])!r},1")
        for i in range(n // 2):
            rows.append(f"b{i},{float(x1[n//2 + i])!r},{float(y_p[i])!r},0")
        (tmp_path / "pop.csv").write_text("\n".join(rows) + "\n")
        sample = ["id,pi"] + [f"b{i},0.4" for i in range(0, n // 2, 2)]
        (tmp_path / "sample.csv").write_text("\n".join(sample) + "\n")
        assert main(["test", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv")]) == 0
        assert "reject homogeneity" in capsys.readouterr().out

    def test_too_small_sample_exit_one(self, pop_csv, tmp_path, capsys):
        path, pop, delta = pop_csv
        u1_ids = [str(i + 1) for i in np.flatnonzero(delta == 0)][:2]
        (tmp_path / "s.csv").write_text("id,pi\n" + "".join(f"{i},0.5\n" for i in u1_ids))
        code = main(["test", "--pop", str(path), "--sample", str(tmp_path / "s.csv")])
        assert code == 1
        assert "too few" in capsys.readouterr().err

    def test_missing_delta_column_exit_one(self, tmp_path, capsys):
        (tmp_path / "pop.csv").write_text("id,x1,y\n1,0.5,10\n2,0.4,2\n")
        (tmp_path / "sample.csv").write_text("id,pi\n2,0.5\n")
        code = main(["test", "--pop", str(tmp_path / "pop.csv"),
                     "--sample", str(tmp_path / "sample.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "delta" in err

    def test_bad_alpha_exit_two(self, pop_csv, tmp_path, capsys):
        path, pop, delta = pop_csv
        (tmp_path / "s.csv").write_text("id,pi\n")
        code = main(["test", "--pop", str(path), "--sample", str(tmp_path / "s.csv"),
                     "--alpha", "1.5"])
        assert code == 2


def _stage_files(tmp_path, y_np=None, x1_p=None):
    """A 12 + 24 unit population and an every-other-unit sample of its complement;
    y_np replaces the certainty stratum's y and x1_p the complement's x1."""
    rows = ["id,x1,y,delta"]
    for i in range(36):
        certain = i < 12
        x1 = 1.0 + (i % 12) / 11.0 if certain or x1_p is None else x1_p
        y = y_np if certain and y_np is not None else 5.0 + 2.0 * x1 + 0.1 * (i % 3)
        rows.append(f"{i + 1},{x1!r},{y!r},{int(certain)}")
    (tmp_path / "pop.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "sample.csv").write_text("id,pi\n" + "".join(f"{i},0.5\n" for i in range(13, 37, 2)))
    return str(tmp_path / "pop.csv"), str(tmp_path / "sample.csv")


class TestFailingStageNamed:
    # a failed fit names its stage and input file, still with exit 1

    @pytest.mark.parametrize("argv, stage", [
        (["estimate", "--weights", "sigma"], "pilot fit on {pop}"),
        (["test"], "certainty-stratum FGLS fit on {pop}"),
        (["design", "--np", "5"], "pilot fit on {pop}"),
    ], ids=["estimate", "test", "design"])
    def test_zero_certainty_y(self, tmp_path, capsys, argv, stage):
        pop, sample = _stage_files(tmp_path, y_np=0.0)
        files = (["--sample", sample] if argv[0] != "design"
                 else ["--out", str(tmp_path / "d.csv")])
        assert main(argv + ["--pop", pop] + files) == 1
        assert capsys.readouterr().err == (
            f"error: {stage.format(pop=pop)}: no positive fitted means\n")

    def test_design_names_separate_pilot(self, tmp_path, capsys):
        pop, pilot = tmp_path / "frame.csv", str(tmp_path / "pilot.csv")
        for path, y in ((pop, 1), (pilot, 0)):
            with open(path, "w") as handle:
                handle.write("id,x1,y\n" + "".join(f"{i},{1.0 + i / 9},{y}\n" for i in range(10)))
        assert main(["design", "--pop", str(pop), "--pilot", pilot, "--np", "5",
                     "--out", str(tmp_path / "d.csv")]) == 1
        assert capsys.readouterr().err == f"error: pilot fit on {pilot}: no positive fitted means\n"

    @pytest.mark.parametrize("argv, stage", [
        (["estimate"], "sepDI_b on {sample}"),
        (["test"], "sample FGLS fit on {sample}"),
    ], ids=["estimate", "test"])
    def test_constant_sample_covariate(self, tmp_path, capsys, argv, stage):
        pop, sample = _stage_files(tmp_path, x1_p=1.5)
        assert main(argv + ["--pop", pop, "--sample", sample]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stage.format(sample=sample)}: pivot ")
        assert err.endswith(" at column 1\n")

    def test_estimate_prints_no_partial_table(self, tmp_path, capsys):
        # DI and HT_seq succeed before sepDI_b fails; none of them is printed
        pop, sample = _stage_files(tmp_path, x1_p=1.5)
        assert main(["estimate", "--pop", pop, "--sample", sample,
                     "--estimators", "di,ht,sep"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: sepDI_b on {sample}: pivot ")

    def test_singular_wald_matrix_names_replication(self, config_path, tmp_path, capsys,
                                                    monkeypatch):
        # the second Wald matrix of the run, replication 1's, is not positive definite
        calls = []

        def solve_spd(a, b):
            calls.append(a)
            return numerics.solve_spd(-np.array(a) if len(calls) == 2 else a, b)

        monkeypatch.setattr(homogeneity, "solve_spd", solve_spd)
        assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: replication 1 (stream 2), design optimal: "
                               "singular variance matrix (pivot -")
        assert last.endswith(" at column 0)")
        assert not (tmp_path / "o").exists()

    def test_singular_wald_matrix_test_command(self, pop_csv, tmp_path, capsys, monkeypatch):
        path, _, delta = pop_csv
        rows, pi_s = _strata_and_sample(path, delta)[4:]
        sample = tmp_path / "sample.csv"
        write_csv(sample, ["id", "pi"], [rows + 1, pi_s])
        monkeypatch.setattr(homogeneity, "solve_spd",
                            lambda a, b: numerics.solve_spd(-np.array(a), b))
        assert main(["test", "--pop", str(path), "--sample", str(sample)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: singular variance matrix (pivot -")
        assert err.endswith(" at column 0)\n")

    def test_fixed_partition_set_up(self, tmp_path, capsys):
        pop, _ = _stage_files(tmp_path, y_np=0.0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replications": 2, "mechanism": "FixedPartition",
                                   "population_csv": pop, "designs": ["equal"],
                                   "estimators": ["DI"]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: FixedPartition set-up on {pop}: no positive fitted means\n")
        assert not (tmp_path / "o").exists()
