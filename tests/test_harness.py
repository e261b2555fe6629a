import csv
import dataclasses
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqdi import design as design_mod, harness
from seqdi.design import build_design, equal_probabilities, poisson_draw
from seqdi.errors import ConfigError, DegenerateMetrics, Unidentifiable
from seqdi.harness import (
    ESTIMATORS,
    McConfig,
    McSummary,
    emit_results,
    metrics,
    run_mc,
)
from seqdi.estimators import Arm
from seqdi.homogeneity import fgls_np, fgls_p, homogeneity_test
from seqdi.numerics import RngStream, logistic_fit
from seqdi.pilot import fit_pilot, predict_sigma2
from seqdi.population import (
    Partition,
    Population,
    SelectionMechanism,
    calibrate_intercept,
    draw_nonprob,
    generate_population,
    save_population_csv,
)

ROOT = Path(__file__).resolve().parents[1]
POP_PARAMS = {"N": 1200, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}


def small_config(**overrides):
    base = dict(
        replications=40,
        seed=777,
        mechanism="MAR",
        population_params=POP_PARAMS,
        designs=("optimal",),
        estimators=("DI", "sepDI_b", "sepDI_sigma", "comDI_sigma", "adDI"),
    )
    base.update(overrides)
    return McConfig(**base)


class TestMetrics:
    def test_exact_estimator(self):
        points = np.full(10, 50.0)
        out = metrics(points, np.zeros(10), 50.0)
        assert out["rb"] == 0.0
        assert out["rrmse"] == 0.0
        assert out["coverage"] == 1.0

    def test_hand_two_points(self):
        y = 200.0
        out = metrics(np.array([y * 1.01, y * 0.99]), None, y)
        assert out["rb"] == pytest.approx(0.0, abs=1e-12)
        assert out["rrmse"] == pytest.approx(1.0, rel=1e-12)

    def test_var_ratio_concentrates(self):
        rng = np.random.default_rng(1)
        r = 40_000
        v = 4.0
        points = 100.0 + rng.normal(0.0, math.sqrt(v), size=r)
        out = metrics(points, np.full(r, v), 100.0)
        assert abs(out["var_ratio"] - 1.0) <= 4.0 / math.sqrt(r) * 3

    def test_degenerate_metrics(self):
        with pytest.raises(DegenerateMetrics):
            metrics(np.array([1.0]), np.array([0.5]), 1.0)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.array([1.0, 2.0]), None, 0.0)

    def test_bias_variance_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = int(rng.integers(2, 200))
            y = float(rng.uniform(10.0, 500.0))
            points = y * (1.0 + rng.normal(0, 0.05, size=r))
            out = metrics(points, None, y)
            v_mc = np.var(points, ddof=1)
            rhs = out["rb"] ** 2 + (100.0 * math.sqrt(v_mc * (r - 1) / r) / y) ** 2
            assert out["rrmse"] ** 2 == pytest.approx(rhs, rel=1e-9)

    def test_coverage_monotone_under_widening(self):
        rng = np.random.default_rng(3)
        points = 100.0 + rng.normal(size=300)
        v1 = np.full(300, 0.25)
        a = metrics(points, v1, 100.0)["coverage"]
        b = metrics(points, 4.0 * v1, 100.0)["coverage"]
        assert b >= a

    @pytest.mark.parametrize("z, coverage", [(1.95, 1.0), (1.97, 0.0)])
    def test_coverage_counts_z_975_intervals(self, z, coverage):
        # the 95% Wald interval every Estimate reports: point +- 1.959964 sd
        y, sd = 100.0, 2.0
        points = np.array([y + z * sd, y - z * sd])
        assert metrics(points, np.full(2, sd**2), y)["coverage"] == coverage


class TestConfigValidation:
    def test_zero_replications(self):
        with pytest.raises(ConfigError):
            small_config(replications=0)

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError):
            small_config(estimators=("DI", "bogus"))

    def test_repeated_estimator(self):
        with pytest.raises(ConfigError, match="duplicates"):
            small_config(estimators=("DI", "DI"))

    def test_unknown_design(self):
        with pytest.raises(ConfigError):
            small_config(designs=("optimal", "systematic"))

    def test_fixed_partition_needs_csv(self):
        with pytest.raises(ConfigError):
            small_config(mechanism="FixedPartition")

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            small_config(f_p=1.5)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=-1)

    @pytest.mark.parametrize("mechanism, slopes", [("MAR", (1.0,)), ("MAR", ("a", "b")),
                                                   ("NMAR", (2.0, -2.0)), ("MAR", (1.0, None))])
    def test_bad_slopes(self, mechanism, slopes):
        with pytest.raises(ConfigError, match="slopes"):
            small_config(mechanism=mechanism, slopes=slopes)

    def test_fixed_partition_rejects_f_np(self, tmp_path):
        # f_np sets the stratum draw's rate; a fixed stratum would ignore it
        with pytest.raises(ConfigError, match="FixedPartition draws no stratum, so it takes "
                                              "no 'f_np'"):
            McConfig(replications=2, mechanism="FixedPartition", population_csv=tmp_path / "p.csv",
                     f_np=0.3)

    @pytest.mark.parametrize("mechanism", ["MAR", "NMAR"])
    def test_f_np_and_slopes_defaults(self, mechanism):
        config = small_config(mechanism=mechanism)
        assert config.f_np == 0.70 and config.slopes == harness.DEFAULT_SLOPES[mechanism]

    def test_numpy_slopes_accepted(self):
        config = small_config(slopes=(np.float64(1.0), np.int64(-1)))
        assert config.slopes == (1.0, -1)

    def test_population_csv_and_block_both_rejected(self, tmp_path):
        # neither source may be dropped silently in favour of the other
        path = tmp_path / "pop.csv"
        save_population_csv(path, generate_population(POP_PARAMS, RngStream(1, 0)))
        with pytest.raises(ConfigError, match="population_csv"):
            small_config(population_csv=str(path))

    @pytest.mark.parametrize("params, key", [
        ({"N": 100}, "population.beta"),
        ({"beta": (1, 1, 1, 0), "sigma": 0.5}, "population.N"),
        ({"N": 100.0, "beta": (1, 1, 1, 0), "sigma": 0.5}, "population.N"),
        ({"N": 100, "beta": (1, 1, 1), "sigma": 0.5}, "population.beta"),
        ({"N": 100, "beta": (1, 1, 1, "x"), "sigma": 0.5}, "population.beta"),
        ({"N": 100, "beta": (1, 1, 1, 0), "sigma": "0.5"}, "population.sigma"),
        ({"N": 100, "beta": (1, 1, 1, 0), "sigma": 0.5, "mu": 1}, "population.mu"),
    ])
    def test_population_params_checked(self, params, key):
        with pytest.raises(ConfigError, match=key):
            small_config(replications=2, population_params=params)

    def test_library_types_accepted(self, tmp_path):
        path = tmp_path / "pop.csv"
        config = small_config(seed=np.int64(5), f_np=np.float64(0.6), designs=["equal"],
                              slopes=np.array([1.0, -1.0]), n_p=np.int32(40),
                              include_model_variance=np.bool_(True))
        assert config.designs == ("equal",) and config.seed == 5 and config.n_p == 40
        McConfig(replications=2, mechanism="FixedPartition", population_csv=path)

    @pytest.mark.parametrize("key, value", [("run_test", 1), ("include_model_variance", 0.0),
                                            ("alpha", True), ("n_p", np.bool_(True)),
                                            ("mechanism", None), ("estimators", "DI")])
    def test_wrong_library_type_named(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be"):
            small_config(**{key: value})

    @pytest.mark.parametrize("n_p", [0, -5])
    def test_n_p_below_one(self, n_p):
        with pytest.raises(ConfigError, match="n_p"):
            small_config(n_p=n_p)


class TestRegistry:
    def test_variance_flag_matches_estimates(self):
        # run_mc gives an arm a variance column exactly when its estimator's
        # flag says so; a point-only tag without variance=False must fail here
        config = small_config(replications=1, designs=("equal",), estimators=harness.ALL_TAGS)
        pop = generate_population(POP_PARAMS, RngStream(config.seed, 0))
        mech = SelectionMechanism("MAR", config.slopes, config.f_np)
        mech.intercept = calibrate_intercept(mech, pop)
        rng = RngStream(config.seed, 1)
        plan = harness._plan(config)
        inputs = harness.StratumInputs(pop, draw_nonprob(pop, mech, rng), plan["need_pilot"],
                                       plan["need_test"], config)
        sample = poisson_draw(inputs.designs["equal"], rng)
        y_s, x_s = pop.y[sample.members], pop.rows(sample.members)
        test = homogeneity_test(inputs.np_fit, fgls_p(x_s, y_s, sample.pi_realized), config.alpha)
        arms = {"sequential": Arm.of(y_s, x_s, sample.pi_realized,
                                     inputs.sigma2_frame[sample.members], test)}
        ind = poisson_draw(equal_probabilities(pop.size, 300), rng)
        arms["frame"] = Arm.of(pop.y[ind.members], pop.rows(ind.members), ind.pi_realized)
        done = {}
        for tag, estimator in ESTIMATORS.items():
            done[tag] = estimator.compute(inputs, arms[estimator.stage], done)
            assert (done[tag].variance is None) == (not estimator.variance), tag


class TestFrameEstimators:
    def test_ipw_and_dr_on_a_mar_stratum(self):
        # IPW and DR read the stratum's rows and its propensities; written
        # out here from the frame-wide logistic fit of the membership delta
        pop = generate_population(POP_PARAMS, RngStream(4, 0))
        mech = SelectionMechanism("MAR", harness.DEFAULT_SLOPES["MAR"], 0.7)
        mech.intercept = calibrate_intercept(mech, pop)
        part = draw_nonprob(pop, mech, RngStream(4, 1))
        inputs = harness.StratumInputs(pop, part, need_pilot=False, need_test=False)
        x, y = pop.x[part.certainty_idx], pop.y[part.certainty_idx]
        p = 1.0 / (1.0 + np.exp(-x @ logistic_fit(pop.x, part.delta.astype(float))))
        beta = np.linalg.lstsq(x, y, rcond=None)[0]
        ipw = float(np.sum(y / p))
        dr = ipw + float((pop.x.sum(axis=0) - (x / p[:, None]).sum(axis=0)) @ beta)
        assert ESTIMATORS["IPW"].compute(inputs, None, {}).point == pytest.approx(ipw, rel=1e-12)
        assert ESTIMATORS["DR"].compute(inputs, None, {}).point == pytest.approx(dr, rel=1e-12)


class TestStratumInputs:
    @pytest.fixture(scope="class")
    def stratum(self):
        pop = generate_population(POP_PARAMS, RngStream(3, 0))
        mech = SelectionMechanism("MAR", (2.0, -2.0), 0.7)
        mech.intercept = calibrate_intercept(mech, pop)
        partition = draw_nonprob(pop, mech, RngStream(3, 1))
        s_np = partition.certainty_idx
        return pop, partition, pop.rows(s_np), pop.y[s_np]

    def test_test_fit_brings_its_pilot(self, stratum):
        # the homogeneity test's stratum fit uses the pilot, asked for or not,
        # and gives what fgls_np gives with the pilot fitted on the stratum
        pop, partition, x_np, y_np = stratum
        inputs = harness.StratumInputs(pop, partition, need_pilot=False, need_test=True)
        pilot = fit_pilot(x_np, y_np)
        for f in dataclasses.fields(pilot):
            got, want = getattr(inputs.pilot, f.name), getattr(pilot, f.name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), f.name
        beta, v = fgls_np(x_np, y_np, pilot)
        assert inputs.np_fit[0].tobytes() == beta.tobytes()
        assert inputs.np_fit[1].tobytes() == v.tobytes()

    def test_no_config_no_designs(self, stratum):
        pop, partition, _, _ = stratum
        inputs = harness.StratumInputs(pop, partition, need_pilot=False, need_test=False)
        assert inputs.designs == {}
        assert inputs.pilot is None and inputs.np_fit is None

    def test_designs_match_build_design(self, stratum):
        pop, partition, x_np, y_np = stratum
        config = small_config(designs=("optimal", "equal", "pps"))
        inputs = harness.StratumInputs(pop, partition, need_pilot=True, need_test=False,
                                       config=config)
        u1 = partition.complement_idx
        n_p = int(config.f_p * len(u1))
        assert list(inputs.designs) == list(config.designs)
        for kind in config.designs:
            want = build_design(kind, pop.rows(u1), n_p, fit_pilot(x_np, y_np), u1)
            assert inputs.designs[kind].pi.tobytes() == want.pi.tobytes(), kind

    def test_complement_predicted_once(self, stratum, monkeypatch):
        # the optimal design and the arms' variances share one prediction,
        # and the design's pi is build_design's, which predicts its own
        pop, partition, x_np, y_np = stratum
        calls = []

        def counted(model, x):
            calls.append(len(x))
            return predict_sigma2(model, x)

        for module in (harness, design_mod):
            monkeypatch.setattr(module, "predict_sigma2", counted)
        config = small_config(designs=("optimal", "equal", "pps"))
        inputs = harness.StratumInputs(pop, partition, need_pilot=True, need_test=False,
                                       config=config)
        u1 = partition.complement_idx
        sigma2_u1 = inputs.sigma2_frame[u1]
        assert calls == [len(u1)]
        monkeypatch.undo()
        pilot = fit_pilot(x_np, y_np)
        assert sigma2_u1.tobytes() == predict_sigma2(pilot, pop.rows(u1)).tobytes()
        n_p = int(config.f_p * len(u1))
        for kind in config.designs:
            want = build_design(kind, pop.rows(u1), n_p, pilot, u1)
            assert inputs.designs[kind].pi.tobytes() == want.pi.tobytes(), kind


class TestRunMc:
    def test_census_single_replication_exact(self, tmp_path):
        pop = generate_population(dict(POP_PARAMS, N=60), RngStream(5, 0))
        delta = np.zeros(60, dtype=int)
        delta[:40] = 1
        path = tmp_path / "pop.csv"
        save_population_csv(path, pop, partition=Partition(delta=delta))
        config = McConfig(
            replications=1, seed=1, mechanism="FixedPartition",
            population_csv=str(path), designs=("equal",),
            estimators=("DI", "HT_seq", "sepDI_b", "sepDI_sigma", "comDI_b", "comDI_sigma",
                        "adDI"),
            n_p=20,  # census: N1 = 20
        )
        summary = run_mc(config)
        for arm in summary.arms:
            assert arm.points[0] == pytest.approx(pop.true_total, rel=1e-9)
            assert arm.rb == pytest.approx(0.0, abs=1e-8)
            assert arm.rrmse == pytest.approx(0.0, abs=1e-8)

    def test_determinism_across_thread_counts(self):
        config = small_config(replications=24)
        s1 = run_mc(config, threads=1)
        s2 = run_mc(config, threads=2)
        s3 = run_mc(config, threads=3)
        for a1, a2, a3 in zip(s1.arms, s2.arms, s3.arms):
            assert np.array_equal(a1.points, a2.points)
            assert np.array_equal(a1.points, a3.points)
            if a1.variances is not None:
                assert np.array_equal(a1.variances, a2.variances)
        for t1, t2 in zip(s1.tests, s2.tests):
            assert np.array_equal(t1.p_values, t2.p_values)

    @pytest.mark.parametrize("threads, replications, cpus, workers", [
        (5000, 4, 64, 4),  # capped at the replications
        (3, 24, 2, 2),     # capped at the CPUs
        (2, 24, 8, 2),
        (5000, 1, 64, None),  # one worker: no pool
        (4, 10, None, None),  # CPU count unknown: one worker
    ])
    def test_pool_workers_capped(self, monkeypatch, threads, replications, cpus, workers):
        started = []

        class RecordingPool:
            """Runs the tasks serially in this process; records max_workers."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                assert chunksize >= 1
                return map(fn, iterable)

        config = small_config(replications=replications, estimators=("DI",), run_test=False)
        serial = run_mc(config, threads=1)
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        summary = run_mc(config, threads=threads)
        assert started == ([] if workers is None else [workers])
        assert np.array_equal(summary.arms[0].points, serial.arms[0].points)
        assert np.array_equal(summary.arms[0].variances, serial.arms[0].variances)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            run_mc(small_config(replications=2, estimators=("DI",)), threads=threads)

    def test_default_estimators_include_com_di_b(self):
        config = McConfig(replications=6, seed=4, population_params=POP_PARAMS,
                          designs=("optimal", "equal"))
        assert "comDI_b" in config.estimators
        arms = [arm for arm in run_mc(config).arms if arm.estimator == "comDI_b"]
        assert [arm.design for arm in arms] == ["optimal", "equal"]
        for arm in arms:
            assert np.all(np.isfinite(arm.points))
            assert np.all(np.isfinite(arm.variances)) and np.all(arm.variances > 0)

    def test_same_config_bitwise_reproducible(self):
        s1 = run_mc(small_config())
        s2 = run_mc(small_config())
        for a1, a2 in zip(s1.arms, s2.arms):
            assert np.array_equal(a1.points, a2.points)
        assert s1.y_true == s2.y_true

    def test_estimator_subset_does_not_change_draws(self):
        full = run_mc(small_config())
        only_di = run_mc(small_config(estimators=("DI",)))
        a_full = next(a for a in full.arms if a.estimator == "DI")
        assert np.array_equal(a_full.points, only_di.arms[0].points)

    def test_fixed_partition_refuses_frame_estimators(self, tmp_path):
        # refused before the population file is read, naming the first frame tag
        with pytest.raises(ConfigError, match="sequential estimators only, not 'IPW'"):
            McConfig(replications=10, seed=2, mechanism="FixedPartition",
                     population_csv=str(tmp_path / "absent.csv"),
                     estimators=("DI", "IPW", "DR"))

    def test_fixed_partition_only_frame_rejected(self, tmp_path):
        pop = generate_population(dict(POP_PARAMS, N=300), RngStream(8, 0))
        delta = (RngStream(9, 0).uniform(size=300) < 0.6).astype(int)
        path = tmp_path / "pop.csv"
        save_population_csv(path, pop, partition=Partition(delta=delta))
        with pytest.raises(ConfigError):
            run_mc(
                McConfig(
                    replications=5, seed=3, mechanism="FixedPartition",
                    population_csv=str(path), estimators=("IPW",),
                )
            )

    def test_nmar_mechanism_runs(self):
        summary = run_mc(small_config(mechanism="NMAR", replications=10))
        assert summary.mechanism == "NMAR"
        assert len(summary.arms) > 0

    def test_addi_without_test_summary(self):
        summary = run_mc(small_config(replications=8, run_test=False,
                                      estimators=("adDI",)))
        assert [a.estimator for a in summary.arms] == ["adDI"]
        assert summary.tests == []

    def test_zero_total_rejected_before_any_replication(self, tmp_path, monkeypatch):
        n = 400
        x1 = np.linspace(0.1, 2.0, n)
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        delta = (np.arange(n) < 200).astype(int)
        path = tmp_path / "pop.csv"
        save_population_csv(path, Population(x=np.column_stack([np.ones(n), x1]), y=y),
                            partition=Partition(delta=delta))

        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(harness, "_replicate", no_replication)
        config = McConfig(replications=5, seed=3, mechanism="FixedPartition",
                          population_csv=str(path), designs=("equal",), estimators=("DI",),
                          run_test=False)
        with pytest.raises(DegenerateMetrics, match="total is 0"):
            run_mc(config)


class TestStratumStatistics:
    @staticmethod
    def workload_config(name, **overrides):
        """A benchmark workload's McConfig (bench/workloads.py), so that the
        condition checked here is the one that workload runs under."""
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        return McConfig(**{**workloads.WORKLOADS[name].config, **overrides})

    def test_no_com_di_builds_no_certainty_block(self, monkeypatch):
        # the homogeneity-null workload runs DI only: it must build no pooled
        # Gram or top-K block, nor predict the complement's variances
        built = []
        original = harness.est.certainty_block

        def recording(*args):
            built.append(args[2])
            return original(*args)

        monkeypatch.setattr(harness.est, "certainty_block", recording)
        config = self.workload_config("mar_homnull_20k", replications=2, seed=5)
        plan = harness._plan(config)
        assert not plan["need_sigma2"]
        run_mc(config)
        assert built == []
        # the recorder does see a combined estimator: one block per stratum and weight kind
        run_mc(small_config(replications=2, estimators=("comDI_b", "comDI_sigma"),
                            designs=("optimal", "equal")))
        assert built == [harness.est.WeightSpec("inverse_pi"),
                         harness.est.WeightSpec("inverse_pi_sigma")] * 2

    def test_block_built_once_per_fixed_stratum(self, monkeypatch, tmp_path):
        pop = generate_population(dict(POP_PARAMS, N=600), RngStream(8, 0))
        delta = (RngStream(9, 0).uniform(size=600) < 0.6).astype(int)
        path = tmp_path / "pop.csv"
        save_population_csv(path, pop, partition=Partition(delta=delta))
        built = []
        original = harness.est.certainty_block
        monkeypatch.setattr(harness.est, "certainty_block",
                            lambda *args: built.append(1) or original(*args))
        run_mc(McConfig(replications=5, seed=3, mechanism="FixedPartition",
                        population_csv=str(path), designs=("optimal", "equal", "pps"),
                        estimators=("comDI_sigma",)))
        assert len(built) == 1


class TestProgress:
    def test_line_format(self):
        assert harness._progress_line(5, 20, 2.0) == "replication 5/20 (2.5 reps/s, ETA 6 s)"
        assert harness._progress_line(20, 20, 0.5) == "replication 20/20 (40.0 reps/s, ETA 0 s)"

    def test_run_reports_on_stderr_only(self, capsys):
        quiet = run_mc(small_config(replications=20, estimators=("DI",)))
        capsys.readouterr()
        loud = run_mc(small_config(replications=20, estimators=("DI",)), progress=True)
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert [int(re.match(r"replication (\d+)/20 \(\d+\.\d reps/s, ETA \d+ s\)$", line)[1])
                for line in lines] == list(range(1, 21))
        assert np.array_equal(quiet.arms[0].points, loud.arms[0].points)


# Run in a fresh interpreter: the start method is set once per process.
_START_METHOD_SCRIPT = """
import multiprocessing
import sys

from seqdi.harness import ALL_TAGS, McConfig, run_mc

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    config = McConfig(replications=8, seed=5, mechanism="NMAR",
                      population_params={"N": 1500, "beta": [10, 15, 10, 20], "sigma": 0.6},
                      designs=("optimal", "pps"), estimators=ALL_TAGS)
    one, two = (run_mc(config, threads=threads) for threads in (1, 2))
    arrays = [(a.points, b.points) for a, b in zip(one.arms, two.arms)]
    arrays += [(a.variances, b.variances) for a, b in zip(one.arms, two.arms)
               if a.variances is not None]
    arrays += [(a.p_values, b.p_values) for a, b in zip(one.tests, two.tests)]
    same = len(one.arms) == len(two.arms) and all(a.tobytes() == b.tobytes() for a, b in arrays)
    print(multiprocessing.get_start_method(), "same" if same else "different")
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_worker_count_invariance_under_start_method(method, tmp_path):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("one CPU: run_mc starts no pool")
    script = tmp_path / "start_method.py"
    script.write_text(_START_METHOD_SCRIPT)
    proc = subprocess.run([sys.executable, str(script), method], capture_output=True, text=True,
                          timeout=600, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [method, "same"]


class TestReplicationFailure:
    def test_failure_names_replication_stream_and_design(self):
        # f_p = 0.012 leaves ~7 expected units per arm, too few for fgls_p
        config = small_config(mechanism="NMAR", population_params=dict(POP_PARAMS, N=2000),
                              f_p=0.012, designs=("optimal", "equal", "pps"), replications=5)
        messages = []
        for threads in (1, 2):
            with pytest.raises(Unidentifiable) as err:
                run_mc(config, threads=threads)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("replication 3 (stream 4), design pps: ")


class TestEmit:
    def test_round_trip_reproduces_metrics(self, tmp_path):
        summary = run_mc(small_config(replications=30))
        emit_results(summary, tmp_path)
        with open(tmp_path / "replication_errors.csv", newline="", encoding="utf-8") as handle:
            next(handle)  # the "# seed=" line
            records = list(csv.DictReader(handle))
        for arm in summary.arms:
            key = (arm.estimator, arm.design)
            rows = [r for r in records if (r["estimator"], r["design"]) == key]
            points = np.array([float(r["point"]) for r in rows])
            assert np.array_equal(points, arm.points)
            re = 100.0 * (arm.points - summary.y_true) / summary.y_true
            assert np.array_equal(np.array([float(r["re"]) for r in rows]), re)
            again = metrics(points, None, summary.y_true)
            assert again["rb"] == arm.rb
            assert again["rrmse"] == arm.rrmse

    def test_empty_arm_list_header_only(self, tmp_path):
        summary = McSummary(
            y_true=10.0, replications=0, seed=1, mechanism="MAR", arms=[], tests=[]
        )
        emit_results(summary, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# seed=")
        assert lines[1] == "Estimator,Design,RB,RRMSE,VarRatio,Coverage"
        assert len(lines) == 2

    def test_seed_recorded_in_headers(self, tmp_path):
        summary = run_mc(small_config(replications=5))
        for path in emit_results(summary, tmp_path):
            if str(path).endswith(".csv"):
                first = open(path, encoding="utf-8").readline()
                assert first.strip() == "# seed=777"

    def test_test_summary_columns(self, tmp_path):
        summary = run_mc(small_config(replications=10))
        emit_results(summary, tmp_path)
        lines = (tmp_path / "test_summary.csv").read_text().strip().splitlines()
        assert lines[1] == "Design,R,alpha,reject_rate,mean_p,median_p"
        assert lines[2].startswith("optimal,10,")
