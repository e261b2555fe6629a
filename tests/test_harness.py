import concurrent.futures
import csv
import dataclasses
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seqdi
from seqdi import design as design_mod, harness, pilot
from seqdi.design import build_design, equal_probabilities, poisson_draw
from seqdi.errors import (ConfigError, DegenerateMetrics, EmptySample, Infeasible,
                          InvalidParams, NotPositiveDefinite, Separation, Unidentifiable)
from seqdi.harness import (
    ESTIMATORS,
    McConfig,
    McSummary,
    emit_results,
    metrics,
    run_mc,
)
from seqdi.estimators import Arm, y_dr
from seqdi.homogeneity import fgls_np, fgls_p, homogeneity_test
from seqdi.numerics import NewtonStart, RngStream, Workspace, logistic_fit, weighted_ls
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
from test_pilot import kept_rows_spy

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
                                                   ("NMAR", (2.0, -2.0)), ("MAR", (1.0, None)),
                                                   ("MAR", (math.nan, -2.0)),
                                                   ("NMAR", (2.0, -2.0, math.inf))])
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
        config = small_config(replications=np.int64(3), seed=np.int64(5), f_np=np.float64(0.6),
                              designs=["equal"], slopes=np.array([1.0, -1.0]),
                              n_p=np.int32(40), include_model_variance=np.bool_(True))
        assert config.designs == ("equal",) and config.seed == 5 and config.n_p == 40
        McConfig(replications=2, mechanism="FixedPartition", population_csv=path)
        # the numpy scalars are stored as Python values, so the run writes the
        # files of the same config typed in Python, JSON metadata included
        plain = small_config(replications=3, seed=5, f_np=0.6, designs=("equal",),
                             slopes=(1.0, -1.0), n_p=40, include_model_variance=True)
        written = [emit_results(run_mc(c), tmp_path / name)
                   for c, name in ((config, "numpy"), (plain, "python"))]
        for got, want in zip(*written):
            assert Path(got).read_bytes() == Path(want).read_bytes(), got
        assert config == plain and type(config.slopes) is tuple

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
                                     inputs.sigma2_u1[sample.positions], test)}
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


class TestPropensityStart:
    """Every propensity fit of a MAR or NMAR run starts from the run's fit to
    its mechanism's selection probabilities and writes into one workspace."""

    @staticmethod
    def draws():
        """200 MAR and 200 NMAR selections of one N = 10 000 frame, each with its
        run's population, start and workspace."""
        for mechanism in ("MAR", "NMAR"):
            config = small_config(seed=7, mechanism=mechanism, estimators=("IPW",),
                                  population_params=dict(POP_PARAMS, N=10_000))
            state = harness._run_state(config)
            assert isinstance(state.start, NewtonStart)
            for r in range(200):
                delta = draw_nonprob(state.pop, state.mech, RngStream(config.seed, r + 1)).delta
                yield state.pop, delta * 1.0, state.start, state.ws

    def test_warm_and_cold_fits_agree_to_the_stop_rule(self):
        # the stop rule takes a step of at most 1e-8 as the last, so two
        # starts may stop that far apart.  Measured over these 400 draws:
        # 2.95e-9 at MAR draw 70, where the line search halves the warm fit's
        # last step, and at most 5.5e-14 elsewhere
        gaps = []
        for pop, delta, start, ws in self.draws():
            cold = logistic_fit(pop.x, delta)
            warm = logistic_fit(pop.x, delta, start, ws)
            gaps.append(np.max(np.abs(warm - cold)))
        assert max(gaps) <= 1e-8

    def test_first_point_built_once_gives_the_bits_of_its_coefficients(self):
        # the run's NewtonStart skips the first Newton point's arrays and
        # Hessian, which its coefficients alone would rebuild in every fit
        for pop, delta, start, ws in self.draws():
            from_alpha = logistic_fit(pop.x, delta, start.alpha, ws)
            assert logistic_fit(pop.x, delta, start, ws).tobytes() == from_alpha.tobytes()

    def test_mar_start_is_the_mechanism(self):
        config = small_config(estimators=("DR",), population_params=dict(POP_PARAMS, N=5000))
        state = harness._run_state(config)
        np.testing.assert_allclose(state.start.alpha, [state.mech.intercept, *state.mech.slopes],
                                   rtol=0, atol=1e-8)
        # no propensity estimator, no census fit
        assert harness._run_state(small_config(estimators=("DI", "GREG"))).start is None

    def test_replication_does_not_depend_on_earlier_ones(self):
        # replication r on a freshly built run state, whose workspace no fit
        # has used, equals replication r of the run bit for bit
        config = small_config(mechanism="NMAR", replications=6,
                              estimators=("IPW", "DR", "GREG_DR"))
        summary = run_mc(config)
        plan = harness._plan(config)
        for r in range(config.replications):
            row = harness._replicate(r, harness._run_state(config))
            for arm, col in zip(summary.arms, plan["columns"].values()):
                assert row[col].tobytes() == arm.points[r].tobytes(), (r, arm.estimator)

    def test_failed_census_fit_leaves_the_run_as_it_was(self):
        # the census fit separates, so the run's start is at zero and the
        # replication's own fit fails as it did before there was a start
        config = small_config(slopes=(40, -40), population_params=dict(POP_PARAMS, N=2000),
                              estimators=("DI", "IPW", "DR", "GREG_DR"), replications=3)
        state = harness._run_state(config)
        with pytest.raises(Separation):
            logistic_fit(state.pop.x, state.mech.probabilities(state.pop))
        assert isinstance(state.start, NewtonStart) and not state.start.alpha.any()
        with pytest.raises(Separation) as err:
            run_mc(config)
        assert str(err.value) == ("replication 0 (stream 1), frame estimators: "
                                  "coefficient escaped toward infinity")


@pytest.mark.parametrize("mechanism", ["FixedPartition", "MAR"])
@pytest.mark.parametrize("column", ["x1", "y"])
def test_outsize_cell_raises_the_cli_error_in_process(tmp_path, mechanism, column):
    # a certainty row's cell of 1e154 overflows a Gram matrix or the pilot's
    # variances; under error::RuntimeWarning run_mc raises the error that
    # seqdi simulate prints, not numpy's warning
    error, message = {
        "x1": (NotPositiveDefinite, "the diagonal entry at column 1 overflows (pivot "),
        "y": (InvalidParams, "the fitted variances overflow (gamma = "),
    }[column]
    pop = generate_population({"N": 600, "beta": [10, 15, 10, 20], "sigma": 0.6},
                              RngStream(1, 0))
    delta = RngStream(2, 0).uniform(size=600) < 0.6
    x, y = pop.x.copy(), pop.y.copy()
    (y if column == "y" else x[:, 1])[np.flatnonzero(delta)[0]] = 1e154
    save_population_csv(tmp_path / "pop.csv", Population(x=x, y=y), Partition(delta=delta))
    with pytest.raises(error, match=re.escape(message)):
        run_mc(McConfig(replications=3, seed=7, mechanism=mechanism,
                        population_csv=str(tmp_path / "pop.csv"), designs=("optimal",),
                        estimators=("DI", "sepDI_sigma")))


def test_in_process_run_keeps_no_state():
    # the run's population, stratum, start and workspace go when run_mc
    # returns, and when it raises
    run_mc(small_config(mechanism="NMAR", replications=2, estimators=("DI", "DR")))
    assert harness._WORKER_GLOBALS == {}
    with pytest.raises(Separation):
        run_mc(small_config(slopes=(40, -40), population_params=dict(POP_PARAMS, N=2000),
                            estimators=("IPW",), replications=2))
    assert harness._WORKER_GLOBALS == {}


def test_kept_all_replication_forms_the_fits_variances_once(monkeypatch):
    # the pilot and fgls_p hand on the variances their variance regression's
    # power gave: when every regression keeps every row, _sigma2_at runs only
    # for predict_sigma2 (the complement's variances, for the optimal design)
    calls, kept, real_at = [], [], pilot._sigma2_at

    def counted(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return real_at(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("seqdi")]:
        if getattr(module, "_sigma2_at", None) is real_at:
            monkeypatch.setattr(module, "_sigma2_at", counted)
    monkeypatch.setattr(pilot, "_variance_regression", kept_rows_spy(kept))
    state = harness._run_state(small_config(include_model_variance=True))
    for r in range(3):
        harness._replicate(r, state)
    assert kept == [True] * 12  # two passes each of the pilot and fgls_p
    assert calls == ["predict_sigma2"] * 3


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
        beta, v = fgls_np(x_np, y_np, pilot, predict_sigma2(pilot, x_np), x_np @ pilot.beta)
        assert inputs.np_fit[0].tobytes() == beta.tobytes()
        assert inputs.np_fit[1].tobytes() == v.tobytes()

    def test_certainty_variances_are_the_pilot_predictions(self, stratum):
        # sigma2_np comes from the pilot's own fitted means, not a new x @ beta
        pop, partition, x_np, _ = stratum
        inputs = harness.StratumInputs(pop, partition, need_pilot=True, need_test=False)
        assert inputs.m_np.tobytes() == (x_np @ inputs.pilot.beta).tobytes()
        assert inputs.sigma2_np.tobytes() == predict_sigma2(inputs.pilot, x_np).tobytes()

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
        sigma2 = predict_sigma2(fit_pilot(x_np, y_np), pop.rows(u1))
        for kind in config.designs:
            want = build_design(kind, pop.rows(u1), n_p, u1, sigma2)
            assert inputs.designs[kind].pi.tobytes() == want.pi.tobytes(), kind

    def test_complement_predicted_once(self, stratum, monkeypatch):
        # the optimal design and the arms' variances share one prediction; the
        # design module takes the variances and has no prediction of its own
        pop, partition, x_np, y_np = stratum
        calls = []

        def counted(model, x):
            calls.append(len(x))
            return predict_sigma2(model, x)

        monkeypatch.setattr(harness, "predict_sigma2", counted)
        config = small_config(designs=("optimal", "equal", "pps"))
        inputs = harness.StratumInputs(pop, partition, need_pilot=True, need_test=False,
                                       config=config)
        u1 = partition.complement_idx
        sigma2_u1 = inputs.sigma2_u1
        assert calls == [len(u1)]
        assert not hasattr(design_mod, "predict_sigma2")
        monkeypatch.undo()
        pilot = fit_pilot(x_np, y_np)
        assert sigma2_u1.tobytes() == predict_sigma2(pilot, pop.rows(u1)).tobytes()
        n_p = int(config.f_p * len(u1))
        for kind in config.designs:
            want = build_design(kind, pop.rows(u1), n_p, u1, predict_sigma2(pilot, pop.rows(u1)))
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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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


class TestComputedOnce:
    """What every replication or stratum shares is computed once, with the bits
    that each of its users got when computing its own."""

    @pytest.fixture(scope="class")
    def stratum(self):
        pop = generate_population(POP_PARAMS, RngStream(31, 0))
        mech = SelectionMechanism("NMAR", harness.DEFAULT_SLOPES["NMAR"], 0.7)
        mech.intercept = calibrate_intercept(mech, pop)
        return pop, draw_nonprob(pop, mech, RngStream(31, 1))

    @pytest.mark.parametrize("need_pilot", [True, False])
    def test_stratum_ols_is_the_unit_weight_fit(self, stratum, need_pilot, monkeypatch):
        # with a pilot, DR reads the pilot fit's first stage and fits nothing
        # more; without one, DR fits it once on first use
        pop, partition = stratum
        x_np, y_np = pop.rows(partition.certainty_idx), pop.y[partition.certainty_idx]
        want = weighted_ls(x_np, y_np, np.ones(len(y_np)))
        inputs = harness.StratumInputs(pop, partition, need_pilot, need_test=False,
                                       out=Workspace(*pop.x.shape))
        calls = []
        monkeypatch.setattr(harness, "weighted_ls",
                            lambda *args: calls.append(1) or weighted_ls(*args))
        dr = ESTIMATORS["DR"].compute(inputs, None, {})
        assert inputs.ols.tobytes() == want.tobytes()
        assert len(calls) == (0 if need_pilot else 1)
        direct = y_dr(x_np, y_np, inputs.propensity, pop.x_total, want)
        assert np.float64(dr.point).tobytes() == np.float64(direct.point).tobytes()

    def test_frame_design_built_once_per_run(self, monkeypatch):
        sizes = []
        original = design_mod.equal_probabilities

        def counted(n, *args, **kwargs):
            sizes.append(n)
            return original(n, *args, **kwargs)

        monkeypatch.setattr(design_mod, "equal_probabilities", counted)
        run_mc(small_config(replications=6, designs=("equal",), estimators=("DI", "GREG")))
        # one frame design per run, and each replication's design on its complement
        assert sizes.count(POP_PARAMS["N"]) == 1
        assert len(sizes) == 1 + 6

    def test_infeasible_frame_sample_fails_at_set_up(self, monkeypatch):
        monkeypatch.setattr(harness, "_replicate", None)  # no replication may start
        with pytest.raises(Infeasible, match=r"^frame sample set-up: expected size 0 outside"):
            run_mc(small_config(f_p=0.001, estimators=("DI", "GREG")))


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


_NO_POOL_SCRIPT = """
import sys
import seqdi.cli
from seqdi.harness import McConfig, run_mc
loaded = ["concurrent.futures" in sys.modules]
run_mc(McConfig(replications=2, seed=1, mechanism="MAR", designs=("optimal",), estimators=("DI",),
                population_params={"N": 600, "beta": [10, 15, 10, 20], "sigma": 0.6}))
print(*loaded, "concurrent.futures" in sys.modules)
"""


def test_process_pool_is_imported_only_to_start_one():
    # concurrent.futures and the logging it imports cost a few milliseconds that
    # neither an import of the package nor a run in one process pays
    proc = subprocess.run([sys.executable, "-c", _NO_POOL_SCRIPT], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


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


# Run in a fresh interpreter, since BLAS reads its thread count once at load.
# OpenBLAS splits a dot product of more than 10 000 terms across its threads,
# so a 1-D reduction over a stratum's rows handed to BLAS changes its last
# bits with the thread count; a homogeneous-null stratum has ~14 000 rows.
_BLAS_THREADS_SCRIPT = """
import hashlib

import numpy as np

from seqdi.harness import McConfig, run_mc
from seqdi.numerics import RngStream
from seqdi.pilot import fit_pilot, predict_sigma2


def digest(*arrays):
    return hashlib.sha256(b"".join(np.asarray(a, float).tobytes() for a in arrays)).hexdigest()


rng = RngStream(3, 0)
n = 14_000
x = np.column_stack([np.ones(n), rng.uniform(size=(n, 2)) * 3.0])
mu = x @ np.array([10.0, 15.0, 10.0])
model = fit_pilot(x, mu + mu * 0.05 * rng.normal(size=n))
print(digest(model.beta, model.gamma, model.sigma2, predict_sigma2(model, x)))
config = McConfig(replications=3, seed=11, mechanism="MAR",
                  population_params={"N": 20_000, "beta": [10, 15, 10, 0], "sigma": 0.6},
                  designs=("optimal",), estimators=("DI",), include_model_variance=True)
summary = run_mc(config)
print(digest(summary.arms[0].points, summary.arms[0].variances, summary.tests[0].p_values))
"""


def test_blas_thread_count_leaves_the_bits(tmp_path):
    script = tmp_path / "blas_threads.py"
    script.write_text(_BLAS_THREADS_SCRIPT)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    fit_1, reps_1 = outputs[0].splitlines()
    fit_2, reps_2 = outputs[1].splitlines()
    assert fit_1 == fit_2, "fit_pilot on 14 000 rows"
    assert reps_1 == reps_2, "homogeneous-null replications"


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

    def test_metadata_records_software_and_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        summary = McSummary(y_true=10.0, replications=0, seed=1, mechanism="MAR", arms=[],
                            tests=[])
        emit_results(summary, tmp_path)
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert meta["software"] == {"seqdi": seqdi.__version__, "numpy": np.__version__,
                                    "python": platform.python_version()}
        assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                        "MKL_NUM_THREADS": None}

    def test_metadata_keys(self, tmp_path):
        # what the run did and where it ran, and nothing it did not do
        summary = McSummary(y_true=10.0, replications=0, seed=1, mechanism="MAR", arms=[],
                            tests=[])
        emit_results(summary, tmp_path)
        meta = json.loads((tmp_path / "run_metadata.json").read_text())
        assert list(meta) == ["seed", "replications", "mechanism", "y_true", "level",
                              "software", "blas_threads"]

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


class TestEmptySampleRedraw:
    """A Poisson draw that selects no unit is drawn again from the same stream,
    at most harness.MAX_REDRAWS times."""

    # an expected sample size of 1, so about one draw in three is empty
    CONFIG = dict(replications=30, seed=3, n_p=1, estimators=("DI", "HT_seq"), run_test=False,
                  population_params={"N": 150, "beta": [10, 15, 10, 20], "sigma": 0.6})

    def test_redrawn_samples_are_the_same_at_any_worker_count(self, monkeypatch):
        empty = []

        def counting(dsgn, rng):
            try:
                return poisson_draw(dsgn, rng)
            except EmptySample:
                empty.append(1)
                raise

        monkeypatch.setattr(design_mod, "poisson_draw", counting)
        s1 = run_mc(McConfig(**self.CONFIG), threads=1)
        monkeypatch.undo()
        assert len(empty) == 12
        s2 = run_mc(McConfig(**self.CONFIG), threads=2)
        for a1, a2 in zip(s1.arms, s2.arms, strict=True):
            assert np.array_equal(a1.points, a2.points)
            assert np.array_equal(a1.variances, a2.variances)

    def test_the_last_redraw_names_the_replication_and_design(self, monkeypatch):
        def never(dsgn, rng):
            raise EmptySample("Poisson draw selected no unit")

        monkeypatch.setattr(design_mod, "poisson_draw", never)
        message = r"^replication 0 \(stream 1\), design optimal: empty sample after 20 redraws$"
        with pytest.raises(EmptySample, match=message):
            run_mc(McConfig(**self.CONFIG))
