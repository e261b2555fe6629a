import concurrent.futures
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqdi import harness
from seqdi.cli import main
from seqdi.numerics import RngStream
from seqdi.population import (Partition, Population, generate_population, save_population_csv,
                              write_csv)

ROOT = Path(__file__).resolve().parents[1]

POP_PARAMS = {"N": 500, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}


class TestDesignWithSeparatePilot:
    def test_pilot_file_drives_probabilities_over_whole_frame(self, tmp_path):
        pilot_pop = generate_population(POP_PARAMS, RngStream(1, 0))
        frame_pop = generate_population(dict(POP_PARAMS, N=200), RngStream(2, 0))
        pilot_path = tmp_path / "pilot.csv"
        frame_path = tmp_path / "frame.csv"
        save_population_csv(pilot_path, pilot_pop)
        save_population_csv(frame_path, frame_pop)
        out = tmp_path / "design.csv"
        code = main(["design", "--pop", str(frame_path), "--pilot", str(pilot_path),
                     "--np", "80", "--kind", "optimal", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 200
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(80.0, rel=1e-9)

    def test_pilot_with_fewer_covariates_exit_one(self, tmp_path, capsys):
        pilot_pop = generate_population(POP_PARAMS, RngStream(1, 0))
        pilot_path = tmp_path / "pilot.csv"
        frame_path = tmp_path / "frame.csv"
        save_population_csv(pilot_path, Population(x=pilot_pop.x[:, :2], y=pilot_pop.y))
        save_population_csv(frame_path, generate_population(dict(POP_PARAMS, N=200),
                                                            RngStream(2, 0)))
        code = main(["design", "--pop", str(frame_path), "--pilot", str(pilot_path),
                     "--np", "80", "--kind", "optimal", "--out", str(tmp_path / "d.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: covariate count differs: 1 in pilot ")
        assert "2 in population" in err
        assert not (tmp_path / "d.csv").exists()

    def test_pps_kind_from_frame_sizes(self, tmp_path):
        frame_pop = generate_population(dict(POP_PARAMS, N=120), RngStream(3, 0))
        frame_path = tmp_path / "frame.csv"
        pilot_path = tmp_path / "pilot.csv"
        save_population_csv(frame_path, frame_pop)
        save_population_csv(pilot_path, generate_population(POP_PARAMS, RngStream(4, 0)))
        out = tmp_path / "design.csv"
        code = main(["design", "--pop", str(frame_path), "--pilot", str(pilot_path),
                     "--np", "30", "--kind", "pps", "--out", str(out)])
        assert code == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        pis = np.array([float(r[1]) for r in rows])
        # proportional to x1 wherever nothing is truncated
        x1 = frame_pop.x[:, 1]
        free = pis < 1.0 - 1e-9
        ratio = pis[free] / x1[free]
        assert np.allclose(ratio, ratio[0], rtol=1e-9)


class TestSimulateFixedPartition:
    def test_conditional_mode_from_config(self, tmp_path):
        pop = generate_population(dict(POP_PARAMS, N=400), RngStream(5, 0))
        delta = (RngStream(6, 0).uniform(size=400) < 0.6).astype(int)
        pop_path = tmp_path / "pop.csv"
        save_population_csv(pop_path, pop, partition=Partition(delta=delta))
        config = {
            "replications": 15,
            "mechanism": "FixedPartition",
            "population_csv": str(pop_path),
            "designs": ["optimal", "equal"],
            "estimators": ["DI", "sepDI_sigma", "adDI"],
            "n_p": 60,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out, out2 = tmp_path / "results", tmp_path / "results2"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        summary_lines = (out / "summary.csv").read_text().splitlines()
        tags = {line.split(",")[0] for line in summary_lines[2:]}
        assert tags == {"DI", "sepDI_sigma", "adDI"}
        test_lines = (out / "test_summary.csv").read_text().splitlines()
        assert len(test_lines) == 4  # comment, header, one row per design
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2),
                     "--threads", "2"]) == 0
        for name in ("summary.csv", "test_summary.csv", "replication_errors.csv",
                     "run_metadata.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_f_np_exit_two(self, tmp_path, capsys):
        # f_np sets the stratum draw's rate; the file's delta column fixes the stratum
        pop = generate_population(dict(POP_PARAMS, N=400), RngStream(5, 0))
        delta = (RngStream(6, 0).uniform(size=400) < 0.6).astype(int)
        pop_path = tmp_path / "pop.csv"
        save_population_csv(pop_path, pop, partition=Partition(delta=delta))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"replications": 2, "mechanism": "FixedPartition",
                                        "population_csv": str(pop_path), "designs": ["equal"],
                                        "estimators": ["DI"], "f_np": 0.3}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'f_np'" in err
        assert not (tmp_path / "o").exists()

    def test_zero_total_population_exit_one(self, tmp_path, capsys):
        n = 400
        pop = Population(x=np.column_stack([np.ones(n), np.linspace(0.1, 2.0, n)]),
                         y=np.where(np.arange(n) % 2 == 0, 1.0, -1.0))
        pop_path = tmp_path / "pop.csv"
        save_population_csv(pop_path, pop, partition=Partition(delta=np.arange(n) < 200))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "replications": 5, "mechanism": "FixedPartition", "population_csv": str(pop_path),
            "designs": ["equal"], "estimators": ["DI"], "run_test": False}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the population total is 0")
        assert not (tmp_path / "o").exists()

    def test_population_without_delta_exit_one(self, tmp_path, capsys):
        pop_path = tmp_path / "pop.csv"
        save_population_csv(pop_path, generate_population(dict(POP_PARAMS, N=100), RngStream(5, 0)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"replications": 2, "mechanism": "FixedPartition",
                                        "population_csv": str(pop_path)}))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "delta" in err

    def test_threads_flag_preserves_bytes(self, tmp_path):
        config = {
            "replications": 16,
            "seed": 99,
            "mechanism": "MAR",
            "population": {"N": 300, "beta": [10, 15, 10, 20], "sigma": 0.6},
            "designs": ["optimal"],
            "estimators": ["DI", "comDI_sigma"],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2),
                     "--threads", "2"]) == 0
        for name in ("summary.csv", "replication_errors.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads", "-3"]],
                             ids=["flag-0", "flag-minus-3"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, flag):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "replications": 2, "estimators": ["DI"],
            "population": {"N": 200, "beta": [10, 15, 10, 20], "sigma": 0.6},
        }))
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")] + flag) == 2
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestConfigBuilding:
    def test_full_scale_overrides_replications(self, tmp_path):
        from seqdi.cli import _config_from_json

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "replications": 10,
            "population": {"N": 100, "beta": [10, 15, 10, 20], "sigma": 0.6},
        }))
        config = _config_from_json(cfg, seed_flag=None, full_scale=True)
        assert config.replications == 100_000
        assert config.seed == 20240901

    def test_seed_flag_wins_over_config(self, tmp_path):
        from seqdi.cli import _config_from_json

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "replications": 10,
            "seed": 5,
            "population": {"N": 100, "beta": [10, 15, 10, 20], "sigma": 0.6},
        }))
        config = _config_from_json(cfg, seed_flag=42, full_scale=False)
        assert config.seed == 42

    def test_population_block_key_errors(self, tmp_path):
        from seqdi.cli import _config_from_json
        from seqdi.errors import ConfigError

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "replications": 10,
            "population": {"N": 100, "beta": [10, 15, 10], "sigma": 0.6},
        }))
        with pytest.raises(ConfigError, match="beta"):
            _config_from_json(cfg, None, False)


def run_cli(work, *argv):
    """``seqdi argv`` in a fresh interpreter in ``work``: pytest's error::RuntimeWarning
    filter would turn numpy's overflow warnings into exceptions in process."""
    return subprocess.run([sys.executable, "-m", "seqdi.cli", *argv], cwd=work, timeout=120,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def assert_clean_failure(proc, code, message):
    """Exit ``code``, empty stdout, no traceback and one error line holding ``message``."""
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], proc.stderr


class TestNonFiniteFailsCleanly:
    @pytest.mark.parametrize("pi, estimators, message", [
        (1e-200, "di,ht,sep,com", "error: pi = 1e-200 in row 1, column 'pi', is too small"),
        (5e-324, "di,ht,sep,com", "error: pi = 5e-324 in row 1, column 'pi', is too small"),
        (1e-160, "ht", "error: pi = 1e-160 in row 1, column 'pi', is too small"),
    ])
    def test_estimate_with_tiny_pi_exit_one(self, tmp_path, pi, estimators, message):
        # the population of the CI numpy-only step, and every other complement unit
        # at pi = 0.5 but the first, whose 1/pi^2 overflows: the sample file is
        # refused as it is read, before numpy can warn
        pop = generate_population({"N": 600, "beta": [10, 15, 10, 20], "sigma": 0.6},
                                  RngStream(1, 0))
        delta = RngStream(2, 0).uniform(size=600) < 0.6
        save_population_csv(tmp_path / "pop.csv", pop, partition=Partition(delta=delta))
        ids = np.flatnonzero(~delta)[::2] + 1
        write_csv(tmp_path / "sample.csv", ["id", "pi"], [ids, [pi] + [0.5] * (len(ids) - 1)])
        proc = run_cli(tmp_path, "estimate", "--pop", "pop.csv", "--sample", "sample.csv",
                       "--estimators", estimators, "--out", "f.csv")
        assert_clean_failure(proc, 1, message)
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("pi, y, message", [
        # 1/pi^2 is finite, but the plug-in sum (1-pi)/pi^2 * e^2 overflows
        (7.5e-155, None, "error: HT_seq on sample.csv: non-finite estimate"),
        # y^2 overflows in the plug-in variance
        (0.5, 1e300, "error: DI on sample.csv: non-finite estimate"),
    ])
    def test_estimate_with_overflowing_sum_exit_one(self, tmp_path, pi, y, message):
        # the sample file passes its checks; the estimator's overflow is refused
        # as one error line, with no numpy warning above it
        pop = generate_population({"N": 600, "beta": [10, 15, 10, 20], "sigma": 0.6},
                                  RngStream(1, 0))
        delta = RngStream(2, 0).uniform(size=600) < 0.6
        save_population_csv(tmp_path / "pop.csv", pop, partition=Partition(delta=delta))
        ids = np.flatnonzero(~delta)[::2] + 1
        if y is None:
            write_csv(tmp_path / "sample.csv", ["id", "pi"],
                      [ids, [pi] + [0.5] * (len(ids) - 1)])
        else:
            write_csv(tmp_path / "sample.csv", ["id", "pi", "y"],
                      [ids, [pi] * len(ids), [y] + [10.0] * (len(ids) - 1)])
        proc = run_cli(tmp_path, "estimate", "--pop", "pop.csv", "--sample", "sample.csv",
                       "--estimators", "ht" if y is None else "di", "--out", "f.csv")
        assert_clean_failure(proc, 1, message)
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "f.csv").exists()

    @staticmethod
    def write_huge_outcomes(path):
        # outcomes near 1e160: their variance, and the pilot's squared
        # residuals, overflow to inf
        rng = np.random.default_rng(3)
        i = np.arange(36)
        write_csv(path, ["id", "x1", "y", "delta"],
                  [i + 1, 1 + i / 10, rng.uniform(1, 2, size=36) * 1e160, (i < 12).astype(int)])

    def test_design_with_overflowing_variances_exit_one(self, tmp_path):
        # the pilot fit refuses them before numpy warns of the overflow
        self.write_huge_outcomes(tmp_path / "pop.csv")
        proc = run_cli(tmp_path, "design", "--pop", "pop.csv", "--np", "10", "--out", "d.csv")
        assert_clean_failure(proc, 1, "error: pilot fit on pop.csv: var(y) overflows")
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "d.csv").exists()

    def test_simulate_with_overflowing_variances_exit_one(self, tmp_path):
        self.write_huge_outcomes(tmp_path / "pop.csv")
        (tmp_path / "config.json").write_text(json.dumps({
            "replications": 4, "seed": 7, "mechanism": "FixedPartition",
            "population_csv": "pop.csv", "designs": ["optimal"], "estimators": ["DI"]}))
        proc = run_cli(tmp_path, "simulate", "--config", "config.json", "--out", "results")
        assert_clean_failure(proc, 1, "error: FixedPartition set-up on pop.csv: var(y) overflows")
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "results").exists()


class TestOutsizeInputsFailCleanly:
    """Outcomes or a population block whose squares overflow end in one error line."""

    def test_design_with_constant_huge_outcomes_exit_one(self, tmp_path):
        # 16 certainty rows at y = 1e200: a constant outcome whose square overflows
        i = np.arange(40)
        write_csv(tmp_path / "pop.csv", ["id", "x1", "y", "delta"],
                  [i + 1, 1 + i / 10, np.where(i < 16, 1e200, 5.0 + i), (i < 16).astype(int)])
        proc = run_cli(tmp_path, "design", "--pop", "pop.csv", "--np", "5", "--out", "d.csv")
        assert_clean_failure(proc, 1, "error: pilot fit on pop.csv: the squared outcomes overflow")
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("block, message", [
        ({"beta": [10, 15, 10, 20], "sigma": 1e160}, "sigma = 1e+160 must have a finite square"),
        ({"beta": [1e308, 1e308, 1, 1], "sigma": 0.6}, "mean function must stay finite"),
    ])
    def test_simulate_with_outsize_population_block_exit_two(self, tmp_path, block, message):
        (tmp_path / "config.json").write_text(json.dumps({
            "replications": 4, "seed": 7, "population": dict(block, N=100)}))
        proc = run_cli(tmp_path, "simulate", "--config", "config.json", "--out", "results")
        assert_clean_failure(proc, 2, f"config error: config key 'population': {message}")
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "results").exists()


class TestOutsizeCovariateFailsCleanly:
    """A finite covariate whose square overflows is refused as the file is read,
    naming its row and column, before any Gram product warns of the overflow."""

    @staticmethod
    def write_population(path):
        pop = generate_population({"N": 600, "beta": [10, 15, 10, 20], "sigma": 0.6},
                                  RngStream(1, 0))
        delta = RngStream(2, 0).uniform(size=600) < 0.6
        row = int(np.flatnonzero(~delta)[3])  # a complement row
        x = pop.x.copy()
        x[row, 1] = 1e200
        save_population_csv(path, Population(x=x, y=pop.y), Partition(delta=delta))
        return row + 1

    @pytest.mark.parametrize("kind", ["optimal", "equal", "pps"])
    def test_design_exit_one(self, tmp_path, kind):
        row = self.write_population(tmp_path / "pop.csv")
        proc = run_cli(tmp_path, "design", "--pop", "pop.csv", "--np", "50", "--kind", kind,
                       "--out", "d.csv")
        assert_clean_failure(proc, 1, f"error: x1 = 1e+200 in row {row}, column 'x1', "
                                      "is too large: its square overflows")
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "d.csv").exists()

    def test_simulate_exit_one(self, tmp_path):
        row = self.write_population(tmp_path / "pop.csv")
        (tmp_path / "config.json").write_text(json.dumps({
            "replications": 4, "seed": 7, "mechanism": "FixedPartition",
            "population_csv": "pop.csv", "designs": ["optimal"], "estimators": ["DI"]}))
        proc = run_cli(tmp_path, "simulate", "--config", "config.json", "--out", "results")
        assert_clean_failure(proc, 1, f"error: x1 = 1e+200 in row {row}, column 'x1', "
                                      "is too large: its square overflows")
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "results").exists()


class TestUnreadableFileFailsCleanly:
    """A population file that is not UTF-8, or holds a cell over
    csv.field_size_limit(), is refused as a ParseError naming the row the read
    reached, not as a traceback."""

    ROWS = "".join(f"{i},0.{i},{i + 1},{i % 2}\n" for i in range(1, 50)).encode()
    FILES = {
        "undecodable": (b"id,x1,y,delta\n" + ROWS + b"50,0.5,\xff,1\n",
                        "error: cannot read the population file from the header on: 'utf-8' "
                        "codec can't decode byte 0xff"),
        "oversize": (b"id,x1,y,delta\n" + ROWS + b'50,0.5,"' + b"9" * 200_000 + b'",1\n',
                     "error: cannot read the population file from row 50 on: field larger "
                     "than field limit (131072)"),
    }
    COMMANDS = {
        "design": ["design", "--pop", "pop.csv", "--np", "5", "--out", "d.csv"],
        "estimate": ["estimate", "--pop", "pop.csv", "--sample", "sample.csv"],
        "test": ["test", "--pop", "pop.csv", "--sample", "sample.csv"],
        "simulate": ["simulate", "--config", "config.json", "--out", "results"],
    }

    @pytest.mark.parametrize("fault", sorted(FILES))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_one(self, tmp_path, fault, command):
        text, message = self.FILES[fault]
        (tmp_path / "pop.csv").write_bytes(text)
        (tmp_path / "sample.csv").write_text("id,pi\n2,0.5\n4,0.5\n")
        (tmp_path / "config.json").write_text(json.dumps({
            "replications": 4, "seed": 7, "mechanism": "FixedPartition",
            "population_csv": "pop.csv", "designs": ["optimal"], "estimators": ["DI"]}))
        proc = run_cli(tmp_path, *self.COMMANDS[command])
        assert_clean_failure(proc, 1, message)
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "results").exists()


class TestOutsizeFiniteCellFailsCleanly:
    """A certainty-stratum cell that the reader accepts but the pilot fit cannot use
    fails every command that fits on it with one error line naming the quantity at
    fault, not a pivot alone, and with no numpy warning."""

    CELLS = {  # column, value, the error's message after its stage
        "x1=1e154": ("x1", 1e154, "the diagonal entry at column 1 overflows (pivot "),
        "y=1e154": ("y", 1e154, "the fitted variances overflow (gamma = "),
        "x1=1e140": ("x1", 1e140, "the diagonal entry at column 1, 1.000e+280, is over 1e12 "
                                  "times column 0's (pivot "),
    }
    COMMANDS = {  # argv, stage
        "design": (["design", "--pop", "pop.csv", "--np", "100", "--kind", "optimal",
                    "--out", "d.csv"], "pilot fit on pop.csv"),
        "estimate": (["estimate", "--pop", "pop.csv", "--sample", "sample.csv",
                      "--weights", "sigma", "--out", "e.csv"], "pilot fit on pop.csv"),
        "test": (["test", "--pop", "pop.csv", "--sample", "sample.csv"],
                 "certainty-stratum FGLS fit on pop.csv"),
        "simulate": (["simulate", "--config", "fixed.json", "--out", "results"],
                     "FixedPartition set-up on pop.csv"),
    }

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exit_one(self, tmp_path, monkeypatch, capsys, cell, command):
        column, value, message = self.CELLS[cell]
        pop = generate_population({"N": 600, "beta": [10, 15, 10, 20], "sigma": 0.6},
                                  RngStream(1, 0))
        delta = RngStream(2, 0).uniform(size=600) < 0.6
        x, y = pop.x.copy(), pop.y.copy()
        row = int(np.flatnonzero(delta)[0])
        if column == "y":
            y[row] = value
        else:
            x[row, 1] = value
        save_population_csv(tmp_path / "pop.csv", Population(x=x, y=y), Partition(delta=delta))
        ids = np.flatnonzero(~delta)[::2] + 1
        write_csv(tmp_path / "sample.csv", ["id", "pi"], [ids, [0.5] * len(ids)])
        (tmp_path / "fixed.json").write_text(json.dumps({
            "replications": 4, "seed": 7, "mechanism": "FixedPartition",
            "population_csv": "pop.csv", "designs": ["optimal", "pps"],
            "estimators": ["DI", "comDI_sigma", "adDI"]}))
        monkeypatch.chdir(tmp_path)
        argv, stage = self.COMMANDS[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would end main in an exception
            assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {stage}: {message}") and err.count("\n") == 1, err
        assert not any(p.exists() for p in (tmp_path / "d.csv", tmp_path / "e.csv",
                                             tmp_path / "results"))


def test_undecodable_config_is_a_config_error(tmp_path):
    # a config file that is not UTF-8: one config error line and exit 2, no traceback
    (tmp_path / "c.json").write_bytes(b'{"replications": 4, "seed": 7, "mechanism": "MAR\xff"}')
    proc = run_cli(tmp_path, "simulate", "--config", "c.json", "--out", "r")
    assert_clean_failure(proc, 2, "config error: cannot read config: 'utf-8' codec can't "
                                  "decode byte 0xff")
    assert not (tmp_path / "r").exists()


def test_pool_chunk_size_leaves_the_bytes_unchanged(tmp_path, monkeypatch):
    # chunks of at most MAX_CHUNK replications: here 2, where 48 replications on 2
    # workers would otherwise go in chunks of 3; the files equal those of one worker
    monkeypatch.setattr(harness, "MAX_CHUNK", 2)
    chunks, pool_map = [], concurrent.futures.ProcessPoolExecutor.map

    def spy(self, fn, *iterables, chunksize=1, **kwargs):
        chunks.append(chunksize)
        return pool_map(self, fn, *iterables, chunksize=chunksize, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "map", spy)
    config = {"replications": 48, "seed": 5, "mechanism": "NMAR",
              "population": {"N": 300, "beta": [10, 15, 10, 20], "sigma": 0.6},
              "designs": ["optimal", "pps"], "estimators": ["DI", "adDI", "IPW"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    for threads in ("1", "2"):
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
    assert chunks == ([2] if (os.cpu_count() or 1) >= 2 else [])  # a pool needs 2 CPUs
    for name in ("summary.csv", "test_summary.csv", "replication_errors.csv",
                 "run_metadata.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
