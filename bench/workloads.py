"""The benchmark's workloads, their generated inputs and their summary numbers.

Every input is a function of the benchmark seed: the Monte Carlo seed of
timed attempt k is derived from (seed, k), and the population CSV of the
CLI workload is generated from the seed before any timing starts.  The
program receives only these generated configs and files.

seqdi is imported inside the functions that need it, so that importing
this module never needs the package.
"""

import csv
import math
import os
from dataclasses import dataclass

REFERENCE_SEED = 20240901

SEQUENTIAL = ("DI", "HT_seq", "sepDI_b", "sepDI_sigma", "comDI_sigma", "adDI")
ALL_ESTIMATORS = SEQUENTIAL + ("GREG", "IPW", "DR", "GREG_DR")
THREE_DESIGNS = ("optimal", "equal", "pps")
BENCH_POP = {"N": 10_000, "beta": [10.0, 15.0, 10.0, 20.0], "sigma": 0.6}
HOMOGENEOUS_POP = {"N": 20_000, "beta": [10.0, 15.0, 10.0, 0.0], "sigma": 0.6}


@dataclass(frozen=True)
class Workload:
    """One Monte Carlo study.

    ``config`` holds the McConfig fields other than seed and replications
    (and, for CLI workloads, population_csv).  ``chunk`` is the number of
    replications in one timed attempt, ``trace_reps`` the replications of
    the traced run and ``reference_reps`` those of the reference check.
    ``cli_threads`` > 0 runs attempts as ``seqdi simulate --threads n``
    subprocesses on a generated FixedPartition population CSV; 0 runs
    ``run_mc(threads=1)`` in the workload process.
    """

    name: str
    config: dict
    chunk: int
    trace_reps: int
    reference_reps: int
    cli_threads: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # Paper's robustness experiment: every layer works, the propensity
        # fit and three design arms included.
        Workload(
            "nmar_3design",
            {"mechanism": "NMAR", "population_params": BENCH_POP,
             "designs": list(THREE_DESIGNS), "estimators": list(ALL_ESTIMATORS)},
            chunk=40, trace_reps=120, reference_reps=20,
        ),
        # Homogeneity null: pilot and homogeneity fits on a ~14 000-row
        # stratum dominate; one arm, no propensity fit, one estimator.
        Workload(
            "mar_homnull_20k",
            {"mechanism": "MAR", "population_params": HOMOGENEOUS_POP,
             "designs": ["optimal"], "estimators": ["DI"],
             "include_model_variance": True},
            chunk=80, trace_reps=240, reference_reps=40,
        ),
        # The only workload through the CLI, CSV ingestion, the process
        # pool and emit_results; pilot and designs are fitted once.
        Workload(
            "fixed_cli_2w",
            {"mechanism": "FixedPartition", "designs": list(THREE_DESIGNS),
             "estimators": list(SEQUENTIAL)},
            chunk=400, trace_reps=240, reference_reps=60, cli_threads=2,
        ),
    )
}


def derive_seed(seed, k):
    """Monte Carlo seed of attempt k of a run made with benchmark seed ``seed``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def write_population_csv(path, seed):
    """Seeded FixedPartition population: N = 10 000, MAR certainty stratum at 70%."""
    from seqdi import (
        RngStream, SelectionMechanism, calibrate_intercept, draw_nonprob,
        generate_population, save_population_csv,
    )

    pop = generate_population(BENCH_POP, RngStream(seed, 0))
    mech = SelectionMechanism("MAR", (2.0, -2.0), target_rate=0.70)
    mech.intercept = calibrate_intercept(mech, pop)
    save_population_csv(path, pop, draw_nonprob(pop, mech, RngStream(seed, 1)))


def summary_numbers(summary):
    """The checked numbers of an McSummary: per arm RB, RRMSE, var_ratio,
    coverage; per test reject_rate, mean_p, median_p."""
    return {
        "arms": {f"{a.estimator}/{a.design}": [a.rb, a.rrmse, a.var_ratio, a.coverage]
                 for a in summary.arms},
        "tests": {t.design: [t.reject_rate, t.mean_p, t.median_p] for t in summary.tests},
    }


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def _cell(text):
    return None if text == "" else float(text)


def read_summary_csv(out_dir):
    """The same numbers as :func:`summary_numbers`, from ``seqdi simulate`` output."""
    arms = {
        f"{row['Estimator']}/{row['Design']}":
            [_cell(row[c]) for c in ("RB", "RRMSE", "VarRatio", "Coverage")]
        for row in _read_rows(os.path.join(out_dir, "summary.csv"))
    }
    tests = {
        row["Design"]: [_cell(row[c]) for c in ("reject_rate", "mean_p", "median_p")]
        for row in _read_rows(os.path.join(out_dir, "test_summary.csv"))
    }
    return {"arms": arms, "tests": tests}


def plausibility_errors(numbers, expected):
    """Problems with a summary whose exact values are unknown (any seed).

    ``expected`` is the reference summary of the same workload: the arms
    and tests must match its keys, a value may be missing only where the
    reference has none, and every value must be finite and in range.
    """
    errors = []
    for part in ("arms", "tests"):
        if set(numbers[part]) != set(expected[part]):
            errors.append(f"{part}: got {sorted(numbers[part])}, want {sorted(expected[part])}")
            return errors
    for key, (rb, rrmse, var_ratio, coverage) in numbers["arms"].items():
        ref = expected["arms"][key]
        for label, value, want in (("RB", rb, ref[0]), ("RRMSE", rrmse, ref[1]),
                                   ("var_ratio", var_ratio, ref[2]),
                                   ("coverage", coverage, ref[3])):
            if (value is None) != (want is None) or (value is not None
                                                     and not math.isfinite(value)):
                errors.append(f"{key} {label} = {value}")
        if rrmse is not None and rrmse < 0:
            errors.append(f"{key} RRMSE = {rrmse}")
        if var_ratio is not None and var_ratio <= 0:
            errors.append(f"{key} var_ratio = {var_ratio}")
        if coverage is not None and not 0.0 <= coverage <= 1.0:
            errors.append(f"{key} coverage = {coverage}")
    for key, values in numbers["tests"].items():
        if any(v is None or not 0.0 <= v <= 1.0 for v in values):
            errors.append(f"test {key} = {values}")
    return errors


def reference_errors(numbers, reference):
    """Mismatches against the recorded reference, at 1e-10 relative.

    The absolute floor of 1e-12 only matters for values within 1e-2 of
    zero, such as an RB (in percent) of a nearly unbiased arm, whose last
    digits carry the rounding of summing thousands of terms.
    """
    errors = plausibility_errors(numbers, reference)
    if errors:
        return errors
    for part in ("arms", "tests"):
        for key, values in numbers[part].items():
            for got, want in zip(values, reference[part][key]):
                if got is None and want is None:
                    continue
                if not math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12):
                    errors.append(f"{part} {key}: {values} != reference {reference[part][key]}")
                    break
    return errors
