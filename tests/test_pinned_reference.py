"""Per-replication harness output and one-shot CLI output pinned to recorded values.

``pinned_reference.json`` holds, for small seeded ``run_mc`` configs, every
arm's per-replication points and variances and every design's
homogeneity-test p-values; and for the ``design``, ``estimate`` and
``test`` subcommands on the ``fixed_sequential`` population file and a
seeded sample of its complement, the columns of the file each writes
(the test's printed statistic, degrees of freedom and p-value).  A
refactor must reproduce them to 1e-10 relative, the tolerance of the
benchmark's reference check.

Re-record (only when a change is meant to move the numbers) with::

    PYTHONPATH=src python tests/test_pinned_reference.py
"""

import contextlib
import csv
import io
import json
import math
import pathlib
import re
import sys

import pytest

from seqdi.cli import main
from seqdi.harness import McConfig, run_mc
from seqdi.numerics import RngStream
from seqdi.population import (
    SelectionMechanism,
    calibrate_intercept,
    draw_nonprob,
    generate_population,
    save_population_csv,
    write_csv,
)

REFERENCE = pathlib.Path(__file__).with_name("pinned_reference.json")
POP = {"N": 1200, "beta": [10.0, 15.0, 10.0, 20.0], "sigma": 0.6}
SEQUENTIAL = ["DI", "HT_seq", "sepDI_b", "sepDI_sigma", "comDI_sigma", "adDI"]
ALL = SEQUENTIAL + ["GREG", "IPW", "DR", "GREG_DR"]
DESIGNS = ["optimal", "equal", "pps"]

CASES = {
    "mar_all": dict(seed=11, mechanism="MAR", population_params=POP,
                    designs=DESIGNS, estimators=ALL),
    "nmar_all": dict(seed=12, mechanism="NMAR", population_params=POP,
                     designs=DESIGNS, estimators=ALL),
    "fixed_sequential": dict(seed=13, mechanism="FixedPartition",
                             designs=DESIGNS, estimators=SEQUENTIAL),
    "mar_no_test": dict(seed=14, mechanism="MAR", population_params=POP,
                        designs=["equal", "optimal"], estimators=["adDI", "DI", "GREG_DR"],
                        run_test=False),
}
REPLICATIONS = 6

# argv of one-shot subcommands; {pop} is the fixed_sequential population
# file, {sample} a sample file of its complement and {out} the output file
_POP_NP = ["--pop", "{pop}", "--np", "150", "--out", "{out}"]
_SAMPLE = ["--pop", "{pop}", "--sample", "{sample}"]
CLI_CASES = {
    "cli_design_optimal": ["design", "--kind", "optimal", *_POP_NP],
    "cli_design_equal": ["design", "--kind", "equal", *_POP_NP],
    "cli_design_pps": ["design", "--kind", "pps", *_POP_NP],
    "cli_design_pilot": ["design", "--pilot", "{pop}", *_POP_NP],
    "cli_estimate_b": ["estimate", *_SAMPLE, "--weights", "b", "--out", "{out}"],
    "cli_estimate_sigma": ["estimate", *_SAMPLE, "--weights", "sigma", "--out", "{out}"],
    "cli_test": ["test", *_SAMPLE],
}


def _fixed_population_csv(path):
    """Write the fixed_sequential population file; return its partition."""
    pop = generate_population(POP, RngStream(5, 0))
    mech = SelectionMechanism("MAR", (2.0, -2.0), target_rate=0.70)
    mech.intercept = calibrate_intercept(mech, pop)
    partition = draw_nonprob(pop, mech, RngStream(5, 1))
    save_population_csv(path, pop, partition)
    return partition


def _sample_csv(path, partition):
    """Write a Poisson sample of the complement rows with pi in [0.2, 0.8)."""
    rng = RngStream(5, 2)
    u1 = partition.complement_idx
    pi = 0.2 + 0.6 * rng.uniform(size=len(u1))
    keep = rng.uniform(size=len(u1)) < pi
    write_csv(path, ["id", "pi"], [u1[keep] + 1, pi[keep]])


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _run_cli(name, tmp_dir):
    """The columns of the file CLI_CASES[name] writes, numbers as floats, or
    for ``test`` the numbers it prints, each as a column of one."""
    tmp = pathlib.Path(tmp_dir)
    paths = {key: tmp / f"{name}_{key}.csv" for key in ("pop", "sample", "out")}
    _sample_csv(paths["sample"], _fixed_population_csv(paths["pop"]))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main([arg.format(**paths) for arg in CLI_CASES[name]]) == 0
    if not paths["out"].exists():
        found = re.fullmatch(r"F = (\S+), df = (\S+), p = (\S+) -> .*\n", printed.getvalue())
        return {name: [float(value)] for name, value in zip(("F", "df", "p"), found.groups())}
    with open(paths["out"], newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return {column: [_number(cell) for cell in values]
            for column, values in zip(header, zip(*rows))}


def _run(name, tmp_dir):
    if name in CLI_CASES:
        return _run_cli(name, tmp_dir)
    kwargs = dict(CASES[name], replications=REPLICATIONS)
    if kwargs["mechanism"] == "FixedPartition":
        path = pathlib.Path(tmp_dir) / f"{name}.csv"
        _fixed_population_csv(path)
        kwargs["population_csv"] = str(path)
    summary = run_mc(McConfig(**kwargs))
    return {
        "arms": {
            f"{arm.estimator}/{arm.design}": {
                "points": arm.points.tolist(),
                "variances": None if arm.variances is None else arm.variances.tolist(),
            }
            for arm in summary.arms
        },
        "tests": {t.design: t.p_values.tolist() for t in summary.tests},
    }


def _assert_close(got, want, label):
    assert (got is None) == (want is None), label
    if want is None:
        return
    assert len(got) == len(want), label
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-10, abs_tol=1e-12), f"{label}: {g!r} != {w!r}"


@pytest.mark.parametrize("name", sorted(CASES) + sorted(CLI_CASES))
def test_matches_pinned_reference(name, tmp_path):
    want = json.loads(REFERENCE.read_text())[name]
    got = _run(name, tmp_path)
    if name in CLI_CASES:
        assert list(got) == list(want)
        for column, values in want.items():
            if isinstance(values[0], str):
                assert got[column] == values, column
            else:
                _assert_close(got[column], values, column)
        return
    assert list(got["arms"]) == list(want["arms"])
    assert list(got["tests"]) == list(want["tests"])
    for key, arm in want["arms"].items():
        _assert_close(got["arms"][key]["points"], arm["points"], f"{key} points")
        _assert_close(got["arms"][key]["variances"], arm["variances"], f"{key} variances")
    for design, p_values in want["tests"].items():
        _assert_close(got["tests"][design], p_values, f"test {design}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: _run(name, tmp) for name in sorted(CASES) + sorted(CLI_CASES)}
    REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
