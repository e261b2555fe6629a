"""Per-replication harness output pinned to recorded values.

``pinned_reference.json`` holds, for small seeded ``run_mc`` configs, every
arm's per-replication points and variances and every design's
homogeneity-test p-values.  A refactor of the harness must reproduce them
to 1e-10 relative, the tolerance of the benchmark's reference check.

Re-record (only when a change is meant to move the numbers) with::

    PYTHONPATH=src python tests/test_pinned_reference.py
"""

import json
import math
import pathlib
import sys

import pytest

from seqdi.harness import McConfig, run_mc
from seqdi.numerics import RngStream
from seqdi.population import (
    SelectionMechanism,
    calibrate_intercept,
    draw_nonprob,
    generate_population,
    save_population_csv,
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


def _run(name, tmp_dir):
    kwargs = dict(CASES[name], replications=REPLICATIONS)
    if kwargs["mechanism"] == "FixedPartition":
        pop = generate_population(POP, RngStream(5, 0))
        mech = SelectionMechanism("MAR", (2.0, -2.0), target_rate=0.70)
        mech.intercept = calibrate_intercept(mech, pop)
        path = pathlib.Path(tmp_dir) / f"{name}.csv"
        save_population_csv(path, pop, draw_nonprob(pop, mech, RngStream(5, 1)))
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_pinned_reference(name, tmp_path):
    want = json.loads(REFERENCE.read_text())[name]
    got = _run(name, tmp_path)
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
        recorded = {name: _run(name, tmp) for name in sorted(CASES)}
    REFERENCE.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
