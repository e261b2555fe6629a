"""Every file the CLI writes, pinned byte for byte by its SHA-256 digest.

``output_digests.json`` holds the digests of what ``seqdi simulate`` writes
for small-R copies of the three ``bench/workloads.py`` configs (the same
bytes at 1 and 2 workers), and of the ``design --out`` files, the
``estimate --out`` files and ``test``'s stdout on the benchmark's seeded
FixedPartition population and a seeded sample of its complement.  In
``run_metadata.json`` the ``software`` and ``blas_threads`` values are
blanked before hashing: they name the machine, not the run.

The last bits of a result depend on numpy's version and on the SIMD and
BLAS kernels it dispatches to, so the digests are compared only where the
numpy version and platform match those recorded; elsewhere the test skips,
and ``test_pinned_reference.py`` still checks the numbers to 1e-10.  A
change that moves no bit passes; one that reorders a single sum fails.

Re-record (only when a change is meant to move bits) with::

    PYTHONPATH=src python tests/test_output_digests.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import platform
import re
import sys

import numpy as np
import pytest

from seqdi.cli import main
from seqdi.numerics import RngStream
from seqdi.population import load_population_csv, write_csv

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = pathlib.Path(__file__).with_name("output_digests.json")
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

REPLICATIONS = 8
SEED = 3
# argv of the one-shot subcommands on {pop}, the population file, and {sample},
# a sample file of its complement; each writes {out} or prints its result
_POP_NP = ["--pop", "{pop}", "--np", "600", "--out", "{out}"]
_SAMPLE = ["--pop", "{pop}", "--sample", "{sample}"]
ONE_SHOT = {
    "design_optimal": ["design", *_POP_NP],
    "design_pps": ["design", "--kind", "pps", *_POP_NP],
    "design_pilot": ["design", "--pilot", "{pop}", *_POP_NP],
    "estimate_b": ["estimate", *_SAMPLE, "--out", "{out}"],
    "estimate_sigma": ["estimate", *_SAMPLE, "--weights", "sigma", "--out", "{out}"],
    "test": ["test", *_SAMPLE],
}


def platform_key() -> dict:
    """What the last bits depend on besides the program: numpy's version and
    the machine, with the SIMD targets numpy dispatches to on it."""
    simd = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return {"numpy": np.__version__,
            "platform": f"{sys.platform} {platform.machine()} {'+'.join(simd)}"}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: pathlib.Path) -> str:
    data = path.read_bytes()
    if path.name == "run_metadata.json":
        data = re.sub(rb'("software"|"blas_threads"): \{[^{}]*\}', rb"\1: null", data)
    return _digest(data)


def _sample_csv(path, pop_path):
    """A Poisson sample of the population file's complement with pi in [0.1, 0.5)."""
    u1 = load_population_csv(pop_path).require_partition().complement_idx
    rng = RngStream(SEED, 0)
    pi = 0.1 + 0.4 * rng.uniform(size=len(u1))
    keep = rng.uniform(size=len(u1)) < pi
    write_csv(path, ["id", "pi"], [u1[keep] + 1, pi[keep]])


def output_digests(tmp: pathlib.Path, threads: int) -> dict:
    """The digest of every file simulate writes at ``threads`` workers, keyed
    "workload/file", and of every one-shot output, keyed by ONE_SHOT's name."""
    pop = tmp / "pop.csv"
    if not pop.exists():
        workloads.write_population_csv(pop, workloads.REFERENCE_SEED)
        _sample_csv(tmp / "sample.csv", pop)
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        config = dict(workload.config)
        if "population_params" in config:
            config["population"] = config.pop("population_params")
        else:
            config["population_csv"] = str(pop)
        config.update(replications=REPLICATIONS, seed=SEED)
        (tmp / f"{name}.json").write_text(json.dumps(config))
        out = tmp / f"{name}_{threads}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["simulate", "--config", str(tmp / f"{name}.json"), "--out", str(out),
                         "--threads", str(threads)]) == 0
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = _file_digest(path)
    if threads == 1:
        for name, argv in ONE_SHOT.items():
            out = tmp / f"{name}.csv"
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                assert main([arg.format(pop=pop, sample=tmp / "sample.csv", out=out)
                             for arg in argv]) == 0
            digests[name] = (_file_digest(out) if out.exists()
                             else _digest(printed.getvalue().encode()))
    return digests


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_are_byte_identical(threads, tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    if platform_key() != recorded["recorded_on"]:
        pytest.skip(f"digests recorded on {recorded['recorded_on']}, this is {platform_key()}")
    got = output_digests(tmp_path, threads)
    want = {key: value for key, value in recorded["digests"].items()
            if threads == 1 or "/" in key}
    assert got == want


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(pathlib.Path(tmp), 1)
    DIGESTS.write_text(json.dumps({"recorded_on": platform_key(), "digests": digests},
                                  indent=1) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
