"""Random small population and sample files through ``seqdi estimate``, ``test``
and ``design``.

Whatever the files hold, each command exits 0 or 1, never lets an exception
escape (on the command line that is a traceback), and prints no NaN when it
exits 0.  The frames are tiny (3 to 40 rows, 1 to 3 covariates) with a y that
is zero, constant or noisy and a size covariate x1 that may be negative.
hypothesis is a test-only dependency; the module skips without it.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest

from seqdi.cli import main
from seqdi.design import DESIGN_KINDS

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

Y_KINDS = ("zero", "constant", "noisy")


def _write(path, header, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(cell) for cell in row) + "\n")


def write_files(work, n, k, y_kind, negative, sample_y, seed):
    """A population file of n rows and a sample file drawn from its complement."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 10.0, size=(n, k))
    if negative:
        x[rng.uniform(size=n) < 0.5, 0] *= -1.0
    y = {"zero": np.zeros(n), "constant": np.full(n, 3.5),
         "noisy": x.sum(axis=1) + rng.normal(0.0, 1.0, size=n)}[y_kind]
    delta = (rng.uniform(size=n) < 0.5).astype(int)
    _write(os.path.join(work, "pop.csv"), ["id", *(f"x{j + 1}" for j in range(k)), "y", "delta"],
           ([i + 1, *x[i], y[i], delta[i]] for i in range(n)))
    complement = np.flatnonzero(delta == 0)
    members = complement[rng.uniform(size=len(complement)) < 0.7]
    pi = rng.choice([0.25, 0.5, 1.0], size=len(members))
    header = ["id", "pi", "y"] if sample_y else ["id", "pi"]
    rows = ([m + 1, p, *([rng.normal(0.0, 5.0)] if sample_y else [])]
            for m, p in zip(members, pi))
    _write(os.path.join(work, "sample.csv"), header, rows)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(3, 40), k=st.integers(1, 3), y_kind=st.sampled_from(Y_KINDS),
       negative=st.booleans(), sample_y=st.booleans(), weights=st.sampled_from(("b", "sigma")),
       kind=st.sampled_from(DESIGN_KINDS), np_size=st.integers(1, 45),
       seed=st.integers(0, 2**32 - 1))
def test_commands_exit_cleanly(n, k, y_kind, negative, sample_y, weights, kind, np_size, seed):
    with tempfile.TemporaryDirectory() as work:
        write_files(work, n, k, y_kind, negative, sample_y, seed)
        pop, sample = os.path.join(work, "pop.csv"), os.path.join(work, "sample.csv")
        for argv in (["estimate", "--pop", pop, "--sample", sample, "--weights", weights],
                     ["test", "--pop", pop, "--sample", sample],
                     ["design", "--pop", pop, "--np", str(np_size), "--kind", kind,
                      "--out", os.path.join(work, "design.csv")]):
            code, out, err = run(argv)
            assert code in (0, 1), (argv[0], code, err)
            assert "Traceback" not in err
            if code == 0:  # the temporary directory's random name may hold "nan"
                assert "nan" not in out.replace(work, "").lower(), (argv[0], out)
