"""The run-lifetime workspace of the stratum fits.

One :class:`~seqdi.numerics.Workspace` serves every fit of a Monte Carlo
run: calls on fewer rows than it holds use its leading rows, give the bits
of a call that builds its own, and return nothing that a later call can
overwrite.  Each call site holds its own arrays, which no other site
reads or writes.  With it, a replication of the homogeneous null allocates
no stratum-sized temporary, so the heap stops growing and shrinking.
"""

import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

from seqdi.errors import NotPositiveDefinite, Separation
from seqdi.homogeneity import fgls_np, fgls_p
from seqdi.numerics import Workspace, gram, logistic_fit, weighted_ls
from seqdi.pilot import _sigma2_at, fit_pilot, fit_power_variance

ROOT = pathlib.Path(__file__).resolve().parents[1]


def frame(seed, n):
    """Column-major rows (1, x1, x2) as the package holds them, a positive
    heteroscedastic outcome, Poisson probabilities and 0/1 responses."""
    rng = np.random.default_rng(seed)
    x = np.asfortranarray(np.column_stack([np.ones(n), rng.uniform(size=(n, 2))]))
    mu = x @ np.array([10.0, 15.0, 10.0])
    y = mu * np.exp(rng.normal(-0.18, 0.6, size=n))
    pi = rng.uniform(0.05, 0.9, size=n)
    delta = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-(x @ [-1.0, 2.0, -2.0])))) * 1.0
    return x, y, pi, delta


def fits(x, y, pi, delta, ws):
    """Every fit that takes a workspace, as byte strings: fit_power_variance
    (its model and fitted means), fit_pilot, fgls_np at that pilot,
    fgls_p with the model variance, logistic_fit, weighted_ls and gram."""
    out = {}
    fitted = np.empty(len(y))
    model = fit_power_variance(x, y, 1.0 / pi, fitted=fitted, out=ws)
    out["power"] = (model.beta, model.sigma2, model.gamma, model.mean_floor, model.sigma2_floor,
                    fitted)
    m_np = np.empty(len(y))
    pilot = fit_pilot(x, y, fitted=m_np, out=ws)
    out["pilot"] = (pilot.beta, pilot.sigma2, pilot.gamma, m_np)
    out["fgls_np"] = fgls_np(x, y, pilot, _sigma2_at(pilot, m_np), m_np, out=ws)
    out["fgls_p"] = fgls_p(x, y, pi, include_model_variance=True, out=ws)
    out["logistic"] = (logistic_fit(x, delta, out=ws),)
    out["wls"] = (weighted_ls(x, y, pi, out=ws), gram(x, pi, ws))
    return out


def as_bytes(results):
    return {key: b"".join(np.asarray(v, dtype=float).tobytes() for v in values)
            for key, values in results.items()}


def held_vectors(ws):
    """Every vector the workspace's call sites hold."""
    return [v for floats, bools in ws._sites.values() for v in floats + bools]


def test_shared_workspace_keeps_the_bits():
    # one workspace larger than every frame, filled with NaN after a first pass
    # has built every site's vectors, so that a read of an entry no call wrote
    # shows; frames of several sizes in sequence, then the first again,
    # interleaved with the others
    ws = Workspace(5000, 3)
    frames = [frame(seed, n) for seed, n in enumerate((4000, 37, 1200, 5000))]
    frames.append(frames[0])
    fits(*frames[0], ws)
    for vector in [ws.wx] + held_vectors(ws):
        vector.fill(np.nan)
    kept = []
    for data in frames:
        results = fits(*data, ws)
        assert as_bytes(results) == as_bytes(fits(*data, None))
        kept.append((data, results, as_bytes(results)))
    # what the calls returned is not the workspace: later calls left it as it was
    for data, results, want in kept:
        assert as_bytes(results) == want
        assert want == as_bytes(fits(*data, None))


def test_each_site_holds_its_own_vectors():
    ws = Workspace(300, 3)
    fits(*frame(4, 300), ws)
    vectors = [ws.wx] + held_vectors(ws)
    assert len(vectors) == 1 + 24 + 5  # the ten sites' vectors and gram's copy
    for i, a in enumerate(vectors):
        for b in vectors[i + 1:]:
            assert not np.shares_memory(a, b)


def test_workspace_must_hold_the_rows_and_columns():
    x, y, pi, _ = frame(1, 50)
    for rows, cols in ((49, 3), (50, 2)):
        with pytest.raises(ValueError, match="workspace built for"):
            fit_pilot(x, y, out=Workspace(rows, cols))
        with pytest.raises(ValueError, match="workspace built for"):
            fgls_p(x, y, pi, out=Workspace(rows, cols))


def test_a_fit_that_raises_gives_its_arrays_back():
    x, y, pi, delta = frame(3, 400)
    ws = Workspace(500, 3)
    collinear = x.copy()
    collinear[:, 2] = collinear[:, 1]
    with pytest.raises(NotPositiveDefinite):
        fit_pilot(collinear, y, out=ws)
    with pytest.raises(Separation):
        logistic_fit(x, (x[:, 1] > 0.5) * 1.0, out=ws)
    assert as_bytes(fits(x, y, pi, delta, ws)) == as_bytes(fits(x, y, pi, delta, None))


def test_pickled_workspace_carries_its_size_only():
    ws = Workspace(20_000, 3)
    ws.held("site", 20_000, 6, 2)
    copy = pickle.loads(pickle.dumps(ws))
    assert len(pickle.dumps(ws)) < 1000
    assert (copy.n_max, copy.d, copy.wx.shape) == (20_000, 3, (20_000, 3))
    assert copy.wx.flags.f_contiguous
    assert held_vectors(copy) == []


# The homogeneous-null workload of bench/workloads.py, run in process after one
# warm-up run.  Whether glibc trims a freed stratum-sized temporary off the
# heap top, and faults it in again at the next replication, depends on the
# heap layout, which the length of the command line moves; so the script runs
# at two lengths, and each timed run counts its set-up too.
_CHURN_SCRIPT = """
import resource
import sys

sys.path.insert(0, sys.argv[1])
import workloads
from seqdi.harness import McConfig, run_mc

config = workloads.WORKLOADS["mar_homnull_20k"].config
run_mc(McConfig(replications=3, seed=1, **config))
for seed in (2, 3, 4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_mc(McConfig(replications=100, seed=seed, **config))
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap, ru_minflt")
@pytest.mark.parametrize("pad", ["", "x" * 37])
def test_no_heap_churn_in_the_homogeneous_null(pad):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHURN_SCRIPT, str(ROOT / "bench"), pad],
                          capture_output=True, text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    per_replication = [float(line) for line in proc.stdout.split()]
    assert len(per_replication) == 3
    assert max(per_replication) <= 10, per_replication
