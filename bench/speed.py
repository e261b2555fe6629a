"""Machine-speed probe for scaling measured times to a reference speed.

On a shared machine the same code runs up to 1.8x slower or faster from
one minute to the next (neighbours on the host; no steal time is
reported, and process CPU time equals wall time).  Each timed unit of
work is therefore bracketed by two runs of a fixed probe that uses no
seqdi code: numpy work on 8 000-row arrays plus a pure-Python 3x3
Cholesky, the operation mix of a replication.  A time is scaled by
PROBE_REFERENCE_S over the mean of its two probes, so that it reads as
if the machine ran the probe in exactly PROBE_REFERENCE_S.  seqdi code
never runs in the probe, so a change to seqdi moves a scaled time by the
same factor as the raw one.
"""

import os
import subprocess
import sys
import time

import numpy as np

PROBE_REFERENCE_S = 0.24
_ROUNDS = 600


def probe():
    """Seconds taken by the fixed probe kernel."""
    gen = np.random.Generator(np.random.PCG64(12345))
    x = np.column_stack([np.ones(8000), gen.uniform(size=8000), gen.uniform(size=8000)])
    y = gen.lognormal(size=8000)
    coef = np.array([0.1, 0.5, -0.5])
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        w = 1.0 / (1.0 + np.exp(-(x @ coef)))
        gram = x.T @ (w[:, None] * x)
        lower = np.zeros((3, 3))
        for k in range(3):
            pivot = gram[k, k] - lower[k, :k] @ lower[k, :k]
            lower[k, k] = pivot**0.5
            lower[k + 1:, k] = (gram[k + 1:, k] - lower[k + 1:, :k] @ lower[k, :k]) / lower[k, k]
        np.quantile(y[gen.uniform(size=8000) < 0.15], 0.999)
        float(np.sum(w * y) / np.sum(w))
    return time.perf_counter() - start


class Bracket:
    """Probe before the first unit of work and after each one.

    ``timed(fn)`` returns (fn's result, wall seconds, scale) where
    wall * scale is the wall time at the reference speed.  Work that keeps
    n cores busy is bracketed by n probes at once: one here and one in each
    of n - 1 helper processes (this file run with ``--serve``), and scaled
    by their mean, since any of the cores may be the slow one.  The helpers
    are plain child processes that end when their standard input closes;
    ``close`` waits for each.  A disabled bracket runs no probe and returns
    scale 1.
    """

    def __init__(self, enabled=True, cores=1):
        self._helpers = []
        self._last = None
        try:
            if enabled:
                for _ in range(cores - 1):
                    self._helpers.append(subprocess.Popen(
                        [sys.executable, os.path.abspath(__file__), "--serve"],
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
                for helper in self._helpers:
                    if helper.stdout.readline().strip() != "ready":
                        raise RuntimeError("probe helper failed to start")
                self._last = self._probe()
        except BaseException:
            self.close()
            raise

    def _probe(self):
        for helper in self._helpers:
            helper.stdin.write("probe\n")
            helper.stdin.flush()
        times = [probe()] + [float(helper.stdout.readline()) for helper in self._helpers]
        return sum(times) / len(times)

    def close(self):
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def timed(self, fn):
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        if self._last is None:
            return result, wall, 1.0
        after = self._probe()
        scale = PROBE_REFERENCE_S / ((self._last + after) / 2.0)
        self._last = after
        return result, wall, scale


def serve():
    """Helper loop: answer each line of standard input with one probe time."""
    print("ready", flush=True)
    for _ in sys.stdin:
        print(repr(probe()), flush=True)


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
