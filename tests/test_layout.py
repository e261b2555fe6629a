"""The frame's memory layout contract.

``Population.x`` is held column-major, ``Population.rows`` gathers rows
exactly as ``x[idx]`` does but keeps that layout, and the regression
kernels give the same numbers, to rounding, on C- and Fortran-ordered
copies of the same inputs.
"""

import numpy as np
import pytest

from seqdi.estimators import WeightSpec, y_com_di, y_sep_di
from seqdi.homogeneity import fgls_p
from seqdi.numerics import RngStream, logistic_fit, weighted_ls
from seqdi.pilot import fit_power_variance
from seqdi.population import (
    Population,
    generate_population,
    load_population_csv,
    save_population_csv,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SEEDS = st.integers(0, 2**32 - 1)
POP_PARAMS = {"N": 400, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}


def assert_same(a, b, rel=1e-12):
    """Equal to ``rel`` relative to the largest entry of b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert np.all(np.abs(a - b) <= rel * np.max(np.abs(b)))


def frame(n, seed):
    """C-ordered rows (1, x1, x2), a positive outcome and Poisson probabilities."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
    y = (x @ np.array([10.0, 15.0, 10.0])) * np.exp(rng.normal(-0.18, 0.6, size=n))
    return x, y, rng.uniform(0.05, 0.9, size=n)


class TestFrameIsColumnMajor:
    def test_constructor_converts_c_order(self):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        assert x.flags.c_contiguous and not x.flags.f_contiguous
        pop = Population(x=x, y=np.arange(5.0))
        assert pop.x.flags.f_contiguous
        assert np.array_equal(pop.x, x)

    def test_generated_and_loaded_frames(self, tmp_path):
        pop = generate_population(POP_PARAMS, RngStream(3, 0))
        assert pop.x.flags.f_contiguous
        save_population_csv(tmp_path / "pop.csv", pop)
        assert load_population_csv(tmp_path / "pop.csv").population.x.flags.f_contiguous


class TestRows:
    pop = generate_population(POP_PARAMS, RngStream(4, 0))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(idx=st.lists(st.integers(0, POP_PARAMS["N"] - 1), max_size=60))
    def test_equals_fancy_indexing(self, idx):
        # empty, single-row, unsorted and repeated indices alike
        idx = np.asarray(idx, dtype=int)
        got = self.pop.rows(idx)
        assert got.shape == (len(idx), 3)
        assert got.tobytes(order="C") == self.pop.x[idx].tobytes(order="C")
        assert got.flags.f_contiguous

    def test_frame_total(self):
        assert np.array_equal(self.pop.x_total, self.pop.x.sum(axis=0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(50, 600), seed=SEEDS)
def test_kernels_agree_on_both_layouts(n, seed):
    x_c, y, pi = frame(n, seed)
    x_f = np.asfortranarray(x_c)
    assert x_f.flags.f_contiguous and not x_c.flags.f_contiguous

    assert_same(weighted_ls(x_f, y, 1.0 / pi), weighted_ls(x_c, y, 1.0 / pi))

    # The variance model regresses log e^2, so a last-bit difference in a
    # small residual e moves gamma and sigma2 by about eps / |e|, and the
    # FGLS refit and fgls_p carry that on: up to 5e-10 relative over 300
    # random frames, whichever the layout.  The bound is set above that.
    fits = [fit_power_variance(x, y, 1.0 / pi) for x in (x_f, x_c)]
    for name in ("beta", "sigma2", "gamma", "mean_floor", "sigma2_floor"):
        assert_same(getattr(fits[0], name), getattr(fits[1], name), rel=1e-8)

    for got, want in zip(fgls_p(x_f, y, pi), fgls_p(x_c, y, pi)):
        assert_same(got, want, rel=1e-8)

    half = n // 2
    model = fits[1]
    x_total = x_c[half:].sum(axis=0) * 1.5
    for kind in ("inverse_pi", "inverse_pi_sigma"):
        wspec = WeightSpec(kind)
        sep = [y_sep_di(y[:half], y[half:], x[half:], pi[half:], x_total, wspec, model)
               for x in (x_f, x_c)]
        com = [y_com_di(y[:half], x[:half], y[half:], x[half:], pi[half:], x_total, wspec, model)
               for x in (x_f, x_c)]
        for got, want in (sep, com):
            assert_same(got.point, want.point)
            assert_same(got.variance, want.variance)

    u = np.random.default_rng([seed, 1]).uniform(size=n)
    delta = (u < 0.3 + 0.4 * x_c[:, 1]).astype(float)
    delta[:2] = (0.0, 1.0)  # both classes present
    assert_same(logistic_fit(x_f, delta), logistic_fit(x_c, delta))
