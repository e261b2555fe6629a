"""The kernels on finite but outsize inputs: a clean error, never a warning.

A 40-row frame, x = (1, 1 + i/10) and y = 10 + 2 x1 (plus unit noise or
none), gets one or two cells set to an outsize magnitude.  Under
``warnings.simplefilter("error")`` each kernel must return finite values or
raise a SeqdiError (or the ValueError its docstring names): an overflow in
the middle of a fit shows as the error of the check it fails, not as a numpy
warning, whether or not the caller runs under ``np.errstate``.
hypothesis is a test-only dependency; the module skips without it.
"""

import warnings

import numpy as np
import pytest

from seqdi.errors import InvalidParams, SeqdiError
from seqdi.homogeneity import fgls_p
from seqdi.numerics import logistic_fit, weighted_ls
from seqdi.pilot import fit_pilot, predict_sigma2

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

N = 40
MAGNITUDES = (1e300, -1e300, 1e200, 1e154, 1e100, 5e-324, 1e-300)
# a cell: its row, its column (0 and 1 of x, 2 for y) and its value
CELLS = st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, 2), st.sampled_from(MAGNITUDES)),
                 min_size=1, max_size=2)


def outsize_frame(cells, noisy):
    """The frame with ``cells`` set, Poisson probabilities and 0/1 responses."""
    rng = np.random.default_rng(7)
    x = np.column_stack([np.ones(N), 1.0 + np.arange(N) / 10.0])
    y = 10.0 + 2.0 * x[:, 1] + (rng.normal(size=N) if noisy else 0.0)
    for row, column, value in cells:
        if column < 2:
            x[row, column] = value
        else:
            y[row] = value
    pi = rng.uniform(0.2, 0.8, size=N)
    delta = (rng.uniform(size=N) < 0.5) * 1.0
    return np.asfortranarray(x), y, pi, delta


def finite(*values):
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


def contract_holds(call):
    """True when ``call()`` returns only finite values, or raises a SeqdiError or
    solve_spd's documented ValueError, which a Gram matrix holding NaN fails."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return finite(*call())
    except SeqdiError:
        return True
    except ValueError as err:
        return str(err) == "matrix is not symmetric"


def _pilot(x, y):
    model = fit_pilot(x, y)
    return model.beta, model.sigma2, model.gamma, model.mean_floor, model.sigma2_floor


KERNELS = {
    "fit_pilot": lambda x, y, pi, delta: _pilot(x, y),
    "fgls_p": lambda x, y, pi, delta: fgls_p(x, y, pi, include_model_variance=True),
    "predict_sigma2": lambda x, y, pi, delta: (predict_sigma2(fit_pilot(x, y), x),),
    "weighted_ls": lambda x, y, pi, delta: (weighted_ls(x, y, 1.0 / pi),),
    "logistic_fit": lambda x, y, pi, delta: (logistic_fit(x, delta),),
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(cells=CELLS, noisy=st.booleans())
@example(cells=[(0, 2, 1e154)], noisy=False)  # the variance regression's power overflows
@example(cells=[(0, 0, 1e300), (0, 2, 1e300)], noisy=False)  # X'Wy overflows
def test_outsize_cells_fail_cleanly(kernel, cells, noisy):
    data = outsize_frame(cells, noisy)
    assert contract_holds(lambda: KERNELS[kernel](*data))


def test_overflowing_power_is_the_fits_error():
    # y[0] = 1e154 fits gamma = 2.164, and its power overflows in the variance regression
    x, y, _, _ = outsize_frame([(0, 2, 1e154)], noisy=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=r"the fitted variances overflow \(gamma = 2.164\)"):
            fit_pilot(x, y)
