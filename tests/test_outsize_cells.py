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
from seqdi.homogeneity import fgls_np, fgls_p
from seqdi.numerics import logistic_fit, weighted_ls
from seqdi.pilot import fit_pilot, fit_power_variance, predict_sigma2

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
    """The pilot model with its ``fitted=`` and ``variances=`` outputs."""
    fitted, variances = np.empty(len(y)), np.empty(len(y))
    return fit_pilot(x, y, fitted=fitted, variances=variances), fitted, variances


def _pilot_values(x, y):
    model, fitted, variances = _pilot(x, y)
    return (model.beta, model.sigma2, model.gamma, model.mean_floor, model.sigma2_floor,
            fitted, variances)


def _fgls_np(x, y):
    model, fitted, variances = _pilot(x, y)
    return fgls_np(x, y, model, variances, fitted)


KERNELS = {
    "fit_pilot": lambda x, y, pi, delta: _pilot_values(x, y),
    "fgls_np": lambda x, y, pi, delta: _fgls_np(x, y),
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
@example(cells=[(0, 2, 1e64), (39, 2, 1e66)], noisy=False)  # every fitted variance overflows
@example(cells=[(0, 2, 1e72), (39, 2, 1e76)], noisy=False)  # 10 of 40 fitted variances overflow
@example(cells=[(0, 2, 1e62), (20, 2, 1e64)], noisy=True)  # the variance scale overflows
@example(cells=[(0, 2, 1e50), (20, 2, 1e50)], noisy=False)  # the FGLS proxies' squares overflow
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


@pytest.mark.parametrize("cells, gamma", [([(0, 2, 1e64), (39, 2, 1e66)], "3"),
                                          ([(0, 2, 1e72), (39, 2, 1e76)], "2.253")])
def test_variances_overflowing_in_any_row_are_the_fits_error(cells, gamma):
    # every row's variance overflows in the first pass, or 10 of 40 in the last
    x, y, _, _ = outsize_frame(cells, noisy=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=rf"the fitted variances overflow \(gamma = {gamma}\)"):
            fit_pilot(x, y)


def test_overflowing_scale_is_the_fits_error():
    # m**gamma underflows to 0 in some row, so the moment-matched scale e2 / power is infinite
    x, y, pi, _ = outsize_frame([(0, 2, 1e62), (20, 2, 1e64)], noisy=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=r"the variance scale overflows \(gamma = -3\)"):
            fit_power_variance(x, y, 1.0 / pi)


def test_fgls_proxies_whose_squares_overflow_are_refused():
    # the pilot's variances and the sample fit's pi * tau2 reach ~5e195, finite, squared inf
    x, y, pi, _ = outsize_frame([(0, 2, 1e50), (20, 2, 1e50)], noisy=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: _fgls_np(x, y), lambda: fgls_p(x, y, pi)):
            with pytest.raises(InvalidParams, match="the variance proxies overflow when squared"):
                call()


@pytest.mark.parametrize("value", [1e200, 2e154])
def test_constant_outcomes_whose_square_overflows_are_refused(value):
    # a constant y gives a floor of max(mean^2, 1) * 1e-8, whose square overflows
    x = np.column_stack([np.ones(16), 1.0 + np.arange(16) / 10.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match="the squared outcomes overflow"):
            fit_pilot(x, np.full(16, value))


@pytest.mark.parametrize("scale", [1e-13, 1e-50, 1e-100, 1e-150])
def test_small_outcomes_fit_the_exponent_of_the_unscaled_ones(scale):
    # the fitted means' spread test is relative, so means below 1 identify gamma
    x, y, _, _ = outsize_frame([], noisy=True)
    gamma = fit_pilot(x, y).gamma
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = fit_pilot(x, y * scale).gamma
    assert scaled == pytest.approx(gamma, rel=1e-10)


@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_tiny_outcomes_fit_or_fail_cleanly(scale):
    # a finite fit or a SeqdiError, never another class or a warning
    x, y, _, _ = outsize_frame([], noisy=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = _pilot_values(x, y * scale)
        except SeqdiError:
            return
    assert finite(*values)


def test_a_variance_floor_that_underflows_is_refused():
    # var(y) is about 5.7e-320, so 1e-8 var(y) rounds to 0
    x, y, _, _ = outsize_frame([], noisy=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match="the variance floor underflows"):
            fit_pilot(x, y * 1e-160)


def test_refit_weights_that_overflow_are_named():
    # the variances near 1e-310 give refit weights 1/sigma2 that overflow: the
    # weights, not the outcomes, make X' diag(w) y infinite
    x, y, _, _ = outsize_frame([], noisy=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=r"^X' diag\(w\) y is not finite: 40 of 40 "
                                                r"weights are NaN or infinite$"):
            fit_pilot(x, y * 1e-155)
        # an outcome overflow with finite weights keeps its own message
        with pytest.raises(InvalidParams, match=r"^X' diag\(w\) y overflows: the weighted "
                                                r"outcomes are too large$"):
            weighted_ls(x, y * 1e306, np.ones(N))
