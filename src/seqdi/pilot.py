"""Power variance model fitted on the certainty stratum.

Two-stage procedure: a pilot regression for the mean, then a log-log
regression of squared residuals on fitted means for the variance
exponent (its slope from centred moments, no design matrix) with the
scale matched to the mean squared residual, refined by one feasible
generalized least squares step.
The fitted model predicts a per-unit variance for any covariate vector,
with floors keeping predictions positive and bounded away from zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotPositiveDefinite, Unidentifiable
from .numerics import Workspace, _workspace, quantile, weighted_ls

GAMMA_CAP = 3.0
MEAN_FLOOR_QUANTILE = 0.05
SIGMA2_FLOOR_SCALE = 1e-8
RESIDUAL_DROP_TOL = 1e-12


@dataclass(frozen=True)
class PilotVarianceModel:
    """Fitted variance function V(y|x) = sigma2 * (x'beta)^gamma with safeguards.

    mean_floor is the 5% quantile of positive fitted means in the fitting
    sample; predictions floor the linear predictor there.  sigma2_floor
    bounds every predicted variance away from zero.
    """

    beta: np.ndarray
    sigma2: float
    gamma: float
    mean_floor: float
    sigma2_floor: float

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if abs(self.gamma) > GAMMA_CAP:
            raise ValueError("gamma exceeds its cap")
        scales = (self.sigma2, self.mean_floor, self.sigma2_floor)
        if not all(0 < scale < math.inf for scale in scales):
            raise ValueError("scale parameters must be positive and finite")


def _mean(v: np.ndarray) -> float:
    """np.mean(v) of a nonempty 1-D float array, bit for bit, without its wrapper."""
    return float(np.add.reduce(v) / v.size)


def _sigma2_floor(y: np.ndarray, scratch: np.ndarray) -> float:
    """SIGMA2_FLOOR_SCALE times var(y), or times max(mean(y)^2, 1) when y is constant.

    var(y) is np.var's computation, its squared deviations in ``scratch``;
    InvalidParams when they overflow.
    """
    with np.errstate(over="ignore"):
        mean = _mean(y)
        base = _mean(np.square(np.subtract(y, mean, out=scratch), out=scratch))
    if base == math.inf:
        raise InvalidParams("var(y) overflows: the outcomes are too large to square")
    if base <= 0.0:
        base = max(mean**2, 1.0)
    return SIGMA2_FLOOR_SCALE * base


def _variance_regression(e2: np.ndarray, mean_e2: float, m: np.ndarray, positive: np.ndarray,
                         out=None, power=None):
    """Fit log e^2 = log sigma2 + gamma log m on rows with usable values,
    from the squared residuals e2, their mean and the mask ``positive`` of m > 0.

    Rows with nonpositive fitted mean or with squared residual below
    1e-12 times the average squared residual are dropped; when none is,
    the fit reads m and e2 themselves.  gamma is the least-squares slope
    from centred moments, lc'le / lc'lc with lc and le the centred log m
    and log e^2, so no design matrix is built.  lc'lc is the second
    Cholesky pivot of the unit-weight Gram of [1, log m]; at or below 1e-12
    times that Gram's mean diagonal it raises NotPositiveDefinite, as that
    Cholesky did.  The intercept is never needed: the scale is
    recalibrated by moment matching at the fitted (capped) exponent, so
    sigma2 * m^gamma reproduces the average squared residual instead of its
    log-scale geometric counterpart.  ``power``, an array like m (a new
    one when None), holds lc and then receives m**gamma of every row (1
    where m <= 0, a dropped row), as :func:`_sigma2_from` reads it.
    """
    n = len(m)
    lm, keep = (Workspace(n, 1) if out is None else out).held(_variance_regression, n, 1, 1)
    power = np.empty(n) if power is None else power
    np.greater(e2, RESIDUAL_DROP_TOL * mean_e2, out=keep)
    np.logical_and(keep, positive, out=keep)
    mk, e2k = (m, e2) if keep.all() else (m[keep], e2[keep])
    k = mk.size
    # mk is positive: its largest |value| is its maximum, and max - min its spread
    if k < 2 or (top := float(mk.max())) - float(mk.min()) <= 1e-12 * max(1.0, top):
        raise Unidentifiable("variance exponent needs two distinct positive fitted means")
    lm, lc = lm[:k], power[:k]
    np.log(mk, out=lm)
    np.subtract(lm, _mean(lm), out=lc)
    # the sums over rows are einsum's, not BLAS's: OpenBLAS ddot splits a sum
    # of more than 10 000 terms across threads, whose count would move its bits
    pivot = float(np.einsum("i,i", lc, lc))
    if pivot <= 1e-12 * (k + float(np.einsum("i,i", lm, lm))) / 2:
        raise NotPositiveDefinite(f"pivot {pivot:.3e} at column 1")
    # le centred too: sum(lc) is zero only to rounding, and lc'log e^2 alone
    # strays from an extended-precision slope by up to 5e-12 relative
    le = np.log(e2k, out=lm)
    # Python's min and max keep a NaN slope as np.clip does
    slope = float(np.einsum("i,i", lc, np.subtract(le, _mean(le), out=le))) / pivot
    gamma = min(max(slope, -GAMMA_CAP), GAMMA_CAP)
    np.copyto(power, m)
    if k < n:
        np.copyto(power, 1.0, where=~positive)
    with np.errstate(over="ignore"):  # the refit names infinite variances
        power **= gamma  # m**gamma, with its fast paths
    return _mean(np.divide(e2k, power if k == n else power[keep], out=lm)), gamma


def fit_pilot(x: np.ndarray, y: np.ndarray, fitted=None, out=None,
              first=None, variances=None) -> PilotVarianceModel:
    """Fit the power variance model with equal base weights.

    See :func:`fit_power_variance` for the weighted variant used on
    probability samples, for ``fitted``, ``variances``, ``first`` and for
    the workspace ``out``.  Here ``first`` receives the unit-weight OLS
    coefficient ``weighted_ls(x, y, ones)``.
    """
    x = np.asarray(x, dtype=float)
    ws = _workspace(out, x)
    base, = ws.held(fit_pilot, len(x), 1)
    base.fill(1.0)
    return fit_power_variance(x, y, base, fitted=fitted, out=ws, first=first,
                              variances=variances)


def fit_power_variance(x: np.ndarray, y: np.ndarray, base_weights: np.ndarray,
                       fitted=None, out=None, first=None, variances=None) -> PilotVarianceModel:
    """Two-stage power-variance fit with externally supplied base weights.

    Stage one regresses y on x with the base weights (equal weights for a
    pilot fit, inverse inclusion probabilities on a probability sample).
    Stage two fits the variance regression on the residuals.  One FGLS
    step then refits the mean with weights base/sigma2_i and re-estimates
    the variance model from the fresh residuals.

    ``fitted``, a float array of one entry per row, receives the fitted
    means x @ model.beta of the returned model (those of the last pass,
    bit for bit), so that a caller forming the rows' residuals need not
    form them again; ``variances``, another, receives the returned model's
    variances of the rows, ``_sigma2_at(model, fitted)`` bit for bit, from
    the power the variance regression formed (see :func:`_sigma2_from`).
    ``first``, a float array of one entry per column, receives stage one's
    coefficient, so that a caller needing that regression need not fit it
    again.
    ``out`` is a :class:`~seqdi.numerics.Workspace` for at least x's rows (None:
    one of its own).  Raises InvalidParams when var(y), the squared outcomes,
    the squared residuals or, failing the refit, the fitted variances overflow.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    if n <= d + 2:
        raise Unidentifiable(f"{n} rows are too few to identify the variance model")
    ws = _workspace(out, x)
    e2, scratch, m, positive = ws.held(fit_power_variance, n, 3, 1)
    m = m if fitted is None else fitted
    # without variances=, the last pass forms them in scratch, where none reads them
    variances = scratch if variances is None else variances

    sigma2_floor = _sigma2_floor(y, scratch)
    beta = weighted_ls(x, y, base_weights, ws)
    if first is not None:
        first[:] = beta
    with np.errstate(over="ignore"):
        mean_y2 = _mean(np.square(y, out=scratch))
    if mean_y2 == math.inf:
        raise InvalidParams("the squared outcomes overflow")
    noise_floor = 1e-24 * max(mean_y2, 1e-300)
    for refit in (True, False):
        np.matmul(x, beta, out=m)
        with np.errstate(over="ignore"):
            mean_e2 = _mean(np.square(np.subtract(y, m, out=e2), out=e2))
        if mean_e2 == math.inf:
            raise InvalidParams("the squared residuals overflow")
        count = np.count_nonzero(np.greater(m, 0, out=positive))
        if count == 0:
            raise Unidentifiable("no positive fitted means")
        mean_floor = quantile(m if count == n else m[positive], MEAN_FLOOR_QUANTILE)

        if mean_e2 <= noise_floor:
            # residuals at floating-point noise: homoscedastic model at the floor,
            # whose variances max(m, mean_floor)**0 * floor are the floor
            variances.fill(sigma2_floor)
            return PilotVarianceModel(beta, sigma2_floor, 0.0, mean_floor, sigma2_floor)
        rows_sigma2 = scratch if refit else variances  # the refit's weights, or the caller's
        sigma2, gamma = _variance_regression(e2, mean_e2, m, positive, ws, rows_sigma2)
        model = PilotVarianceModel(beta, max(sigma2, sigma2_floor), gamma, mean_floor,
                                   sigma2_floor)
        _sigma2_from(model, m, rows_sigma2, positive)
        if refit:
            try:
                beta = weighted_ls(x, y, np.divide(base_weights, scratch, out=e2), ws)
            except NotPositiveDefinite as err:  # all weights 0 when the variances overflow
                if np.isinf(scratch).any():
                    raise InvalidParams("the fitted variances overflow "
                                        f"(gamma = {gamma:.4g})") from err
                raise
    return model


def predict_sigma2(model: PilotVarianceModel, x: np.ndarray) -> np.ndarray:
    """Predicted variance max(sigma2 * max(x'beta, mean_floor)^gamma, sigma2_floor)
    for each row of x; total thanks to the floors."""
    return _sigma2_at(model, np.asarray(x, dtype=float) @ model.beta)


def _sigma2_at(model: PilotVarianceModel, m: np.ndarray) -> np.ndarray:
    """:func:`predict_sigma2` of the rows whose linear predictor x'beta is m."""
    v = np.maximum(m, model.mean_floor)
    v **= model.gamma  # m**gamma, with its fast paths
    v *= model.sigma2
    return np.maximum(v, model.sigma2_floor)


def _sigma2_from(model: PilotVarianceModel, m: np.ndarray, power: np.ndarray, low) -> np.ndarray:
    """``_sigma2_at(model, m)`` bit for bit into ``power``, which holds m**gamma
    where m >= mean_floor, as :func:`_variance_regression` leaves it.

    Elsewhere max(m, mean_floor)**gamma is mean_floor**gamma, formed by the
    same ``**=``: numpy's pow gives an entry the same bits wherever it sits.
    ``low`` is boolean scratch.
    """
    floor = np.array([model.mean_floor])
    with np.errstate(over="ignore"):  # the refit names infinite variances
        floor **= model.gamma
        np.copyto(power, floor, where=np.less(m, model.mean_floor, out=low))
        power *= model.sigma2
    return np.maximum(power, model.sigma2_floor, out=power)
