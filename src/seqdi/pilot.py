"""Power variance model fitted on the certainty stratum.

Two-stage procedure: a pilot regression for the mean, then a log-log
regression of squared residuals on fitted means for the variance
exponent (its slope from centred moments, no design matrix) with the
scale matched to the mean squared residual, refined by one feasible
generalized least squares step.
The fitted model predicts a per-unit variance for any covariate vector,
with floors keeping predictions positive and bounded away from zero.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, Unidentifiable
from .numerics import quantile, weighted_ls

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
        if self.sigma2 <= 0 or self.mean_floor <= 0 or self.sigma2_floor <= 0:
            raise ValueError("scale parameters must be positive")


def _sigma2_floor(y: np.ndarray) -> float:
    base = float(np.var(y))
    if base <= 0.0:
        base = max(float(np.mean(y)) ** 2, 1.0)
    return SIGMA2_FLOOR_SCALE * base


def _variance_regression(e2: np.ndarray, mean_e2: float, m: np.ndarray):
    """Fit log e^2 = log sigma2 + gamma log m on rows with usable values,
    from the squared residuals e2 and their mean.

    Rows with nonpositive fitted mean or with squared residual below
    1e-12 times the average squared residual are dropped.  gamma is the
    least-squares slope from centred moments, lc'le / lc'lc with lc and le
    the centred log m and log e^2, so no design matrix is built.  lc'lc is
    the second Cholesky pivot of the unit-weight Gram of [1, log m]; at or
    below 1e-12 times that Gram's mean diagonal it raises
    NotPositiveDefinite, as that Cholesky did.  The intercept is never
    needed: the scale is recalibrated by moment matching at the fitted
    (capped) exponent, so sigma2 * m^gamma reproduces the average squared
    residual instead of its log-scale geometric counterpart.
    """
    keep = (m > 0) & (e2 > RESIDUAL_DROP_TOL * mean_e2)
    mk = m[keep]
    # mk is positive: its largest |value| is its maximum, and max - min its spread
    if mk.size < 2 or (top := float(mk.max())) - float(mk.min()) <= 1e-12 * max(1.0, top):
        raise Unidentifiable("variance exponent needs two distinct positive fitted means")
    e2k = e2[keep]
    lm = np.log(mk)
    lc = lm - np.mean(lm)
    # the sums over rows are einsum's, not BLAS's: OpenBLAS ddot splits a sum
    # of more than 10 000 terms across threads, whose count would move its bits
    pivot = float(np.einsum("i,i", lc, lc))
    if pivot <= 1e-12 * (mk.size + float(np.einsum("i,i", lm, lm))) / 2:
        raise NotPositiveDefinite(f"pivot {pivot:.3e} at column 1")
    # le centred too: sum(lc) is zero only to rounding, and lc'log e^2 alone
    # strays from an extended-precision slope by up to 5e-12 relative
    le = np.log(e2k)
    # Python's min and max keep a NaN slope as np.clip does
    slope = float(np.einsum("i,i", lc, le - np.mean(le))) / pivot
    gamma = min(max(slope, -GAMMA_CAP), GAMMA_CAP)
    sigma2 = float(np.mean(e2k / mk**gamma))
    return sigma2, gamma


def fit_pilot(x: np.ndarray, y: np.ndarray, fitted=None) -> PilotVarianceModel:
    """Fit the power variance model with equal base weights.

    See :func:`fit_power_variance` for the weighted variant used on
    probability samples and for ``fitted``.
    """
    return fit_power_variance(x, y, np.ones(len(y)), fitted=fitted)


def fit_power_variance(x: np.ndarray, y: np.ndarray, base_weights: np.ndarray,
                       fitted=None) -> PilotVarianceModel:
    """Two-stage power-variance fit with externally supplied base weights.

    Stage one regresses y on x with the base weights (equal weights for a
    pilot fit, inverse inclusion probabilities on a probability sample).
    Stage two fits the variance regression on the residuals.  One FGLS
    step then refits the mean with weights base/sigma2_i and re-estimates
    the variance model from the fresh residuals.

    ``fitted``, a float array of one entry per row, receives the fitted
    means x @ model.beta of the returned model (those of the last pass,
    bit for bit), so that a caller predicting the rows' variances
    (``_sigma2_at(model, fitted)``) or residuals need not form them again.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    if n <= d + 2:
        raise Unidentifiable(f"{n} rows are too few to identify the variance model")

    sigma2_floor = _sigma2_floor(y)
    beta = weighted_ls(x, y, base_weights)
    noise_floor = 1e-24 * max(float(np.mean(y**2)), 1e-300)
    for refit in (True, False):
        m = np.matmul(x, beta, out=fitted)
        e2 = (y - m) ** 2
        positive = m[m > 0]
        if positive.size == 0:
            raise Unidentifiable("no positive fitted means")
        mean_floor = quantile(positive, MEAN_FLOOR_QUANTILE)

        mean_e2 = float(np.mean(e2))
        if mean_e2 <= noise_floor:
            # residuals at floating-point noise: homoscedastic model at the floor
            return PilotVarianceModel(beta, sigma2_floor, 0.0, mean_floor, sigma2_floor)
        sigma2, gamma = _variance_regression(e2, mean_e2, m)
        model = PilotVarianceModel(beta, max(sigma2, sigma2_floor), gamma, mean_floor,
                                   sigma2_floor)
        if refit:
            beta = weighted_ls(x, y, base_weights / _sigma2_at(model, m))
    return model


def predict_sigma2(model: PilotVarianceModel, x: np.ndarray) -> np.ndarray:
    """Predicted variance max(sigma2 * max(x'beta, mean_floor)^gamma, sigma2_floor)
    for each row of x; total thanks to the floors."""
    return _sigma2_at(model, np.asarray(x, dtype=float) @ model.beta)


def _sigma2_at(model: PilotVarianceModel, m: np.ndarray) -> np.ndarray:
    """:func:`predict_sigma2` of the rows whose linear predictor x'beta is m."""
    return np.maximum(model.sigma2 * np.maximum(m, model.mean_floor) ** model.gamma,
                      model.sigma2_floor)
