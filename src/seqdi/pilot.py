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


def _variance_regression(e: np.ndarray, m: np.ndarray):
    """Fit log e^2 = log sigma2 + gamma log m on rows with usable values.

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
    e2 = e**2
    mean_e2 = float(np.mean(e2))
    keep = (m > 0) & (e2 > RESIDUAL_DROP_TOL * mean_e2)
    mk = m[keep]
    if mk.size < 2 or float(np.ptp(mk)) <= 1e-12 * max(1.0, float(np.max(np.abs(mk)))):
        raise Unidentifiable("variance exponent needs two distinct positive fitted means")
    e2k = e2[keep]
    lm = np.log(mk)
    lc = lm - np.mean(lm)
    pivot = float(lc @ lc)
    if pivot <= 1e-12 * (mk.size + float(lm @ lm)) / 2:
        raise NotPositiveDefinite(f"pivot {pivot:.3e} at column 1")
    # le centred too: sum(lc) is zero only to rounding, and lc'log e^2 alone
    # strays from an extended-precision slope by up to 5e-12 relative
    le = np.log(e2k)
    gamma = float(np.clip(lc @ (le - np.mean(le)) / pivot, -GAMMA_CAP, GAMMA_CAP))
    sigma2 = float(np.mean(e2k / mk**gamma))
    return sigma2, gamma


def fit_pilot(x: np.ndarray, y: np.ndarray) -> PilotVarianceModel:
    """Fit the power variance model with equal base weights.

    See :func:`fit_power_variance` for the weighted variant used on
    probability samples.
    """
    return fit_power_variance(x, y, np.ones(len(y)))


def fit_power_variance(x: np.ndarray, y: np.ndarray,
                       base_weights: np.ndarray) -> PilotVarianceModel:
    """Two-stage power-variance fit with externally supplied base weights.

    Stage one regresses y on x with the base weights (equal weights for a
    pilot fit, inverse inclusion probabilities on a probability sample).
    Stage two fits the variance regression on the residuals.  One FGLS
    step then refits the mean with weights base/sigma2_i and re-estimates
    the variance model from the fresh residuals.
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
        m = x @ beta
        e = y - m
        positive = m[m > 0]
        if positive.size == 0:
            raise Unidentifiable("no positive fitted means")
        mean_floor = quantile(positive, MEAN_FLOOR_QUANTILE)

        if float(np.mean(e**2)) <= noise_floor:
            # residuals at floating-point noise: homoscedastic model at the floor
            sigma2, gamma = sigma2_floor, 0.0
            break
        sigma2, gamma = _variance_regression(e, m)
        sigma2 = max(sigma2, sigma2_floor)

        if refit:
            s2i = np.maximum(sigma2 * np.maximum(m, mean_floor) ** gamma, sigma2_floor)
            beta = weighted_ls(x, y, base_weights / s2i)

    return PilotVarianceModel(
        beta=beta,
        sigma2=sigma2,
        gamma=gamma,
        mean_floor=mean_floor,
        sigma2_floor=sigma2_floor,
    )


def predict_sigma2(model: PilotVarianceModel, x: np.ndarray) -> np.ndarray:
    """Predicted variance max(sigma2 * max(x'beta, mean_floor)^gamma, sigma2_floor)
    for each row of x; total thanks to the floors."""
    return _sigma2_at(model, np.asarray(x, dtype=float) @ model.beta)


def _sigma2_at(model: PilotVarianceModel, m: np.ndarray) -> np.ndarray:
    """:func:`predict_sigma2` of the rows whose linear predictor x'beta is m."""
    return np.maximum(model.sigma2 * np.maximum(m, model.mean_floor) ** model.gamma,
                      model.sigma2_floor)
