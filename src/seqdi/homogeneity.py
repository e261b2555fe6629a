"""Coefficient-homogeneity diagnostic between the two strata.

Compares FGLS regression coefficients fitted on the certainty stratum
and on the probability sample through a Wald-type quadratic form,
calibrated against a chi-square distribution with d degrees of freedom.
The two coefficient estimators come from disjoint population subsets, so
no covariance term enters the statistic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, SingularVariance
from .estimators import Estimate
from .numerics import _workspace, chisq_sf, gram, inv_spd, solve_spd
from .pilot import PilotVarianceModel, fit_power_variance


@dataclass(frozen=True)
class HomogeneityResult:
    statistic: float
    df: int
    p_value: float
    reject: bool


def _sandwich(x, inv_bread, meat_scale, residuals, out=None):
    """A^{-1} B A^{-1} for the inverted bread A^{-1} and B = sum meat_scale_i e_i^2 x_i x_i',
    with the numerics.Workspace ``out``."""
    ws = _workspace(out, x)
    meat = np.square(residuals, out=ws.held(_sandwich, len(x), 1)[0])
    return inv_bread @ gram(x, np.multiply(meat_scale, meat, out=meat), ws) @ inv_bread


def design_variance_meat(x_s, residuals, pi_s, tau2_s, out=None) -> np.ndarray:
    """Poisson design-variance meat sum (1-pi) (x e)(x e)' / (pi tau2)^2.

    This is the inner matrix of the coefficient design variance; the full
    estimate wraps it in the inverse weighted Gram matrix on both sides.
    ``out`` is a :class:`~seqdi.numerics.Workspace`.
    """
    x_s = np.asarray(x_s, dtype=float)
    ws = _workspace(out, x_s)
    weight, scale = ws.held(design_variance_meat, len(x_s), 2)
    np.multiply(np.subtract(1.0, pi_s, out=weight), np.square(residuals, out=scale), out=weight)
    np.square(np.multiply(pi_s, tau2_s, out=scale), out=scale)
    return gram(x_s, np.divide(weight, scale, out=weight), ws)


def fgls_np(x: np.ndarray, y: np.ndarray, model: PilotVarianceModel, sigma2: np.ndarray,
            fitted: np.ndarray, out=None):
    """Certainty-stratum FGLS coefficient and its sandwich variance.

    ``model`` is the pilot variance model fitted on these rows (as by
    :func:`~seqdi.pilot.fit_pilot`), whose coefficient is the FGLS one,
    ``sigma2`` its predicted variances of the rows
    (:func:`~seqdi.pilot.predict_sigma2`) and ``fitted`` its fitted means
    x @ model.beta (the fit's ``fitted=`` output).  The sandwich uses the
    residuals at that coefficient and those variances, and stays consistent
    even when the variance model is misspecified.  ``out`` is a
    :class:`~seqdi.numerics.Workspace`.
    """
    x = np.asarray(x, dtype=float)
    ws = _workspace(out, x)
    residuals, weight, meat_scale = ws.held(fgls_np, len(x), 3)
    np.subtract(np.asarray(y, dtype=float), fitted, out=residuals)
    inv_bread = inv_spd(gram(x, np.divide(1.0, sigma2, out=weight), ws))
    np.divide(1.0, np.square(sigma2, out=meat_scale), out=meat_scale)
    return model.beta, _sandwich(x, inv_bread, meat_scale, residuals, ws)


def fgls_p(x_s: np.ndarray, y_s: np.ndarray, pi_s: np.ndarray,
           include_model_variance: bool = False, out=None):
    """Probability-sample FGLS coefficient and its design-based variance.

    The per-unit variance proxies come from the same two-stage
    power-variance recipe as the pilot, with the first-stage regression
    weighted by inverse inclusion probabilities.  The design variance is
    the Poisson specialization

        M^{-1} [ sum (1-pi) (x e)(x e)' / (pi tau2)^2 ] M^{-1},

    with M = sum x x' / (pi tau2).  The model-variance sandwich is
    asymptotically dominated when the second-stage sampling fraction is
    small and is excluded by default; enabling it gives a statistic whose
    null calibration also holds at non-vanishing sampling fractions.
    ``out`` is a :class:`~seqdi.numerics.Workspace`.
    """
    x_s = np.asarray(x_s, dtype=float)
    y_s = np.asarray(y_s, dtype=float)
    pi_s = np.asarray(pi_s, dtype=float)
    ws = _workspace(out, x_s)
    m, base, tau2, w = ws.held(fgls_p, len(x_s), 4)
    tau_model = fit_power_variance(x_s, y_s, np.divide(1.0, pi_s, out=base), fitted=m,
                                   out=ws, variances=tau2)
    residuals = np.subtract(y_s, m, out=m)
    np.divide(1.0, np.multiply(pi_s, tau2, out=w), out=w)
    inv_bread = inv_spd(gram(x_s, w, ws))
    v = inv_bread @ design_variance_meat(x_s, residuals, pi_s, tau2, ws) @ inv_bread
    if include_model_variance:
        v = v + _sandwich(x_s, inv_bread, np.divide(w, tau2, out=base), residuals, ws)
    return tau_model.beta, v


def homogeneity_test(np_fit, p_fit, alpha: float = 0.05) -> HomogeneityResult:
    """Wald quadratic form comparing the two stratum coefficient vectors."""
    beta_np, v_np = np_fit
    beta_p, v_p = p_fit
    diff = np.asarray(beta_np, dtype=float) - np.asarray(beta_p, dtype=float)
    total = np.asarray(v_np, dtype=float) + np.asarray(v_p, dtype=float)
    total = (total + total.T) / 2.0
    try:
        statistic = float(diff @ solve_spd(total, diff))
    except NotPositiveDefinite as err:
        raise SingularVariance(f"singular variance matrix ({err})") from err
    statistic = max(statistic, 0.0)
    df = len(diff)
    p_value = chisq_sf(statistic, df)
    return HomogeneityResult(statistic=statistic, df=df, p_value=p_value,
                             reject=bool(p_value < alpha))


def adaptive_estimate(sep: Estimate, com: Estimate, test: HomogeneityResult) -> Estimate:
    """Separate estimator when homogeneity is rejected, combined otherwise."""
    chosen = sep if test.reject else com
    return Estimate(chosen.point, chosen.variance, chosen.ci_low, chosen.ci_high, "adDI")
