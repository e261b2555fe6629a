"""Point estimators of the population total and their plug-in variances.

Sequential estimators treat the observed non-probability units as a
certainty stratum and estimate the complement-stratum total from the
second-stage Poisson sample: a Hajek stratified estimator, a stratified
Horvitz-Thompson estimator, and separate/combined regression estimators.
Competitors from the independent-sampling literature (GREG on an
independent probability sample, IPW, doubly robust, and their fusion)
are included for comparison studies.

All design variances ship in their Poisson specialization
sum (1-pi_i)/pi_i^2 * e_i^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptySample
from .numerics import Z_975, logistic_fit, quantile, weighted_ls, _logistic
from .pilot import PilotVarianceModel, predict_sigma2
from .population import Partition, Population


@dataclass(frozen=True)
class WeightSpec:
    """Working regression weights: 1/pi ("inverse_pi") or 1/(pi*sigma2_i)
    ("inverse_pi_sigma"), truncated at an upper quantile within the
    estimating sample."""

    kind: str = "inverse_pi"
    truncation_quantile: float = 0.999

    def __post_init__(self):
        if self.kind not in ("inverse_pi", "inverse_pi_sigma"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not 0.0 < self.truncation_quantile <= 1.0:
            raise ValueError("truncation quantile must lie in (0, 1]")

    def build(self, pi: np.ndarray, sigma2: np.ndarray | None = None) -> np.ndarray:
        pi = np.asarray(pi, dtype=float)
        if self.kind == "inverse_pi":
            q = 1.0 / pi
        else:
            if sigma2 is None:
                raise ValueError("variance-scaled weights need per-unit variances")
            q = 1.0 / (pi * np.asarray(sigma2, dtype=float))
        if self.truncation_quantile < 1.0 and len(q) > 1:
            q = np.minimum(q, quantile(q, self.truncation_quantile))
        return q


@dataclass(frozen=True)
class Estimate:
    """Point estimate with optional plug-in variance and 95% Wald interval."""

    point: float
    variance: float | None
    ci_low: float | None
    ci_high: float | None
    tag: str

    def to_csv_row(self):
        return [self.tag, self.point, self.variance, self.ci_low, self.ci_high]


def _make_estimate(tag, point, variance=None) -> Estimate:
    if variance is None:
        return Estimate(float(point), None, None, None, tag)
    variance = max(float(variance), 0.0)
    half = Z_975 * np.sqrt(variance)
    return Estimate(float(point), variance, float(point - half), float(point + half), tag)


def poisson_plugin_variance(residuals: np.ndarray, pi: np.ndarray) -> float:
    """Plug-in design variance for a Poisson HT-type total: sum (1-pi)/pi^2 e^2."""
    residuals = np.asarray(residuals, dtype=float)
    pi = np.asarray(pi, dtype=float)
    return float(np.sum((1.0 - pi) / pi**2 * residuals**2))


def y_di(y_certainty: np.ndarray, y_s: np.ndarray, pi_s: np.ndarray,
         n_complement: int) -> Estimate:
    """Stratified estimator: exact certainty total plus N1 times the Hajek mean.

    Variance by the standard ratio linearization with z_i = y_i - hajek
    mean: N1^2 (sum 1/pi)^-2 sum (1-pi) z_i^2 / pi_i^2.
    """
    if len(y_s) == 0:
        raise EmptySample("Hajek mean needs a nonempty sample")
    inv = 1.0 / np.asarray(pi_s, dtype=float)
    hajek = float(np.sum(inv * y_s) / np.sum(inv))
    point = float(np.sum(y_certainty)) + n_complement * hajek
    z = np.asarray(y_s, dtype=float) - hajek
    variance = n_complement**2 / float(np.sum(inv)) ** 2 * poisson_plugin_variance(z, pi_s)
    return _make_estimate("DI", point, variance)


def y_ht_seq(y_certainty: np.ndarray, y_s: np.ndarray, pi_s: np.ndarray) -> Estimate:
    """Stratified Horvitz-Thompson total; defined (with zero HT part) on empty samples."""
    point = float(np.sum(y_certainty)) + float(np.sum(np.asarray(y_s) / np.asarray(pi_s)))
    variance = poisson_plugin_variance(y_s, pi_s) if len(y_s) else 0.0
    return _make_estimate("HT_seq", point, variance)


def _regression_estimate(tag, y_certainty, y_s, x_s, pi_s, x_total, coef):
    """GREG total at a given coefficient with its Poisson plug-in variance.

    The point is the certainty total plus the HT total of y plus the
    regression correction (x_total - HT total of x)'coef; the variance
    takes the sample residuals at coef.
    """
    inv = 1.0 / np.asarray(pi_s, dtype=float)
    ht_y = float(np.sum(inv * y_s))
    ht_x = (np.asarray(x_s, dtype=float) * inv[:, None]).sum(axis=0)
    correction = float((np.asarray(x_total, dtype=float) - ht_x) @ coef)
    point = float(np.sum(y_certainty)) + ht_y + correction
    residuals = np.asarray(y_s) - np.asarray(x_s) @ coef
    return _make_estimate(tag, point, poisson_plugin_variance(residuals, pi_s))


def _working_coef(wspec, model, x, y, pi):
    """Regression coefficient under the working weights wspec builds from pi
    (and, for variance-scaled weights, the pilot model's predicted variances)."""
    if wspec.kind == "inverse_pi_sigma" and model is None:
        raise ValueError("variance-scaled weights need a fitted pilot model")
    sigma2 = predict_sigma2(model, x) if wspec.kind == "inverse_pi_sigma" else None
    return weighted_ls(x, y, wspec.build(pi, sigma2))


def y_sep_di(
    y_certainty: np.ndarray,
    y_s: np.ndarray,
    x_s: np.ndarray,
    pi_s: np.ndarray,
    x_total_complement: np.ndarray,
    wspec: WeightSpec,
    model: PilotVarianceModel | None = None,
) -> Estimate:
    """Separate regression estimator: coefficient fitted on the probability sample only."""
    coef = _working_coef(wspec, model, x_s, y_s, pi_s)
    return _regression_estimate("sepDI", y_certainty, y_s, x_s, pi_s, x_total_complement, coef)


def y_com_di(
    y_certainty: np.ndarray,
    x_certainty: np.ndarray,
    y_s: np.ndarray,
    x_s: np.ndarray,
    pi_s: np.ndarray,
    x_total_complement: np.ndarray,
    wspec: WeightSpec,
    model: PilotVarianceModel | None = None,
) -> Estimate:
    """Combined regression estimator: coefficient pooled over both samples.

    Certainty-stratum rows enter the pooled fit with inclusion
    probability one; the variance keeps the Poisson plug-in form with
    residuals at the pooled coefficient over the probability sample.
    """
    pooled_x = np.vstack([np.asarray(x_certainty, dtype=float), np.asarray(x_s, dtype=float)])
    pooled_y = np.concatenate([np.asarray(y_certainty, dtype=float), np.asarray(y_s, dtype=float)])
    pooled_pi = np.concatenate([np.ones(len(y_certainty)), np.asarray(pi_s, dtype=float)])
    coef = _working_coef(wspec, model, pooled_x, pooled_y, pooled_pi)
    return _regression_estimate("comDI", y_certainty, y_s, x_s, pi_s, x_total_complement, coef)


def y_greg_independent(
    x_total_population: np.ndarray,
    y_s: np.ndarray,
    x_s: np.ndarray,
    pi_s: np.ndarray,
) -> Estimate:
    """Classical GREG on an independent probability sample from the whole frame."""
    coef = weighted_ls(x_s, y_s, 1.0 / np.asarray(pi_s, dtype=float))
    return _regression_estimate("GREG", (), y_s, x_s, pi_s, x_total_population, coef)


def estimate_propensity(pop: Population, partition: Partition,
                        x_certainty: np.ndarray) -> np.ndarray:
    """Membership propensities of the certainty rows x_certainty, fitted on the full frame."""
    return _logistic(x_certainty @ logistic_fit(pop.x, partition.delta.astype(float)))


def y_ipw(y_np: np.ndarray, prop: np.ndarray) -> Estimate:
    """Inverse probability weighting, sum y_i / p_i over the certainty stratum,
    with the propensities of :func:`estimate_propensity`.

    No variance is reported; the estimator is a point-only competitor.
    """
    return _make_estimate("IPW", float(np.sum(y_np / prop)))


def y_dr(x_np: np.ndarray, y_np: np.ndarray, prop: np.ndarray, x_total: np.ndarray) -> Estimate:
    """Doubly robust estimator: IPW plus a regression correction on covariate totals."""
    beta = weighted_ls(x_np, y_np, np.ones(len(y_np)))
    x_ipw = (x_np / prop[:, None]).sum(axis=0)
    point = float(np.sum(y_np / prop)) + float((x_total - x_ipw) @ beta)
    return _make_estimate("DR", point)


def y_fusion(greg: Estimate, dr: Estimate, alpha: float) -> Estimate:
    """Convex combination alpha * GREG + (1 - alpha) * DR."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return _make_estimate("GREG_DR", alpha * greg.point + (1.0 - alpha) * dr.point)
