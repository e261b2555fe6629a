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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EmptySample
from .numerics import (
    Z_975,
    _logistic,
    largest,
    logistic_fit,
    normal_equations,
    quantile,
    quantile_of_tops,
    solve_spd,
    top_count,
    weighted_ls,
)
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

    def weights(self, pi: np.ndarray, sigma2: np.ndarray | None = None) -> np.ndarray:
        """The untruncated working weights of rows with inclusion probabilities pi
        (and, for variance-scaled weights, variances sigma2): 1/pi or 1/(pi*sigma2)."""
        pi = np.asarray(pi, dtype=float)
        if self.kind == "inverse_pi":
            return 1.0 / pi
        if sigma2 is None:
            raise ValueError("variance-scaled weights need per-unit variances")
        return 1.0 / (pi * np.asarray(sigma2, dtype=float))

    def build(self, pi: np.ndarray, sigma2: np.ndarray | None = None) -> np.ndarray:
        """The working weights q of :meth:`weights`, capped at their truncation quantile
        when q has two or more rows (at quantile 1 the cap is the maximum)."""
        q = self.weights(pi, sigma2)
        if len(q) > 1:
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
    return _plugin_sum(_plugin_factor(np.asarray(pi, dtype=float)), residuals)


def _plugin_factor(pi: np.ndarray) -> np.ndarray:
    """The plug-in variance's factor (1-pi)/pi^2 of each row."""
    return (1.0 - pi) / pi**2


def _plugin_sum(factor: np.ndarray, residuals) -> float:
    """sum factor * e^2: the factor formed first, so the bits are the one-line sum's."""
    return float((factor * np.asarray(residuals, dtype=float)**2).sum())


@dataclass(frozen=True)
class Arm:
    """One realized Poisson sample and what every sequential estimator reads of it.

    ``inv_pi`` is 1/pi, ``ht_y`` and ``ht_x`` the HT totals sum y/pi and
    sum x/pi, ``sigma2`` the pilot model's variances of the rows (None
    unless an estimator with variance-scaled weights runs) and ``test`` the
    homogeneity test of the sample (None unless adDI or the test runs).
    ``ht_x`` and the plug-in variance's factor (:meth:`plugin_variance`) are
    formed on first use and kept, so the estimators of one arm share them;
    neither is written after.
    """

    y_s: np.ndarray
    x_s: np.ndarray
    pi_s: np.ndarray
    inv_pi: np.ndarray
    ht_y: float
    sigma2: np.ndarray | None = None
    test: object = None

    @classmethod
    def of(cls, y_s, x_s, pi_s, sigma2=None, test=None) -> "Arm":
        y_s = np.asarray(y_s, dtype=float)
        pi_s = np.asarray(pi_s, dtype=float)
        inv = 1.0 / pi_s
        return cls(y_s, np.asarray(x_s, dtype=float), pi_s, inv, float((inv * y_s).sum()),
                   sigma2, test)

    @property
    def size(self) -> int:
        return len(self.y_s)

    @functools.cached_property
    def ht_x(self) -> np.ndarray:
        return (self.x_s * self.inv_pi[:, None]).sum(axis=0)

    @functools.cached_property
    def _factor(self) -> np.ndarray:
        return _plugin_factor(self.pi_s)

    def plugin_variance(self, residuals: np.ndarray) -> float:
        """:func:`poisson_plugin_variance` of the rows' residuals, bit for bit."""
        return _plugin_sum(self._factor, residuals)


def y_di(arm: Arm, certainty_total: float, n_complement: int) -> Estimate:
    """Stratified estimator: exact certainty total plus N1 times the Hajek mean
    of the sample ``arm``, with N1 = n_complement.

    Variance by the standard ratio linearization with z_i = y_i - hajek
    mean: N1^2 (sum 1/pi)^-2 sum (1-pi) z_i^2 / pi_i^2.
    """
    if arm.size == 0:
        raise EmptySample("Hajek mean needs a nonempty sample")
    inv_total = arm.inv_pi.sum()  # a numpy scalar: its square overflows to inf, not raises
    hajek = arm.ht_y / inv_total
    point = certainty_total + n_complement * hajek
    plugin = arm.plugin_variance(arm.y_s - hajek)
    variance = n_complement**2 / inv_total**2 * plugin
    return _make_estimate("DI", point, variance)


def y_ht_seq(arm: Arm, certainty_total: float) -> Estimate:
    """Stratified Horvitz-Thompson total; defined (with zero HT part) on empty samples."""
    return _make_estimate("HT_seq", certainty_total + arm.ht_y, arm.plugin_variance(arm.y_s))


def _regression_estimate(tag, certainty_total, arm, x_total, coef):
    """GREG total at a given coefficient with its Poisson plug-in variance.

    The point is the certainty total plus the HT total of y plus the
    regression correction (x_total - HT total of x)'coef; the variance
    takes the sample residuals at coef.
    """
    correction = float((np.asarray(x_total, dtype=float) - arm.ht_x) @ coef)
    point = certainty_total + arm.ht_y + correction
    residuals = arm.y_s - arm.x_s @ coef
    return _make_estimate(tag, point, arm.plugin_variance(residuals))


def y_sep_di(arm: Arm, certainty_total: float, x_total_complement,
             wspec: WeightSpec, out=None) -> Estimate:
    """Separate regression estimator: coefficient fitted on the probability sample only,
    with the numerics.Workspace ``out`` (see :func:`~seqdi.numerics.weighted_ls`)."""
    q = wspec.build(arm.pi_s, arm.sigma2)
    coef = weighted_ls(arm.x_s, arm.y_s, q, out)
    return _regression_estimate("sepDI", certainty_total, arm, x_total_complement, coef)


@dataclass(frozen=True)
class CertaintyBlock:
    """The certainty rows' share of the combined estimator's pooled fit under ``wspec``.

    Certainty rows enter with pi = 1, so their working weights (1, or
    1/sigma2 from the pilot) never change.  ``top_w`` holds the largest of
    them in descending order, as many as the pooled quantile can need; the
    rows of the first ``len(top_y)``, the most that truncation can cut, are
    kept apart in ``top_x``/``top_y``, and every other row is summed once
    into ``gram``/``xty``.  Valid for pooled fits of up to ``n_max`` rows.
    """

    wspec: WeightSpec
    n: int
    n_max: int
    gram: np.ndarray
    xty: np.ndarray
    top_x: np.ndarray
    top_y: np.ndarray
    top_w: np.ndarray


def certainty_block(x: np.ndarray, y: np.ndarray, wspec: WeightSpec,
                    sigma2: np.ndarray | None, n_max: int, out=None) -> CertaintyBlock:
    """The :class:`CertaintyBlock` of certainty rows x, y (pilot variances sigma2 for
    variance-scaled weights) for pooled fits of at most n_max rows, with the
    numerics.Workspace ``out``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    w = wspec.weights(np.ones(n), sigma2)
    # the largest top_count over the pooled sizes max(n, 1)..n_max: top_count
    # never decreases in the size, so it is the one at n_max
    most = int(top_count(n_max, wspec.truncation_quantile)) if n_max >= max(n, 1) else 0
    take = min(most, n)
    top = np.argpartition(w, n - take)[n - take:] if take else np.zeros(0, dtype=int)
    top = top[np.argsort(-w[top], kind="stable")]
    cut = top[:max(most - 1, 0)]  # values above the quantile: at most top_count - 1
    rest = w.copy()
    rest[cut] = 0.0
    g, b = normal_equations(x, y, rest, out)
    return CertaintyBlock(wspec, n, n_max, g, b, x[cut], y[cut], w[top])


def y_com_di(arm: Arm, certainty_total: float, block: CertaintyBlock,
             x_total_complement, out=None) -> Estimate:
    """Combined regression estimator: coefficient pooled over both samples.

    Certainty-stratum rows enter the pooled fit with inclusion
    probability one, through ``block``, the :func:`certainty_block` of the
    certainty rows; the variance keeps the Poisson plug-in form with
    residuals at the pooled coefficient over the probability sample.
    ``out`` is the numerics.Workspace of its normal equations.
    """
    # The pooled weights are the block's and the arm's; truncation caps both at
    # the pooled quantile, read from the top values of each part.
    wspec, n = block.wspec, block.n + arm.size
    if n > block.n_max:
        raise ValueError(f"certainty block built for {block.n_max} pooled rows, not {n}")
    w_s, w_top = wspec.weights(arm.pi_s, arm.sigma2), block.top_w[:len(block.top_y)]
    if n > 1:
        need = int(top_count(n, wspec.truncation_quantile))
        cap = quantile_of_tops([block.top_w[:need], largest(w_s, need)], n,
                               wspec.truncation_quantile)
        w_s, w_top = np.minimum(w_s, cap), np.minimum(w_top, cap)
    top_g, top_b = normal_equations(block.top_x, block.top_y, w_top, out)
    s_g, s_b = normal_equations(arm.x_s, arm.y_s, w_s, out)
    coef = solve_spd(block.gram + top_g + s_g, block.xty + top_b + s_b)
    return _regression_estimate("comDI", certainty_total, arm, x_total_complement, coef)


def y_greg_independent(arm: Arm, x_total_population, out=None) -> Estimate:
    """Classical GREG on an independent probability sample from the whole frame,
    fitted in the numerics.Workspace ``out``."""
    coef = weighted_ls(arm.x_s, arm.y_s, arm.inv_pi, out)
    return _regression_estimate("GREG", 0.0, arm, x_total_population, coef)


def estimate_propensity(pop: Population, partition: Partition, x_certainty: np.ndarray,
                        start=None, out=None) -> np.ndarray:
    """Membership propensities of the certainty rows x_certainty, fitted on the full frame.

    ``start`` and ``out`` go to :func:`~seqdi.numerics.logistic_fit`: the
    Newton start (zero when None) and a Workspace for at least pop.x's rows.
    A Monte Carlo run passes every replication the same start, a
    numerics.NewtonStart on pop.x at the fit to its mechanism's selection
    probabilities, and one workspace.
    """
    delta = partition.delta.astype(float)
    return _logistic(x_certainty @ logistic_fit(pop.x, delta, start, out))


def y_ipw(y_np: np.ndarray, prop: np.ndarray) -> Estimate:
    """Inverse probability weighting, sum y_i / p_i over the certainty stratum,
    with the propensities of :func:`estimate_propensity`.

    No variance is reported; the estimator is a point-only competitor.
    """
    return _make_estimate("IPW", float((y_np / prop).sum()))


def y_dr(x_np: np.ndarray, y_np: np.ndarray, prop: np.ndarray, x_total: np.ndarray,
         beta: np.ndarray) -> Estimate:
    """Doubly robust estimator: IPW plus a regression correction on covariate totals.

    ``beta`` is the regression of the certainty rows, their unit-weight
    coefficient ``weighted_ls(x_np, y_np, ones)``, which a stratum with a pilot
    fit has from its first stage.
    """
    x_ipw = (x_np / prop[:, None]).sum(axis=0)
    point = float((y_np / prop).sum()) + float((x_total - x_ipw) @ beta)
    return _make_estimate("DR", point)


def y_fusion(greg: Estimate, dr: Estimate, alpha: float) -> Estimate:
    """Convex combination alpha * GREG + (1 - alpha) * DR."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return _make_estimate("GREG_DR", alpha * greg.point + (1.0 - alpha) * dr.point)
