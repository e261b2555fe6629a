"""Dependency-light numerical kernels.

Symmetric positive-definite solves, weighted least squares, logistic
maximum likelihood, sample quantiles, the chi-square survival function,
and a seeded stream-based random number contract.  Everything here is a
pure function of its inputs except :class:`RngStream`, which is
single-consumer.
"""

import math
import statistics

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, Separation

# 97.5th standard normal quantile used for 95% Wald intervals.
Z_975 = 1.959964

# Newton stopping rule of logistic_fit: step size, iteration budget, and
# the coefficient size taken as separation.
LOGISTIC_TOL = 1e-8
LOGISTIC_MAX_ITER = 100
LOGISTIC_MAX_ABS_COEF = 30.0


class RngStream:
    """Reproducible random stream identified by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream ids give statistically independent streams.  One
    stream must not be shared across concurrent consumers.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((int(seed), int(stream_id))))
        )

    def uniform(self, size=None):
        return self._gen.uniform(size=size)

    def normal(self, mean=0.0, sd=1.0, size=None):
        return self._gen.normal(mean, sd, size=size)

    def bernoulli(self, p):
        """Independent Bernoulli indicators, one per entry of p."""
        p = np.asarray(p, dtype=float)
        return self._gen.uniform(size=p.shape) < p


def _cholesky(a) -> list:
    """Lower Cholesky factor of symmetric positive-definite A, as rows of floats.

    The factor is built in Python floats from ``a.tolist()``: for the 2x2 to
    6x6 systems of the regression callers that is several times faster than
    numpy slicing.  Raises ValueError unless A is square and symmetric within
    1e-10 of its largest entry, and NotPositiveDefinite when a pivot falls at
    or below 1e-12 * trace(A)/d.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    rows = a.tolist()
    sym_tol = 1e-10 * max(1.0, max(abs(v) for row in rows for v in row))
    if any(abs(rows[i][j] - rows[j][i]) > sym_tol for i in range(d) for j in range(i)):
        raise ValueError("matrix is not symmetric")

    pivot_tol = 1e-12 * sum(rows[k][k] for k in range(d)) / d
    lower = [[0.0] * d for _ in range(d)]
    for k in range(d):
        row_k = lower[k]
        dot = 0.0
        for j in range(k):
            dot += row_k[j] * row_k[j]
        pivot = rows[k][k] - dot
        if pivot <= pivot_tol:
            raise NotPositiveDefinite(f"pivot {pivot:.3e} at column {k}")
        diag = row_k[k] = math.sqrt(pivot)
        for i in range(k + 1, d):
            row_i = lower[i]
            dot = 0.0
            for j in range(k):
                dot += row_i[j] * row_k[j]
            row_i[k] = (rows[i][k] - dot) / diag
    return lower


def _substitute(lower: list, b) -> list:
    """Solve L L' x = b by forward then back substitution on a Cholesky factor."""
    d = len(lower)
    z = [0.0] * d
    for i in range(d):
        row_i = lower[i]
        dot = 0.0
        for j in range(i):
            dot += row_i[j] * z[j]
        z[i] = (b[i] - dot) / row_i[i]
    x = [0.0] * d
    for i in range(d - 1, -1, -1):
        dot = 0.0
        for j in range(i + 1, d):
            dot += lower[j][i] * x[j]
        x[i] = (z[i] - dot) / lower[i][i]
    return x


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for symmetric positive-definite A by Cholesky.

    Raises NotPositiveDefinite when a pivot falls at or below
    1e-12 * trace(A)/d, which in regression callers signals collinear
    covariates.  A must be symmetric within 1e-10 relative to its
    largest entry.
    """
    return np.array(_substitute(_cholesky(a), np.asarray(b, dtype=float).tolist()))


def inv_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix: one Cholesky
    factorization, then one solve per unit column."""
    lower = _cholesky(a)
    out = np.array([_substitute(lower, e) for e in np.eye(len(lower)).tolist()]).T
    return (out + out.T) / 2.0


def gram(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted Gram matrix X' diag(w) X, symmetrized against rounding."""
    g = x.T @ (w[:, None] * x)
    return (g + g.T) / 2.0


def weighted_ls(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted least squares, argmin over beta of sum w_i (y_i - x_i'beta)^2.

    Requires nonnegative weights with at least d strictly positive ones;
    rank problems surface as NotPositiveDefinite from the normal equations.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    return solve_spd(gram(x, w), x.T @ (w * y))


def quantile(v: np.ndarray, q: float) -> float:
    """The q-quantile of a nonempty 1-D array, equal bit for bit to
    ``np.quantile(v, q)`` with the default linear method.

    One partition places the two order statistics around the virtual index
    (n-1)q, the minimum and the maximum, which is NaN when v holds a NaN;
    the interpolation is numpy's, including its form for weights t >= 0.5.
    It skips np.quantile's general-purpose wrapper, which dominates the
    cost on the arrays of a few thousand rows this package passes.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    v = np.asarray(v, dtype=float)
    n = v.size
    index = (n - 1) * q
    if index >= n - 1:
        lo = hi = -1  # numpy's marker for the last element, weighted by index + 1
    else:
        lo = math.floor(index)
        hi = lo + 1
    t = index - lo
    # numpy's own kth set, so that even the sign of a tied zero matches
    part = np.partition(v, sorted({0, -1, lo, hi}))
    if math.isnan(part[-1]):
        return math.nan
    a, b = float(part[lo]), float(part[hi])
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def _logistic(eta, t=None):
    """1/(1+exp(-eta)) with one exp: 1/(1+t) for eta >= 0 and t/(1+t) otherwise,
    where t = exp(-|eta|) (pass t when it is already known).  Equal bit for
    bit to the two-branch form 1/(1+exp(-eta)) | exp(eta)/(1+exp(eta)) on
    every input but NaN, where only the sign of the NaN may differ."""
    if t is None:
        t = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, t) / (1.0 + t)


def _log_likelihood(eta, delta):
    """Logistic log-likelihood sum delta*eta - log(1+exp(eta)) and t = exp(-|eta|).

    log(1+exp(eta)) is np.logaddexp(0, eta) written out as
    max(eta, 0) + log1p(t), stable for large |eta|; t also gives the fitted
    probabilities, so a Newton point takes one exp.
    """
    t = np.exp(-np.abs(eta))
    return float(np.sum(delta * eta - (np.maximum(eta, 0.0) + np.log1p(t)))), t


def logistic_fit(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Newton-Raphson MLE of logit P(delta=1 | x) = x'alpha.

    Halves the step while the log-likelihood decreases.  Raises
    Separation when any coefficient exceeds LOGISTIC_MAX_ABS_COEF in absolute
    value, and NoConvergence after LOGISTIC_MAX_ITER iterations.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    n, d = x.shape
    if n < d:
        raise ValueError("need at least as many rows as coefficients")
    if delta.min() == delta.max():
        raise ValueError("both classes must be present")

    alpha = np.zeros(d)
    eta = x @ alpha
    loglik, t = _log_likelihood(eta, delta)
    for _ in range(LOGISTIC_MAX_ITER):
        p = _logistic(eta, t)
        step = solve_spd(gram(x, p * (1.0 - p)), x.T @ (delta - p))

        factor = 1.0
        for _ in range(30):
            cand = alpha + factor * step
            cand_eta = x @ cand
            cand_ll, cand_t = _log_likelihood(cand_eta, delta)
            if cand_ll >= loglik - 1e-12:
                break
            factor /= 2.0
        alpha, eta, loglik, t = cand, cand_eta, cand_ll, cand_t

        if np.max(np.abs(alpha)) > LOGISTIC_MAX_ABS_COEF:
            raise Separation("coefficient escaped toward infinity")
        if np.max(np.abs(factor * step)) <= LOGISTIC_TOL:
            return alpha
    raise NoConvergence(f"no convergence in {LOGISTIC_MAX_ITER} iterations")


def chisq_sf(x: float, df: int) -> float:
    r"""Survival function P(chi2_df > x) for a positive integer df (3, np.int64(3), 3.0).

    With h = x/2 and a = 0 for even df, 1/2 for odd df (A&S 26.4.4-5),
    Q = [erfc(sqrt(h)) if df is odd] + sum_{k < df//2} h^(k+a) e^(-h) / Gamma(k+a+1),
    each term formed in logs: the running product e^(-h) h^k / k! underflows
    once h > ~745.  At df = 2 the value is exp(-x/2) exactly.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError("df must be a positive integer")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    if h == math.inf:
        return 0.0
    a = 0.5 * (int(df) % 2)
    total = math.erfc(math.sqrt(h)) if a else 0.0
    for k in range(int(df) // 2):
        total += math.exp((k + a) * math.log(h) - h - math.lgamma(k + a + 1.0))
    return total


def normal_quantile(p: float) -> float:
    """Standard normal quantile.

    Uses the pinned constant at p = 0.975 so that 95% Wald intervals are
    reproducible to the digit, and the standard library's
    ``NormalDist().inv_cdf`` (relative error near 1e-15) elsewhere.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if p == 0.975:
        return Z_975
    return statistics.NormalDist().inv_cdf(p)
