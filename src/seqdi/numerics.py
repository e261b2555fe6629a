"""Dependency-light numerical kernels.

Symmetric positive-definite solves, weighted least squares, logistic
maximum likelihood, sample quantiles, the chi-square survival function,
and a seeded stream-based random number contract.  Everything here is a
pure function of its inputs except :class:`RngStream`, which is
single-consumer.
"""

import math

import numpy as np

from .errors import InvalidParams, NoConvergence, NotPositiveDefinite, Separation

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
        """Independent Bernoulli indicators, one per entry of p: the draws of
        ``uniform(size=p.shape) < p``, whose 0.0 + 1.0 * U is ``random``'s U."""
        p = np.asarray(p, dtype=float)
        return self._gen.random(size=p.shape) < p


def _cholesky(a) -> list:
    """Lower Cholesky factor of symmetric positive-definite A, as rows of floats.

    The factor is built row by row (Cholesky-Banachiewicz) in Python floats
    from ``a.tolist()``: for the 2x2 to 6x6 systems of the regression callers
    that is several times faster than numpy slicing.  Entry (i, k) takes the
    dot of rows i and k over the columns j < k, summed from 0.0 in order j,
    so a row-by-row and a column-by-column factor agree bit for bit.  Raises
    ValueError unless A is square and symmetric within 1e-10 of its largest
    entry, and NotPositiveDefinite unless every pivot exceeds 1e-12 * trace(A)/d
    and 0; both tests are written so that a NaN fails them.  A trace at or
    below 0 has a diagonal entry at or below 0, whose pivot is no larger, so
    such a matrix fails at a pivot, never in the sqrt or a division.
    """
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    rows = a.tolist()
    big = 1.0
    for row in rows:
        for v in row:
            if abs(v) > big:
                big = abs(v)
    sym_tol, trace = 1e-10 * big, 0.0
    for i in range(d):
        row_a = rows[i]
        for j in range(i):
            if not abs(row_a[j] - rows[j][i]) <= sym_tol:
                raise ValueError("matrix is not symmetric")
        trace += row_a[i]

    pivot_tol = max(1e-12 * trace / d, 0.0)
    lower = []
    for i in range(d):
        row_a, row_i = rows[i], [0.0] * d
        for k in range(i):
            row_k = lower[k]
            dot = 0.0
            for j in range(k):
                dot += row_i[j] * row_k[j]
            row_i[k] = (row_a[k] - dot) / row_k[k]
        dot = 0.0
        for j in range(i):
            dot += row_i[j] * row_i[j]
        pivot = row_a[i] - dot
        if not pivot > pivot_tol:
            raise NotPositiveDefinite(_pivot_fault(rows, i, pivot, pivot_tol))
        row_i[i] = math.sqrt(pivot)
        lower.append(row_i)
    return lower


def _pivot_fault(rows, i, pivot, pivot_tol) -> str:
    """The message of pivot i failing its test, led by the diagonal's scale when
    that is the cause: an entry that overflowed, or one over 1e12 times row i's."""
    message = f"pivot {pivot:.3e} at column {i}"
    diagonal = [row[j] for j, row in enumerate(rows)]
    top = diagonal.index(max(diagonal))
    if math.isinf(diagonal[top]):
        return f"the diagonal entry at column {top} overflows ({message})"
    if 0.0 < diagonal[i] <= pivot_tol:
        return (f"the diagonal entry at column {top}, {diagonal[top]:.3e}, is over 1e12 "
                f"times column {i}'s ({message})")
    return message


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
    factorization, then one solve per unit column.  Entry (i, j) is the mean
    (col_j[i] + col_i[j]) / 2.0 of the two solves' entries, in Python floats:
    the arithmetic of symmetrizing the matrix of columns as (out + out.T) / 2."""
    lower = _cholesky(a)
    d = len(lower)
    cols = []
    for j in range(d):
        unit = [0.0] * d
        unit[j] = 1.0
        cols.append(_substitute(lower, unit))
    return np.array([[(cols[j][i] + col_i[j]) / 2.0 for j in range(d)]
                     for i, col_i in enumerate(cols)])


def gram(x: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """Weighted Gram matrix X' diag(w) X, symmetrized against rounding.

    The weighted copy diag(w) X goes into the workspace ``out`` (see
    :class:`Workspace`), or into a new one when None.  It is formed as
    (X' diag(w))', row by row of X', which keeps a C-ordered x as fast as a
    column-major one.
    """
    wx = _workspace(out, x).wx[:len(x)]
    with np.errstate(over="ignore"):  # an infinite entry fails the Cholesky, which names it
        np.multiply(w, x.T, out=wx.T)
        g = x.T @ wx
        return (g + g.T) / 2.0


def normal_equations(x: np.ndarray, y: np.ndarray, w: np.ndarray, out=None):
    """X' diag(w) X, symmetrized, and X' diag(w) y of a weighted least-squares fit,
    with the workspace ``out`` as :func:`gram`'s.

    Raises ValueError unless every weight is nonnegative, and InvalidParams when
    X' diag(w) y overflows.  Blocks of rows add: the equations of a stack of row
    blocks are the sums of theirs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    ws = _workspace(out, x)
    wy, negative = ws.held(normal_equations, len(x), 1, 1)
    if np.less(w, 0, out=negative).any():
        raise ValueError("weights must be nonnegative")
    g = gram(x, w, ws)
    with np.errstate(over="ignore"):  # an overflow is named below
        xty = x.T @ np.multiply(w, y, out=wy)
    if not all(map(math.isfinite, xty.tolist())):
        raise InvalidParams("X' diag(w) y overflows: the weighted outcomes are too large")
    return g, xty


def weighted_ls(x: np.ndarray, y: np.ndarray, w: np.ndarray, out=None) -> np.ndarray:
    """Weighted least squares, argmin over beta of sum w_i (y_i - x_i'beta)^2,
    with the workspace ``out`` as :func:`normal_equations`'.

    Requires nonnegative weights with at least d strictly positive ones;
    rank problems surface as NotPositiveDefinite from the normal equations.
    """
    return solve_spd(*normal_equations(x, y, w, out))


def _position(n, q: float):
    """numpy's linear-method (lo, hi, t) for the q-quantile of n sorted values:
    the value is interpolated between positions lo and hi = lo + 1 with weight
    t, and lo = hi = -1 marks the maximum, weighted by index + 1."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    index = (n - 1) * q
    lo = -1 if index >= n - 1 else math.floor(index)
    return lo, (lo + 1 if lo >= 0 else -1), index - lo


def _interpolate(a: float, b: float, t: float) -> float:
    """numpy's interpolation between order statistics a <= b, with its form for t >= 0.5."""
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def quantile(v: np.ndarray, q: float) -> float:
    """The q-quantile of a nonempty 1-D array, equal bit for bit to
    ``np.quantile(v, q)`` with the default linear method.

    The order statistics at lo = floor((n-1)q) and hi = lo + 1 come from one
    partition at the single kth lo (numpy selects one kth with SIMD, several
    with a scalar introselect) and the minimum of the values above it, which
    is NaN when v holds a NaN, since NaN sorts last.  The interpolation is
    numpy's, including its form for weights t >= 0.5.  Where the quantile is
    the maximum (lo < 0), or either order statistic is a zero, whose sign a
    tie of -0.0 and 0.0 leaves to the partition, np.quantile itself answers.
    Otherwise its general-purpose wrapper, which dominates the cost on the
    arrays of a few thousand rows this package passes, is skipped.
    """
    v = np.asarray(v, dtype=float)
    lo, hi, t = _position(v.size, q)
    if lo >= 0:
        part = v.copy()  # what np.partition does before the same call
        part.partition(lo)
        a, b = float(part[lo]), float(part[hi:].min())
        if math.isnan(b):
            return math.nan
        if a != 0.0 and b != 0.0:
            return _interpolate(a, b, t)
    return float(np.quantile(v, q))


def median(v: np.ndarray) -> float:
    """The median of a nonempty 1-D array, equal bit for bit to ``np.median(v)``.

    It partitions at numpy's kth set, the last position included, so that a
    NaN lands there and is returned, as np.median returns it; otherwise it
    takes the middle value, or the sum of the middle pair over 2, numpy's
    mean of two.  Where a middle value is a zero, whose sign numpy's sum
    decides, np.median itself answers.  Otherwise np.median's NaN check,
    which imports numpy.ma on its first call, is skipped.
    """
    part = np.array(v, dtype=float)
    n = part.size
    half = n // 2
    part.partition([half, -1] if n % 2 else [half - 1, half, -1])
    last = float(part[-1])
    if math.isnan(last):
        return last
    a, b = float(part[half - 1 + n % 2]), float(part[half])
    if a != 0.0 and b != 0.0:
        return (a + b) / 2.0 if n % 2 == 0 else b
    return float(np.median(v))


def top_count(n, q: float):
    """How many of the largest of n values fix their q-quantile: n - floor((n-1)q),
    or 1 where the quantile is the maximum.  ``n`` may be an integer array."""
    n = np.asarray(n)
    index = (n - 1) * q
    return np.where(index >= n - 1, 1, n - np.floor(index)).astype(int)


def largest(v: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries of v in no particular order, or all of v when it has no more."""
    v = np.asarray(v, dtype=float)
    if k >= v.size:
        return v
    part = v.copy()
    part.partition(v.size - k)
    return part[v.size - k:]


def quantile_of_tops(tops, n: int, q: float) -> float:
    """The q-quantile of n values that fall into parts, from the parts' largest values.

    ``tops`` holds, for each part, its ``top_count(n, q)`` largest values
    (all of a smaller part), in any order: the order statistics the
    interpolation needs are among them.  For values without NaN, and without
    zeros of both signs, the result equals ``quantile`` of all n values bit
    for bit.
    """
    v = np.sort(np.concatenate(tops))
    lo, hi, t = _position(n, q)
    if lo >= 0:  # positions among the n values, counted within the tops
        lo, hi = lo - (n - v.size), hi - (n - v.size)
        if lo < 0:
            raise ValueError(f"{v.size} top values cannot fix the {q} quantile of {n}")
    return _interpolate(float(v[lo]), float(v[hi]), t)


def _logistic(eta, t=None, p=None, w=None, positive=None):
    """1/(1+exp(-eta)) with one exp: 1/(1+t) for eta >= 0 and t/(1+t) otherwise,
    where t = exp(-|eta|), given or formed here.  Equal bit for bit to the
    two-branch form 1/(1+exp(-eta)) | exp(eta)/(1+exp(eta)) on every input but
    NaN, where only the sign of the NaN may differ.  The result goes into p,
    with t, w and positive as scratch; p, w and positive are new arrays when
    None."""
    t = np.exp(-np.abs(eta)) if t is None else t
    w = np.add(1.0, t, out=w)
    np.copyto(t, 1.0, where=np.greater_equal(eta, 0, out=positive))
    return np.divide(t, w, out=p)


class Workspace:
    """The frame-sized scratch arrays of the regression fits on at most n_max rows
    of d covariates, allocated once so that repeated fits allocate none.

    ``wx`` is :func:`gram`'s weighted copy diag(w) X, column-major; each call
    site gets vectors of its own from :meth:`held`, which stay its own across
    its callees since no fit re-enters itself.  A call writes every entry it
    reads and returns or keeps no view of the workspace.  The arrays come
    from ``np.empty``: a new workspace touches no page, and a pickled one
    carries only its size.
    """

    def __init__(self, n_max: int, d: int):
        self.n_max, self.d = int(n_max), int(d)
        self.wx = np.empty((self.n_max, self.d), order="F")
        self._sites = {}  # site: (its float vectors, its boolean vectors)

    def held(self, site, n: int, floats: int = 0, bools: int = 0):
        """The ``floats`` float vectors of ``site`` (a key naming one call site,
        which asks for the same counts each time), then its ``bools`` boolean
        ones, cut to n rows: the rows of one block of each kind, built at the
        site's first request and kept."""
        if site not in self._sites:
            self._sites[site] = (tuple(np.empty((floats, self.n_max))),
                                 tuple(np.empty((bools, self.n_max), dtype=bool)))
        own_floats, own_bools = self._sites[site]
        return [v[:n] for v in own_floats + own_bools]

    def __reduce__(self):
        return Workspace, (self.n_max, self.d)


def _workspace(out, x) -> Workspace:
    """``out``, checked to hold x's rows and columns, or a new workspace of x's shape."""
    n, d = x.shape
    if out is None:
        return Workspace(n, d)
    if n > out.n_max or d != out.d:
        raise ValueError(f"workspace built for {out.n_max} rows of {out.d} columns, "
                         f"not {n} of {d}")
    return out


def _softplus(eta, t, p, w):
    """log(1+exp(eta)) into p, as np.logaddexp(0, eta) written out: max(eta, 0) + log1p(t),
    stable for large |eta|.  Writes t = exp(-|eta|), which also gives the fitted
    probabilities, so a Newton point takes one exp; w is scratch."""
    np.exp(np.negative(np.abs(eta, out=t), out=t), out=t)
    return np.add(np.maximum(eta, 0.0, out=p), np.log1p(t, out=w), out=p)


def _log_likelihood(eta, delta, softplus, w):
    """Logistic log-likelihood sum delta*eta - log(1+exp(eta)), with w as scratch."""
    return float(np.subtract(np.multiply(delta, eta, out=w), softplus, out=w).sum())


def _newton_point(x, eta, t, p, w, positive, ws):
    """The fitted probabilities (into p) and the Hessian X' diag(p(1-p)) X at eta,
    from t = exp(-|eta|), with w, positive and the workspace ws as scratch."""
    _logistic(eta, t, p, w, positive)
    return p, gram(x, np.multiply(p, np.subtract(1.0, p, out=w), out=w), ws)


class NewtonStart:
    """A :func:`logistic_fit` start on the rows x whose first Newton point is formed once.

    Every fit on x from ``alpha`` begins at the same point, whatever its
    responses: ``eta`` = x @ alpha, the ``softplus`` term log(1+exp(eta)) of
    the log-likelihood, the fitted probabilities ``p`` and the Hessian
    ``hessian`` = X' diag(p(1-p)) X.  They are built in the workspace ``out``
    (a new one when None) and kept as copies.  A fit from coefficients builds
    its own start, so fits from one start get the bits of fits from
    ``alpha``.  The start keeps the object x itself, and a fit given any
    other object for x, even a view of it, refuses it.  Pickled together with
    x, as a run's worker arguments are, it still holds that x.
    """

    def __init__(self, x: np.ndarray, alpha: np.ndarray, out=None):
        self.x = x
        x = np.asarray(x, dtype=float)
        self.alpha = np.array(alpha, dtype=float)
        n, d = x.shape
        if self.alpha.shape != (d,):
            raise ValueError(f"start must hold {d} coefficients")
        ws = _workspace(out, x)
        eta, t, p, w, positive = ws.held(NewtonStart, n, 4, 1)
        self.softplus = _softplus(np.matmul(x, self.alpha, out=eta), t, p, w).copy()
        fitted, self.hessian = _newton_point(x, eta, t, p, w, positive, ws)
        self.p, self.eta = fitted.copy(), eta.copy()


def logistic_fit(x: np.ndarray, delta: np.ndarray, start=None, out=None) -> np.ndarray:
    """Newton-Raphson MLE of logit P(delta=1 | x) = x'alpha.

    delta may hold fractional responses in [0, 1]: the fit then maximizes the
    same concave log-likelihood, as for the expected selection probabilities
    of a mechanism.  Newton starts from ``start``: a :class:`NewtonStart` on
    this x, whose first point is taken as built, or one built here at the
    coefficients ``start`` (zero when None).  It halves the step while the
    log-likelihood decreases, and stops once a step moves no coefficient by
    more than LOGISTIC_TOL, so fits from two starts agree to about that
    bound, and without a start the result does not depend on ``out``.
    ``out``, a :class:`Workspace` for at least x's rows, receives the
    per-step arrays (a fit without one allocates its own).  Raises Separation
    when any coefficient exceeds LOGISTIC_MAX_ABS_COEF in absolute value, and
    NoConvergence after LOGISTIC_MAX_ITER iterations.
    """
    if isinstance(start, NewtonStart) and start.x is not x:
        raise ValueError("start was built on another x")
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    n, d = x.shape
    if n < d:
        raise ValueError("need at least as many rows as coefficients")
    if delta.min() == delta.max():
        raise ValueError("both classes must be present")
    ws = _workspace(out, x)
    if not isinstance(start, NewtonStart):
        start = NewtonStart(x, np.zeros(d) if start is None else start, ws)
    eta, t, p, w, positive = ws.held(logistic_fit, n, 4, 1)
    alpha, fitted, g = start.alpha, start.p, start.hessian
    loglik = _log_likelihood(start.eta, delta, start.softplus, w)
    for _ in range(LOGISTIC_MAX_ITER):
        step = solve_spd(g, x.T @ np.subtract(delta, fitted, out=w))

        # the step needs no more of the current point's arrays: each candidate's
        # eta and t overwrite them, and the accepted one's stay for the next step
        factor = 1.0
        for _ in range(30):
            cand = alpha + factor * step
            np.matmul(x, cand, out=eta)
            cand_ll = _log_likelihood(eta, delta, _softplus(eta, t, p, w), w)
            if cand_ll >= loglik - 1e-12:
                break
            factor /= 2.0
        alpha, loglik = cand, cand_ll

        if np.abs(alpha).max() > LOGISTIC_MAX_ABS_COEF:
            raise Separation("coefficient escaped toward infinity")
        if np.abs(factor * step).max() <= LOGISTIC_TOL:
            return alpha
        fitted, g = _newton_point(x, eta, t, p, w, positive, ws)
    raise NoConvergence(f"no convergence in {LOGISTIC_MAX_ITER} iterations")


def chisq_sf(x: float, df: int) -> float:
    r"""Survival function P(chi2_df > x) for a positive integer df (3, np.int64(3), 3.0).

    With h = x/2 and a = 0 for even df, 1/2 for odd df (A&S 26.4.4-5),
    Q = [erfc(sqrt(h)) if df is odd] + sum_{k < df//2} h^(k+a) e^(-h) / Gamma(k+a+1),
    each term formed in logs: the running product e^(-h) h^k / k! underflows
    once h > ~745.  At df = 2 the value is exp(-x/2) exactly.  Raises
    ValueError for a negative or NaN x.
    """
    if not x >= 0:  # NaN fails too
        raise ValueError(f"x must be nonnegative, not {x}")
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

