import math
import pickle

import numpy as np
import pytest

from seqdi.errors import NoConvergence, NotPositiveDefinite, Separation
from seqdi.numerics import (
    NewtonStart,
    Workspace,
    RngStream,
    chisq_sf,
    inv_spd,
    logistic_fit,
    median,
    quantile,
    solve_spd,
    weighted_ls,
)


def normal_sf_by_quadrature(z, panels=4000):
    """Independent oracle: P(N(0,1) > z) by Simpson integration of the density."""
    grid = np.linspace(0.0, z, 2 * panels + 1)
    pdf = np.exp(-grid**2 / 2.0) / math.sqrt(2.0 * math.pi)
    h = grid[1] - grid[0]
    integral = h / 3.0 * (pdf[0] + pdf[-1] + 4 * pdf[1:-1:2].sum() + 2 * pdf[2:-2:2].sum())
    return 0.5 - integral


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(2), np.array([3.0, 5.0]))
        np.testing.assert_allclose(x, [3.0, 5.0], rtol=0, atol=1e-14)

    def test_diagonal(self):
        x = solve_spd(np.diag([4.0, 9.0]), np.array([8.0, 27.0]))
        np.testing.assert_allclose(x, [2.0, 3.0], rtol=1e-14)

    def test_rank_deficient(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.ones((2, 2)), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("diagonal", [[0.0, -5.0], [-1e-13, -5.0], [-1.0, -1.0, -1.0],
                                          [3.0, -5.0], [1e-300, -1e-300]])
    def test_trace_at_or_below_zero_rejected(self, diagonal):
        # a nonpositive trace made the pivot bound 1e-12 * trace / d negative, so a
        # zero or tiny negative pivot reached the division or the sqrt
        a = np.diag(diagonal)
        for call in (lambda a: solve_spd(a, np.ones(len(diagonal))), inv_spd):
            with pytest.raises(NotPositiveDefinite, match="^pivot "):
                call(a)

    @pytest.mark.parametrize("diagonal, message", [
        # an entry that overflowed makes the bound infinite, so the first pivot fails
        ([348.0, math.inf, 5.0], "the diagonal entry at column 1 overflows (pivot 3.480e+02 "
                                 "at column 0)"),
        # a column whose own entry is under the bound is out of scale, not collinear
        ([348.0, 1e280, 5.0], "the diagonal entry at column 1, 1.000e+280, is over 1e12 times "
                              "column 0's (pivot 3.480e+02 at column 0)"),
        ([1.0, 1.0, 1e-13], "the diagonal entry at column 0, 1.000e+00, is over 1e12 times "
                            "column 2's (pivot 1.000e-13 at column 2)"),
        ([1.0, 1.0, 0.0], "pivot 0.000e+00 at column 2"),
    ])
    def test_scale_fault_named_before_the_pivot(self, diagonal, message):
        for call in (lambda a: solve_spd(a, np.ones(3)), inv_spd):
            with pytest.raises(NotPositiveDefinite) as err:
                call(np.diag(diagonal))
            assert str(err.value) == message

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            solve_spd(np.array([[1.0, 0.5], [0.2, 1.0]]), np.array([1.0, 1.0]))

    def test_random_spd_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = rng.integers(1, 11)
            m = rng.normal(size=(d, d))
            a = m @ m.T + 0.1 * np.eye(d)
            b = rng.normal(size=d)
            x = solve_spd(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_pivot_contract_on_diagonal(self):
        # the last pivot of diag(1, 1, p) is p; the contract rejects p <= 1e-12 * trace / 3
        def bound(p):
            return 1e-12 * (1.0 + 1.0 + p) / 3

        edge = 2e-12 / (3.0 - 1e-12)
        while edge > bound(edge):
            edge = math.nextafter(edge, 0.0)
        while math.nextafter(edge, 1.0) <= bound(math.nextafter(edge, 1.0)):
            edge = math.nextafter(edge, 1.0)
        above = math.nextafter(edge, 1.0)
        x = solve_spd(np.diag([1.0, 1.0, above]), np.array([1.0, 2.0, above]))
        np.testing.assert_allclose(x, [1.0, 2.0, 1.0], rtol=1e-15)
        assert inv_spd(np.diag([1.0, 1.0, above]))[2, 2] == pytest.approx(1.0 / above)
        for p in (edge, 0.0, -1.0):
            for call in (lambda a: solve_spd(a, np.ones(3)), inv_spd):
                with pytest.raises(NotPositiveDefinite, match="at column 2"):
                    call(np.diag([1.0, 1.0, p]))

    def test_inv_spd(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4))
        a = m @ m.T + np.eye(4)
        np.testing.assert_allclose(inv_spd(a) @ a, np.eye(4), atol=1e-10)

    @pytest.mark.parametrize("a, error", [
        ([[np.nan, 0.0], [0.0, 1.0]], NotPositiveDefinite),  # a NaN pivot
        ([[1.0, 0.0], [0.0, np.nan]], NotPositiveDefinite),
        ([[np.nan]], NotPositiveDefinite),
        ([[2.0, np.nan], [np.nan, 2.0]], ValueError),  # NaN fails the symmetry test
        ([[2.0, 0.5], [np.nan, 2.0]], ValueError),
    ])
    def test_nan_fails_the_checks(self, a, error):
        for call in (lambda a: solve_spd(a, np.ones(len(a))), inv_spd):
            with pytest.raises(error):
                call(np.array(a))


def frozen_cholesky(a):
    """numerics._cholesky as it was before it was written row by row: column by
    column, with generator expressions in its checks."""
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


def frozen_substitute(lower, b):
    """numerics._substitute as it was: forward, then back substitution."""
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


def frozen_solve_spd(a, b):
    return np.array(frozen_substitute(frozen_cholesky(a), np.asarray(b, dtype=float).tolist()))


def frozen_inv_spd(a):
    """numerics.inv_spd as it was: symmetrized as numpy arrays."""
    lower = frozen_cholesky(a)
    out = np.array([frozen_substitute(lower, e) for e in np.eye(len(lower)).tolist()]).T
    return (out + out.T) / 2.0


def spd_matrices(count, seed):
    """Random SPD matrices of sizes 1 to 6 over twelve orders of magnitude, some
    near singular, each in C and in Fortran order."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(1, 7))
        m = rng.normal(size=(d, d + int(rng.integers(0, 3)))) * 10.0 ** rng.uniform(-6, 6)
        a = m @ m.T
        a = (a + a.T) / 2.0 + 10.0 ** rng.uniform(-14, 0) * np.trace(a) / d * np.eye(d)
        yield a
        yield np.asfortranarray(a)


def test_spd_kernels_equal_the_frozen_ones_bit_for_bit():
    rng = np.random.default_rng(31)
    for a in spd_matrices(2500, 30):
        b = rng.normal(size=len(a)) * 10.0 ** rng.uniform(-3, 3)
        assert solve_spd(a, b).tobytes() == frozen_solve_spd(a, b).tobytes()
        assert inv_spd(a).tobytes() == frozen_inv_spd(a).tobytes()


def failing_matrices():
    """Matrices that fail the kernels' checks, at each place they can fail."""
    yield np.ones((2, 3))  # not square
    yield np.array([[1.0, 0.5], [0.2, 1.0]])  # not symmetric
    yield np.array([[-1.0, 5.0], [0.0, 1.0]])  # not symmetric, nor a positive first pivot
    yield np.ones((2, 2))  # singular
    yield np.diag([1.0, 1.0, 0.0])
    yield np.diag([1.0, -2.0, 3.0])
    yield np.array([[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 5.0]])  # second pivot 0


def outcome(call, *args):
    """The bytes of call(*args), or the class and message of the error it raised."""
    try:
        return call(*args).tobytes()
    except (ValueError, NotPositiveDefinite) as err:
        return type(err), str(err)


def test_spd_kernels_fail_as_the_frozen_ones():
    for a in failing_matrices():
        b = np.ones(len(a))
        want = outcome(frozen_solve_spd, a, b)
        assert isinstance(want, tuple), a
        assert outcome(solve_spd, a, b) == outcome(inv_spd, a) == want, a
        assert outcome(frozen_inv_spd, a) == want, a
    # rank-deficient products, some off symmetry, C and Fortran ordered: rounding
    # lets some pass the pivot test, and those must give the same bits
    rng = np.random.default_rng(33)
    failed = 0
    for _ in range(300):
        d = int(rng.integers(2, 7))
        m = rng.normal(size=(d, int(rng.integers(1, d))))
        product = m @ m.T
        for a in ((product + product.T) / 2.0,
                  np.asfortranarray(product + 1e-9 * rng.normal(size=(d, d)))):
            b = rng.normal(size=d)
            want = outcome(frozen_solve_spd, a, b)
            assert outcome(solve_spd, a, b) == want, a
            assert outcome(inv_spd, a) == outcome(frozen_inv_spd, a), a
            failed += isinstance(want, tuple)
    assert failed >= 300


class TestWeightedLs:
    def test_intercept_only_is_mean(self):
        y = np.array([1.0, 4.0, -2.0, 7.0])
        beta = weighted_ls(np.ones((4, 1)), y, np.ones(4))
        np.testing.assert_allclose(beta, [y.mean()], rtol=1e-14)

    def test_perfect_fit(self):
        x1 = np.array([0.0, 1.0, 2.0, 5.0])
        x = np.column_stack([np.ones(4), x1])
        y = 2.0 + 3.0 * x1
        beta = weighted_ls(x, y, np.array([1.0, 2.0, 0.5, 4.0]))
        np.testing.assert_allclose(beta, [2.0, 3.0], rtol=1e-12)

    def test_hand_normal_equations(self):
        # sums: n=3, Sx=3, Sxx=5, Sy=6, Sxy=9 -> beta = (0.5, 1.5)
        x = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        beta = weighted_ls(x, np.array([1.0, 1.0, 4.0]), np.ones(3))
        np.testing.assert_allclose(beta, [0.5, 1.5], rtol=1e-12)

    def test_uniform_weight_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(5, 40))
            x = np.column_stack([np.ones(n), rng.normal(size=n)])
            y = rng.normal(size=n)
            w = rng.uniform(0.1, 2.0, size=n)
            c = float(rng.uniform(0.01, 100.0))
            b1 = weighted_ls(x, y, w)
            b2 = weighted_ls(x, y, c * w)
            np.testing.assert_allclose(b1, b2, rtol=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(6, 50))
            x = np.column_stack([np.ones(n), rng.normal(size=n), rng.uniform(size=n)])
            y = rng.normal(size=n) * 3.0 + 1.0
            w = rng.uniform(0.05, 3.0, size=n)
            beta = weighted_ls(x, y, w)
            resid = y - x @ beta
            bound = 1e-6 * np.sum(w * np.abs(y))
            for j in range(x.shape[1]):
                assert abs(np.sum(w * resid * x[:, j])) <= bound

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_ls(np.ones((3, 1)), np.zeros(3), np.array([1.0, -1.0, 1.0]))


class TestLogisticFit:
    def test_intercept_only_mean_03(self):
        delta = np.zeros(1000)
        delta[:300] = 1.0
        alpha = logistic_fit(np.ones((1000, 1)), delta)
        assert alpha[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-7)

    def test_intercept_only_symmetric(self):
        delta = np.array([0.0, 1.0] * 50)
        alpha = logistic_fit(np.ones((100, 1)), delta)
        assert abs(alpha[0]) < 1e-10

    def test_separation(self):
        rng = np.random.default_rng(3)
        indicator = (rng.uniform(size=200) < 0.4).astype(float)
        x = np.column_stack([np.ones(200), indicator])
        with pytest.raises((Separation, NoConvergence)):
            logistic_fit(x, indicator)

    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(4)
        n = 60_000
        x = np.column_stack([np.ones(n), rng.uniform(size=n), rng.uniform(size=n)])
        true = np.array([0.3, 1.2, -0.8])
        p = 1.0 / (1.0 + np.exp(-(x @ true)))
        delta = (rng.uniform(size=n) < p).astype(float)
        alpha = logistic_fit(x, delta)
        np.testing.assert_allclose(alpha, true, atol=0.08)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            logistic_fit(np.ones((10, 1)), np.ones(10))

    def test_start_and_workspace_must_fit_x(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        delta = np.arange(10) % 2
        with pytest.raises(ValueError, match="start must hold 2"):
            logistic_fit(x, delta, start=np.zeros(3))
        for rows, cols in ((9, 2), (10, 3)):  # too few rows, another column count
            with pytest.raises(ValueError, match="workspace"):
                logistic_fit(x, delta, out=Workspace(rows, cols))

    def test_start_at_the_fit_takes_one_step(self):
        rng = np.random.default_rng(6)
        x = np.column_stack([np.ones(3000), rng.uniform(size=3000), rng.normal(size=3000)])
        delta = (rng.uniform(size=3000) < 1.0 / (1.0 + np.exp(-(x @ [0.4, -1.0, 0.5])))) * 1.0
        alpha = logistic_fit(x, delta)
        solves = []

        def counting(a, b):
            solves.append(1)
            return solve_spd(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("seqdi.numerics.solve_spd", counting)
            again = logistic_fit(x, delta, start=alpha, out=Workspace(*x.shape))
        assert len(solves) == 1
        np.testing.assert_allclose(again, alpha, rtol=0, atol=1e-8)


def test_newton_start_gives_the_bits_of_its_coefficients():
    # over the oracle frames, from a start off the fit, with the start's
    # workspace or another; pickled beside its x, as a run's worker arguments are
    rng = np.random.default_rng(41)
    for x, delta in oracle_frames():
        alpha = rng.normal(scale=0.3, size=x.shape[1])
        start = NewtonStart(x, alpha, Workspace(len(x) + 3, x.shape[1]))
        want = logistic_fit(x, delta, alpha).tobytes()
        assert logistic_fit(x, delta, start).tobytes() == want
        assert logistic_fit(x, delta, start, Workspace(*x.shape)).tobytes() == want
        x2, start2 = pickle.loads(pickle.dumps((x, start)))
        assert start2.x is x2
        assert logistic_fit(x2, delta, start2).tobytes() == want


def test_newton_start_refuses_another_x():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    delta = np.arange(10) % 2
    start = NewtonStart(x, np.zeros(2))
    for other in (x.copy(), x[:], np.asarray(x, dtype=np.float32)):
        with pytest.raises(ValueError, match="another x"):
            logistic_fit(other, delta, start)
    with pytest.raises(ValueError, match="start must hold 2"):
        NewtonStart(x, np.zeros(3))


def frozen_logistic_fit(x, delta):
    """logistic_fit as it was before it took a start and a workspace, kept as the
    oracle of its cold path: every per-step array a new temporary.  Only the
    SPD solve is the package's."""
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)

    def log_likelihood(eta):
        t = np.exp(-np.abs(eta))
        return float(np.sum(delta * eta - (np.maximum(eta, 0.0) + np.log1p(t)))), t

    alpha = np.zeros(x.shape[1])
    eta = x @ alpha
    loglik, t = log_likelihood(eta)
    for _ in range(100):
        p = np.where(eta >= 0, 1.0, t) / (1.0 + t)
        g = x.T @ ((p * (1.0 - p))[:, None] * x)
        step = solve_spd((g + g.T) / 2.0, x.T @ (delta - p))
        factor = 1.0
        for _ in range(30):
            cand = alpha + factor * step
            cand_eta = x @ cand
            cand_ll, cand_t = log_likelihood(cand_eta)
            if cand_ll >= loglik - 1e-12:
                break
            factor /= 2.0
        alpha, eta, loglik, t = cand, cand_eta, cand_ll, cand_t
        if np.max(np.abs(alpha)) > 30.0:
            raise Separation("coefficient escaped toward infinity")
        if np.max(np.abs(factor * step)) <= 1e-8:
            return alpha
    raise NoConvergence("no convergence in 100 iterations")


def oracle_frames():
    """Seeded frames of 1 to 4 columns, C- and F-ordered, with 0/1 and fractional
    responses, and the intercept-only cases of TestLogisticFit."""
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n, fractional = int(rng.integers(40, 6000)), seed % 2 == 1
        d = int(rng.integers(2 if fractional else 1, 5))
        x = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(d - 1)])
        p = 1.0 / (1.0 + np.exp(-(x @ rng.normal(scale=0.8, size=d))))
        delta = p if fractional else (rng.uniform(size=n) < p).astype(float)
        yield x, delta
        yield np.asfortranarray(x), delta
    delta = np.zeros(1000)
    delta[:300] = 1.0
    yield np.ones((1000, 1)), delta
    yield np.ones((100, 1)), np.array([0.0, 1.0] * 50)


def test_cold_path_equals_the_frozen_loop_bit_for_bit():
    for x, delta in oracle_frames():
        want = frozen_logistic_fit(x, delta).tobytes()
        workspace = Workspace(len(x) + 7, x.shape[1])
        assert logistic_fit(x, delta).tobytes() == want
        for _ in range(2):  # a used, larger workspace gives the same bits
            assert logistic_fit(x, delta, out=workspace).tobytes() == want


def same_as_numpy_quantile(v, q):
    """quantile(v, q) and np.quantile(v, q) are both NaN or equal byte for byte."""
    got, want = np.float64(quantile(v, q)), np.quantile(v, q)
    return (math.isnan(got) and math.isnan(want)) or got.tobytes() == want.tobytes()


class TestQuantile:
    # One partition at floor((n-1)q) and the minimum above it, except at the
    # maximum and where an order statistic is a zero of either sign.

    def test_signed_zero_ties_at_the_order_statistics(self):
        rng = np.random.default_rng(11)
        for zeros in (1, 2, 3, 6):
            for _ in range(40):
                signs = rng.integers(0, 2, size=zeros)
                v = np.concatenate([np.where(signs, -0.0, 0.0), [-2.0, -1.0, 1.0, 2.5]])
                v = rng.permutation(v)
                n = v.size
                # every position, exactly and halfway to the next, so that zeros
                # fall at lo, at hi and at both, with t = 0, 0.5 and above
                for index in np.arange(0.0, n - 1.0, 0.25):
                    assert same_as_numpy_quantile(v, index / (n - 1)), (v.tolist(), index)

    @pytest.mark.parametrize("v, q", [
        ([1.0, np.nan, 2.0, 3.0], 0.0),
        ([np.nan, 5.0, 1.0], 0.25),
        ([4.0, 1.0, 2.0, 3.0, np.nan], 0.6),
        ([2.0, np.nan, np.nan, 1.0], 0.1),
    ])
    def test_nan_only_above_the_lower_order_statistic(self, v, q):
        assert math.isnan(quantile(np.array(v), q))
        assert same_as_numpy_quantile(np.array(v), q)

    @pytest.mark.parametrize("q", [0.999, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 999, 1000, 1001, 14_012])
    def test_top_levels(self, n, q):
        v = np.random.default_rng(n).lognormal(size=n)
        assert same_as_numpy_quantile(v, q)

    @pytest.mark.parametrize("v", [[3.5], [-0.0], [2.0, 1.0], [1.0, 1.0], [0.0, -0.0],
                                   [-0.0, 0.0], [-1.0, 0.0], [np.nan, 1.0]])
    def test_one_and_two_values(self, v):
        for q in (0.0, 0.05, 0.25, 0.5, 0.75, 0.999, 1.0):
            assert same_as_numpy_quantile(np.array(v), q), (v, q)


class TestChisqSf:
    def test_zero_statistic(self):
        for df in (1, 2, 3, 7, 50):
            assert chisq_sf(0.0, df) == 1.0

    def test_df2_quantile(self):
        assert chisq_sf(5.991465, 2) == pytest.approx(0.05, abs=1e-4)

    def test_df2_matches_exponential_identity(self):
        for x in (0.1, 0.5, 1.0, 2.0, 5.991465, 10.0, 40.0):
            assert chisq_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-10)

    def test_df1_against_normal_quadrature(self):
        oracle = 2.0 * normal_sf_by_quadrature(1.959964)
        assert chisq_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-4)
        assert chisq_sf(1.959964**2, 1) == pytest.approx(oracle, abs=1e-10)

    def test_df1_general_points_vs_quadrature(self):
        for z in (0.5, 1.0, 1.5, 2.5, 3.2):
            assert chisq_sf(z * z, 1) == pytest.approx(
                2.0 * normal_sf_by_quadrature(z), abs=1e-10
            )

    def test_monotone_decreasing(self):
        for df in (1, 2, 5, 11):
            grid = np.linspace(0.0, 30.0, 200)
            values = [chisq_sf(x, df) for x in grid]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            chisq_sf(-1.0, 2)

    def test_nan_rejected(self):
        # a NaN statistic would otherwise give p = nan and reject = False
        for df in (1, 2, 3):
            with pytest.raises(ValueError, match="nonnegative"):
                chisq_sf(math.nan, df)

    def test_infinite_statistic(self):
        for df in (1, 2, 3, 7, 50):
            assert chisq_sf(math.inf, df) == 0.0

    @pytest.mark.parametrize("df", [2.5, 0, -1, 0.5, math.inf, math.nan])
    def test_df_not_positive_integer_rejected(self, df):
        with pytest.raises(ValueError, match="positive integer"):
            chisq_sf(1.0, df)

    def test_integral_df_types_agree(self):
        for x in (0.5, 3.0, 12.0):
            assert chisq_sf(x, np.int64(3)) == chisq_sf(x, 3.0) == chisq_sf(x, 3)


class TestRngStream:
    def test_same_stream_reproduces(self):
        a = RngStream(123, 5).uniform(size=1000)
        b = RngStream(123, 5).uniform(size=1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).uniform(size=100)
        b = RngStream(123, 6).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_bernoulli_matches_uniform_threshold(self):
        p = np.full(50, 0.3)
        drawn = RngStream(9, 1).bernoulli(p)
        uniforms = RngStream(9, 1).uniform(size=50)
        assert np.array_equal(drawn, uniforms < 0.3)
        for size in (0, 1, 20_000):  # and on one stream, which stays in step after
            p = RngStream(4, size).uniform(size=size)
            stream, same = RngStream(9, 2), RngStream(9, 2)
            for _ in range(2):
                assert np.array_equal(stream.bernoulli(p), same.uniform(size=p.shape) < p)


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 99, 100, 1001])
    def test_equals_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for case in range(40):
            v = rng.normal(size=n) * 10.0 ** rng.integers(-5, 5)
            if case % 4 == 1:
                v = np.round(v)  # ties, and zeros of both signs
            if case % 4 == 2:
                v[rng.integers(n)] = np.nan
            if case % 8 == 3:
                v = rng.uniform(size=n)  # p-values
            got, want = np.float64(median(v)), np.median(v)
            assert got.tobytes() == want.tobytes() or (np.isnan(got) and np.isnan(want)), (
                v.tolist(), got, want)

    def test_nan_propagates_and_input_is_kept(self):
        v = np.array([3.0, np.nan, 1.0, 2.0])
        kept = v.copy()
        assert math.isnan(median(v))
        assert np.array_equal(v, kept, equal_nan=True)
        assert math.copysign(1.0, median(np.array([-0.0]))) == 1.0  # as np.median's sum
