"""The combined estimator's pooled fit, assembled from the certainty stratum's
statistics and one arm's sample, against the pooled fit written out.

The pooled truncation quantile comes from the largest values of each part
(``numerics.quantile_of_tops``) and must equal ``numerics.quantile`` of the
stacked weights bit for bit; ``y_com_di`` must equal the stacked
``WeightSpec.build`` + ``weighted_ls`` fit and its GREG total.
hypothesis is a test-only dependency; the module skips without it.
"""

import numpy as np
import pytest

from seqdi.estimators import Arm, WeightSpec, certainty_block, y_com_di
from seqdi.numerics import largest, quantile, quantile_of_tops, top_count, weighted_ls
from seqdi.pilot import PilotVarianceModel, predict_sigma2

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

# positive weights, with ties drawn often
WEIGHT = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([0.5, 1.0, 2.0]))
LEVEL = st.one_of(st.just(1.0), st.just(0.999), st.floats(0.0, 1.0, exclude_min=True))
WEIGHTS = ("inverse_pi", "inverse_pi_sigma")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(certainty=st.lists(WEIGHT, max_size=40), sample=st.lists(WEIGHT, min_size=1, max_size=40),
       q=LEVEL)
@example(certainty=[], sample=[3.0], q=0.999)
@example(certainty=[1.0] * 30, sample=[1.0], q=0.5)
def test_quantile_of_tops_is_the_pooled_quantile(certainty, sample, q):
    n = len(certainty) + len(sample)
    need = int(top_count(n, q))
    tops = [largest(np.array(certainty), need), largest(np.array(sample), need)]
    got = quantile_of_tops(tops, n, q)
    want = quantile(np.concatenate([certainty, sample]), q)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sizes=st.lists(st.integers(1, 200_000), min_size=2, max_size=2),
       q=st.sampled_from([0.5, 0.9, 0.999, 1.0]))
@example(sizes=[1, 1], q=0.999)
@example(sizes=[1, 10_000], q=0.999)
def test_top_count_is_largest_at_the_largest_size(sizes, q):
    # certainty_block reads the most any pooled size n..N can need at N alone
    n, big = sorted(sizes)
    assert int(top_count(big, q)) == int(np.max(top_count(np.arange(n, big + 1), q)))


def test_quantile_of_tops_refuses_too_few_values():
    with pytest.raises(ValueError, match="top values"):
        quantile_of_tops([np.array([5.0])], 100, 0.5)


def frame(seed, n_c, n_u1, gamma):
    """Certainty rows, complement rows with their pi and a Poisson sample of
    them, and a pilot model whose variances give uneven weights."""
    rng = np.random.default_rng(seed)
    n = n_c + n_u1
    x = np.column_stack([np.ones(n), rng.uniform(0.1, 2.0, size=(n, 2))])
    coef = np.array([1.0, 3.0, 2.0])
    y = x @ coef + rng.normal(scale=0.5, size=n)
    pi = rng.uniform(0.05, 1.0, size=n_u1)
    members = np.flatnonzero(rng.uniform(size=n_u1) < pi)
    model = PilotVarianceModel(beta=coef, sigma2=0.5, gamma=gamma, mean_floor=0.1,
                               sigma2_floor=1e-6)
    return x[:n_c], y[:n_c], x[n_c:], y[n_c:], pi, members, model


def pooled_formula(x_c, y_c, x_s, y_s, pi_s, sigma2_c, sigma2_s, x_total, wspec):
    """The combined estimate written out: one stacked weighted fit, then GREG."""
    x = np.vstack([x_c, x_s])
    pi = np.concatenate([np.ones(len(y_c)), pi_s])
    sigma2 = None if sigma2_s is None else np.concatenate([sigma2_c, sigma2_s])
    coef = weighted_ls(x, np.concatenate([y_c, y_s]), wspec.build(pi, sigma2))
    point = y_c.sum() + np.sum(y_s / pi_s) + (x_total - (x_s / pi_s[:, None]).sum(axis=0)) @ coef
    variance = np.sum((1.0 - pi_s) / pi_s**2 * (y_s - x_s @ coef) ** 2)
    return point, variance, wspec.build(pi, sigma2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_c=st.integers(0, 80), n_u1=st.integers(1, 80),
       q=LEVEL, kind=st.sampled_from(WEIGHTS), gamma=st.floats(-2.0, 2.0))
def test_com_di_is_the_pooled_fit(seed, n_c, n_u1, q, kind, gamma):
    x_c, y_c, x_u1, y_u1, pi_u1, members, model = frame(seed, n_c, n_u1, gamma)
    assume(n_c + len(members) >= 6)
    wspec = WeightSpec(kind, q)
    sigma2_u1 = predict_sigma2(model, x_u1) if kind == "inverse_pi_sigma" else None
    sigma2_c = predict_sigma2(model, x_c) if kind == "inverse_pi_sigma" else None
    # as a replication does: the sample's variances gathered from the
    # complement's, a block valid up to the frame size
    sigma2_s = None if sigma2_u1 is None else sigma2_u1[members]
    arm = Arm.of(y_u1[members], x_u1[members], pi_u1[members], sigma2_s)
    block = certainty_block(x_c, y_c, wspec, sigma2_c, n_c + n_u1)
    x_total = x_u1.sum(axis=0)
    got = y_com_di(arm, float(y_c.sum()), block, x_total)
    point, variance, _ = pooled_formula(x_c, y_c, arm.x_s, arm.y_s, arm.pi_s, sigma2_c,
                                        sigma2_s, x_total, wspec)
    assert got.point == pytest.approx(point, rel=1e-12, abs=0)
    assert got.variance == pytest.approx(variance, rel=1e-12, abs=1e-12 * np.sum(y_u1**2))
    # the smallest block, with the sample's variances predicted from its rows
    direct = y_com_di(Arm.of(arm.y_s, arm.x_s, arm.pi_s, predict_sigma2(model, arm.x_s)),
                      float(y_c.sum()),
                      certainty_block(x_c, y_c, wspec, predict_sigma2(model, x_c), n_c + arm.size),
                      x_total)
    assert direct.point == pytest.approx(point, rel=1e-12, abs=0)


def test_truncation_cuts_certainty_rows():
    # a frame whose pooled quantile falls below some certainty weights, so
    # that the block's rows kept apart are the ones truncation reaches (with
    # weights 1/pi no certainty weight, 1, exceeds a sample weight)
    wspec = WeightSpec("inverse_pi_sigma", 0.6)
    x_c, y_c, x_u1, y_u1, _, members, model = frame(3, 60, 40, 2.0)
    sigma2_c, sigma2_s = predict_sigma2(model, x_c), predict_sigma2(model, x_u1[members])
    arm = Arm.of(y_u1[members], x_u1[members], np.full(len(members), 0.5), sigma2_s)
    block = certainty_block(x_c, y_c, wspec, sigma2_c, 100)
    point, variance, weights = pooled_formula(x_c, y_c, arm.x_s, arm.y_s, arm.pi_s, sigma2_c,
                                              sigma2_s, x_u1.sum(axis=0), wspec)
    cut = np.sum(weights[:60] < 1.0 / sigma2_c)
    assert 0 < cut <= len(block.top_y)
    got = y_com_di(arm, float(y_c.sum()), block, x_u1.sum(axis=0))
    assert got.point == pytest.approx(point, rel=1e-12, abs=0)
    assert got.variance == pytest.approx(variance, rel=1e-12)


def test_block_refuses_a_larger_pooled_fit():
    x_c, y_c, x_u1, y_u1, pi_u1, _, _ = frame(4, 20, 30, 0.0)
    block = certainty_block(x_c, y_c, WeightSpec(), None, 40)
    arm = Arm.of(y_u1, x_u1, pi_u1)
    with pytest.raises(ValueError, match="40 pooled rows, not 50"):
        y_com_di(arm, float(y_c.sum()), block, x_u1.sum(axis=0))
