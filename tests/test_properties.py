"""Properties of the sequential estimators, checked through their public functions.

Census exactness: when every complement unit is sampled with pi = 1, each
sequential estimator returns the population total with zero variance.
Scale equivariance: y -> c*y (c > 0) scales each point by c and each
variance by c^2, and the optimal design, refitted on c*y, keeps its
probabilities.
hypothesis is a test-only dependency; the module skips without it.
"""

import numpy as np
import pytest

from seqdi.design import optimal_probabilities, poisson_draw
from seqdi.estimators import Arm, WeightSpec, certainty_block, y_com_di, y_di, y_ht_seq, y_sep_di
from seqdi.numerics import RngStream
from seqdi.pilot import fit_pilot, predict_sigma2
from seqdi.population import generate_population

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

SEEDS = st.integers(0, 2**32 - 1)
POP_PARAMS = {"beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6}
WEIGHTS = ("inverse_pi", "inverse_pi_sigma")


def strata(seed, n_np, n1):
    """A lognormal population of n_np + n1 units, split at random into a
    certainty stratum of n_np units and its complement."""
    pop = generate_population(dict(POP_PARAMS, N=n_np + n1), RngStream(seed, 0))
    order = np.random.default_rng(seed).permutation(pop.size)
    return pop, np.sort(order[:n_np]), np.sort(order[n_np:])


def all_estimates(pop, y, s_np, u1, members, pi_s, model):
    """Every sequential estimate of the total of y on the sample ``members``
    of the complement u1, drawn with probabilities pi_s."""
    x_np, y_np = pop.rows(s_np), y[s_np]
    x_s, y_s = pop.rows(members), y[members]
    x_total_u1 = pop.rows(u1).sum(axis=0)
    arm, y_total = Arm.of(y_s, x_s, pi_s, predict_sigma2(model, x_s)), float(np.sum(y_np))
    out = {"DI": y_di(arm, y_total, len(u1)), "HT_seq": y_ht_seq(arm, y_total)}
    for kind in WEIGHTS:
        wspec = WeightSpec(kind)
        block = certainty_block(x_np, y_np, wspec, predict_sigma2(model, x_np),
                                len(y_np) + arm.size)
        out[f"sepDI/{kind}"] = y_sep_di(arm, y_total, x_total_u1, wspec)
        out[f"comDI/{kind}"] = y_com_di(arm, y_total, block, x_total_u1)
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n_np=st.integers(10, 300), n1=st.integers(4, 300), seed=SEEDS)
def test_census_returns_the_total_with_zero_variance(n_np, n1, seed):
    pop, s_np, u1 = strata(seed, n_np, n1)
    model = fit_pilot(pop.rows(s_np), pop.y[s_np])
    estimates = all_estimates(pop, pop.y, s_np, u1, u1, np.ones(n1), model)
    for tag, est in estimates.items():
        assert est.point == pytest.approx(pop.true_total, rel=1e-12, abs=0), tag
        assert est.variance == 0.0, tag


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n_np=st.integers(10, 300), n1=st.integers(40, 300), seed=SEEDS, c=st.floats(1e-3, 1e3))
def test_scale_equivariance(n_np, n1, seed, c):
    pop, s_np, u1 = strata(seed, n_np, n1)
    x_np, x_u1 = pop.rows(s_np), pop.rows(u1)
    model = fit_pilot(x_np, pop.y[s_np])
    scaled_model = fit_pilot(x_np, c * pop.y[s_np])
    design = optimal_probabilities(model, x_u1, n1 // 2, indices=u1)
    scaled_design = optimal_probabilities(scaled_model, x_u1, n1 // 2, indices=u1)
    # 1e-10, not 1e-12: the log e^2 regression of the refit moves gamma by
    # ~eps/|e| for a small residual e, and pi follows.  Over 3 200 random
    # frames drawn like these, pi moved by up to 7.4e-12 relative with the
    # slope from centred log m and log e^2, against up to 1.25e-10 (one
    # frame past this rtol) with the [1, log m] Cholesky fit it replaced
    np.testing.assert_allclose(scaled_design.pi, design.pi, rtol=1e-10, atol=0)

    sample = poisson_draw(design, RngStream(seed, 1))
    assume(sample.size >= 6)
    args = (s_np, u1, sample.members, sample.pi_realized)
    base = all_estimates(pop, pop.y, *args, model)
    scaled = all_estimates(pop, c * pop.y, *args, scaled_model)
    for tag, est in base.items():
        assert scaled[tag].point == pytest.approx(c * est.point, rel=1e-12, abs=0), tag
        assert scaled[tag].variance == pytest.approx(c**2 * est.variance, rel=1e-12, abs=0), tag
