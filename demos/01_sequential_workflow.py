"""End-to-end sequential data-integration workflow on a synthetic population.

Steps: generate a finite population, realize the non-probability
certainty stratum, fit the pilot variance model on it, build the
estimated-optimal Poisson design on the complement, draw the
second-stage sample, and compute every sequential estimator of the
population total together with the coefficient homogeneity test.
"""

import numpy as np

from seqdi import (
    Arm,
    RngStream,
    SelectionMechanism,
    WeightSpec,
    adaptive_estimate,
    calibrate_intercept,
    certainty_block,
    draw_nonprob,
    fgls_np,
    fgls_p,
    fit_pilot,
    generate_population,
    homogeneity_test,
    optimal_probabilities,
    poisson_draw,
    predict_sigma2,
    y_com_di,
    y_di,
    y_ht_seq,
    y_sep_di,
)

SEED = 20240901

# 1. A fixed finite population: lognormal outcomes whose mean carries an
#    interaction term that the working covariates (1, x1, x2) omit.
pop = generate_population(
    {"N": 10_000, "beta": (10.0, 15.0, 10.0, 20.0), "sigma": 0.6},
    RngStream(SEED, 0),
)
print(f"population: N = {pop.size}, true total Y = {pop.true_total:,.1f}")

# 2. The non-probability sample arrives through a covariate-driven
#    selection mechanism; we only observe the realized membership.
mech = SelectionMechanism("MAR", (2.0, -2.0), target_rate=0.70)
mech.intercept = calibrate_intercept(mech, pop)
partition = draw_nonprob(pop, mech, RngStream(SEED, 1))
s_np, u1 = partition.certainty_idx, partition.complement_idx
print(f"certainty stratum: n = {partition.n_certainty}, complement: N1 = {partition.n_complement}")

# 3. Pilot variance model on the certainty stratum (one FGLS refinement).
pilot = fit_pilot(pop.x[s_np], pop.y[s_np])
print(f"pilot fit: gamma = {pilot.gamma:.3f}, sigma2 = {pilot.sigma2:.4f}")

# 4. Estimated-optimal Poisson design on the complement and one draw.
n_p = int(0.40 * partition.n_complement)
design = optimal_probabilities(pilot, pop.x[u1], n_p, indices=u1)
sample = poisson_draw(design, RngStream(SEED, 2))
print(f"second stage: expected size {n_p}, realized size {sample.size}")

# 5. Sequential estimators with design-based variances.  The Arm holds the
#    sample with its 1/pi, HT totals and the pilot's variances of its rows;
#    the combined estimator adds the certainty rows' block of its pooled fit.
x_np, y_np_vals = pop.x[s_np], pop.y[s_np]
y_s, x_s, pi_s = pop.y[sample.members], pop.x[sample.members], sample.pi_realized
arm = Arm.of(y_s, x_s, pi_s, predict_sigma2(pilot, x_s))
y_total, x_total_u1 = float(y_np_vals.sum()), pop.x[u1].sum(axis=0)
by_sigma = WeightSpec("inverse_pi_sigma")
block = certainty_block(x_np, y_np_vals, by_sigma, predict_sigma2(pilot, x_np),
                        len(y_np_vals) + arm.size)

results = [
    y_di(arm, y_total, partition.n_complement),
    y_ht_seq(arm, y_total),
    y_sep_di(arm, y_total, x_total_u1, WeightSpec("inverse_pi")),
    y_sep_di(arm, y_total, x_total_u1, by_sigma),
    y_com_di(arm, y_total, block, x_total_u1),
]

# 6. Homogeneity diagnostic decides between separate and combined fits.
test = homogeneity_test(fgls_np(x_np, y_np_vals, pilot), fgls_p(x_s, y_s, pi_s))
results.append(adaptive_estimate(results[3], results[4], test))

print(f"\nhomogeneity test: F = {test.statistic:.2f}, p = {test.p_value:.2e}, "
      f"{'separate' if test.reject else 'combined'} regression selected")
print(f"\n{'estimator':<14}{'point':>12}{'std error':>12}{'rel error %':>12}")
for est in results:
    se = np.sqrt(est.variance)
    rel = 100.0 * (est.point - pop.true_total) / pop.true_total
    print(f"{est.tag:<14}{est.point:>12,.0f}{se:>12,.0f}{rel:>12.3f}")
