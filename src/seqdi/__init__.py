"""Sequential design-based data integration for finite-population totals.

The non-probability sample is treated as a fully observed certainty
stratum; a probability sample is drawn from the complementary units
under a pilot-informed Poisson design, and stratified regression
estimators with design-based variances deliver the integrated total.
"""

__version__ = "0.1.0"  # set before the submodules load: harness records it

from . import errors
from .design import (
    DrawnSample,
    SecondStageDesign,
    equal_probabilities,
    optimal_probabilities,
    poisson_draw,
    pps_probabilities,
)
from .estimators import (
    Arm,
    Estimate,
    WeightSpec,
    certainty_block,
    y_com_di,
    y_di,
    y_dr,
    y_fusion,
    y_greg_independent,
    y_ht_seq,
    y_ipw,
    y_sep_di,
)
from .harness import McConfig, McSummary, emit_results, metrics, run_mc
from .homogeneity import (
    HomogeneityResult,
    adaptive_estimate,
    fgls_np,
    fgls_p,
    homogeneity_test,
)
from .numerics import RngStream, chisq_sf, logistic_fit, solve_spd, weighted_ls
from .pilot import PilotVarianceModel, fit_pilot, fit_power_variance, predict_sigma2
from .population import (
    Partition,
    Population,
    SelectionMechanism,
    calibrate_intercept,
    draw_nonprob,
    generate_population,
    load_population_csv,
    save_population_csv,
)
