"""Mixture models for multivariate categorical time series.

Three estimators over aligned categorical sequences:

  - ``estimate_mtd``: multimatrix mixture of empirical lag-one
    transition probabilities, simplex weights by exact Newton solves;
  - ``estimate_mtd_probit``: normal-CDF-link mixture over plug-in
    transition probabilities, unconstrained parameters by BFGS on the
    closed-form score;
  - ``estimate_gmmc``: mixture of covariate-driven (non-homogeneous)
    conditionals fitted by multinomial logit, with constrained MLE,
    Wald inference, and covariate-conditional transition matrices.

Plus the data transforms to get from raw series to state sequences
(log returns, quantile discretization) and a seeded Monte Carlo harness
for size/power studies of the Wald tests.
"""

from .data import (
    CovariateMatrix,
    FrequencyMatrix,
    Panel,
    TransitionMatrix,
    count_transitions,
    discretize_quantiles,
    empirical_distribution,
    encode_sequences,
    log_returns,
    moving_average,
    read_covariates_csv,
    read_panel_csv,
    row_normalize,
    transition_matrix_grid,
    transition_patterns,
)
from .exceptions import DataError, EstimationError
from .gmmc import (
    GmmcFit,
    build_prob_tensor,
    conditional_distribution,
    conditional_transition_matrix,
    estimate_gmmc,
    gmmc_hessian,
    gmmc_loglik,
    load_fit,
    save_fit,
    smoothed_conditional_probs,
    transition_edge_list,
)
from .inference import (
    EquationReport,
    FitReport,
    WaldResult,
    chi2_1_sf,
    format_report,
    norm_cdf,
    significance_stars,
    wald_test,
)
from .mnlogit import (
    DesignSpec,
    MnLogitModel,
    build_design,
    fit_mnlogit,
    mnlogit_loglik,
    mnlogit_score,
    predict_probs,
)
from .mtd import (
    MtdModel,
    estimate_lambda_minmax,
    estimate_mtd,
    minmax_objective,
    mtd_hessian,
    mtd_loglik,
    mtd_predict,
)
from .optim import (
    OptimResult,
    maximize_auglag,
    maximize_simplex,
    maximize_unconstrained,
    numeric_gradient,
    numeric_hessian,
    project_simplex,
)
from .probit import (
    ProbitModel,
    estimate_mtd_probit,
    probit_distribution,
    probit_loglik,
    probit_prob,
)
from .simulation import (
    SimConfig,
    SimReport,
    run_part1,
    run_part2,
    run_study,
    simulate_homog_chain,
    simulate_nonhomog_chain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
