"""Robust point estimation for one-parameter exponential families.

Bayes, posterior-regret box-minimax, and reparameterization-invariant
box-minimax actions under the intrinsic (Kullback-Leibler) information
loss, with conjugate prior classes, Bayesianity certificates, and
independent brute-force verification oracles.
"""

from .bayesianity import (
    BayesianityCertificate,
    connected_path_witness,
    data_independent_alpha,
    data_independent_alpha_exponential,
    data_independent_alpha_exponential_jcp,
    data_independent_alpha_normal,
    mixture_witness,
)
from .errors import (
    ConvergenceError,
    DomainError,
    GMinimaxError,
    ProprietyError,
    SpecificationError,
)
from .estimators import (
    EstimateReport,
    Reparameterization,
    bayes_estimate,
    eta_scale_prgm,
    iprgm_jcp_box,
    make_transform,
    prgm_conjugate_box,
    prgm_from_bounds,
    transport,
    validate_transform,
)
from .expressions import Expression, family_from_config, parse_expression
from .families import (
    FamilySpec,
    builtin_family,
    fisher_info,
    jeffreys_shift_residual,
    mean_inverse,
    support_grid,
    validate_family,
)
from .losses import intrinsic_loss, posterior_regret
from .oracle import (
    GridSpec,
    OracleResult,
    grid_minimax,
    kl_quadrature,
    regret_curve,
)
from .priors import (
    ConjugatePrior,
    MixturePath,
    PriorBox,
    conjugate_prior,
    posterior_predictive_mean,
    predictive_mean_quadrature,
    prior_box,
    to_standard,
)
from .verify import CheckRecord, run_suite

__version__ = "0.1.0"

__all__ = [
    "BayesianityCertificate",
    "CheckRecord",
    "ConjugatePrior",
    "ConvergenceError",
    "DomainError",
    "EstimateReport",
    "Expression",
    "FamilySpec",
    "GMinimaxError",
    "GridSpec",
    "MixturePath",
    "OracleResult",
    "PriorBox",
    "ProprietyError",
    "Reparameterization",
    "SpecificationError",
    "bayes_estimate",
    "builtin_family",
    "conjugate_prior",
    "connected_path_witness",
    "data_independent_alpha",
    "data_independent_alpha_exponential",
    "data_independent_alpha_exponential_jcp",
    "data_independent_alpha_normal",
    "eta_scale_prgm",
    "family_from_config",
    "fisher_info",
    "grid_minimax",
    "intrinsic_loss",
    "iprgm_jcp_box",
    "jeffreys_shift_residual",
    "kl_quadrature",
    "make_transform",
    "mean_inverse",
    "mixture_witness",
    "parse_expression",
    "posterior_predictive_mean",
    "posterior_regret",
    "predictive_mean_quadrature",
    "prgm_conjugate_box",
    "prgm_from_bounds",
    "prior_box",
    "regret_curve",
    "run_suite",
    "support_grid",
    "to_standard",
    "transport",
    "validate_family",
    "validate_transform",
    "__version__",
]
