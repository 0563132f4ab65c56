"""tractlab: exact information complexity of tensor-product Gaussian problems.

The package computes the exact average-case information complexity
n(epsilon, d) of tensor-product approximation problems from univariate
eigenvalue spectra, evaluates the standard tractability bounds, and
classifies product-weight Korobov families.
"""

from .bounds import (
    BoundEvaluation,
    BoundParams,
    chebyshev_bound,
    curse_lower_bound,
    entropy_sum,
    jensen_lhs,
    jensen_lower_bound,
    poly_tract_constant,
    poly_tract_ratio,
    pt_log_criterion,
    qpt_criterion,
    qpt_criterion_general,
    series_converges,
    spt_exponent_bisect,
    weak_tract_theta,
)
from .classifier import (
    KorobovFamily,
    SmoothnessFamily,
    TractabilityReport,
    WeightFamily,
    classify,
    qpt_condition_value,
    rho_g,
)
from .config import ExperimentConfig, config_from_dict, load_config
from .errors import (
    BudgetExceededError,
    DivergenceError,
    DomainError,
    GridSizeError,
    TractlabError,
    ValidationError,
)
from .fixtures import (
    tower_complexity_cap,
    tower_problem,
    uniform_block_complexity,
    uniform_block_problem,
    uniform_block_size,
)
from .spectra import ExplicitSpectrum, KorobovSpectrum, spectrum_from_config
from .tensor import (
    Budget,
    ComplexityResult,
    ProductProblem,
    brute_force_complexity,
    info_complexity,
    top_eigenvalues,
)
from .zeta import zeta

__version__ = "0.1.0"

__all__ = [
    "BoundEvaluation",
    "BoundParams",
    "Budget",
    "BudgetExceededError",
    "ComplexityResult",
    "DivergenceError",
    "DomainError",
    "ExperimentConfig",
    "ExplicitSpectrum",
    "GridSizeError",
    "KorobovFamily",
    "KorobovSpectrum",
    "ProductProblem",
    "SmoothnessFamily",
    "TractabilityReport",
    "TractlabError",
    "ValidationError",
    "WeightFamily",
    "brute_force_complexity",
    "chebyshev_bound",
    "classify",
    "config_from_dict",
    "curse_lower_bound",
    "entropy_sum",
    "info_complexity",
    "jensen_lhs",
    "jensen_lower_bound",
    "load_config",
    "poly_tract_constant",
    "poly_tract_ratio",
    "pt_log_criterion",
    "qpt_condition_value",
    "qpt_criterion",
    "qpt_criterion_general",
    "rho_g",
    "series_converges",
    "spectrum_from_config",
    "spt_exponent_bisect",
    "top_eigenvalues",
    "tower_complexity_cap",
    "tower_problem",
    "uniform_block_complexity",
    "uniform_block_problem",
    "uniform_block_size",
    "weak_tract_theta",
    "zeta",
]
