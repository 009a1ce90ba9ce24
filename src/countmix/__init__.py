"""Mixture modeling of frequency-count multisets.

Counts are modeled as draws from a Poisson or binomial mixture whose mixing
distribution lives on [0, 1].  The package fits that mixing distribution by
maximum likelihood over a data-driven grid (with an optimality certificate),
turns fits into estimates of symmetric functionals such as entropy, power
sums, support size, and the number of unseen categories, tests goodness of
fit, and ships a reproducible simulation harness plus a command-line
interface.
"""

from .base import (
    CountData,
    DomainError,
    FitError,
    Grid,
    MixingDistribution,
    MixtureKernel,
    ParseError,
)
from .evaluate import (
    GofReport,
    HellingerReport,
    chi2_sf,
    gof_test,
    hellinger,
    wasserstein,
)
from .functionals import (
    EstimateReport,
    FunctionalSpec,
    bias_corrected_g,
    discovery_curve,
    empirical_plugin,
    estimate,
    estimate_combined,
    g_eval,
    good_turing_unseen,
    miller_madow,
    plugin,
)
from .kernels import log_pmf, mixture_log_density, pmf_truncation_point
from .npmle import (
    FitResult,
    LocalizedFit,
    PenalizedFitResult,
    build_grid,
    certificate,
    default_grid_size,
    fit_localized,
    fit_npmle,
    fit_penalized,
    log_likelihood,
    scaled_kl_profile,
)
from .sim import (
    ExperimentConfig,
    RmseEntry,
    RmseReport,
    TrueDistribution,
    config_from_json,
    histogram_distribution,
    make_distribution,
    report_to_csv,
    report_to_json,
    run_experiment,
    sample,
    true_value,
    w1_curve,
)

__version__ = "0.1.0"
