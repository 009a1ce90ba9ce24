"""Mixture modeling of frequency-count multisets.

Counts are modeled as draws from a Poisson or binomial mixture whose mixing
distribution lives on [0, 1].  The package fits that mixing distribution by
maximum likelihood over a data-driven grid (with an optimality certificate),
turns fits into estimates of symmetric functionals such as entropy, power
sums, support size, and the number of unseen categories, tests goodness of
fit, and ships a reproducible simulation harness plus a command-line
interface.  Names outside ``__all__`` are imported from their submodule.
"""

from .base import CountData, DomainError, FitError, MixingDistribution, MixtureKernel, ParseError
from .evaluate import gof_test
from .functionals import FunctionalSpec, estimate
from .npmle import fit_npmle, fit_penalized, scaled_kl_profile
from .sim import (
    ExperimentConfig,
    config_from_json,
    make_distribution,
    report_to_csv,
    report_to_json,
    run_experiment,
    sample,
    w1_curve,
)

__all__ = [
    "CountData", "MixtureKernel", "MixingDistribution", "FunctionalSpec",
    "estimate", "fit_npmle", "fit_penalized", "scaled_kl_profile", "gof_test",
    "ExperimentConfig", "make_distribution", "sample", "run_experiment",
    "config_from_json", "report_to_json", "report_to_csv", "w1_curve",
    "DomainError", "FitError", "ParseError",
]

__version__ = "0.1.0"
