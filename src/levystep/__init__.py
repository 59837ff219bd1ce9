"""Strong pathwise approximation of linear jump-diffusions driven by a Wiener
process and a (possibly infinite-activity) Poisson jump measure."""

from .common import ConfigError, DivergentIntegralError
from .levy import (AmplitudeSpec, AtomSpec, LevyModel, PowerLawSpec, activate,
                   model_from_config, moment, truncate)
from .multiindex import hierarchical_set, remainder_set
from .oracle import exact_solution
from .path import DrivingPath, build_path
from .schemes import LinearCoefficients, Scheme, milstein_terms, run_scheme
from .harness import (ConvergenceReport, StudyConfig, TruncationReport,
                      config_from_dict, config_from_json, fit_slope, path_rng,
                      simulate_trajectory, strong_error_study, truncation_study)

__version__ = "0.1.0"

__all__ = [
    # common
    "ConfigError", "DivergentIntegralError",
    # levy
    "AmplitudeSpec", "AtomSpec", "LevyModel", "PowerLawSpec", "activate",
    "model_from_config", "moment", "truncate",
    # multiindex
    "hierarchical_set", "remainder_set",
    # oracle
    "exact_solution",
    # path
    "DrivingPath", "build_path",
    # schemes
    "LinearCoefficients", "Scheme", "milstein_terms", "run_scheme",
    # harness
    "ConvergenceReport", "StudyConfig", "TruncationReport", "config_from_dict",
    "config_from_json", "fit_slope", "path_rng", "simulate_trajectory",
    "strong_error_study", "truncation_study",
]
