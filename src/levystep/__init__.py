"""Strong pathwise approximation of linear jump-diffusions driven by a Wiener
process and a (possibly infinite-activity) Poisson jump measure."""

from .common import ConfigError, DivergentIntegralError, Region
from .levy import (AmplitudeSpec, AtomSpec, LevyModel, PowerLawSpec, activate,
                   model_from_config, moment, truncate)
from .multiindex import (Counts, IndexSet, Multiindex, hierarchical_set,
                         in_hierarchical_set, remainder_set, subscript_set)
from .oracle import OracleConfig, OracleKind, exact_solution, fine_reference
from .path import (DrivingPath, JumpEvent, Slices, build_path, dyadic_grid,
                   sample_dw_dz, simulate_events)
from .schemes import (DEFAULT_I32, I32Compensator, LinearCoefficients, Scheme,
                      Trajectory, euler_factor, milstein_factor,
                      milstein_terms, run_scheme, step_factor)
from .harness import (ConvergenceReport, StudyConfig, TruncationReport,
                      config_from_dict, config_from_json, exclude_coarsest,
                      fit_slope, path_rng, simulate_trajectory,
                      strong_error_study, truncation_study)

__version__ = "0.1.0"

__all__ = [
    # common
    "ConfigError", "DivergentIntegralError", "Region",
    # levy
    "AmplitudeSpec", "AtomSpec", "LevyModel", "PowerLawSpec", "activate",
    "model_from_config", "moment", "truncate",
    # multiindex
    "Counts", "IndexSet", "Multiindex", "hierarchical_set",
    "in_hierarchical_set", "remainder_set", "subscript_set",
    # oracle
    "OracleConfig", "OracleKind", "exact_solution", "fine_reference",
    # path
    "DrivingPath", "JumpEvent", "Slices", "build_path", "dyadic_grid",
    "sample_dw_dz", "simulate_events",
    # schemes
    "DEFAULT_I32", "I32Compensator", "LinearCoefficients", "Scheme",
    "Trajectory", "euler_factor", "milstein_factor", "milstein_terms",
    "run_scheme", "step_factor",
    # harness
    "ConvergenceReport", "StudyConfig", "TruncationReport", "config_from_dict",
    "config_from_json", "exclude_coarsest", "fit_slope", "path_rng",
    "simulate_trajectory", "strong_error_study", "truncation_study",
]
