"""The package's public surface: `__all__` is an explicit list of names, and
this test holds the expected list so that any change to it is deliberate.
Importing the package needs only numpy: scipy is a test dependency."""

import os
import subprocess
import sys
import types

import levystep

PUBLIC = frozenset("""
    ConfigError DivergentIntegralError Region
    AmplitudeSpec AtomSpec LevyModel PowerLawSpec activate model_from_config
    moment truncate
    Counts IndexSet Multiindex hierarchical_set in_hierarchical_set
    remainder_set subscript_set
    OracleConfig OracleKind exact_solution fine_reference
    DrivingPath JumpEvent Slices build_path dyadic_grid sample_dw_dz
    simulate_events
    DEFAULT_I32 I32Compensator LinearCoefficients Scheme Trajectory
    euler_factor milstein_factor milstein_terms run_scheme step_factor
    ConvergenceReport StudyConfig TruncationReport config_from_dict
    config_from_json exclude_coarsest fit_slope path_rng simulate_trajectory
    strong_error_study truncation_study
""".split())


def test_star_import_exports_exactly_the_public_names():
    namespace: dict = {}
    exec("from levystep import *", namespace)  # fails if a name does not resolve
    namespace.pop("__builtins__")
    assert len(set(levystep.__all__)) == len(levystep.__all__)
    assert set(namespace) == set(levystep.__all__) == PUBLIC
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]


def test_import_leaves_scipy_out():
    code = "import sys, levystep; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(levystep.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
