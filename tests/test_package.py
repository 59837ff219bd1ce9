"""The package's public surface: `__all__` is an explicit list of names, and
this test holds the expected list so that any change to it is deliberate.
Importing the package needs only numpy: scipy is a test dependency."""

import os
import subprocess
import sys
import types

import levystep

PUBLIC = frozenset("""
    ConfigError DivergentIntegralError
    AmplitudeSpec AtomSpec LevyModel PowerLawSpec activate model_from_config
    moment truncate
    Multiindex hierarchical_set remainder_set
    exact_solution
    DrivingPath build_path
    LinearCoefficients Scheme milstein_terms run_scheme
    ConvergenceReport StudyConfig TruncationReport config_from_dict
    config_from_json fit_slope path_rng simulate_trajectory
    strong_error_study truncation_study
""".split())


def test_star_import_exports_exactly_the_public_names():
    namespace: dict = {}
    exec("from levystep import *", namespace)  # fails if a name does not resolve
    namespace.pop("__builtins__")
    assert len(set(levystep.__all__)) == len(levystep.__all__)
    assert set(namespace) == set(levystep.__all__) == PUBLIC
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]
    assert len(PUBLIC) == 30


def test_every_public_attribute_is_exported():
    # a name imported into the package but left out of __all__ would
    # otherwise widen the surface unnoticed; submodules are not names
    public = {n for n, v in vars(levystep).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(levystep.__all__)


def test_import_leaves_scipy_out():
    code = "import sys, levystep; print('scipy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(levystep.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
