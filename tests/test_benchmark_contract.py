"""The package surface the benchmark drives.

`perfbench/layertrace.py` wraps layer functions by name from outside the
package and reads trajectories and jump records; this module imports it as
it stands and checks, in well under a second, that every name it needs still
resolves, so a rename fails here and not only in the benchmark's own smoke
test."""

import importlib.util
from pathlib import Path

import numpy as np

from levystep import LevyModel, AtomSpec, Scheme, config_from_dict, harness
from levystep import path as path_mod
from levystep import schemes

_SPEC = importlib.util.spec_from_file_location(
    "layertrace", Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py")
layertrace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layertrace)

CONFIG = {
    "model": {"small": {"kind": "atoms", "atoms": [[0.5, 3.0], [-0.4, 2.0]]},
              "tail": {"kind": "atoms", "atoms": [[1.5, 1.5], [-2.0, 1.0]]}},
    "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1, "scheme": "milstein",
    "ladder_levels": [2, 3, 4], "finest_level": 6, "paths": 4, "seed": 5,
}
# the truncate-powerlaw workload's study, on 40 paths: its marks come from the
# power-law disc sampler, two uniforms a small jump
TRUNCATE_CONFIG = {
    "model": dict(CONFIG["model"], small={"kind": "power_law", "c": 1.0, "a": 1.2}),
    "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1, "scheme": "euler",
    "epsilons": [0.5, 0.25, 0.125], "truncation_level": 5,
    "ladder_levels": [3, 5], "finest_level": 8, "paths": 40, "seed": 2026,
}


def test_every_layer_hook_resolves():
    missing = [name for name, targets in layertrace.HOOKS.items()
               if not any(owner is not None and getattr(owner, attr, None) is not None
                          for owner, attr in targets)]
    assert not missing


def test_trajectory_values_and_jump_regions_are_readable():
    model = LevyModel(small=AtomSpec(((0.5, 3.0),)), tail=AtomSpec(((1.5, 2.0),)))
    path = path_mod.build_path(1.0, 3, model, harness.path_rng(2, 0))
    coef = config_from_dict(CONFIG).coefficients_for(model)
    traj = schemes.run_scheme(Scheme.EULER, np.array([0.0, 1.0]), path, coef, 1.0)
    assert traj.values.shape == (2,) and traj.values[0] == 1.0
    regions = [j.region.value for j in path.jumps]
    assert set(regions) == {"small", "tail"}
    assert regions == np.where(path.jump_small, "small", "tail").tolist()


def test_traced_study_measures_every_count():
    with layertrace.Tracer() as tracer:
        harness.strong_error_study(config_from_dict(CONFIG))
    assert not tracer.missing_hooks and not tracer.unmeasured_counts
    counts = tracer.exact_counts()
    assert counts["harness.paths"] == counts["path.built"] == CONFIG["paths"]
    assert counts["levy.marks"] == counts["path.jumps_small"] + counts["path.jumps_tail"] > 0


def test_traced_truncation_study_measures_every_count():
    # the same counts on the power-law route
    with layertrace.Tracer() as tracer:
        harness.truncation_study(config_from_dict(TRUNCATE_CONFIG))
    assert not tracer.missing_hooks and not tracer.unmeasured_counts
    counts = tracer.exact_counts()
    assert counts["harness.paths"] == counts["path.built"] == TRUNCATE_CONFIG["paths"]
    assert counts["levy.marks"] == counts["path.jumps_small"] + counts["path.jumps_tail"] > 0
