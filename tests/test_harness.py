"""Monte-Carlo studies, configuration handling, writers, and the CLI."""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levystep import (
    ConfigError,
    Scheme,
    StudyConfig,
    TruncationReport,
    activate,
    build_path,
    config_from_dict,
    config_from_json,
    exact_solution,
    fit_slope,
    path_rng,
    simulate_trajectory,
    strong_error_study,
    truncation_study,
)
from levystep import cli, harness
from levystep.harness import exclude_coarsest

from helpers import sup_error_one_level


def base_config(**over):
    cfg = {
        "model": {
            "small": {"kind": "atoms", "atoms": [[0.5, 0.6], [-0.4, 0.4]]},
            "tail": {"kind": "atoms", "atoms": [[1.5, 0.3], [-2.0, 0.2]]},
            "p": {"coef": 1.0, "exponent": 1.0},
            "q": {"coef": 1.0, "exponent": 1.0},
        },
        "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1,
        "y0": 1.0, "T": 1.0,
        "scheme": "euler",
        "ladder_levels": [2, 3, 4],
        "finest_level": 7,
        "paths": 40,
        "seed": 7,
    }
    cfg.update(over)
    return cfg


# the README's two example configs, cut to 20 paths
README_MODEL = {
    "small": {"kind": "atoms", "atoms": [[0.5, 0.6], [-0.4, 0.4]]},
    "tail": {"kind": "atoms", "atoms": [[1.5, 0.3], [-2.0, 0.2]]},
    "p": {"coef": 1.0, "exponent": 1.0},
    "q": {"coef": 1.0, "exponent": 1.0},
}
README_CONVERGE = {
    "model": README_MODEL, "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1,
    "y0": 1.0, "T": 1.0, "scheme": "milstein", "ladder_levels": [3, 4, 5, 6, 7, 8],
    "finest_level": 10, "paths": 20, "seed": 1337,
}
README_TRUNCATE = {
    "model": README_MODEL | {"small": {"kind": "power_law", "c": 1.0, "a": 0.5}},
    "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1, "scheme": "euler",
    "epsilons": [0.5, 0.25, 0.125], "truncation_level": 5, "ladder_levels": [3, 5],
    "finest_level": 8, "paths": 20, "seed": 2025,
}


def trunc_config(**over):
    cfg = base_config(
        model={
            "small": {"kind": "power_law", "c": 1.0, "a": 0.5},
            "tail": {"kind": "atoms", "atoms": [[1.5, 0.3], [-2.0, 0.2]]},
            "p": {"coef": 1.0, "exponent": 1.0},
            "q": {"coef": 1.0, "exponent": 1.0},
        },
        epsilons=[0.5, 0.25, 0.125],
        truncation_level=4,
        paths=30,
        seed=11,
    )
    cfg.update(over)
    return cfg


# -- configuration -------------------------------------------------------------

def test_config_defaults():
    cfg = config_from_dict(base_config())
    assert cfg.scheme is Scheme.EULER
    assert cfg.horizon == 1.0 and cfg.y0 == 1.0
    assert cfg.ladder_levels == (2, 3, 4)
    assert cfg.truncation_level == 4 and cfg.trajectory_level == 4
    assert cfg.epsilon is None and cfg.epsilons is None
    assert config_from_dict(base_config(finest_level=20)).finest_level == 20


@pytest.mark.parametrize("mangle,match", [
    (lambda c: c.update(bogus=1), "unknown config keys"),
    (lambda c: c.pop("model"), "model"),
    (lambda c: c.pop("b"), "'b'"),
    (lambda c: c.pop("seed"), "'seed'"),
    (lambda c: c.update(b="fast"), "must be a number"),
    (lambda c: c.update(T=0.0), "positive"),
    (lambda c: c.update(scheme="heun"), "unknown scheme"),
    (lambda c: c.update(ladder_levels=[3, 2]), "increasing"),
    (lambda c: c.update(ladder_levels=[2, 2, 3]), "increasing"),
    (lambda c: c.update(ladder_levels=[-1, 2]), "nonnegative"),
    (lambda c: c.update(finest_level=5), "two levels finer"),
    (lambda c: c.update(paths=0), "'paths' must be at least 1"),
    (lambda c: c.update(epsilons=[]), "nonempty"),
    (lambda c: c.update(epsilons=[1.5]), "lie in"),
    (lambda c: c.update(epsilons=[0.5, 5e-324]), r"min\(epsilons\)/4 a positive float"),
    # a rate that overflows the float range
    (lambda c: c.update(model={"small": {"kind": "power_law", "c": 1.0, "a": 1.9},
                               "epsilon": 1e-300}), "expected events a path"),
    (lambda c: c.update(truncation_level=9), "finest_level"),
    (lambda c: c.update(trajectory_level=9), "finest_level"),
    (lambda c: c.update(i32_compensator="tail_running_sum"),
     r"unknown config keys: \['i32_compensator'\]"),
    (lambda c: c.update(oracle={"kind": "exact_linear"}), r"unknown config keys: \['oracle'\]"),
    (lambda c: c.update(paths=True), "'paths' must be an integer"),
    (lambda c: c.update(paths=12.5), "'paths' must be an integer"),
    (lambda c: c.update(finest_level="7"), "'finest_level' must be an integer"),
    (lambda c: c.update(ladder_levels=[], finest_level=21), "'finest_level' must lie in"),
    (lambda c: c.update(ladder_levels=[], finest_level=-1), "'finest_level' must lie in"),
    (lambda c: c.update(truncation_level=2.5), "'truncation_level' must be an integer"),
    (lambda c: c.update(trajectory_level=[3]), "'trajectory_level' must be an integer"),
    (lambda c: c.update(epsilons=["x"]), "'epsilons' must be a number"),
    (lambda c: c.update(epsilons=[float("nan")]), "'epsilons' must be finite"),
    (lambda c: c.update(sigma=True), "'sigma' must be a number"),
    (lambda c: c.update(G=10**400), "'G' must be finite"),
])
def test_config_rejections(mangle, match):
    cfg = base_config()
    mangle(cfg)
    with pytest.raises(ConfigError, match=match):
        config_from_dict(cfg)


# JSON-shaped values: scalars (ints beyond the float range, inf and nan
# included) nested in short lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**1100, 2**1100)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)
# where a value goes: every top-level key, and every key of model and its sections
FUZZ_KEYS = ([(key,) for key in sorted(harness._TOP_KEYS)]
             + [("model", key) for key in ("small", "tail", "p", "q", "epsilon")]
             + [("model", region, key) for region in ("small", "tail")
                for key in ("kind", "atoms", "c", "a")]
             + [("model", amp, key) for amp in ("p", "q") for key in ("coef", "exponent")])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(power_law=st.booleans(),
       edits=st.lists(st.tuples(st.sampled_from(FUZZ_KEYS), JSON_VALUES), min_size=1, max_size=3))
@example(power_law=True, edits=[(("model", "p", "coef"), 1e200)])
def test_config_parser_fuzz(power_law, edits):
    # a parsed config or a ConfigError (exit 2), never another exception
    cfg = json.loads(json.dumps(trunc_config() if power_law else base_config()))
    for keys, value in edits:
        target = cfg
        for key in keys[:-1]:  # an earlier edit may have replaced a section
            target = target.get(key) if isinstance(target, dict) else None
        if isinstance(target, dict):
            target[keys[-1]] = value
    try:
        assert isinstance(config_from_dict(cfg), StudyConfig)
    except ConfigError:
        pass


def test_config_accepts_integral_floats():
    cfg = config_from_dict(base_config(paths=12.0, seed=3.0, ladder_levels=[2.0, 3, 4]))
    assert (cfg.paths, cfg.seed, cfg.ladder_levels) == (12, 3, (2, 3, 4))
    assert isinstance(cfg.paths, int) and isinstance(cfg.seed, int)


def test_config_rejects_non_object():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])


def test_epsilons_are_deduped_descending():
    cfg = config_from_dict(trunc_config(epsilons=[0.25, 0.5, 0.25]))
    assert cfg.epsilons == (0.5, 0.25)


def test_config_hash_tracks_source():
    a = config_from_dict(base_config())
    b = config_from_dict(base_config())
    c = config_from_dict(base_config(seed=8))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_from_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_config()))
    assert config_from_json(p).seed == 7
    with pytest.raises(ConfigError, match="not found"):
        config_from_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="valid JSON"):
        config_from_json(bad)


def test_path_rng_streams():
    assert path_rng(5, 0).random() == path_rng(5, 0).random()
    assert path_rng(5, 0).random() != path_rng(5, 1).random()
    assert path_rng(6, 0).random() != path_rng(5, 0).random()


# -- slope fitting ---------------------------------------------------------------

def test_fit_slope_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    slope, se = fit_slope(x, 2.0 * x + 1.0)
    assert slope == pytest.approx(2.0, abs=1e-13)
    assert se == pytest.approx(0.0, abs=1e-10)


def test_fit_slope_two_points():
    slope, se = fit_slope(np.array([0.0, 2.0]), np.array([1.0, 5.0]))
    assert slope == pytest.approx(2.0)
    assert math.isnan(se)


def test_exclude_coarsest_guard():
    se = np.array([0.1, 0.1, 0.01, 0.01])
    close = np.array([1.00, 1.05, 0.5, 0.25])
    apart = np.array([2.0, 1.0, 0.5, 0.25])
    assert exclude_coarsest(close, se) is True
    assert exclude_coarsest(apart, se) is False
    # never drops below three fit points
    assert exclude_coarsest(close[:3], se[:3]) is False


# -- strong convergence study ------------------------------------------------------

@pytest.fixture(scope="module")
def euler_report():
    return strong_error_study(config_from_dict(base_config()))


def test_strong_study_shape_and_errors(euler_report):
    rep = euler_report
    assert np.array_equal(rep.deltas, [0.25, 0.125, 0.0625])
    assert rep.per_path.shape == (40, 3)
    assert np.all(rep.mean_sup_sq > 0) and np.all(rep.std_err > 0)
    assert np.all(np.diff(rep.mean_sup_sq) < 0)  # finer grid, smaller error
    assert math.isfinite(rep.slope)
    assert rep.slope_ci[0] < rep.slope < rep.slope_ci[1]
    assert rep.target_order == 0.5
    assert rep.config_hash == config_from_dict(base_config()).config_hash()
    assert "jump times" in rep.sup_note


def test_strong_study_deterministic(euler_report):
    again = strong_error_study(config_from_dict(base_config()))
    assert np.array_equal(again.per_path, euler_report.per_path)
    assert again.slope == euler_report.slope


def test_milstein_beats_euler_on_shared_paths(euler_report):
    rep = strong_error_study(config_from_dict(base_config(scheme="milstein")))
    assert rep.scheme is Scheme.MILSTEIN and rep.target_order == 1.0
    # same seeds, same driving paths: order 1 should dominate order 1/2 on
    # the mean at every ladder level
    assert np.all(rep.mean_sup_sq < euler_report.mean_sup_sq)


# (model, finest_level, ladder): the README atoms, no jumps at all, and rates
# high enough that finest cells hold several jumps
CROSS_CHECK_MODELS = {
    "atoms": (README_MODEL, 8, [2, 3, 4]),
    "jumpless": ({"small": {"kind": "atoms", "atoms": []},
                  "tail": {"kind": "atoms", "atoms": []}}, 6, [1, 2]),
    "jump-heavy": ({"small": {"kind": "atoms", "atoms": [[0.5, 120.0], [-0.4, 80.0]]},
                    "tail": {"kind": "atoms", "atoms": [[1.5, 20.0], [-2.0, 20.0]]}},
                   6, [1, 2]),
    # continuous small marks: a = 1.2 truncated at 0.05, ~60 jumps a path
    "power-law": (README_MODEL | {"small": {"kind": "power_law", "c": 1.0, "a": 1.2},
                                  "epsilon": 0.05}, 8, [2, 3, 4]),
}


@pytest.mark.parametrize("model_name", sorted(CROSS_CHECK_MODELS))
@pytest.mark.parametrize("scheme", ["euler", "milstein"])
def test_stacked_sup_errors_match_the_per_level_route(model_name, scheme):
    # the study evaluates all levels and partial slices of a path in one
    # batch; one run_scheme per level plus one partial batch per level must
    # give the same per-path numbers bit for bit
    model, finest, ladder = CROSS_CHECK_MODELS[model_name]
    cfg = config_from_dict(base_config(
        model=model, finest_level=finest, ladder_levels=ladder, paths=30, scheme=scheme))
    rep = strong_error_study(cfg)
    active = activate(cfg.model, cfg.epsilon)
    coef = cfg.coefficients_for(active)
    rows, most_in_a_cell = [], 0
    for i in range(cfg.paths):
        path = build_path(cfg.horizon, finest, active, path_rng(cfg.seed, i))
        most_in_a_cell = max(most_in_a_cell, np.bincount(path.jump_cells, minlength=1).max())
        exact = exact_solution(path, np.arange(path.event_times.size), coef, cfg.y0)
        rows.append([sup_error_one_level(cfg, path, coef, lv, exact) for lv in ladder])
    rows = np.array(rows)
    assert rep.per_path.tobytes() == np.ascontiguousarray(rows[:, :, 0]).tobytes()
    assert rep.scheme_sup_sq.tobytes() == rows[:, :, 1].mean(axis=0).tobytes()
    if model_name == "jumpless":
        assert most_in_a_cell == 0
    elif model_name == "jump-heavy":
        assert most_in_a_cell >= 3
    elif model_name == "power-law":
        assert most_in_a_cell >= 1


def test_strong_study_needs_two_levels():
    with pytest.raises(ConfigError, match="two ladder levels"):
        strong_error_study(config_from_dict(base_config(ladder_levels=[2])))


def test_strong_study_degenerate_model():
    cfg = config_from_dict(base_config(b=0.0, sigma=0.0, F=0.0, G=0.0, paths=5))
    with pytest.raises(RuntimeError, match="degenerate"):
        strong_error_study(cfg)


# -- truncation study ---------------------------------------------------------------

@pytest.fixture(scope="module")
def trunc_report():
    return truncation_study(config_from_dict(trunc_config()))


def test_truncation_study_basics(trunc_report):
    rep = trunc_report
    assert isinstance(rep, TruncationReport)
    assert np.array_equal(rep.epsilons, [0.5, 0.25, 0.125])
    assert rep.eps_reference == 0.125 / 4
    assert rep.level == 4
    assert rep.per_path.shape == (30, 3)
    assert np.all(rep.mean_sup_sq > 0)
    assert np.all(np.diff(rep.mean_sup_sq) < 0)  # smaller eps, smaller gap
    assert rep.slope > 0
    assert "coarse grid" in rep.sup_note


def test_truncation_study_deterministic(trunc_report):
    again = truncation_study(config_from_dict(trunc_config()))
    assert np.array_equal(again.per_path, trunc_report.per_path)


@pytest.mark.parametrize("study,cfg", [
    (strong_error_study, README_CONVERGE | {"scheme": "euler"}),
    (strong_error_study, README_CONVERGE | {"scheme": "milstein"}),
    (truncation_study, README_TRUNCATE),
], ids=["converge-euler", "converge-milstein", "truncate"])
def test_per_path_results_do_not_depend_on_the_path_count(study, cfg):
    # path i draws from its own stream, so a longer run only appends rows
    few = study(config_from_dict(cfg | {"paths": 10})).per_path
    more = study(config_from_dict(cfg | {"paths": 25})).per_path
    assert few.tobytes() == more[:10].tobytes()


def test_truncation_study_needs_epsilons():
    with pytest.raises(ConfigError, match="epsilons"):
        truncation_study(config_from_dict(base_config()))
    # one radius, given once or twice (deduped), leaves no slope to fit
    for eps in ([0.5], [0.5, 0.5]):
        with pytest.raises(ConfigError, match="at least two distinct epsilons"):
            truncation_study(config_from_dict(trunc_config(epsilons=eps)))


# -- single trajectory -----------------------------------------------------------

def test_per_path_errors_match_recorded_values():
    # values recorded from the per-slice object evaluator that the array
    # evaluator replaced, on the README configs at 20 paths: the Euler and
    # truncation errors must be reproduced bit for bit, the Milstein ones
    # (whose sums are reordered) to 1e-12 relative
    recorded = json.loads((Path(__file__).parent / "data" / "per_path_errors.json").read_text())
    for scheme in ("euler", "milstein"):
        rep = strong_error_study(config_from_dict(README_CONVERGE | {"scheme": scheme}))
        want = np.array(recorded[scheme])
        if scheme == "euler":
            assert np.array_equal(rep.per_path, want)
        else:
            np.testing.assert_allclose(rep.per_path, want, rtol=1e-12, atol=0)
    rep = truncation_study(config_from_dict(README_TRUNCATE))
    assert np.array_equal(rep.per_path, np.array(recorded["truncation"]))


def test_simulate_trajectory_shapes():
    cfg = config_from_dict(base_config())
    traj, oracle_vals = simulate_trajectory(cfg)
    assert traj.times.size == 2**4 + 1 == oracle_vals.size
    assert traj.values[0] == 1.0 and oracle_vals[0] == 1.0
    assert np.all(np.isfinite(oracle_vals))


def test_simulate_trajectory_needs_level():
    cfg = config_from_dict(base_config(ladder_levels=[], finest_level=6))
    with pytest.raises(ConfigError, match="trajectory_level"):
        simulate_trajectory(cfg)


# -- writers ----------------------------------------------------------------------

def test_errors_csv_roundtrip(tmp_path, euler_report):
    out = tmp_path / "errors.csv"
    harness.write_errors_csv(euler_report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,mean_sup_sq_error,std_err,paths"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
    assert float(first[1]) == euler_report.mean_sup_sq[0]
    harness.write_errors_csv(euler_report, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


def test_truncation_csv(tmp_path, trunc_report):
    out = tmp_path / "truncation.csv"
    harness.write_truncation_csv(trunc_report, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "epsilon,mean_sup_sq_diff,std_err,paths"
    assert len(lines) == 4


def test_trajectory_csv(tmp_path):
    harness.write_trajectory_csv([0.0, 0.5], [1.0, 1.1], [1.0, 1.05],
                                 tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0] == "time,y_scheme,y_oracle"
    assert lines[2].split(",") == ["0.5", "1.1000000000000001", "1.05"]


def test_report_json_strong(tmp_path, euler_report):
    out = tmp_path / "report.json"
    harness.write_report_json(euler_report, out)
    doc = json.loads(out.read_text())
    assert doc["kind"] == "strong_convergence"
    assert doc["scheme"] == "euler"
    assert doc["levels"] == [2, 3, 4]
    assert doc["slope"] == euler_report.slope
    assert doc["paths"] == 40 and doc["seed"] == 7
    assert len(doc["scheme_sup_sq"]) == 3


def test_report_json_nan_becomes_null(tmp_path):
    # a two-level ladder has no slope standard error
    rep = strong_error_study(config_from_dict(base_config(
        ladder_levels=[2, 3], finest_level=6, paths=5)))
    assert math.isnan(rep.slope_se)
    out = tmp_path / "r.json"
    harness.write_report_json(rep, out)
    doc = json.loads(out.read_text())
    assert doc["slope_se"] is None
    assert doc["slope_ci"] == [None, None]


def test_report_json_refuses_nonfinite_values(tmp_path, euler_report):
    # only an undefined slope fit is written as null: a NaN mean is a failure
    out = tmp_path / "r.json"
    for bad in (math.inf, math.nan):
        rep = replace(euler_report, mean_sup_sq=np.array([1.0, bad, 2.0]))
        with pytest.raises(ValueError):
            harness.write_report_json(rep, out)
        assert not out.exists()


@pytest.mark.parametrize("report", ["euler_report", "trunc_report"])
def test_report_json_holds_every_field_but_per_path(tmp_path, request, report):
    rep = request.getfixturevalue(report)
    out = tmp_path / "report.json"
    harness.write_report_json(rep, out)
    doc = json.loads(out.read_text())
    assert set(doc) == {f.name for f in fields(rep)} - {"per_path"} | {"kind"}


def test_report_json_truncation(tmp_path, trunc_report):
    out = tmp_path / "report.json"
    harness.write_report_json(trunc_report, out)
    doc = json.loads(out.read_text())
    assert doc["kind"] == "truncation"
    assert doc["epsilons"] == [0.5, 0.25, 0.125]
    assert doc["eps_reference"] == 0.03125


def test_ensure_out_dir(tmp_path):
    target = tmp_path / "a" / "b"
    assert harness.ensure_out_dir(target) == target
    assert target.is_dir()
    assert harness.ensure_out_dir(target) == target  # idempotent


# -- CLI ----------------------------------------------------------------------------

def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_cli_converge(tmp_path, capsys):
    p = write_cfg(tmp_path, base_config(paths=10))
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(p), "--out-dir", str(out)]) == 0
    assert (out / "errors.csv").is_file() and (out / "report.json").is_file()
    assert "slope" in capsys.readouterr().out
    out2 = tmp_path / "out2"
    assert cli.main(["converge", "--config", str(p), "--out-dir", str(out2)]) == 0
    assert (out2 / "errors.csv").read_bytes() == (out / "errors.csv").read_bytes()


def test_cli_overrides(tmp_path):
    p = write_cfg(tmp_path, base_config(paths=10))
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(p), "--out-dir", str(out),
                     "--seed", "99", "--paths", "8"]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["seed"] == 99 and doc["paths"] == 8
    base_doc_hash = config_from_dict(base_config(paths=10)).config_hash()
    assert doc["config_hash"] != base_doc_hash  # overrides are part of the hash


def test_cli_simulate(tmp_path):
    p = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(p), "--out-dir", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "time,y_scheme,y_oracle"
    assert len(lines) == 2**4 + 2


def test_cli_simulate_has_no_paths_flag(tmp_path):
    # simulate runs one path, so a path count is a usage error, not ignored
    p = write_cfg(tmp_path, base_config())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--paths", "3", "--config", str(p), "--out-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_cli_truncate(tmp_path):
    p = write_cfg(tmp_path, trunc_config(paths=10))
    out = tmp_path / "out"
    assert cli.main(["truncate", "--config", str(p), "--out-dir", str(out)]) == 0
    assert (out / "truncation.csv").is_file()
    doc = json.loads((out / "report.json").read_text())
    assert doc["kind"] == "truncation"


def test_cli_config_errors(tmp_path, capsys):
    assert cli.main(["converge", "--config", str(tmp_path / "nope.json")]) == 2
    bad = write_cfg(tmp_path, base_config(scheme="heun"), "bad.json")
    assert cli.main(["converge", "--config", str(bad)]) == 2
    capsys.readouterr()  # drain stderr
    # one path parses (simulate reads none), but a study needs two
    out = tmp_path / "out"
    for command, cfg in (("converge", base_config()), ("truncate", trunc_config())):
        p = write_cfg(tmp_path, cfg)
        assert cli.main([command, "--config", str(p), "--out-dir", str(out),
                         "--paths", "1"]) == 2
        assert "'paths' at least 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["converge", "truncate", "simulate"])
def test_cli_refuses_an_out_dir_that_is_a_file(tmp_path, capsys, command):
    # refused before the run, not after it
    p = write_cfg(tmp_path, trunc_config(paths=5))
    out = tmp_path / "out"
    out.write_text("kept")
    assert cli.main([command, "--config", str(p), "--out-dir", str(out)]) == 2
    assert "--out-dir" in capsys.readouterr().err
    assert out.read_text() == "kept"


def test_cli_nonfinite_model_value(tmp_path, capsys):
    cfg = base_config(paths=5)
    cfg["model"]["q"] = {"coef": float("inf")}   # written as the JSON token Infinity
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(p), "--out-dir", str(out)]) == 2
    assert "model.q" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# a = 1.2 truncated at min(epsilons)/4 = 2.5e-10: ~5.6e11 jumps a path
HEAVY_TRUNCATE = README_TRUNCATE | {
    "model": README_TRUNCATE["model"] | {"small": {"kind": "power_law", "c": 1.0, "a": 1.2}},
    "epsilons": [0.5, 1e-9]}


# a = 1.2 truncated at model.epsilon = 1e-7: ~4e8 jumps a path
HEAVY_CONVERGE = README_CONVERGE | {
    "model": README_MODEL | {"small": {"kind": "power_law", "c": 1.0, "a": 1.2},
                             "epsilon": 1e-7}}


@pytest.mark.parametrize("command,cfg,key", [
    ("truncate", HEAVY_TRUNCATE, "'epsilons'"),
    ("converge", README_CONVERGE | {"T": 1e9}, "'T'"),
    ("simulate", README_CONVERGE | {"T": 1e9}, "'T'"),
    ("truncate", README_TRUNCATE | {"T": 1e9}, "'T'"),
    ("converge", HEAVY_CONVERGE, "'model.epsilon'"),
], ids=["epsilons", "T", "simulate-T", "truncate-T", "model.epsilon"])
def test_cli_refuses_paths_beyond_the_event_budget(tmp_path, capsys, command, cfg, key):
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(p), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert key in err and str(harness._MAX_EXPECTED_EVENTS) in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command,cfg,flags", [
    ("converge", README_CONVERGE | {"paths": 1e12}, []),    # would ask np.empty for 43.7 TiB
    ("truncate", README_TRUNCATE | {"paths": 1e12}, []),
    ("converge", README_CONVERGE, ["--paths", str(10**12)]),
], ids=["converge", "truncate", "converge-override"])
def test_cli_refuses_paths_beyond_the_result_bound(tmp_path, capsys, command, cfg, flags):
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(p), "--out-dir", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "'paths'" in err and str(harness._MAX_PATH_RESULTS) in err
    assert not out.exists() or not any(out.iterdir())


def test_event_budget_holds_the_documented_configs_4x_inside(monkeypatch):
    # the README configs, the finest level allowed and the heaviest test
    # model still parse under a quarter of the bound
    monkeypatch.setattr(harness, "_MAX_EXPECTED_EVENTS", harness._MAX_EXPECTED_EVENTS // 4)
    heavy_model, _, _ = CROSS_CHECK_MODELS["jump-heavy"]
    for cfg in (README_CONVERGE, README_TRUNCATE, base_config(finest_level=20),
                base_config(model=heavy_model, finest_level=20)):
        config_from_dict(cfg)


@pytest.mark.parametrize("key,value", [
    ("paths", "abc"),
    ("seed", -1),
    ("oracle", {"kind": "fine_grid", "level": "x"}),
    ("ladder_levels", [3.7, 4.2, 5.1]),
    ("b", float("nan")),        # written as the JSON token NaN
    ("y0", float("inf")),       # written as the JSON token Infinity
    # the closed form is the one reference: any oracle key is unknown
    ("oracle", []), ("oracle", 0), ("oracle", False), ("oracle", ""),
    ("oracle", {"kind": "exact_linear"}), ("oracle", None),
    ("finest_level", 40),       # refused before a path asks for 2**40 + 1 points
])
def test_cli_malformed_top_level_value(tmp_path, capsys, key, value):
    p = write_cfg(tmp_path, base_config(**{"paths": 5, key: value}))
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(p), "--out-dir", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_cli_unreadable_config(tmp_path, capsys, kind):
    cfg_path = tmp_path / "cfg.json"
    if kind == "directory":
        cfg_path.mkdir()
    else:
        cfg_path.write_bytes(b'{"seed": "\xe9"}')   # a lone Latin-1 byte
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config file") and str(cfg_path) in err
    assert not out.exists()


def test_cli_negative_seed_override(tmp_path, capsys):
    p = write_cfg(tmp_path, base_config(paths=5))
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(p), "--out-dir", str(out),
                     "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_cli_truncate_rejects_model_epsilon(tmp_path, capsys):
    cfg = trunc_config(paths=5)
    cfg["model"]["epsilon"] = 0.45
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["truncate", "--config", str(p), "--out-dir", str(out)]) == 2
    assert "model.epsilon" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert not (out / "truncation.csv").exists()


@pytest.mark.parametrize("key,value", [
    # the closed form is the one reference, so no command reads an oracle section
    ("oracle", {"kind": "exact_linear"}),
    # the tail running sum is the one I32 time-compensator, even when named
    ("i32_compensator", "tail_running_sum"),
], ids=["oracle", "i32_compensator"])
@pytest.mark.parametrize("command,cfg", [
    ("converge", README_CONVERGE), ("simulate", README_CONVERGE), ("truncate", README_TRUNCATE),
])
def test_cli_every_command_refuses_a_removed_key(tmp_path, capsys, command, cfg, key, value):
    p = write_cfg(tmp_path, cfg | {key: value})
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(p), "--out-dir", str(out)]) == 2
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command,cfg", [
    ("converge", README_CONVERGE), ("simulate", README_CONVERGE), ("truncate", README_TRUNCATE),
])
def test_cli_overflowing_amplitude_exits_2(tmp_path, capsys, command, cfg):
    # p's square moment leaves the float range on atoms (converge, simulate)
    # and on a power law (truncate): a config error naming model.p, not an
    # OverflowError
    cfg = cfg | {"model": cfg["model"] | {"p": {"coef": 1e200, "exponent": 1.0}}}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(p), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "model.p" in err and "overflows" in err
    assert not out.exists() or not any(out.iterdir())


STRING_ATOM = {"kind": "atoms", "atoms": [["0.5", 0.6], [-0.4, 0.4]]}


@pytest.mark.parametrize("section,value,key", [
    ("small", STRING_ATOM, "model.small.atoms"),
    ("p", {"coef": "1.0"}, "model.p.coef"),
    ("p", {"coef": True}, "model.p.coef"),
    ("epsilon", "0.3", "model.epsilon"),
    ("p", {"coef": 1e200}, "model.p"),   # its squares leave the float range
])
def test_cli_strict_numbers_and_sections(tmp_path, capsys, section, value, key):
    cfg = base_config(paths=5, finest_level=8)
    cfg["model"][section] = value
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["converge", "--config", str(p), "--out-dir", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not (out / "report.json").exists()


# a drift so large that the scheme and the oracle overflow on every path
OVERFLOW = README_CONVERGE | {"b": 1e300, "ladder_levels": [3, 4, 5], "finest_level": 7,
                              "paths": 5}


@pytest.mark.parametrize("command,cfg,where", [
    ("simulate", OVERFLOW, "path 0 at time "),
    ("converge", OVERFLOW, "path 0 at level 3"),
    ("truncate", OVERFLOW | {"model": README_TRUNCATE["model"], "epsilons": [0.5, 0.25],
                             "truncation_level": 4}, "path 0 at epsilon 0.5"),
    # sups whose squares overflow: a tail jump scales the scheme by ~1e199
    # (path 1 holds the first one), or y0 is 1e300
    ("converge", README_CONVERGE | {"model": README_MODEL | {"q": {"coef": 1e200}}},
     "path 1 at level 3"),
    ("truncate", README_TRUNCATE | {"y0": 1e300}, "path 0 at epsilon 0.5"),
    # every per-path sup error is finite (~1e300), but their spread overflows
    ("converge", README_CONVERGE | {"y0": 1e150}, "level 3"),
], ids=["simulate", "converge", "truncate", "converge-sup-square", "truncate-sup-square",
        "converge-std-err"])
def test_cli_nonfinite_result_exits_1_and_writes_nothing(tmp_path, capsys, command, cfg,
                                                         where):
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(p), "--out-dir", str(out)]) == 1
    # the one error line, with no numpy warning ahead of it
    err = capsys.readouterr().err
    assert err.startswith("error: nonfinite ") and where in err
    assert err.endswith("\n") and err.count("\n") == 1
    assert not out.exists()


CLI_DATA = Path(__file__).parent / "data" / "cli"


def test_cli_outputs_match_pinned_files(tmp_path):
    # each directory holds a config and the files the CLI wrote for it when
    # it was recorded; the command is the directory name up to the first '-'
    runs = sorted(d for d in CLI_DATA.iterdir() if d.is_dir())
    assert len(runs) == 4
    for run in runs:
        out = tmp_path / run.name
        command = run.name.split("-")[0]
        assert cli.main([command, "--config", str(run / "config.json"),
                         "--out-dir", str(out)]) == 0, run.name
        pinned = sorted(f.name for f in run.iterdir() if f.name != "config.json")
        assert sorted(f.name for f in out.iterdir()) == pinned, run.name
        for name in pinned:
            assert (out / name).read_bytes() == (run / name).read_bytes(), (run.name, name)


def test_cli_simulate_reads_no_path_count(tmp_path):
    # simulate runs path 0 only: a one-path config writes the pinned trajectory
    run = CLI_DATA / "simulate-exact"
    p = write_cfg(tmp_path, json.loads((run / "config.json").read_text()) | {"paths": 1})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(p), "--out-dir", str(out)]) == 0
    assert (out / "trajectory.csv").read_bytes() == (run / "trajectory.csv").read_bytes()


def test_cli_runtime_error_exit_code(tmp_path):
    p = write_cfg(tmp_path, base_config(b=0.0, sigma=0.0, F=0.0, G=0.0, paths=5))
    assert cli.main(["converge", "--config", str(p), "--out-dir", str(tmp_path)]) == 1


def test_cli_bad_flags():
    with pytest.raises(SystemExit):
        cli.main(["converge", "--config", "x", "--frobnicate"])
    with pytest.raises(SystemExit):
        cli.main([])
