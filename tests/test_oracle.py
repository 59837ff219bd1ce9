"""The closed-form reference solution and the fine-grid fallback."""

import math

import numpy as np
import pytest

from levystep import (
    AmplitudeSpec,
    AtomSpec,
    LevyModel,
    LinearCoefficients,
    OracleConfig,
    OracleKind,
    Region,
    Scheme,
    build_path,
    config_from_dict,
    exact_solution,
    fine_reference,
    run_scheme,
)
from levystep import harness

IDENT = AmplitudeSpec(1.0, 1.0)


def coef_with(drift=0.0, diffusion=0.0, small_jump=0.0, tail_jump=0.0, m1=0.14):
    return LinearCoefficients(drift=drift, diffusion=diffusion,
                              small_jump=small_jump, tail_jump=tail_jump,
                              p=lambda x: x, q=lambda x: x, p_integral=m1)


def jumpy_path(seed, level=6, small_rate=3.0, tail_rate=1.5):
    model = LevyModel(
        small=AtomSpec(((0.5, 0.5 * small_rate), (-0.4, 0.5 * small_rate))),
        tail=AtomSpec(((1.5, 0.5 * tail_rate), (-2.0, 0.5 * tail_rate))),
        p=IDENT, q=IDENT)
    return build_path(1.0, level, model, np.random.default_rng(seed))


# -- closed form ---------------------------------------------------------------

def test_pure_drift(finite_model):
    path = build_path(1.0, 4, finite_model, np.random.default_rng(0))
    coef = coef_with(drift=-0.7, m1=0.0)
    got = exact_solution(path, path.grid(2), coef, y0=2.0)
    want = 2.0 * np.exp(-0.7 * path.grid(2))
    assert got == pytest.approx(want, rel=1e-12)


def test_geometric_brownian_motion(finite_model):
    # no jump coefficients: Y = y0 exp((b - s^2/2) t + s W_t) read off the
    # path's own Wiener values
    path = build_path(1.0, 5, finite_model, np.random.default_rng(1))
    coef = coef_with(drift=0.3, diffusion=0.8, m1=0.0)
    times = path.grid(3)
    idx = [path.event_index(float(t)) for t in times]
    w = path.w_values[idx]
    want = 1.5 * np.exp((0.3 - 0.32) * times + 0.8 * w)
    assert exact_solution(path, times, coef, y0=1.5) == pytest.approx(want, rel=1e-12)


def test_jump_factors_match_event_walk():
    # walk the events by hand: exponential factor per gap, jump factor at
    # each event, right-continuous at jumps
    path = jumpy_path(7)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    jump_at = {j.event_index: j for j in path.jumps}
    log_drift = coef.drift - coef.small_jump * coef.p_integral \
        - 0.5 * coef.diffusion**2
    y = 1.0
    manual = {0.0: y}
    for i in range(1, path.event_times.size):
        gap = path.event_times[i] - path.event_times[i - 1]
        y *= math.exp(log_drift * gap + coef.diffusion * path.dw[i - 1])
        j = jump_at.get(i)
        if j is not None:
            if j.region is Region.SMALL:
                y *= 1.0 + coef.small_jump * coef.p(j.mark)
            else:
                y *= 1.0 + coef.tail_jump * coef.q(j.mark)
        manual[float(path.event_times[i])] = y
    eval_times = np.concatenate((path.grid(2), [j.time for j in path.jumps]))
    eval_times = np.sort(eval_times)
    got = exact_solution(path, eval_times, coef, y0=1.0)
    want = np.array([manual[float(t)] for t in eval_times])
    assert got == pytest.approx(want, rel=1e-12)


def test_markov_composition():
    # solving to t2 equals solving to t1 and restarting from that value
    path = jumpy_path(8)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    t1, t2 = 0.5, 1.0
    full = exact_solution(path, np.array([t1, t2]), coef, 1.0)
    restarted = exact_solution(path, np.array([t2]), coef, 1.0)
    # ratio Y(t2)/Y(t1) does not depend on the state at t1
    doubled = exact_solution(path, np.array([t1, t2]), coef, 2.0)
    assert doubled == pytest.approx(2.0 * full, rel=1e-12)
    assert restarted[0] == pytest.approx(full[1], rel=1e-12)


def test_exact_solution_rejects_non_event_times(finite_model):
    path = build_path(1.0, 3, finite_model, np.random.default_rng(2))
    coef = coef_with(drift=-0.5)
    with pytest.raises(ValueError, match="event time"):
        exact_solution(path, np.array([0.123]), coef, 1.0)


def test_truncated_compensator_shift():
    # same noise, two different p_integral values: the exact solutions differ
    # by exp(-small_jump * (m1 - m1') * t) pathwise
    path = jumpy_path(9)
    t = path.grid(1)
    a = exact_solution(path, t, coef_with(drift=0.1, small_jump=0.2, m1=0.14), 1.0)
    b = exact_solution(path, t, coef_with(drift=0.1, small_jump=0.2, m1=0.04), 1.0)
    assert a == pytest.approx(b * np.exp(-0.2 * 0.1 * t), rel=1e-12)


# -- scheme consistency ----------------------------------------------------------

def test_milstein_approaches_exact():
    # strong order 1: halving the step about halves the worst-case gap to the
    # closed form; just require monotone improvement and smallness at the end
    path = jumpy_path(10, level=8)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    eval_times = path.grid(2)
    exact = exact_solution(path, eval_times, coef, 1.0)
    errs = []
    for level in (2, 4, 6, 8):
        traj = run_scheme(Scheme.MILSTEIN, path.grid(level), path, coef, 1.0)
        stride = 2 ** (level - 2)
        errs.append(np.max(np.abs(traj.values[::stride] - exact)))
    assert errs[0] > errs[-1]
    assert errs[-1] < 0.05 * max(1.0, np.max(np.abs(exact)))


# -- fine-grid fallback ----------------------------------------------------------

def test_fine_reference_matches_direct_run():
    path = jumpy_path(11, level=7)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    got = fine_reference(path, coef, 1.0, level=7, at_level=2)
    traj = run_scheme(Scheme.MILSTEIN, path.grid(7), path, coef, 1.0)
    assert np.array_equal(got, traj.values[:: 2**5])


def test_fine_reference_error_shrinks_with_level():
    path = jumpy_path(12, level=9)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    eval_times = path.grid(1)
    exact = exact_solution(path, eval_times, coef, 1.0)
    errs = [np.max(np.abs(fine_reference(path, coef, 1.0, level=lv, at_level=1) - exact))
            for lv in (5, 7, 9)]
    assert errs[0] > errs[-1]


def test_fine_reference_margin_validation():
    path = jumpy_path(13, level=6)
    coef = coef_with(drift=-0.5)
    # one integer rule: at_level + 4 <= level <= finest_level, at_level >= 0
    for level, at_level in ((6, 4), (6, 3), (7, 2), (3, -1)):
        with pytest.raises(ValueError, match="4 dyadic levels finer, within the path"):
            fine_reference(path, coef, 1.0, level=level, at_level=at_level)
    assert fine_reference(path, coef, 1.0, level=6, at_level=2).size == 2**2 + 1
    assert fine_reference(path, coef, 1.0, level=4, at_level=0).size == 2


# -- dispatch ---------------------------------------------------------------------

def test_reference_solution_dispatch():
    # the studies' one oracle route: the exact solution at every event time,
    # or the fine-grid reference at the evaluated grid points (NaN elsewhere)
    path = jumpy_path(14, level=6)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    study = {"model": {"small": {"kind": "atoms", "atoms": [[0.5, 1.0]]}},
             "b": 0.0, "sigma": 0.0, "F": 0.0, "G": 0.0, "ladder_levels": [1, 2],
             "finest_level": 6, "paths": 2, "seed": 0}
    exact = harness._reference(config_from_dict(study), path, coef, 2)
    assert np.array_equal(exact, exact_solution(path, path.event_times, coef, 1.0))
    cfg = config_from_dict(study | {"oracle": {"kind": "fine_grid", "level": 6}})
    fine = harness._reference(cfg, path, coef, 2)
    at = path.grid_events(2)
    assert np.array_equal(at, path.event_index(path.grid(2)))
    assert np.array_equal(fine[at], fine_reference(path, coef, 1.0, level=6, at_level=2))
    assert np.isnan(np.delete(fine, at)).all()


def test_oracle_config_validation():
    with pytest.raises(ValueError, match="level"):
        OracleConfig(kind=OracleKind.FINE_GRID)
    assert OracleConfig().kind is OracleKind.EXACT_LINEAR
