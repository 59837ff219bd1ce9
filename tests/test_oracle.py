"""The closed-form reference solution."""

import math

import numpy as np
import pytest

from levystep import (
    AmplitudeSpec,
    AtomSpec,
    LevyModel,
    LinearCoefficients,
    Scheme,
    build_path,
    config_from_dict,
    exact_solution,
    path_rng,
    run_scheme,
    simulate_trajectory,
)
from levystep.common import Region

from helpers import event_indices

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
    got = exact_solution(path, path.grid_events(2)[0], coef, y0=2.0)
    want = 2.0 * np.exp(-0.7 * path.grid(2)[0])
    assert got == pytest.approx(want, rel=1e-12)


def test_geometric_brownian_motion(finite_model):
    # no jump coefficients: Y = y0 exp((b - s^2/2) t + s W_t) read off the
    # path's own Wiener values
    path = build_path(1.0, 5, finite_model, np.random.default_rng(1))
    coef = coef_with(drift=0.3, diffusion=0.8, m1=0.0)
    times = path.grid(3)[0]
    idx = event_indices(path, times)
    w = path.w_values[idx]
    want = 1.5 * np.exp((0.3 - 0.32) * times + 0.8 * w)
    assert exact_solution(path, idx, coef, y0=1.5) == pytest.approx(want, rel=1e-12)


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
    eval_times = np.concatenate((path.grid(2)[0], [j.time for j in path.jumps]))
    eval_times = np.sort(eval_times)
    got = exact_solution(path, event_indices(path, eval_times), coef, y0=1.0)
    want = np.array([manual[float(t)] for t in eval_times])
    assert got == pytest.approx(want, rel=1e-12)


def test_markov_composition():
    # solving to t2 equals solving to t1 and restarting from that value
    path = jumpy_path(8)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    e1, e2 = event_indices(path, [0.5, 1.0])
    full = exact_solution(path, np.array([e1, e2]), coef, 1.0)
    restarted = exact_solution(path, np.array([e2]), coef, 1.0)
    # ratio Y(t2)/Y(t1) does not depend on the state at t1
    doubled = exact_solution(path, np.array([e1, e2]), coef, 2.0)
    assert doubled == pytest.approx(2.0 * full, rel=1e-12)
    assert restarted[0] == pytest.approx(full[1], rel=1e-12)


def test_exact_solution_rejects_non_event_times(finite_model):
    # events are integer positions in the event grid: float times, a 2-D
    # array and positions outside 0..n_events - 1 are refused
    path = build_path(1.0, 3, finite_model, np.random.default_rng(2))
    coef = coef_with(drift=-0.5)
    n = path.event_times.size
    for bad in (np.array([0.123]), path.event_times, np.arange(n)[None, :],
                np.array([0, -1]), np.array([0, n])):
        with pytest.raises(ValueError, match="event-index array"):
            exact_solution(path, bad, coef, 1.0)
    assert exact_solution(path, np.array([0, n - 1]), coef, 1.0).shape == (2,)


def test_exact_solution_at_every_event_matches_time_lookup():
    # the studies ask for every event by its index; the same values as
    # looking each event time up in the path, bit for bit
    rng = np.random.default_rng(17)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    for seed in range(20):
        path = jumpy_path(seed, level=int(rng.integers(0, 7)))
        n = path.event_times.size
        searched = event_indices(path, path.event_times)
        assert np.array_equal(searched, np.arange(n))
        y0 = float(rng.uniform(0.5, 2.0))
        assert np.array_equal(exact_solution(path, np.arange(n), coef, y0),
                              exact_solution(path, searched, coef, y0))


def test_truncated_compensator_shift():
    # same noise, two different p_integral values: the exact solutions differ
    # by exp(-small_jump * (m1 - m1') * t) pathwise
    path = jumpy_path(9)
    t, at = path.grid(1)[0], path.grid_events(1)[0]
    a = exact_solution(path, at, coef_with(drift=0.1, small_jump=0.2, m1=0.14), 1.0)
    b = exact_solution(path, at, coef_with(drift=0.1, small_jump=0.2, m1=0.04), 1.0)
    assert a == pytest.approx(b * np.exp(-0.2 * 0.1 * t), rel=1e-12)


# -- scheme consistency ----------------------------------------------------------

def test_milstein_approaches_exact():
    # strong order 1: halving the step about halves the worst-case gap to the
    # closed form; just require monotone improvement and smallness at the end
    path = jumpy_path(10, level=8)
    coef = coef_with(drift=-0.5, diffusion=0.3, small_jump=0.2, tail_jump=0.1)
    exact = exact_solution(path, path.grid_events(2)[0], coef, 1.0)
    errs = []
    for level in (2, 4, 6, 8):
        traj = run_scheme(Scheme.MILSTEIN, path.grid(level)[0], path, coef, 1.0)
        stride = 2 ** (level - 2)
        errs.append(np.max(np.abs(traj.values[::stride] - exact)))
    assert errs[0] > errs[-1]
    assert errs[-1] < 0.05 * max(1.0, np.max(np.abs(exact)))


# -- the studies' reference ------------------------------------------------------

def test_simulate_reads_the_exact_solution_at_its_grid():
    # the one reference route of `simulate`: the closed form at the event
    # indices of the trajectory level's grid points, on the path of stream 0
    study = {"model": {"small": {"kind": "atoms", "atoms": [[0.5, 3.0], [-0.4, 2.0]]},
                       "tail": {"kind": "atoms", "atoms": [[1.5, 1.5]]}},
             "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1, "ladder_levels": [1, 2],
             "finest_level": 6, "paths": 2, "seed": 0}
    cfg = config_from_dict(study)
    _, oracle_vals = simulate_trajectory(cfg)
    path = build_path(1.0, 6, cfg.model, path_rng(0, 0))
    assert path.jump_times.size > 0
    at = path.grid_events(2)[0]
    assert np.array_equal(at, event_indices(path, path.grid(2)[0]))
    want = exact_solution(path, at, cfg.coefficients_for(cfg.model), 1.0)
    assert np.array_equal(oracle_vals, want)
