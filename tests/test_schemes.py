"""Steppers: the Euler update, the thirteen order-1 terms against the
event-walk oracle, and trajectory assembly over shared driving paths."""

import math

import numpy as np
import pytest

from helpers import (RawSlice, assert_term_match, event_indices, random_raw_slice,
                     slice_terms, walk_terms)
from levystep import (
    AmplitudeSpec,
    AtomSpec,
    LevyModel,
    LinearCoefficients,
    PowerLawSpec,
    Scheme,
    build_path,
    hierarchical_set,
    milstein_terms,
    moment,
    run_scheme,
    truncate,
)
from levystep import schemes
from levystep.common import Region
from levystep.path import dyadic_grid, join
from levystep.schemes import step_factor

TERM_KEYS = frozenset(
    ["0", "1", "2", "3", "11", "12", "13", "21", "31", "22", "23", "32", "33"])


def mixed_coef():
    # p != q and both nonlinear enough to catch orientation swaps in the
    # cross terms; the moments are free parameters for synthetic slices
    return LinearCoefficients(
        drift=-0.4, diffusion=0.6, small_jump=0.5, tail_jump=0.3,
        p=lambda x: 1.3 * x + 0.2 * x * x, q=lambda x: 0.7 * x,
        p_integral=0.25)


def bare_slice(delta=0.5, delta_w=0.2, w_left=0.0):
    raw = RawSlice(left=0.0, delta=delta, jump_data=[],
                   dws=[delta_w], zlocs=[0.03], w_left=w_left)
    return raw.to_slice()


# -- coefficients --------------------------------------------------------------

def test_for_model_moments(finite_model, finite_coef):
    assert finite_coef.p_integral == pytest.approx(0.14, rel=1e-12)
    assert moment(finite_model, 2) == pytest.approx(0.214, rel=1e-12)


def test_coefficients_reject_infinite_moments():
    with pytest.raises(ValueError, match="finite"):
        LinearCoefficients(drift=0.0, diffusion=0.0, small_jump=1.0,
                           tail_jump=0.0, p=lambda x: x, q=lambda x: x,
                           p_integral=math.inf)


def test_term_keys_are_the_order_one_multiindices():
    # the words of the strong order-1 hierarchical set, less the empty word
    assert set(schemes.TERM_KEYS) == set(hierarchical_set(1)) - {""}
    # Euler's terms come first: the words of the order-1/2 set
    assert schemes.TERM_KEYS[:4] == tuple(w for w in hierarchical_set(0.5) if w)


def test_scheme_enum():
    assert Scheme("euler") is Scheme.EULER
    assert Scheme.EULER.strong_order == 0.5
    assert Scheme.MILSTEIN.strong_order == 1.0


# -- Euler ---------------------------------------------------------------------

def test_euler_factor_frozen_example(finite_coef):
    # delta .5, dW .2, one small mark .5 and one tail mark -2:
    # 1 - .25 + .06 + .2(.5 - .5*.14) + .1(-2) = 0.696
    raw = RawSlice(left=0.0, delta=0.5,
                   jump_data=[(0.3, 0.5, Region.SMALL), (0.7, -2.0, Region.TAIL)],
                   dws=[0.1, 0.05, 0.05], zlocs=[0.0, 0.0, 0.0], w_left=0.0)
    (factor,) = step_factor(Scheme.EULER, raw.to_slice(), finite_coef)
    assert factor == pytest.approx(0.696, rel=1e-12)


def test_euler_no_jump_formula(finite_coef):
    slc = bare_slice(delta=0.25, delta_w=-0.3)
    want = (1.0 + finite_coef.drift * 0.25 + finite_coef.diffusion * (-0.3)
            - finite_coef.small_jump * 0.25 * finite_coef.p_integral)
    assert step_factor(Scheme.EULER, slc, finite_coef)[0] == pytest.approx(want, rel=1e-15)


# -- Milstein term structure ---------------------------------------------------

def test_milstein_term_keys(finite_coef, rng):
    terms = milstein_terms(1.0, random_raw_slice(rng).to_slice(), finite_coef)
    assert set(terms) == TERM_KEYS
    assert all(v.shape == (1,) for v in terms.values())


def test_milstein_frozen_example(finite_coef):
    # one small jump (mark .5) at t = .2 of a [0, .5] slice, gaps carrying
    # dW = .1 / -.2 and local integrals .01 / .02, so W(t1) = .1, dZ = .06;
    # every nonzero value below was worked out by hand from the definitions
    raw = RawSlice(left=0.0, delta=0.5, jump_data=[(0.4, 0.5, Region.SMALL)],
                   dws=[0.1, -0.2], zlocs=[0.01, 0.02], w_left=0.0)
    slc = raw.to_slice()
    assert slc.dz[0] == pytest.approx(0.06, rel=1e-12)
    want = {
        "0": -0.25, "1": -0.03, "2": 0.086, "3": 0.0,
        "11": -0.02205, "12": 0.002496, "13": 0.0,
        "21": -0.005076, "31": 0.0,
        "22": -0.001302, "23": 0.0, "32": 0.0, "33": 0.0,
    }
    got = slice_terms(milstein_terms(1.0, slc, finite_coef))
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-12, abs=1e-15), key


def test_milstein_without_jumps_reduces_to_classical():
    # F = G = 0: only the diffusion terms survive
    coef = LinearCoefficients(drift=-0.5, diffusion=0.3, small_jump=0.0,
                              tail_jump=0.0, p=lambda x: x, q=lambda x: x,
                              p_integral=0.14)
    slc = bare_slice(delta=0.5, delta_w=0.2)
    want = (1.0 - 0.5 * 0.5 + 0.3 * 0.2
            + 0.5 * 0.09 * (0.2 * 0.2 - 0.5))
    assert step_factor(Scheme.MILSTEIN, slc, coef)[0] == pytest.approx(want, rel=1e-14)


def test_empty_sum_terms_are_zero(finite_coef):
    # no jumps: pure jump-measure terms vanish, compensated ones keep only
    # their deterministic compensator parts
    slc = bare_slice(delta=0.4, delta_w=0.15)
    t = slice_terms(milstein_terms(2.0, slc, finite_coef))
    dz = float(slc.dz[0])
    for key in ("3", "13", "31", "23", "32", "33"):
        assert t[key] == 0.0
    m1 = finite_coef.p_integral
    f, s = finite_coef.small_jump, finite_coef.diffusion
    assert t["2"] == pytest.approx(-2.0 * f * 0.4 * m1, rel=1e-14)
    assert t["12"] == pytest.approx(-2.0 * f * s * m1 * dz, rel=1e-14)
    assert t["21"] == pytest.approx(
        -2.0 * f * s * m1 * (0.4 * 0.15 - dz), rel=1e-14)
    assert t["22"] == pytest.approx(2.0 * f * f * 0.5 * m1**2 * 0.4**2, rel=1e-14)


def test_first_order_terms_match_euler(finite_coef, rng):
    for _ in range(25):
        slc = random_raw_slice(rng).to_slice()
        t = slice_terms(milstein_terms(1.0, slc, finite_coef))
        low = 1.0 + t["0"] + t["1"] + t["2"] + t["3"]
        euler = float(step_factor(Scheme.EULER, slc, finite_coef)[0])
        assert low == pytest.approx(euler, rel=1e-13)


def test_milstein_terms_linear_in_y(finite_coef, rng):
    for _ in range(10):
        slc = random_raw_slice(rng).to_slice()
        unit = slice_terms(milstein_terms(1.0, slc, finite_coef))
        scaled = slice_terms(milstein_terms(-2.5, slc, finite_coef))
        for key in TERM_KEYS:
            assert scaled[key] == pytest.approx(-2.5 * unit[key], rel=1e-13, abs=1e-16)


# -- the event-walk oracle -----------------------------------------------------

def test_terms_match_event_walk():
    # 500 random slices with up to 6 jumps of both regions; every term must
    # agree with the gap-walking evaluator to 1e-12
    coef = mixed_coef()
    rng = np.random.default_rng(314159)
    for _ in range(500):
        raw = random_raw_slice(rng)
        y = float(rng.uniform(0.5, 2.0))
        got = slice_terms(milstein_terms(y, raw.to_slice(), coef))
        assert_term_match(got, walk_terms(y, raw, coef))


def test_array_core_matches_event_walk_on_paths():
    # every slice of levels 0..4 and every partial slice (grid point to jump
    # time) of dense real paths, against the walk over the path's own gaps
    coef = mixed_coef()
    y = 1.3
    for seed in (7, 8, 9):
        path = dense_path(seed, level=6, small_rate=8.0, tail_rate=4.0)
        assert path.jump_small.any() and not path.jump_small.all()
        for level in range(5):
            edges = event_indices(path, dyadic_grid(path.horizon, level))
            batches = [(path.slices(level), list(zip(edges[:-1], edges[1:])))]
            lefts = edges[path.jump_cells >> (path.finest_level - level)]
            batches.append((path.slice_between(lefts, path.jump_events),
                            list(zip(lefts, path.jump_events))))
            for slices, bounds in batches:
                terms = milstein_terms(y, slices, coef)
                euler = step_factor(Scheme.EULER, slices, coef)
                for k, (ia, ib) in enumerate(bounds):
                    want = walk_terms(y, RawSlice.from_path(path, int(ia), int(ib)), coef)
                    assert_term_match(slice_terms(terms, k), want)
                    low = 1.0 + sum(want[key] for key in ("0", "1", "2", "3")) / y
                    assert euler[k] == pytest.approx(low, rel=1e-12, abs=1e-12)
        # some level-1 slice holds several small jumps and a tail jump
        half = path.jump_cells >> (path.finest_level - 1)
        assert any(path.jump_small[half == h].sum() >= 2
                   and (~path.jump_small[half == h]).any() for h in (0, 1))


def test_step_factor_dispatch(finite_coef, rng):
    # Euler adds the four order-1/2 terms to 1.0 one by one; Milstein sums
    # all thirteen in key order and adds 1.0 last
    slc = random_raw_slice(rng).to_slice()
    m = milstein_terms(1.0, slc, finite_coef)
    assert np.array_equal(step_factor(Scheme.EULER, slc, finite_coef),
                          1.0 + m["0"] + m["1"] + m["2"] + m["3"])
    total = m["0"]
    for key in schemes.TERM_KEYS[1:]:
        total = total + m[key]
    assert np.array_equal(step_factor(Scheme.MILSTEIN, slc, finite_coef), 1.0 + total)


@pytest.mark.parametrize("kind", ["atoms", "power-law", "jump-heavy"])
def test_euler_factor_is_one_plus_the_four_order_half_terms(kind):
    # the grid slices of levels 0, 2 and 4 and the partial slices from each
    # level-2 grid point to every jump of a chunk of 12 paths, in one batch
    # as a study gathers them: Euler's factor is 1.0 plus the Milstein terms
    # '0' to '3' added in that order, bit for bit
    if kind == "power-law":
        model = truncate(LevyModel(small=PowerLawSpec(1.0, 1.2),
                                   tail=AtomSpec(((1.5, 1.0), (-2.0, 1.0))),
                                   p=AmplitudeSpec(0.8, 1.5), q=AmplitudeSpec(1.2, 0.5)), 0.05)
        paths = [build_path(1.0, 4, model, np.random.default_rng(700 + i)) for i in range(12)]
        coef = LinearCoefficients.for_model(-0.4, 0.6, 0.5, 0.3, model)
    else:
        rate = 60.0 if kind == "jump-heavy" else 4.0
        paths = [dense_path(700 + i, 4, 0.2 + rate * (i % 3), 0.1 + rate / 3 * (i % 3))
                 for i in range(12)]
        coef = mixed_coef()
    chunk = join(paths)
    owner = chunk.jump_cells >> chunk.finest_level
    ia = chunk.grid_events(2).ravel()[(chunk.jump_cells >> (chunk.finest_level - 2)) + owner]
    batch = chunk.ladder((0, 2, 4), ia, chunk.jump_events)
    held = np.bincount(batch.slice_id, minlength=batch.left.size)
    assert held.min() == 0 and held[-ia.size:].min() >= 1
    assert held.max() >= (20 if kind == "jump-heavy" else 2)
    m = milstein_terms(1.0, batch, coef)
    assert (step_factor(Scheme.EULER, batch, coef).tobytes()
            == (1.0 + m["0"] + m["1"] + m["2"] + m["3"]).tobytes())


@pytest.mark.parametrize("level", [0, 3])
def test_stacked_batches_evaluate_as_their_parts(level):
    # the slices of 64 paths (about a third of them jumpless), joined in
    # chunks of 1, 7 or 64: every chunking gives the same factors and terms
    # bit for bit, each path keeps its own jumps, and slice ids stay sorted
    coef = mixed_coef()
    paths = [dense_path(300 + i, 4, 0.2 + 4.0 * (i % 3), 0.1 + 2.0 * (i % 3)) for i in range(64)]
    per_size = []
    for size in (1, 7, 64):
        rows = []
        for start in range(0, 64, size):
            parts = paths[start:start + size]
            batch = join(parts).slices(level)
            assert np.all(np.diff(batch.slice_id) >= 0)
            assert batch.left.size == len(parts) << level
            assert np.array_equal(
                np.bincount(batch.slice_id, minlength=batch.left.size),
                np.concatenate([np.bincount(p.slices(level).slice_id, minlength=1 << level)
                                for p in parts]))
            rows.append(np.vstack((step_factor(Scheme.MILSTEIN, batch, coef),
                                   step_factor(Scheme.EULER, batch, coef),
                                   *milstein_terms(1.0, batch, coef).values())))
        per_size.append(np.concatenate(rows, axis=1).tobytes())
    assert per_size[0] == per_size[1] == per_size[2]


def test_milstein_factor_is_one_plus_the_running_sum_of_the_terms():
    # jump-heavy slices (up to dozens of jumps) joined with jumpless ones:
    # the factor is 1.0 + ((term 0 + term 1) + ...) in key order, bit for bit
    coef = mixed_coef()
    for level in (0, 2, 4):
        batch = join([dense_path(500 + i, 4, 0.2 + 60.0 * (i % 3), 0.1 + 20.0 * (i % 3))
                      for i in range(9)]).slices(level)
        held = np.bincount(batch.slice_id, minlength=batch.left.size)
        assert held.min() == 0 and held.max() >= 3
        terms = milstein_terms(1.0, batch, coef)
        total = terms[schemes.TERM_KEYS[0]]
        for key in schemes.TERM_KEYS[1:]:
            total = total + terms[key]
        assert step_factor(Scheme.MILSTEIN, batch, coef).tobytes() == (1.0 + total).tobytes()


# -- trajectories ---------------------------------------------------------------

def dense_path(seed, level=6, small_rate=4.0, tail_rate=2.0):
    s, t = 0.5 * small_rate, 0.5 * tail_rate
    model = LevyModel(small=AtomSpec(((0.5, s), (-0.4, s))),
                      tail=AtomSpec(((1.5, t), (-2.0, t))),
                      p=AmplitudeSpec(1.0, 1.0), q=AmplitudeSpec(1.0, 1.0))
    return build_path(1.0, level, model, np.random.default_rng(seed))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_run_scheme_matches_manual_stepping(scheme, finite_coef):
    path = dense_path(123)
    traj = run_scheme(scheme, path.grid(3)[0], path, finite_coef, y0=1.0)
    y = 1.0
    values = [1.0]
    for factor in step_factor(scheme, path.slices(3), finite_coef):
        y = y * factor
        values.append(y)
    assert np.array_equal(traj.values, np.array(values))
    assert np.array_equal(traj.times, path.grid(3)[0])


def test_run_scheme_non_uniform_grid(finite_coef):
    # only a ladder level's uniform dyadic grid of the path is accepted
    path = dense_path(125)
    fine = path.grid(6)[0]
    for grid in (fine[[0, 1, 8, 9, 40, 64]],         # non-uniform, 5 cells
                 fine[[0, 1, 8, 40, 64]],            # non-uniform, 4 cells
                 np.array([0.0, 0.3, 1.0]),          # not dyadic
                 np.array([0.0, 0.25, 0.5]),         # does not span [0, T]
                 dyadic_grid(1.0, 7),                # finer than finest_level
                 np.array([0.0]), np.array([])):
        with pytest.raises(ValueError, match="uniform dyadic grid"):
            run_scheme(Scheme.EULER, grid, path, finite_coef, y0=1.0)


def test_run_scheme_refuses_a_chunk_of_several_paths(finite_coef):
    # a chunk of two paths is refused for its path count, whatever the grid;
    # each of its paths alone is run
    paths = [dense_path(126), dense_path(127)]
    chunk = join(paths)
    for grid in (paths[0].grid(3)[0], chunk.grid(3), chunk.grid(3)[0]):
        with pytest.raises(ValueError, match="chunk of 2 paths"):
            run_scheme(Scheme.EULER, grid, chunk, finite_coef, y0=1.0)
    for path in paths:
        traj = run_scheme(Scheme.EULER, path.grid(3)[0], path, finite_coef, y0=1.0)
        assert traj.values.shape == (9,)
