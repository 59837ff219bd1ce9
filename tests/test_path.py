"""Driving paths: joint (dW, dZ) sampling, event simulation, and the exact
multi-resolution slicing that couples every step size to one noise draw."""

import math
import numpy as np
import pytest

from levystep import (
    AmplitudeSpec,
    AtomSpec,
    LevyModel,
    PowerLawSpec,
    Region,
    build_path,
    dyadic_grid,
    sample_dw_dz,
    simulate_events,
)

IDENT = AmplitudeSpec(1.0, 1.0)


def dense_model(small_rate=4.0, tail_rate=2.0):
    # same atom positions as the shared fixture, masses scaled up so level-1
    # and level-2 slices typically hold several jumps of both regions
    half = 0.5 * small_rate
    return LevyModel(
        small=AtomSpec(((0.5, half), (-0.4, half))),
        tail=AtomSpec(((1.5, 0.5 * tail_rate), (-2.0, 0.5 * tail_rate))),
        p=IDENT, q=IDENT,
    )


# -- joint (dW, dZ) sampling -------------------------------------------------

def test_sample_dw_dz_rejects_nonpositive_delta(rng):
    for bad in (0.0, -0.25, math.nan):
        with pytest.raises(ValueError):
            sample_dw_dz(np.array([0.1, bad]), rng)


def test_sample_dw_dz_moments():
    # mean 0, Var dW = d, Var dZ = d^3/3, Cov = d^2/2; all within 4 s.e.
    d, n = 0.1, 30_000
    rng = np.random.default_rng(2024)
    dw, dz = sample_dw_dz(np.full(n, d), rng)
    assert abs(dw.mean()) < 4 * math.sqrt(d / n)
    assert abs(dz.mean()) < 4 * math.sqrt(d**3 / 3 / n)
    cov = np.cov(dw, dz)
    se_vw = d * math.sqrt(2 / n)
    se_vz = (d**3 / 3) * math.sqrt(2 / n)
    se_c = math.sqrt((d * d**3 / 3 + (d**2 / 2) ** 2) / n)
    assert abs(cov[0, 0] - d) < 4 * se_vw
    assert abs(cov[1, 1] - d**3 / 3) < 4 * se_vz
    assert abs(cov[0, 1] - d**2 / 2) < 4 * se_c


def test_vectorized_sampler_shapes(rng):
    deltas = np.array([0.1, 0.2, 0.05])
    dw, dz = sample_dw_dz(deltas, rng)
    assert dw.shape == dz.shape == (3,)


# -- event simulation --------------------------------------------------------

def test_simulate_events_rejects_infinite_rate():
    model = LevyModel(small=PowerLawSpec(1.0, 0.5),
                      tail=AtomSpec(((1.5, 0.5),)), p=IDENT, q=IDENT)
    with pytest.raises(ValueError, match="infinite"):
        simulate_events(1.0, model, np.random.default_rng(0))


def test_simulate_events_rejects_bad_horizon(finite_model, rng):
    with pytest.raises(ValueError):
        simulate_events(0.0, finite_model, rng)


def test_simulate_events_zero_rate():
    empty = LevyModel(small=AtomSpec(()), tail=AtomSpec(()), p=IDENT, q=IDENT)
    times, marks, small = simulate_events(1.0, empty, np.random.default_rng(0))
    assert times.shape == marks.shape == small.shape == (0,)
    assert (times.dtype, marks.dtype, small.dtype) == (np.float64, np.float64, np.bool_)


def test_simulate_events_structure(finite_model):
    rng = np.random.default_rng(99)
    for _ in range(50):
        times, marks, small = simulate_events(2.0, finite_model, rng)
        assert times.shape == marks.shape == small.shape
        assert small.dtype == np.bool_
        assert np.all((0.0 < times) & (times < 2.0))
        assert np.all(np.diff(times) > 0)
        assert np.isin(marks[small], (0.5, -0.4)).all()
        assert np.isin(marks[~small], (1.5, -2.0)).all()


def test_simulate_events_count_law_and_region_split(finite_model):
    # N(T) ~ Poisson(rate * T) with rate 1.5; regions split 2:1 small:tail
    horizon, n_runs = 2.0, 3000
    rng = np.random.default_rng(77)
    counts = []
    n_small = n_total = 0
    for _ in range(n_runs):
        _, _, small = simulate_events(horizon, finite_model, rng)
        counts.append(small.size)
        n_total += small.size
        n_small += int(small.sum())
    lam = finite_model.active_rate * horizon
    mean = np.mean(counts)
    assert abs(mean - lam) < 4 * math.sqrt(lam / n_runs)
    assert 0.88 < np.var(counts) / mean < 1.12
    frac = n_small / n_total
    se = math.sqrt(frac * (1 - frac) / n_total)
    assert abs(frac - 2.0 / 3.0) < 4 * se


def test_simulate_events_deterministic(finite_model):
    a = simulate_events(1.0, finite_model, np.random.default_rng(np.random.SeedSequence((7, 3))))
    b = simulate_events(1.0, finite_model, np.random.default_rng(np.random.SeedSequence((7, 3))))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


# -- dyadic grids ------------------------------------------------------------

def test_dyadic_grid_basics():
    g = dyadic_grid(1.0, 2)
    assert np.array_equal(g, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        dyadic_grid(1.0, -1)


@pytest.mark.parametrize("horizon", [1.0, 0.7, 3.2])
def test_dyadic_grid_cross_level_consistent(horizon):
    # coarse grids are bitwise subsets of finer ones, even for horizons that
    # are not exactly representable
    for level in range(6):
        assert np.array_equal(dyadic_grid(horizon, level + 1)[::2],
                              dyadic_grid(horizon, level))


# -- path construction -------------------------------------------------------

def test_build_path_event_grid_is_union(finite_model):
    path = build_path(1.0, 5, finite_model, np.random.default_rng(11))
    jump_times = np.array([j.time for j in path.jumps])
    expected = np.sort(np.concatenate((dyadic_grid(1.0, 5), jump_times)))
    assert np.array_equal(path.event_times, expected)
    assert np.all(np.diff(path.event_times) > 0)
    assert np.array_equal(path.w_values,
                          np.concatenate(([0.0], np.cumsum(path.dw))))
    assert np.array_equal(path.event_times[path.cell_edges], dyadic_grid(1.0, 5))


def test_build_path_jump_records(finite_model):
    path = build_path(1.0, 5, finite_model, np.random.default_rng(11))
    assert len(path.jumps) > 0
    for j in path.jumps:
        assert path.event_times[j.event_index] == j.time
        if j.region is Region.SMALL:
            assert 0 < abs(j.mark) < 1
        else:
            assert abs(j.mark) >= 1


def test_build_path_level_array_shapes(finite_model):
    path = build_path(1.0, 4, finite_model, np.random.default_rng(3))
    for lvl in range(5):
        assert path.level_dw[lvl].size == 2**lvl
        assert path.level_dz[lvl].size == 2**lvl


def test_build_path_reproducible(finite_model):
    a = build_path(1.0, 6, finite_model, np.random.default_rng(np.random.SeedSequence((5, 0))))
    b = build_path(1.0, 6, finite_model, np.random.default_rng(np.random.SeedSequence((5, 0))))
    assert np.array_equal(a.event_times, b.event_times)
    assert np.array_equal(a.dw, b.dw)
    assert np.array_equal(a.z_locals, b.z_locals)
    assert a.jumps == b.jumps


def test_driving_path_compares_by_identity(finite_model):
    # a path holds arrays, so == is identity (as for Slices) and never raises
    a = build_path(1.0, 4, finite_model, np.random.default_rng(8))
    b = build_path(1.0, 4, finite_model, np.random.default_rng(8))
    assert a == a and a in [a] and len({a, a}) == 1
    assert a != b and b not in [a] and len({a, b}) == 2
    assert np.array_equal(a.event_times, b.event_times)


def test_build_path_takes_jump_arrays_from_the_sampler(finite_model):
    # the sampler's arrays become the path's jumps unchanged
    seed = np.random.SeedSequence((3, 1))
    times, marks, small = simulate_events(1.0, finite_model, np.random.default_rng(seed))
    path = build_path(1.0, 6, finite_model, np.random.default_rng(seed))
    assert times.size > 1
    assert np.array_equal(path.jump_times, times)
    assert np.array_equal(path.jump_marks, marks)
    assert np.array_equal(path.jump_small, small)
    assert [j.region is Region.SMALL for j in path.jumps] == small.tolist()


def test_build_path_rejects_negative_level(finite_model, rng):
    with pytest.raises(ValueError):
        build_path(1.0, -1, finite_model, rng)


class ScriptedRng:
    """Just enough of the Generator surface to force chosen arrival times
    (each jump takes two uniforms: its region, then its atom)."""

    def __init__(self, exponentials, uniforms):
        self._exp = list(exponentials)
        self._uni = list(uniforms)

    def exponential(self, scale):
        return self._exp.pop(0)

    def random(self):
        return self._uni.pop(0)

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_build_path_nudges_dyadic_collision(finite_model, caplog):
    # one small jump exactly at 0.5 = 4/8: collides with the level-3 grid and
    # must move by one ulp rather than corrupt the event grid
    scripted = ScriptedRng(exponentials=[0.5, 10.0], uniforms=[0.0, 0.0])
    with caplog.at_level("WARNING", logger="levystep.path"):
        path = build_path(1.0, 3, finite_model, scripted)
    assert len(path.jumps) == 1
    assert path.jumps[0].time == float(np.nextafter(0.5, np.inf))
    assert path.event_times.size == 2**3 + 1 + 1
    assert any("nudged" in rec.message for rec in caplog.records)
    # the level-to-event map still lands on the dyadic points, bit for bit
    for level in range(4):
        grid = path.grid(level)
        assert grid.tobytes() == dyadic_grid(1.0, level).tobytes()
        assert path.event_times[path.grid_events(level)].tobytes() == grid.tobytes()


def test_build_path_nudges_duplicate_jump_times(finite_model):
    # two arrivals at the same instant (zero holding time): the second is
    # shifted one ulp up, both survive
    scripted = ScriptedRng(exponentials=[0.3, 0.0, 10.0], uniforms=[0.0] * 4)
    path = build_path(1.0, 3, finite_model, scripted)
    times = [j.time for j in path.jumps]
    assert len(times) == 2
    assert times[0] == 0.3
    assert times[1] == float(np.nextafter(0.3, np.inf))
    assert np.all(np.diff(path.event_times) > 0)


# -- two-level aggregation identities ----------------------------------------

def test_two_level_coupling_is_exact():
    path = build_path(1.0, 8, dense_model(), np.random.default_rng(21))
    for level in range(8):
        par = path.slices(level)
        children = path.slices(level + 1)
        width = 1.0 / 2 ** (level + 1)
        cl_dw, cr_dw = children.dw[0::2], children.dw[1::2]
        assert np.array_equal(par.dw, cl_dw + cr_dw)  # 0 ulp
        assert np.array_equal(par.dz, children.dz[0::2] + children.dz[1::2] + cl_dw * width)
        assert np.array_equal(par.w_left, children.w_left[0::2])


def test_slices_match_direct_gap_aggregation():
    path = build_path(1.0, 6, dense_model(), np.random.default_rng(22))
    edges = path.grid_events(3)
    tree = path.slices(3)
    direct = path.slice_between(edges[:-1], edges[1:])
    np.testing.assert_allclose(tree.dw, direct.dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tree.dz, direct.dz, rtol=0, atol=1e-12)
    for name in ("left", "right", "delta", "w_left", "w_right",
                 "time", "mark", "small", "w", "slice_id"):
        assert np.array_equal(getattr(tree, name), getattr(direct, name)), name


def test_finest_cell_without_jumps_is_a_single_gap(finite_model):
    path = build_path(1.0, 5, finite_model, np.random.default_rng(4))
    counts = np.diff(path.cell_edges)
    cells = path.slices(5)
    held = np.bincount(cells.slice_id, minlength=32)
    bare = [i for i in range(32) if counts[i] == 1]
    assert bare  # rate 1.5 on 32 cells leaves plenty of jump-free cells
    for i in bare:
        gap = path.cell_edges[i]
        assert cells.dw[i] == path.dw[gap]
        assert cells.dz[i] == path.z_locals[gap]
        assert held[i] == 0


def test_whole_horizon_slice(finite_model):
    # the tree aggregate sums in a different order than cumsum, so compare
    # with a tolerance, not bitwise
    path = build_path(1.0, 4, finite_model, np.random.default_rng(6))
    top = path.slices(0)
    assert top.left.size == 1
    assert top.dw[0] == pytest.approx(float(path.w_values[-1]), abs=1e-12)
    assert top.time.size == len(path.jumps)
    assert np.array_equal(top.slice_id, np.zeros(len(path.jumps)))


# -- partial slices and jump bookkeeping -------------------------------------

def test_slice_between_partial_to_jump_time():
    path = build_path(1.0, 5, dense_model(), np.random.default_rng(40))
    grid = path.grid(2)
    j = next(j for j in path.jumps if grid[0] < j.time < grid[1])
    ia, ib = 0, j.event_index
    slc = path.slice_between(ia, ib)
    assert slc.delta[0] == j.time
    assert slc.dw[0] == pytest.approx(
        float(path.w_values[ib] - path.w_values[ia]), abs=1e-12)
    assert slc.dw[0] == np.sum(path.dw[ia:ib])  # the pairwise sum, bit for bit
    # right endpoint included, left excluded
    assert slc.time[-1] == j.time
    assert np.all((0.0 < slc.time) & (slc.time <= j.time))
    assert np.array_equal(slc.w, path.w_values[path.event_index(slc.time)])
    rest = path.slice_between(ib, path.grid_events(2)[1])
    assert np.all((j.time < rest.time) & (rest.time <= grid[1]))


def test_slice_between_batch_matches_single_slices():
    # overlapping partial slices, one per jump: each batch entry equals the
    # same slice taken alone, and holds exactly the jumps in (left, right]
    path = build_path(1.0, 5, dense_model(8.0, 4.0), np.random.default_rng(42))
    lefts = path.grid_events(1)[path.jump_cells >> 4]
    batch = path.slice_between(lefts, path.jump_events)
    assert batch.left.size == path.jump_times.size
    for k, (ia, ib) in enumerate(zip(lefts, path.jump_events)):
        a, b = path.event_times[ia], path.event_times[ib]
        one = path.slice_between(ia, ib)
        for name in ("left", "right", "delta", "dw", "dz", "w_left", "w_right"):
            assert getattr(batch, name)[k] == getattr(one, name)[0], name
        mine = batch.slice_id == k
        assert np.array_equal(batch.time[mine], one.time)
        assert np.array_equal(batch.time[mine],
                              path.jump_times[(a < path.jump_times) & (path.jump_times <= b)])
        assert np.array_equal(batch.mark[mine], one.mark)
        assert np.array_equal(batch.small[mine], one.small)
    assert np.all(np.diff(batch.slice_id) >= 0)


def test_slice_between_additivity():
    path = build_path(1.0, 5, dense_model(), np.random.default_rng(41))
    a, m, b = path.grid_events(1)   # the events at 0.0, 0.5 and 1.0
    left = path.slice_between(a, m)
    right = path.slice_between(m, b)
    full = path.slice_between(a, b)
    assert full.dw[0] == pytest.approx(left.dw[0] + right.dw[0], abs=1e-12)
    want_dz = left.dz[0] + right.dz[0] + left.dw[0] * (1.0 - 0.5)
    assert full.dz[0] == pytest.approx(want_dz, abs=1e-12)
    assert full.time.size == left.time.size + right.time.size


def test_slice_between_validation(finite_model):
    path = build_path(1.0, 4, finite_model, np.random.default_rng(2))
    n = path.event_times.size
    for ia, ib in (
        (3, 3), ([0, 5], [2, 5]),           # ib <= ia
        ([0, 5], [2]), ([[0]], [[2]]),      # shape mismatch, not one-dimensional
        (0.0, 0.5), ([0.0, 1.0], [2, 3]),   # float arrays (even integral ones)
        (-1, 2), ([0, -3], [2, 1]),         # a negative index
        (0, n), ([0, 1], [2, n + 4]),       # an index >= n_events
    ):
        with pytest.raises(ValueError, match="integer event-index arrays"):
            path.slice_between(ia, ib)
    assert path.slice_between(0, n - 1).right[0] == 1.0


# -- jump filtering and lookups ----------------------------------------------

def test_with_jumps_keeps_noise(finite_model):
    path = build_path(1.0, 5, dense_model(), np.random.default_rng(60))
    tail_only = path.with_jumps(~path.jump_small)
    assert np.array_equal(tail_only.event_times, path.event_times)
    assert np.array_equal(tail_only.w_values, path.w_values)
    assert all(j.region is Region.TAIL for j in tail_only.jumps)
    assert tail_only.jumps == tuple(j for j in path.jumps if j.region is Region.TAIL)
    a, b = tail_only.slices(2), path.slices(2)
    assert np.array_equal(a.dw, b.dw) and np.array_equal(a.dz, b.dz)
    assert np.all(np.bincount(a.slice_id, minlength=4) <= np.bincount(b.slice_id, minlength=4))


def test_with_jumps_rejects_bad_mask(finite_model):
    path = build_path(1.0, 4, dense_model(), np.random.default_rng(61))
    n = path.jump_times.size
    assert n > 0
    for bad in (np.ones(n + 1, dtype=bool), np.ones(n, dtype=int), [True] * (n - 1)):
        with pytest.raises(ValueError, match="boolean mask"):
            path.with_jumps(bad)


def test_event_index_and_grid_lookups(finite_model):
    path = build_path(1.0, 4, finite_model, np.random.default_rng(62))
    assert path.event_index(0.0) == 0
    assert path.event_index(1.0) == path.event_times.size - 1
    assert np.array_equal(path.event_index(path.event_times[::-1]),
                          np.arange(path.event_times.size)[::-1])
    with pytest.raises(ValueError):
        path.event_index(0.1234567)
    with pytest.raises(ValueError):
        path.event_index(np.array([0.0, 0.1234567]))
    with pytest.raises(ValueError):
        path.event_index(1.5)
    assert np.array_equal(path.grid(2), dyadic_grid(1.0, 2))
    with pytest.raises(ValueError):
        path.grid(5)
    with pytest.raises(ValueError):
        path.grid(-1)

