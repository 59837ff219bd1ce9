"""Driving paths: joint (dW, dZ) sampling, event simulation, and the exact
multi-resolution slicing that couples every step size to one noise draw."""

import math
import numpy as np
import pytest
from scipy import stats

from levystep import (
    AmplitudeSpec,
    AtomSpec,
    LevyModel,
    PowerLawSpec,
    build_path,
    truncate,
)
from levystep.common import Region
from levystep import path as path_mod
from levystep.path import dyadic_grid, join, simulate_events

from helpers import built_draws, event_indices, reduceat_levels

IDENT = AmplitudeSpec(1.0, 1.0)
EAGER = ("left", "right", "delta", "dw", "time", "mark", "small", "slice_id")
LATE = ("dz", "w_left", "w_right", "w")


def concatenated(batches, names):
    """Each named field of the batches end to end, slice ids offset by the
    slices of the batches before."""
    starts = np.cumsum([0] + [b.left.size for b in batches])
    return {name: np.concatenate([getattr(b, name) + start if name == "slice_id"
                                  else getattr(b, name) for b, start in zip(batches, starts)])
            for name in names}


def dense_model(small_rate=4.0, tail_rate=2.0):
    # same atom positions as the shared fixture, masses scaled up so level-1
    # and level-2 slices typically hold several jumps of both regions
    half = 0.5 * small_rate
    return LevyModel(
        small=AtomSpec(((0.5, half), (-0.4, half))),
        tail=AtomSpec(((1.5, 0.5 * tail_rate), (-2.0, 0.5 * tail_rate))),
        p=IDENT, q=IDENT,
    )


# -- joint (dW, dZ) draws ------------------------------------------------------

def test_built_path_draw_moments():
    # the pairs build_path draws on 30 720 gaps of length d = 0.1 (30 paths):
    # mean 0, Var dW = d, Var dZ = d^3/3, Cov = d^2/2; all within 4 s.e.
    d = 0.1
    dw, dz = built_draws(30, 2024)
    n = dw.size
    assert n == 30 * 2**10
    assert abs(dw.mean()) < 4 * math.sqrt(d / n)
    assert abs(dz.mean()) < 4 * math.sqrt(d**3 / 3 / n)
    cov = np.cov(dw, dz)
    se_vw = d * math.sqrt(2 / n)
    se_vz = (d**3 / 3) * math.sqrt(2 / n)
    se_c = math.sqrt((d * d**3 / 3 + (d**2 / 2) ** 2) / n)
    assert abs(cov[0, 0] - d) < 4 * se_vw
    assert abs(cov[1, 1] - d**3 / 3) < 4 * se_vz
    assert abs(cov[0, 1] - d**2 / 2) < 4 * se_c


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


POWER_LAW_WITH_TAIL = truncate(
    LevyModel(small=PowerLawSpec(1.0, 1.2), tail=AtomSpec(((1.5, 0.3), (-2.0, 0.2)))), 0.25)


def replayed_path_draws(model, horizon, finest_level, rng):
    """The jumps and normals of `build_path(horizon, finest_level, model,
    rng)` drawn by hand in the documented order: the Poisson count, the time
    uniforms and the region uniforms as two `random(n)` calls, each jump's
    mark uniforms in time order (an atom's through Generator.choice over the
    tail atoms or the small atoms outside the removed ball, a power law's
    magnitude then sign by the inverse cdf), then the normals."""
    n = rng.poisson(model.active_rate * horizon)
    times = np.sort(rng.random(n)) * horizon
    small = rng.random(n) < model.small_mass / model.active_rate
    marks = []
    for s in small.tolist():
        if s and isinstance(model.small, PowerLawSpec):
            a, lo = model.small.a, model.eps ** -model.small.a
            mag = (lo - rng.random() * (lo - 1.0)) ** (-1.0 / a)
            marks.append(mag if rng.random() < 0.5 else -mag)
        else:
            atoms = ([(x, m) for x, m in model.small.atoms if abs(x) > model.eps] if s
                     else model.tail.atoms)
            masses = np.array([m for _, m in atoms])
            marks.append(atoms[rng.choice(masses.size, p=masses / masses.sum())][0])
    normals = rng.standard_normal((2, 2**finest_level + n))
    return times, np.array(marks), small, normals


@pytest.mark.parametrize("model", [dense_model(), truncate(dense_model(), 0.45),
                                   POWER_LAW_WITH_TAIL],
                         ids=["atoms", "truncated-atoms", "power-law"])
def test_build_path_draws_count_times_regions_marks_then_normals(model):
    # a path's stream is the count, the times, the regions, the marks in
    # time order and then the normals, and nothing more, as bytes
    regions = []
    for i in range(30):
        rng = np.random.default_rng(np.random.SeedSequence((31, i)))
        ref = np.random.default_rng(np.random.SeedSequence((31, i)))
        path = build_path(1.0, 4, model, rng)
        times, marks, small, normals = replayed_path_draws(model, 1.0, 4, ref)
        assert path.jump_times.tobytes() == times.tobytes()
        assert path.jump_marks.tobytes() == marks.tobytes()
        assert path.jump_small.tobytes() == small.tobytes()
        assert path.normals[:, :-1].tobytes() == normals.tobytes()
        assert np.all(path.normals[:, -1] == 0.0)
        assert rng.random() == ref.random()
        regions.extend(small.tolist())
    assert regions.count(True) > 20 and regions.count(False) > 5


def test_a_path_without_jumps_draws_no_mark_uniforms(finite_model):
    # n = 0: the stream is the count and then the normals, nothing between
    empty = 0
    for i in range(40):
        rng = np.random.default_rng(np.random.SeedSequence((37, i)))
        ref = np.random.default_rng(np.random.SeedSequence((37, i)))
        path = build_path(1.0, 2, finite_model, rng)
        if ref.poisson(finite_model.active_rate) == 0:
            empty += 1
            assert path.jump_times.size == 0
            assert path.normals[:, :-1].tobytes() == ref.standard_normal((2, 4)).tobytes()
            assert rng.random() == ref.random()
    assert empty > 3


def test_arrival_times_are_uniform_on_the_horizon(finite_model):
    # given the count, arrivals are uniform on (0, T): the pooled times of
    # 2000 paths pass a KS test, as do those of each region alone
    horizon, rng = 2.0, np.random.default_rng(4141)
    times, small = [], []
    for _ in range(2000):
        t, _, s = simulate_events(horizon, finite_model, rng)
        times.append(t)
        small.append(s)
    times, small = np.concatenate(times), np.concatenate(small)
    assert times.size > 5000
    for pooled in (times, times[small], times[~small]):
        assert stats.kstest(pooled, "uniform", args=(0.0, horizon)).pvalue > 1e-3


def test_simulate_events_refuses_the_count_before_drawing_the_times():
    # a count above the cap raises before `random` is asked for anything of
    # its size (2 * 2**40 uniforms would be 16 TiB), and nothing else is drawn
    calls = []

    class Spy:
        def poisson(self, lam):
            calls.append("poisson")
            return 2**40

        def __getattr__(self, name):
            calls.append(name)
            raise AssertionError(f"{name} called after the count")

    with pytest.raises(RuntimeError, match=f"more than {path_mod._MAX_JUMPS} jumps"):
        simulate_events(1.0, dense_model(), Spy())
    assert calls == ["poisson"]


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


def test_build_path_merges_a_copy_of_one_read_only_grid(finite_model):
    # dyadic_grid keeps one read-only grid a (horizon, level), the closed
    # form bit for bit; each path's event grid is its own copy
    paths = [build_path(0.7, 4, finite_model, np.random.default_rng(s)) for s in (1, 2)]
    grid = dyadic_grid(0.7, 4)
    assert dyadic_grid(0.7, 4) is grid
    assert grid.tobytes() == ((np.arange(17.0) * 0.7) / 16.0).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        grid[1] = 0.5
    assert not any(np.shares_memory(p.event_times, grid) for p in paths)
    assert all(p.event_times.flags.writeable for p in paths)


# -- path construction -------------------------------------------------------

def test_build_path_event_grid_is_union(finite_model):
    path = build_path(1.0, 5, finite_model, np.random.default_rng(11))
    jump_times = np.array([j.time for j in path.jumps])
    expected = np.sort(np.concatenate((dyadic_grid(1.0, 5), jump_times)))
    assert np.array_equal(path.event_times, expected)
    assert np.all(np.diff(path.event_times) > 0)
    assert np.array_equal(path.w_values,
                          np.concatenate(([0.0], np.cumsum(path.dw[:-1]))))
    assert np.array_equal(path.event_times[path.cell_edges[0]], dyadic_grid(1.0, 5))


def test_build_path_jump_records(finite_model):
    # 20 paths at rate 1.5 all draw no jump with probability e**-30
    paths = [build_path(1.0, 5, finite_model, np.random.default_rng(seed))
             for seed in range(11, 31)]
    assert sum(len(path.jumps) for path in paths) > 0
    for path in paths:
        for j in path.jumps:
            assert path.event_times[j.event_index] == j.time
            if j.region is Region.SMALL:
                assert 0 < abs(j.mark) < 1
            else:
                assert abs(j.mark) >= 1


def test_build_path_level_array_shapes(finite_model):
    path = build_path(1.0, 4, finite_model, np.random.default_rng(3))
    for lvl in range(5):
        assert path.slices(lvl).dw.size == 2**lvl
        assert path.slices(lvl).dz.size == 2**lvl


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
    # the sampler's arrays become the path's jumps unchanged; 20 paths at
    # rate 1.5 all draw at most one jump with probability 2.5**20 e**-30
    sizes = []
    for i in range(20):
        seed = np.random.SeedSequence((3, i))
        times, marks, small = simulate_events(1.0, finite_model, np.random.default_rng(seed))
        path = build_path(1.0, 6, finite_model, np.random.default_rng(seed))
        sizes.append(times.size)
        assert np.array_equal(path.jump_times, times)
        assert np.array_equal(path.jump_marks, marks)
        assert np.array_equal(path.jump_small, small)
        assert [j.region is Region.SMALL for j in path.jumps] == small.tolist()
    assert max(sizes) > 1


def test_build_path_rejects_negative_level(finite_model, rng):
    with pytest.raises(ValueError):
        build_path(1.0, -1, finite_model, rng)


class ScriptedRng:
    """Just enough of the Generator surface to force chosen arrivals: the
    Poisson count, then the uniforms in the order they are asked for (the
    times row, the regions row, then every mark's uniforms in one draw, one
    a jump for an atom mark)."""

    def __init__(self, count, uniforms):
        self._count = count
        self._uni = list(uniforms)

    def poisson(self, lam):
        return self._count

    def random(self, size):
        n = int(np.prod(size))
        drawn, self._uni = self._uni[:n], self._uni[n:]
        return np.array(drawn, dtype=np.float64).reshape(size)

    def standard_normal(self, out):  # zero normals, written in place as build_path asks
        out[...] = 0.0
        return out


# count and uniforms of the shared finite model (small rate 1, tail rate
# 0.5): a regions uniform of 0.0 picks the small region, and a mark uniform
# of 0.0 its atom at 0.5
NUDGE_SCRIPTS = {
    "dyadic": (1, [0.5, 0.0, 0.0]),                  # a jump on the dyadic point 0.5
    "duplicate": (2, [0.3, 0.3, 0.0, 0.0, 0.0, 0.0]),  # two jumps at one instant
    "zero": (1, [0.0, 0.0, 0.0]),                    # a jump at 0.0
    # a jump at T: a Generator's uniforms stop short of 1, and their product
    # with T rounds onto T only for a subnormal T, but the nudge covers it
    "horizon": (1, [1.0, 0.0, 0.0]),
}


def test_build_path_nudges_dyadic_collision(finite_model, caplog):
    # one small jump exactly at 0.5 = 4/8: collides with the level-3 grid and
    # must move by one ulp rather than corrupt the event grid
    scripted = ScriptedRng(*NUDGE_SCRIPTS["dyadic"])
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
    # two arrivals at the same instant (two equal time uniforms): the second
    # is shifted one ulp up, both survive
    path = build_path(1.0, 3, finite_model, ScriptedRng(*NUDGE_SCRIPTS["duplicate"]))
    times = [j.time for j in path.jumps]
    assert len(times) == 2
    assert times[0] == 0.3
    assert times[1] == float(np.nextafter(0.3, np.inf))
    assert np.all(np.diff(path.event_times) > 0)


@pytest.mark.parametrize("end,moved,cell", [
    ("zero", float(np.nextafter(0.0, np.inf)), 0),
    ("horizon", float(np.nextafter(1.0, -np.inf)), 2**3 - 1),
])
def test_build_path_nudges_a_jump_off_either_end(finite_model, caplog, end, moved, cell):
    # a jump on the grid's first or last point moves one ulp inward, into
    # the first or last finest cell
    with caplog.at_level("WARNING", logger="levystep.path"):
        path = build_path(1.0, 3, finite_model, ScriptedRng(*NUDGE_SCRIPTS[end]))
    assert path.jump_times.tolist() == [moved]
    assert path.jump_cells.tolist() == [cell]
    assert np.all(np.diff(path.event_times) > 0)
    assert path.event_times[path.cell_edges].tobytes() == dyadic_grid(1.0, 3).tobytes()
    assert any("nudged" in rec.message for rec in caplog.records)


# -- the event grid's index maps ---------------------------------------------

def merged_paths(finite_model):
    """50 random paths at each of the finest levels 0, 3 and 8, then one
    path per nudge script."""
    rng = np.random.default_rng(808)
    for level in (0, 3, 8):
        for _ in range(50):
            yield build_path(1.0, level, dense_model(), rng)
    for script in NUDGE_SCRIPTS.values():
        yield build_path(1.0, 3, finite_model, ScriptedRng(*script))


def test_merge_index_maps_match_the_searches(finite_model):
    # the positions come from the merge that builds the grid; searching the
    # times back is the independent check
    for path in merged_paths(finite_model):
        dyad = dyadic_grid(1.0, path.finest_level)
        assert path.event_times[path.cell_edges].tobytes() == dyad.tobytes()
        assert path.event_times[path.jump_events].tobytes() == path.jump_times.tobytes()
        assert np.array_equal(path.jump_cells, dyad.searchsorted(path.jump_times) - 1)


def test_slice_between_is_the_pairwise_gap_sum(finite_model):
    # each batch holds ia = 0, one-gap slices and the whole horizon; every
    # slice equals np.sum over its gaps, bit for bit
    rng = np.random.default_rng(809)
    for path in merged_paths(finite_model):
        n, w = path.event_times.size, path.w_values
        ia = rng.integers(0, n - 1, 6)
        ib = ia + 1 + rng.integers(0, n - 1 - ia)
        ia = np.concatenate(([0, 0], ia, ia))
        ib = np.concatenate(([1, n - 1], ia[2:8] + 1, ib))
        batch = path.slice_between(ia, ib)
        for k, (a, b) in enumerate(zip(ia, ib)):
            g = np.arange(a, b)
            h = path.event_times[g + 1] - path.event_times[g]
            assert batch.dw[k] == np.sum(path.dw[a:b])
            assert batch.dz[k] == np.sum((w[g] - w[a]) * h + path.z_locals[g])


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
    edges = path.grid_events(3)[0]
    tree = path.slices(3)
    direct = path.slice_between(edges[:-1], edges[1:])
    np.testing.assert_allclose(tree.dw, direct.dw, rtol=0, atol=1e-12)
    np.testing.assert_allclose(tree.dz, direct.dz, rtol=0, atol=1e-12)
    for name in ("left", "right", "delta", "w_left", "w_right",
                 "time", "mark", "small", "w", "slice_id"):
        assert np.array_equal(getattr(tree, name), getattr(direct, name)), name


def test_finest_cell_without_jumps_is_a_single_gap(finite_model):
    path = build_path(1.0, 5, finite_model, np.random.default_rng(4))
    counts = np.diff(path.cell_edges[0])
    cells = path.slices(5)
    held = np.bincount(cells.slice_id, minlength=32)
    bare = [i for i in range(32) if counts[i] == 1]
    assert bare  # rate 1.5 on 32 cells leaves plenty of jump-free cells
    for i in bare:
        gap = path.cell_edges[0, i]
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
    grid = path.grid(2)[0]
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
    assert np.array_equal(slc.w, path.w_values[event_indices(path, slc.time)])
    rest = path.slice_between(ib, path.grid_events(2)[0, 1])
    assert np.all((j.time < rest.time) & (rest.time <= grid[1]))


def test_slice_between_batch_matches_single_slices():
    # overlapping partial slices, one per jump: each batch entry equals the
    # same slice taken alone, and holds exactly the jumps in (left, right]
    path = build_path(1.0, 5, dense_model(8.0, 4.0), np.random.default_rng(42))
    lefts = path.grid_events(1)[0, path.jump_cells >> 4]
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


def test_a_joined_chunk_slices_as_its_paths():
    # paths of every jump density, a jumpless one included: a chunk's level
    # slices are its paths' slices in turn, and its partial slices (from
    # each path's first event, where the pad of the path before sits, or
    # from a grid point) are the ones each path gives alone, bit for bit
    paths = [build_path(1.0, 5, dense_model(0.2 + 30.0 * (i % 3), 0.1 + 10.0 * (i % 3)),
                        np.random.default_rng(70 + i)) for i in range(7)]
    assert min(p.jump_times.size for p in paths) == 0 < max(p.jump_times.size for p in paths)
    chunk = join(paths)
    offsets = np.cumsum([0] + [p.event_times.size for p in paths])
    for level in range(6):
        assert np.array_equal(chunk.grid_events(level),
                              [p.grid_events(level)[0] + o for p, o in zip(paths, offsets)])
        alone = concatenated([p.slices(level) for p in paths], EAGER + LATE)
        together = chunk.slices(level)
        for name, want in alone.items():
            assert getattr(together, name).tobytes() == want.tobytes(), name
    parts = [(np.concatenate(([0], p.grid_events(2)[0, p.jump_cells >> 3])),
              np.concatenate(([p.event_times.size - 1], p.jump_events))) for p in paths]
    alone = concatenated([p.slice_between(ia, ib) for p, (ia, ib) in zip(paths, parts)],
                         EAGER + LATE)
    together = chunk.slice_between(*(np.concatenate([e + o for e, o in zip(ends, offsets)])
                                     for ends in zip(*parts)))
    for name, want in alone.items():
        assert getattr(together, name).tobytes() == want.tobytes(), name
    # a path is a one-path chunk: joining two concatenates their fields, each
    # path's normals with their own zero column and the second path's event
    # indices and cells offset; joining one returns it
    a, b = paths[1], paths[2]
    assert a.jump_times.size and b.jump_times.size
    pair, n = join([a, b]), a.event_times.size
    for name in ("event_times", "jump_times", "jump_marks", "jump_small"):
        want = np.concatenate((getattr(a, name), getattr(b, name)))
        assert getattr(pair, name).tobytes() == want.tobytes(), name
    assert pair.normals.tobytes() == np.concatenate((a.normals, b.normals), axis=1).tobytes()
    assert np.all(pair.normals[:, pair.cell_edges[:, -1]] == 0.0)
    assert np.array_equal(pair.jump_events, np.concatenate((a.jump_events, b.jump_events + n)))
    assert np.array_equal(pair.jump_cells, np.concatenate((a.jump_cells, b.jump_cells + 2**5)))
    assert np.array_equal(pair.cell_edges, np.concatenate((a.cell_edges, b.cell_edges + n)))
    assert pair.cell_edges.shape == (2, 2**5 + 1)
    assert join([a]) is a


def test_a_chunk_sums_a_crowded_last_cell_as_the_path_alone(monkeypatch):
    # 15 and 23 jumps placed in the last finest cell give it 16 and 24 gaps;
    # run on into the pad gap behind the path, numpy's pairwise sum would
    # group such a segment in other blocks of 8 and change the last bits
    def crowded(jumps):
        times = 0.75 + 0.25 * np.arange(1, jumps + 1) / (jumps + 1)
        return times, np.full(jumps, 0.5), np.ones(jumps, dtype=bool)

    paths = []
    for i, jumps in enumerate((15, 0, 23, 15)):
        monkeypatch.setattr(path_mod, "simulate_events", lambda *_, k=jumps: crowded(k))
        paths.append(build_path(1.0, 2, dense_model(), np.random.default_rng(90 + i)))
    chunk = join(paths)
    assert np.bincount(chunk.jump_cells, minlength=16)[3::4].tolist() == [15, 0, 23, 15]
    for name in ("cell_dw", "cell_dz"):
        alone = np.concatenate([getattr(p, name) for p in paths])
        assert getattr(chunk, name).tobytes() == alone.tobytes(), name


def test_only_crowded_cells_are_summed(monkeypatch):
    # a cell of one gap takes that gap's z_local as its dZ; a cell of more
    # gaps is summed, whether jumps split it or `with_jumps` dropped the
    # jumps that did.  Four paths at finest level 3: no jumps; one jump (a
    # cell of 2 gaps); 20 jumps in one cell and 2 in another; and a path
    # whose jumps (3 in cell 2, 4 in cell 5) are all dropped but one in
    # cell 2, so cell 2 holds 4 gaps and one jump, and cell 5 holds 5 gaps
    # and no jump.  Every level's dW and dZ are those of a reduceat over
    # every cell, bit for bit.
    def scripted(times):
        times = np.array(times)
        return times, np.full(times.size, 0.5), np.ones(times.size, dtype=bool)

    jumps = [[], [0.2], [*(0.5 + 0.1 * np.arange(1, 21) / 21), 0.8, 0.85],
             [0.26, 0.3, 0.33, 0.63, 0.66, 0.7, 0.74]]
    paths = []
    for i, times in enumerate(jumps):
        monkeypatch.setattr(path_mod, "simulate_events", lambda *_, t=times: scripted(t))
        paths.append(build_path(1.0, 3, dense_model(), np.random.default_rng(95 + i)))
    paths[3] = paths[3].with_jumps(np.arange(7) == 1)
    chunk = join(paths)
    gap_counts = np.diff(chunk.cell_edges, axis=1)
    assert gap_counts[0].tolist() == [1] * 8
    assert gap_counts[1].tolist() == [1, 2] + [1] * 6
    assert gap_counts[2, 4] == 21 and gap_counts[2, 6] == 3
    assert gap_counts[3, 2] == 4 and gap_counts[3, 5] == 5
    assert chunk.jump_cells[-1:].tolist() == [3 * 8 + 2]
    dws, dzs = reduceat_levels(chunk)
    assert chunk.cell_dw.tobytes() == dws[-1].tobytes()
    assert chunk.cell_dz.tobytes() == dzs[-1].tobytes()
    for level in range(4):
        batch = chunk.slices(level)
        assert batch.dw.tobytes() == dws[level].tobytes(), level
        assert batch.dz.tobytes() == dzs[level].tobytes(), level


def test_simulate_events_stops_at_the_jump_cap(monkeypatch):
    # a count of 6 arrivals against a cap of 5 stops; one of exactly 5 is kept
    monkeypatch.setattr(path_mod, "_MAX_JUMPS", 5)
    with pytest.raises(RuntimeError, match="more than 5 jumps drawn on one path"):
        simulate_events(1.0, dense_model(), np.random.default_rng(2))
    times, _, _ = simulate_events(1.0, dense_model(), np.random.default_rng(5))
    assert times.size == 5


def test_slice_between_additivity():
    path = build_path(1.0, 5, dense_model(), np.random.default_rng(41))
    a, m, b = path.grid_events(1)[0]   # the events at 0.0, 0.5 and 1.0
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


def test_a_batch_forms_the_dz_and_w_stage_on_first_read():
    # a batch's dW needs the dW stage alone; keep_jumps passes the late
    # fields (dZ, W) on unformed, and their first read forms them
    path = build_path(1.0, 4, dense_model(), np.random.default_rng(63))
    batch = path.slices(2)
    keep = np.arange(batch.time.size) % 2 == 0
    kept = batch.keep_jumps(keep)
    part = path.slice_between(path.grid_events(2)[0, path.jump_cells >> 2], path.jump_events)
    assert part.dw.size == path.jump_times.size and 0 < keep.sum() < keep.size
    assert "_dw_stage" in vars(path) and "_dz_stage" not in vars(path)
    assert not any("_late" in vars(b) for b in (batch, kept, part))
    assert kept.w.tobytes() == batch.w[keep].tobytes()
    for name in ("dz", "w_left", "w_right"):
        assert getattr(kept, name) is getattr(batch, name)
    assert np.array_equal(batch.w, path.w_values[path.jump_events])


def test_a_ladder_is_its_parts_gathered_at_once():
    # a chunk's slices at three levels and its partial slices from the
    # level-2 grid to every jump (a jumpless path among its paths): every
    # field of the one batch is the per-part batches' end to end, bit for
    # bit, and the dZ/W stage waits for the first read of its dz or w
    paths = [build_path(1.0, 4, dense_model(0.2 + 30.0 * (i % 3), 0.1 + 10.0 * (i % 3)),
                        np.random.default_rng(64 + i)) for i in range(4)]
    chunk, levels = join(paths), (1, 2, 4)
    owner = chunk.jump_cells >> chunk.finest_level
    ia = chunk.grid_events(2).ravel()[(chunk.jump_cells >> 2) + owner]
    assert min(p.jump_times.size for p in paths) == 0 < ia.size
    for read in LATE:
        chunk = join(paths)  # a new chunk, its stages unformed
        gathered = chunk.ladder(levels, ia, chunk.jump_events)
        parts = [chunk.slices(lv) for lv in levels] + [chunk.slice_between(ia, chunk.jump_events)]
        for name, want in concatenated(parts, EAGER).items():
            assert getattr(gathered, name).tobytes() == want.tobytes(), name
        assert "_dz_stage" not in vars(chunk)
        getattr(gathered, read)
        assert "_dz_stage" in vars(chunk)
        for name, want in concatenated(parts, LATE).items():
            assert getattr(gathered, name).tobytes() == want.tobytes(), name
    # with no partial slices the batch is the levels' slices alone
    empty = np.empty(0, dtype=ia.dtype)
    gathered, want = paths[0].ladder((0, 3), empty, empty), [paths[0].slices(lv) for lv in (0, 3)]
    for name, value in concatenated(want, EAGER + LATE).items():
        assert getattr(gathered, name).tobytes() == value.tobytes(), name


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
    # the event indices of a level's grid points, against a search of their times
    for level in range(5):
        assert np.array_equal(path.grid_events(level)[0],
                              event_indices(path, dyadic_grid(1.0, level)))
    assert path.grid_events(0)[0].tolist() == [0, path.event_times.size - 1]
    assert np.array_equal(path.grid(2)[0], dyadic_grid(1.0, 2))
    with pytest.raises(ValueError):
        path.grid(5)
    with pytest.raises(ValueError):
        path.grid(-1)

