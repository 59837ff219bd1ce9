"""Driving noise paths and their exact multi-resolution slicing.

A DrivingPath fixes one realization of all noise a scheme or reference
solution may consume: jump times and marks of the active compound-Poisson
stream, plus the Wiener path observed on the union of a finest dyadic grid
and the jump times.  Every coarser approximation is computed from this one
object by *aggregation only* (no resampling), so different step sizes and the
reference solution stay coupled pathwise.

For each gap between consecutive events the pair (dW, z_local) is drawn
jointly, where z_local = integral over the gap of (W_s - W_gap_left) ds.
Slice quantities follow by exact identities:

    dW over [a, b]  = sum of gap dWs
    dZ over [a, b]  = integral of (W_s - W_a) ds
                    = sum over gaps of (W_gap_left - W_a) * h_gap + z_local

A path stores what it draws and where the draws sit: the event grid, the
jumps and, per gap, the two standard normals of (dW, z_local).  The Wiener
data (dW, z_local and W per gap and event, then (dW, dZ) over the dyadic
intervals of every level, aggregated pairwise up from the finest cells, so
combining the two children of a dyadic interval reproduces the parent
bit-for-bit) is formed from the normals when first read: the dW part when
the path is sliced, the rest only when a Milstein step reads it.

A path is a chunk of one path; paths of one horizon and finest level are
joined end to end into one chunk by `join`, whose slices are those of its
paths in path order and which forms the Wiener data of all of them at once.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .common import Region
from .levy import LevyModel

logger = logging.getLogger(__name__)

_SQRT3 = math.sqrt(3.0)
# the largest Poisson count of arrivals one path may draw: twice the expected
# events a config may ask for (harness._MAX_EXPECTED_EVENTS), about 2900
# standard deviations of the count above the largest mean the configs allow
_MAX_JUMPS = 2**24


def _dw(u1: np.ndarray, deltas: np.ndarray) -> np.ndarray:  # see `_z_local`
    return u1 * np.sqrt(deltas)


def _z_local(normals: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """dZ = delta^{3/2} (U1 + U2/sqrt(3)) / 2 with U1, U2 the two rows of
    `normals` and dW = `_dw(U1, delta)`, which realizes Var dW = delta,
    Var dZ = delta^3/3, Cov = delta^2/2 for independent standard normals
    (acceptance criterion 2 checks that law on the draws of built paths)."""
    u1, u2 = normals[0], normals[1]
    return 0.5 * deltas**1.5 * (u1 + u2 / _SQRT3)


@dataclass(frozen=True)
class JumpEvent:
    time: float
    mark: float
    region: Region
    event_index: int  # position of `time` in the path's event grid


@dataclass(frozen=True, eq=False)
class Slices:
    """A batch of slices, as flat arrays; the slices may come from several
    levels or several paths (see `DrivingPath.ladder`).

    Per slice k (arrays of length n): the endpoints, their distance, the
    Wiener increment dW and time integral dZ over the slice, and W at both
    ends.  Per jump inside a slice (arrays of length K, ordered by slice and
    then by time; slice k holds the jumps with left_k < time <= right_k):
    time, mark, region flag, W at the jump and the owning slice.  Slices may
    overlap, in which case a jump appears once for every slice holding it.
    dz, w_left, w_right and w, which only the Milstein scheme reads, are
    `late()`, called once, on the first read of any of them.
    """

    left: np.ndarray
    right: np.ndarray
    delta: np.ndarray
    dw: np.ndarray
    time: np.ndarray
    mark: np.ndarray
    small: np.ndarray     # True for a small-region jump, False for a tail jump
    slice_id: np.ndarray  # nondecreasing
    late: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

    _late = cached_property(lambda self: self.late())
    dz, w_left, w_right, w = (property(lambda self, k=k: self._late[k]) for k in range(4))

    def keep_jumps(self, keep: np.ndarray) -> "Slices":
        """The same slices holding only the jumps where the mask `keep` is set."""
        return replace(self, time=self.time[keep], mark=self.mark[keep], small=self.small[keep],
                       slice_id=self.slice_id[keep], late=lambda: (*self._late[:3], self.w[keep]))


def simulate_events(horizon: float, model: LevyModel, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival times, marks and small-region flags (False for the tail) of
    the active jump stream on (0, horizon), as arrays in arrival order.

    The stream is a compound Poisson one at the model's total active rate,
    drawn in this order: the count n ~ Poisson(rate * horizon), refused with
    a RuntimeError above _MAX_JUMPS before anything of size n is allocated;
    one (2, n) array of uniforms, whose first row sorted and scaled by the
    horizon gives the times and whose second row gives the regions (small
    where u < small mass / rate), as two `random(n)` calls would; then every
    mark's uniforms in one `random(k)` draw (k = n_tail + n_small times the
    uniforms one small mark takes), which one `sample_small_mark` or
    `sample_tail_mark` call a jump maps to the marks in time order, as k
    scalar `random()` calls would.  Raises if the rate is infinite (an
    untruncated infinite-activity model cannot be simulated).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rate = model.active_rate
    if math.isinf(rate):
        raise ValueError(
            "active jump rate is infinite; truncate the model before simulating"
        )
    n = int(rng.poisson(rate * horizon))
    if n > _MAX_JUMPS:
        raise RuntimeError(f"more than {_MAX_JUMPS} jumps drawn on one path")
    if n == 0:  # the draws below would take nothing from the stream
        return np.empty(0), np.empty(0), np.empty(0, dtype=bool)
    time_uniforms, region_uniforms = rng.random((2, n))
    times = np.sort(time_uniforms) * horizon
    small = region_uniforms < model.small_mass / rate
    flags = small.tolist()
    n_small = flags.count(True)
    draw = iter(rng.random(n - n_small + n_small * model.small.mark_uniforms).tolist()).__next__
    marks = np.array([model.sample_small_mark(draw) if s else model.sample_tail_mark(draw)
                      for s in flags], dtype=np.float64)
    return times, marks, small


def grid_fits(horizon: float, level: int) -> bool:
    """Whether horizon * 2**level is finite and horizon / 2**level a normal
    float, which keeps every dyadic grid up to `level` exact (see `dyadic_grid`)."""
    scale = 2.0**level  # both products are exact unless they overflow
    return math.isfinite(float(horizon) * scale) and horizon >= sys.float_info.min * scale


@lru_cache(maxsize=1)
def dyadic_grid(horizon: float, level: int) -> np.ndarray:
    """The 2**level + 1 dyadic points of [0, horizon], read-only and kept for
    the next call (`build_path` merges a copy of it into each path).

    Computed as (k * horizon) / 2**level, which is finite, strictly increasing
    and bit-equal across levels (power-of-two scaling is exact in binary
    floating point) when `grid_fits(horizon, level)`; refused otherwise.
    """
    if level < 0 or not grid_fits(horizon, level):
        raise ValueError(f"no exact dyadic grid of [0, {horizon!r}] at level {level}")
    grid = (np.arange(2**level + 1, dtype=np.float64) * horizon) / float(2**level)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True, eq=False)
class DrivingPath:
    """The noise of a chunk of paths laid end to end: one path from
    `build_path`, or several joined by `join`.

    The Wiener data is formed from `normals` in two stages, each kept.  On
    first slicing or `exact_solution`: per gap (gap g follows event g) its
    length `gaps` and `dw` (n_events,), zero at each path's last event, and
    each level's dW over its dyadic intervals (`cell_dw` the finest, path by
    path).  On the first read of a batch's dz or W: per gap `z_locals`, W at
    every event `w_values`, 0 at each path's first event, and each level's dZ.
    """

    horizon: float
    finest_level: int
    event_times: np.ndarray   # (n_events,)
    # (2, n_events), zero at each path's last event: standard normals of the
    # gaps, the (dW, z_local) of gap g from column g
    normals: np.ndarray
    jump_times: np.ndarray    # (n_jumps,) increasing within a path
    jump_marks: np.ndarray    # (n_jumps,)
    jump_small: np.ndarray    # (n_jumps,) bool: small region (else tail)
    jump_events: np.ndarray   # (n_jumps,) event index of each jump time
    # (n_jumps,) finest dyadic cell holding each jump, + path * 2**finest_level
    jump_cells: np.ndarray
    # (paths, 2**finest_level + 1) event index of each dyadic point
    cell_edges: np.ndarray

    @property
    def jumps(self) -> tuple[JumpEvent, ...]:
        """The jumps as records, in time order (built on each access)."""
        return tuple(
            JumpEvent(time=float(t), mark=float(m),
                      region=Region.SMALL if s else Region.TAIL, event_index=int(e))
            for t, m, s, e in zip(self.jump_times, self.jump_marks,
                                  self.jump_small, self.jump_events))

    # -- lookups -----------------------------------------------------------

    def grid_events(self, level: int) -> np.ndarray:
        """Event indices of the 2**level + 1 dyadic points at `level`, a row
        a path."""
        if not 0 <= level <= self.finest_level:
            raise ValueError(f"level {level} outside 0..{self.finest_level}")
        return self.cell_edges[:, ::1 << (self.finest_level - level)]

    def grid(self, level: int) -> np.ndarray:
        # a row a path, each bit-equal to dyadic_grid(horizon, level) by the merge in build_path
        return self.event_times[self.grid_events(level)]

    def with_jumps(self, keep: np.ndarray) -> "DrivingPath":
        """Same noise, only the jumps where the boolean mask `keep` is set
        (the event grid and the normals are unchanged).
        The truncation study masks a batch instead (`Slices.keep_jumps`)."""
        keep = np.asarray(keep)
        if keep.dtype != np.bool_ or keep.shape != self.jump_times.shape:
            raise ValueError(f"keep must be a boolean mask of shape {self.jump_times.shape}")
        return replace(self, jump_times=self.jump_times[keep],
                       jump_marks=self.jump_marks[keep], jump_small=self.jump_small[keep],
                       jump_events=self.jump_events[keep], jump_cells=self.jump_cells[keep])

    # -- Wiener data ---------------------------------------------------------

    @cached_property
    def _dw_stage(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """gaps, dw and each level's dW, coarsest first, of every path at once,
        each path's as it would be alone (its pad gap zeroed)."""
        times, edges = self.event_times, self.cell_edges
        gaps = np.empty(times.size)
        np.subtract(times[1:], times[:-1], out=gaps[:-1])
        gaps[edges[:, -1]] = 0.0
        dw = _dw(self.normals[0], gaps)
        levels = [self._cell_sums(dw)]
        for _ in range(self.finest_level):
            levels.append(levels[-1][0::2] + levels[-1][1::2])
        return gaps, dw, levels[::-1]

    @cached_property
    def _dz_stage(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """z_locals, w_values (restarting at each path's first event) and
        each level's dZ, coarsest first."""
        gaps, dw, dw_levels = self._dw_stage
        z_locals = _z_local(self.normals, gaps)
        w_values = self.along_paths(np.add, dw)
        # a finest cell of one gap has that gap's z_local as its dZ, W at the
        # gap's left end being W at the cell's; only the crowded cells, picked
        # by gap count (`with_jumps` keeps the events of the jumps it drops),
        # are summed, as np.add.reduceat sums a segment
        edges = self.cell_edges
        first, counts = edges[:, :-1].ravel(), np.diff(edges, axis=1).ravel()
        cell_dz = z_locals[first]
        crowded = np.flatnonzero(counts > 1)
        first, counts = first[crowded], counts[crowded]
        at = _concat_ranges(first, counts)
        cell_dz[crowded] = np.add.reduceat(
            (w_values[at] - np.repeat(w_values[first], counts)) * gaps[at] + z_locals[at],
            np.cumsum(counts) - counts)
        levels = [cell_dz]
        for child_level in range(self.finest_level, 0, -1):
            dz = levels[-1][0::2] + levels[-1][1::2]
            dz += dw_levels[child_level][0::2] * (self.horizon / float(2**child_level))
            levels.append(dz)
        return z_locals, w_values, levels[::-1]

    def _cell_sums(self, per_gap: np.ndarray) -> np.ndarray:
        """Per finest cell, path by path, the sum of `per_gap`; each pad gap
        is a segment of its own, dropped, as one value more would reorder a sum."""
        edges = self.cell_edges
        return np.add.reduceat(per_gap, edges.ravel()).reshape(edges.shape)[:, :-1].ravel()

    gaps = property(lambda self: self._dw_stage[0])
    dw = property(lambda self: self._dw_stage[1])
    cell_dw = property(lambda self: self._dw_stage[2][-1])
    z_locals = property(lambda self: self._dz_stage[0])
    w_values = property(lambda self: self._dz_stage[1])
    cell_dz = property(lambda self: self._dz_stage[2][-1])

    def along_paths(self, op: np.ufunc, per_gap: np.ndarray) -> np.ndarray:
        """Per event, the identity of `op` at each path's first event and then
        `op` accumulated over the path's gaps, left to right (W from dW with
        np.add)."""
        out, edges = np.empty(self.event_times.size), self.cell_edges
        for a, b in zip(edges[:, 0].tolist(), edges[:, -1].tolist()):
            out[a] = op.identity
            op.accumulate(per_gap[a:b], out=out[a + 1:b + 1])
        return out

    # -- slicing -----------------------------------------------------------

    def slices(self, level: int) -> Slices:
        """The 2**level slices of the uniform dyadic grid at `level` of each
        path in turn: slice path * 2**level + k is the path's slice k."""
        return self._batch(*self._level_part(level))

    def slice_between(self, ia, ib) -> Slices:
        """One slice from event ia[k] to event ib[k] for every k (signed
        integer event indices with 0 <= ia < ib < n_events, typically a grid
        point and an interior jump, both on one path of a chunk); aggregates
        gap data directly."""
        return self._batch(*self._partial_part(ia, ib))

    def ladder(self, levels, ia, ib) -> Slices:
        """The slices of `slices(level)` for each of `levels` in turn, then
        those of `slice_between(ia, ib)`, gathered as one batch (slice ids
        offset so they stay nondecreasing)."""
        ia, ib, dw, dz, held, slice_id = zip(*[self._level_part(lv) for lv in levels],
                                             self._partial_part(ia, ib))
        starts = np.cumsum([0] + [a.size for a in ia])
        every_jump = np.arange(self.jump_times.size)
        return self._batch(np.concatenate(ia), np.concatenate(ib), np.concatenate(dw),
                           lambda: np.concatenate([part() for part in dz]),
                           np.concatenate([every_jump[h] for h in held]),
                           np.concatenate([s + o for s, o in zip(slice_id, starts)]))

    def _level_part(self, level):
        """`slices(level)` as the arguments of `_batch`."""
        edges = self.grid_events(level)
        return (edges[:, :-1].ravel(), edges[:, 1:].ravel(), self._dw_stage[2][level],
                lambda: self._dz_stage[2][level], slice(None),
                self.jump_cells >> (self.finest_level - level))

    def _partial_part(self, ia, ib):
        """`slice_between(ia, ib)` as the arguments of `_batch`."""
        ia, ib, n = np.atleast_1d(ia), np.atleast_1d(ib), self.event_times.size
        if not (ia.dtype.kind == ib.dtype.kind == "i" and ia.ndim == 1
                and ia.shape == ib.shape and np.all((0 <= ia) & (ia < ib) & (ib < n))):
            raise ValueError("slice endpoints must be integer event-index arrays of "
                             f"one shape with 0 <= ia < ib < {n}")
        lengths, (gaps, dw, _) = ib - ia, self._dw_stage
        # np.add.reduceat adds a segment as first + pairwise(rest); a zeroed
        # pad slot ahead of each slice's gaps (index -1 at ia = 0) makes it
        # the pairwise sum np.sum gives, bit for bit
        at = _concat_ranges(ia - 1, lengths + 1)
        starts = np.cumsum(lengths + 1) - (lengths + 1)

        def sums(per_gap):
            per_gap[starts] = 0.0
            return np.add.reduceat(per_gap, starts)

        def dz():
            z_locals, w, _ = self._dz_stage
            return sums((w[at] - np.repeat(w[ia], lengths + 1)) * gaps[at] + z_locals[at])

        first = np.searchsorted(self.jump_events, ia, side="right")
        counts = np.searchsorted(self.jump_events, ib, side="right") - first
        return (ia, ib, sums(dw[at]), dz, _concat_ranges(first, counts),
                np.repeat(np.arange(ia.size), counts))

    def _batch(self, ia, ib, dw, dz, held, slice_id) -> Slices:
        """The slices from events ia[k] to ib[k] with their dW, holding the
        jumps `held` (an index or a slice into the jump arrays); `dz()` gives
        their dZ, read with W from the dZ/W stage as the batch's `late`."""
        left, right = self.event_times[ia], self.event_times[ib]

        def late():
            w = self._dz_stage[1]
            return dz(), w[ia], w[ib], w[self.jump_events[held]]

        return Slices(left=left, right=right, delta=right - left, dw=dw,
                      time=self.jump_times[held], mark=self.jump_marks[held],
                      small=self.jump_small[held], slice_id=slice_id, late=late)


def join(paths) -> DrivingPath:
    """The paths, of one horizon and finest level, end to end as one chunk:
    each array the paths' arrays in turn, event indices and finest cells
    offset to the chunk; one path is its own chunk.  A slice of a chunk
    never spans two paths: at a path's first event, `slice_between` reads
    the zero pad slot of the path before it."""
    if len(paths) == 1:
        return paths[0]
    finest = paths[0].finest_level
    sizes = np.array([p.event_times.size for p in paths])
    offsets = np.cumsum(sizes) - sizes
    jumps = [p.jump_events.size for p in paths]

    def cat(name, axis=0):
        return np.concatenate([getattr(p, name) for p in paths], axis=axis)

    return DrivingPath(
        horizon=paths[0].horizon, finest_level=finest, event_times=cat("event_times"),
        normals=cat("normals", axis=1), jump_times=cat("jump_times"),
        jump_marks=cat("jump_marks"), jump_small=cat("jump_small"),
        jump_events=cat("jump_events") + np.repeat(offsets, jumps),
        jump_cells=cat("jump_cells") + np.repeat(np.arange(len(paths)) << finest, jumps),
        cell_edges=cat("cell_edges") + offsets[:, None])


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[k], ..., starts[k] + counts[k] - 1 for every k, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


def _merge(dyad: np.ndarray, jump_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of the dyadic points and the jump times, and the
    position in it of each dyadic point, then of each jump time."""
    times = np.concatenate((dyad, jump_times))
    order = np.argsort(times, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    return times[order], position


def _nudged(times: np.ndarray, dyad: np.ndarray, horizon: float) -> np.ndarray:
    """`times` with every jump time that hits a dyadic point or an earlier
    jump moved by single ulps (upward, or downward from the endpoint) until it
    is free; each move is logged."""
    taken: set[float] = set()
    out = times.copy()
    for k, t in enumerate(times.tolist()):
        t_adj, direction = t, np.inf
        while t_adj in taken or dyad[dyad.searchsorted(t_adj)] == t_adj:
            t_adj = float(np.nextafter(t_adj, direction))
            if t_adj >= horizon:  # ran into the endpoint; walk down instead
                t_adj, direction = t, -np.inf
        if t_adj != t:
            logger.warning("jump time %r collided with the grid; nudged to %r", t, t_adj)
        taken.add(t_adj)
        out[k] = t_adj
    return out


def build_path(horizon: float, finest_level: int, model: LevyModel,
               rng: np.random.Generator) -> DrivingPath:
    """Simulate one driving path, a chunk of one path: jump stream first,
    then the standard normals of the Wiener data on the gaps of the union of
    the finest dyadic grid and the jump times (the Wiener data is formed from
    them when it is first read, see `DrivingPath`).

    A jump time that collides exactly with a dyadic point (or an earlier jump)
    is nudged by one ulp and the nudge is logged; collisions have probability
    zero but must not corrupt the event grid.
    """
    if finest_level < 0:
        raise ValueError("finest_level must be nonnegative")
    jump_times, jump_marks, jump_small = simulate_events(horizon, model, rng)
    dyad = dyadic_grid(horizon, finest_level)
    event_times, position = _merge(dyad, jump_times)
    # a jump time on a dyadic point or on an earlier jump
    if not (event_times[1:] > event_times[:-1]).all():
        jump_times = _nudged(jump_times, dyad, horizon)
        order = np.argsort(jump_times, kind="stable")
        jump_times, jump_marks, jump_small = \
            jump_times[order], jump_marks[order], jump_small[order]
        event_times, position = _merge(dyad, jump_times)
    cell_edges, jump_events = position[None, :dyad.size], position[dyad.size:]
    # jump j has j earlier jumps and its cell + 1 dyadic points before it
    jump_cells = jump_events - np.arange(jump_events.size) - 1
    normals = np.zeros((2, event_times.size))
    # drawn in place, row by row: the stream of one (2, n_events - 1) draw
    rng.standard_normal(out=normals[0, :-1])
    rng.standard_normal(out=normals[1, :-1])
    return DrivingPath(horizon, finest_level, event_times, normals, jump_times, jump_marks,
                       jump_small, jump_events, jump_cells, cell_edges)
