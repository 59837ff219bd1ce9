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

Per-level (dW, dZ) arrays are assembled bottom-up by pairwise aggregation over
the finest dyadic cells, so combining the two children of a dyadic interval
reproduces the parent bit-for-bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .common import Region
from .levy import LevyModel

logger = logging.getLogger(__name__)

_SQRT3 = math.sqrt(3.0)


def sample_dw_dz(deltas: np.ndarray, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Independent joint draws of (dW, dZ), one per interval length in deltas.

    dW = U1 sqrt(delta), dZ = delta^{3/2} (U1 + U2/sqrt(3)) / 2 with U1, U2
    independent standard normals, which realizes Var dW = delta,
    Var dZ = delta^3/3, Cov = delta^2/2.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if not (deltas > 0).all():
        raise ValueError(f"interval lengths must be positive, got min {deltas.min()}")
    u = rng.standard_normal((2, deltas.size))
    dw = u[0] * np.sqrt(deltas)
    dz = 0.5 * deltas**1.5 * (u[0] + u[1] / _SQRT3)
    return dw, dz


@dataclass(frozen=True)
class JumpEvent:
    time: float
    mark: float
    region: Region
    event_index: int  # position of `time` in the path's event grid


@dataclass(frozen=True)
class SliceJump:
    """One jump inside a slice, with the lookahead data the order-1 scheme
    needs: the time of (and Wiener value at) the next jump of each region
    strictly after this one, capped at the slice's right endpoint."""

    time: float
    mark: float
    region: Region
    w_value: float
    next_small_time: float
    next_tail_time: float
    w_next_small: float
    w_next_tail: float


@dataclass(frozen=True)
class IntervalSlice:
    left: float
    right: float
    delta: float
    delta_w: float
    delta_z: float
    w_left: float
    jumps: tuple[SliceJump, ...]

    @property
    def count(self) -> int:
        return len(self.jumps)


def simulate_events(horizon: float, model: LevyModel,
                    rng: np.random.Generator) -> tuple[tuple[float, float, Region], ...]:
    """Arrival times and marks of the active jump stream on (0, horizon).

    Arrivals are a Poisson stream at the model's total active rate; each mark
    is drawn from the normalized restriction of the measure to the region
    chosen proportionally to its mass.  Raises if the rate is infinite (an
    untruncated infinite-activity model cannot be simulated).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rate = model.active_rate
    if math.isinf(rate):
        raise ValueError(
            "active jump rate is infinite; truncate the model before simulating"
        )
    out: list[tuple[float, float, Region]] = []
    if rate == 0.0:
        return ()
    small_frac = model.small_mass / rate
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            return tuple(out)
        region = Region.SMALL if rng.random() < small_frac else Region.TAIL
        if region is Region.SMALL:
            mark = model.sample_small_mark(rng)
        else:
            mark = model.sample_tail_mark(rng)
        out.append((t, mark, region))


def dyadic_grid(horizon: float, level: int) -> np.ndarray:
    """The 2**level + 1 dyadic points of [0, horizon].

    Computed as (k * horizon) / 2**level, which is bitwise-consistent across
    levels (power-of-two scaling is exact in binary floating point).
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    return (np.arange(2**level + 1, dtype=np.float64) * horizon) / float(2**level)


@dataclass(frozen=True)
class DrivingPath:
    horizon: float
    finest_level: int
    event_times: np.ndarray   # (n_events,)
    dw: np.ndarray            # (n_events - 1,) per-gap Wiener increments
    z_locals: np.ndarray      # (n_events - 1,) per-gap local time integrals
    w_values: np.ndarray      # (n_events,) cumulative Wiener path, W(0) = 0
    jumps: tuple[JumpEvent, ...]
    cell_edges: np.ndarray    # (2**finest_level + 1,) event index of each dyadic point
    level_dw: tuple[np.ndarray, ...]  # per level 0..finest: interval dW
    level_dz: tuple[np.ndarray, ...]  # per level 0..finest: interval dZ

    # -- lookups -----------------------------------------------------------

    def event_index(self, t: float) -> int:
        """Exact position of t in the event grid; ValueError if absent."""
        i = int(np.searchsorted(self.event_times, t))
        if i >= self.event_times.size or self.event_times[i] != t:
            raise ValueError(f"{t!r} is not an event time of this path")
        return i

    def grid(self, level: int) -> np.ndarray:
        if not 0 <= level <= self.finest_level:
            raise ValueError(f"level {level} outside 0..{self.finest_level}")
        return dyadic_grid(self.horizon, level)

    def with_jumps(self, jumps: Iterable[JumpEvent]) -> "DrivingPath":
        """Same noise, restricted jump records (the event grid, Wiener data
        and aggregation arrays are unchanged).  Used for truncation coupling."""
        kept = tuple(sorted(jumps, key=lambda j: j.time))
        for j in kept:
            if self.event_times[j.event_index] != j.time:
                raise ValueError("jump does not belong to this path")
        return replace(self, jumps=kept)

    # -- slicing -----------------------------------------------------------

    def slices(self, level: int) -> tuple[IntervalSlice, ...]:
        """The 2**level slices of the uniform dyadic grid at `level`."""
        grid = self.grid(level)
        stride = 2 ** (self.finest_level - level)
        edges = self.cell_edges[::stride]
        w_grid = self.w_values[edges]
        dws = self.level_dw[level]
        dzs = self.level_dz[level]
        by_interval: list[list[JumpEvent]] = [[] for _ in range(2**level)]
        for j in self.jumps:
            idx = int(np.searchsorted(grid, j.time, side="left")) - 1
            by_interval[idx].append(j)
        out = []
        for i in range(2**level):
            out.append(self._make_slice(
                left=float(grid[i]), right=float(grid[i + 1]),
                delta_w=float(dws[i]), delta_z=float(dzs[i]),
                w_left=float(w_grid[i]), w_right=float(w_grid[i + 1]),
                interval_jumps=by_interval[i],
            ))
        return tuple(out)

    def slice_between(self, t_left: float, t_right: float) -> IntervalSlice:
        """A single slice between two arbitrary event times (typically a grid
        point and an interior jump time); aggregates gap data directly."""
        ia, ib = self.event_index(t_left), self.event_index(t_right)
        if ib <= ia:
            raise ValueError("slice endpoints out of order")
        h = self.event_times[ia + 1:ib + 1] - self.event_times[ia:ib]
        dw = float(np.sum(self.dw[ia:ib]))
        dz = float(np.sum((self.w_values[ia:ib] - self.w_values[ia]) * h
                          + self.z_locals[ia:ib]))
        interval_jumps = [j for j in self.jumps if t_left < j.time <= t_right]
        return self._make_slice(
            left=float(t_left), right=float(t_right),
            delta_w=dw, delta_z=dz,
            w_left=float(self.w_values[ia]), w_right=float(self.w_values[ib]),
            interval_jumps=interval_jumps,
        )

    def _make_slice(self, left, right, delta_w, delta_z, w_left, w_right,
                    interval_jumps) -> IntervalSlice:
        slice_jumps: list[SliceJump] = []
        next_small = (right, w_right)
        next_tail = (right, w_right)
        for j in reversed(interval_jumps):
            wj = float(self.w_values[j.event_index])
            slice_jumps.append(SliceJump(
                time=j.time, mark=j.mark, region=j.region, w_value=wj,
                next_small_time=next_small[0], next_tail_time=next_tail[0],
                w_next_small=next_small[1], w_next_tail=next_tail[1],
            ))
            if j.region is Region.SMALL:
                next_small = (j.time, wj)
            else:
                next_tail = (j.time, wj)
        slice_jumps.reverse()
        return IntervalSlice(left=left, right=right, delta=right - left,
                             delta_w=delta_w, delta_z=delta_z, w_left=w_left,
                             jumps=tuple(slice_jumps))


def _assemble(horizon: float, finest_level: int, event_times: np.ndarray,
              dw: np.ndarray, z_locals: np.ndarray,
              raw_jumps: tuple[tuple[float, float, Region], ...]) -> DrivingPath:
    """Derive cumulative and per-level aggregation data from gap-level noise."""
    w_values = np.concatenate(([0.0], np.cumsum(dw)))
    dyad = dyadic_grid(horizon, finest_level)
    cell_edges = np.searchsorted(event_times, dyad)
    if np.any(event_times[cell_edges] != dyad):
        raise ValueError("event grid does not contain the dyadic grid")
    jumps = tuple(JumpEvent(time=t, mark=m, region=r,
                            event_index=int(np.searchsorted(event_times, t)))
                  for t, m, r in raw_jumps)
    for j in jumps:
        if event_times[j.event_index] != j.time:
            raise ValueError("jump time missing from the event grid")

    # per finest-cell aggregates, then pairwise aggregation up the levels
    starts = cell_edges[:-1]
    h = np.diff(event_times)
    counts = np.diff(cell_edges)
    w_cell_left = np.repeat(w_values[starts], counts)
    contrib = (w_values[:-1] - w_cell_left) * h + z_locals
    cell_dw = np.add.reduceat(dw, starts)
    cell_dz = np.add.reduceat(contrib, starts)

    level_dw: list[np.ndarray] = [np.empty(0)] * (finest_level + 1)
    level_dz: list[np.ndarray] = [np.empty(0)] * (finest_level + 1)
    level_dw[finest_level] = cell_dw
    level_dz[finest_level] = cell_dz
    for lvl in range(finest_level - 1, -1, -1):
        cdw, cdz = level_dw[lvl + 1], level_dz[lvl + 1]
        child_width = horizon / float(2 ** (lvl + 1))
        level_dw[lvl] = cdw[0::2] + cdw[1::2]
        level_dz[lvl] = cdz[0::2] + cdz[1::2] + cdw[0::2] * child_width
    return DrivingPath(horizon=horizon, finest_level=finest_level,
                       event_times=event_times, dw=dw, z_locals=z_locals,
                       w_values=w_values, jumps=jumps, cell_edges=cell_edges,
                       level_dw=tuple(level_dw), level_dz=tuple(level_dz))


def build_path(horizon: float, finest_level: int, model: LevyModel,
               rng: np.random.Generator) -> DrivingPath:
    """Simulate one driving path: jump stream first, then the Wiener data on
    the union of the finest dyadic grid and the jump times.

    A jump time that collides exactly with a dyadic point (or an earlier jump)
    is nudged by one ulp and the nudge is logged; collisions have probability
    zero but must not corrupt the event grid.
    """
    if finest_level < 0:
        raise ValueError("finest_level must be nonnegative")
    raw = simulate_events(horizon, model, rng)
    dyad = dyadic_grid(horizon, finest_level)
    taken = set(dyad.tolist())
    fixed = []
    for t, mark, region in raw:
        t_adj, direction = t, np.inf
        while t_adj in taken:
            t_adj = float(np.nextafter(t_adj, direction))
            if t_adj >= horizon:  # ran into the endpoint; walk down instead
                t_adj, direction = t, -np.inf
        if t_adj != t:
            logger.warning("jump time %r collided with the grid; nudged to %r", t, t_adj)
        taken.add(t_adj)
        fixed.append((t_adj, mark, region))
    fixed.sort(key=lambda e: e[0])
    jump_times = np.array([t for t, _, _ in fixed], dtype=np.float64)
    event_times = np.sort(np.concatenate((dyad, jump_times)))
    gaps = np.diff(event_times)
    dw, z_locals = sample_dw_dz(gaps, rng)
    return _assemble(horizon, finest_level, event_times, dw, z_locals, tuple(fixed))
