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


@dataclass(frozen=True, eq=False)
class Slices:
    """A batch of slices of one path, as flat arrays.

    Per slice k (arrays of length n): the endpoints, their distance, the
    Wiener increment dW and time integral dZ over the slice, and W at both
    ends.  Per jump inside a slice (arrays of length K, ordered by slice and
    then by time; slice k holds the jumps with left_k < time <= right_k):
    time, mark, region flag, W at the jump and the owning slice.  Slices may
    overlap, in which case a jump appears once for every slice holding it.
    """

    left: np.ndarray
    right: np.ndarray
    delta: np.ndarray
    dw: np.ndarray
    dz: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray
    time: np.ndarray
    mark: np.ndarray
    small: np.ndarray     # True for a small-region jump, False for a tail jump
    w: np.ndarray
    slice_id: np.ndarray  # nondecreasing


def simulate_events(horizon: float, model: LevyModel, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival times, marks and small-region flags (False for the tail) of
    the active jump stream on (0, horizon), as arrays in arrival order.

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
    times: list[float] = []
    marks: list[float] = []
    small: list[bool] = []
    if rate > 0.0:
        small_frac = model.small_mass / rate
        t = rng.exponential(1.0 / rate)
        while t < horizon:
            is_small = rng.random() < small_frac
            marks.append(model.sample_small_mark(rng) if is_small
                         else model.sample_tail_mark(rng))
            times.append(t)
            small.append(is_small)
            t += rng.exponential(1.0 / rate)
    return (np.array(times, dtype=np.float64), np.array(marks, dtype=np.float64),
            np.array(small, dtype=bool))


def dyadic_grid(horizon: float, level: int) -> np.ndarray:
    """The 2**level + 1 dyadic points of [0, horizon].

    Computed as (k * horizon) / 2**level, which is bitwise-consistent across
    levels (power-of-two scaling is exact in binary floating point).
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    return (np.arange(2**level + 1, dtype=np.float64) * horizon) / float(2**level)


@dataclass(frozen=True, eq=False)
class DrivingPath:
    horizon: float
    finest_level: int
    event_times: np.ndarray   # (n_events,)
    dw: np.ndarray            # (n_events - 1,) per-gap Wiener increments
    z_locals: np.ndarray      # (n_events - 1,) per-gap local time integrals
    w_values: np.ndarray      # (n_events,) cumulative Wiener path, W(0) = 0
    jump_times: np.ndarray    # (n_jumps,) increasing
    jump_marks: np.ndarray    # (n_jumps,)
    jump_small: np.ndarray    # (n_jumps,) bool: small region (else tail)
    jump_events: np.ndarray   # (n_jumps,) event index of each jump time
    jump_cells: np.ndarray    # (n_jumps,) finest dyadic cell holding each jump
    cell_edges: np.ndarray    # (2**finest_level + 1,) event index of each dyadic point
    level_dw: tuple[np.ndarray, ...]  # per level 0..finest: interval dW
    level_dz: tuple[np.ndarray, ...]  # per level 0..finest: interval dZ

    @property
    def jumps(self) -> tuple[JumpEvent, ...]:
        """The jumps as records, in time order (built on each access)."""
        return tuple(
            JumpEvent(time=float(t), mark=float(m),
                      region=Region.SMALL if s else Region.TAIL, event_index=int(e))
            for t, m, s, e in zip(self.jump_times, self.jump_marks,
                                  self.jump_small, self.jump_events))

    # -- lookups -----------------------------------------------------------

    def event_index(self, t):
        """Exact position of t (a float or an array of them) in the event
        grid; ValueError if any is absent."""
        t = np.asarray(t, dtype=np.float64)
        i = np.minimum(self.event_times.searchsorted(t), self.event_times.size - 1)
        if (self.event_times[i] != t).any():
            raise ValueError(f"{t!r} is not an event time of this path")
        return i if i.ndim else int(i)

    def grid_events(self, level: int) -> np.ndarray:
        """Event indices of the 2**level + 1 dyadic points at `level`."""
        if not 0 <= level <= self.finest_level:
            raise ValueError(f"level {level} outside 0..{self.finest_level}")
        return self.cell_edges[::1 << (self.finest_level - level)]

    def grid(self, level: int) -> np.ndarray:
        # bit-equal to dyadic_grid(horizon, level): _assemble checks the edges
        return self.event_times[self.grid_events(level)]

    def with_jumps(self, keep: np.ndarray) -> "DrivingPath":
        """Same noise, only the jumps where the boolean mask `keep` is set
        (the event grid, Wiener data and aggregation arrays are unchanged).
        Used for truncation coupling."""
        keep = np.asarray(keep)
        if keep.dtype != np.bool_ or keep.shape != self.jump_times.shape:
            raise ValueError(f"keep must be a boolean mask of shape {self.jump_times.shape}")
        return replace(self, jump_times=self.jump_times[keep],
                       jump_marks=self.jump_marks[keep], jump_small=self.jump_small[keep],
                       jump_events=self.jump_events[keep], jump_cells=self.jump_cells[keep])

    # -- slicing -----------------------------------------------------------

    def slices(self, level: int) -> Slices:
        """The 2**level slices of the uniform dyadic grid at `level`."""
        edges = self.grid_events(level)
        return self._batch(edges[:-1], edges[1:], self.level_dw[level],
                           self.level_dz[level], slice(None),
                           self.jump_cells >> (self.finest_level - level))

    def slice_between(self, ia, ib) -> Slices:
        """One slice from event ia[k] to event ib[k] for every k (signed
        integer event indices with 0 <= ia < ib < n_events, typically a grid
        point and an interior jump); aggregates gap data directly."""
        ia, ib, n = np.atleast_1d(ia), np.atleast_1d(ib), self.event_times.size
        if not (ia.dtype.kind == ib.dtype.kind == "i" and ia.ndim == 1
                and ia.shape == ib.shape and np.all((0 <= ia) & (ia < ib) & (ib < n))):
            raise ValueError("slice endpoints must be integer event-index arrays of "
                             f"one shape with 0 <= ia < ib < {n}")
        lengths = ib - ia
        gaps = _concat_ranges(ia, lengths)
        h = self.event_times[gaps + 1] - self.event_times[gaps]
        contrib = (self.w_values[gaps] - np.repeat(self.w_values[ia], lengths)) * h \
            + self.z_locals[gaps]
        # np.add.reduceat adds a segment as first + pairwise(rest); a leading
        # 0.0 per segment makes it the pairwise sum np.sum gives, bit for bit
        starts = np.cumsum(lengths + 1) - (lengths + 1)
        slots = np.arange(gaps.size) + np.repeat(np.arange(ia.size) + 1, lengths)
        padded = np.zeros(gaps.size + ia.size)
        padded[slots] = self.dw[gaps]
        dw = np.add.reduceat(padded, starts)
        padded[slots] = contrib
        dz = np.add.reduceat(padded, starts)
        first = np.searchsorted(self.jump_events, ia, side="right")
        counts = np.searchsorted(self.jump_events, ib, side="right") - first
        return self._batch(ia, ib, dw, dz, _concat_ranges(first, counts),
                           np.repeat(np.arange(ia.size), counts))

    def _batch(self, ia, ib, dw, dz, held, slice_id) -> Slices:
        """The slices from events ia[k] to ib[k] with their dW and dZ, holding
        the jumps `held` (an index or a slice into the jump arrays)."""
        left, right = self.event_times[ia], self.event_times[ib]
        return Slices(left=left, right=right, delta=right - left, dw=dw, dz=dz,
                      w_left=self.w_values[ia], w_right=self.w_values[ib],
                      time=self.jump_times[held], mark=self.jump_marks[held],
                      small=self.jump_small[held],
                      w=self.w_values[self.jump_events[held]], slice_id=slice_id)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[k], ..., starts[k] + counts[k] - 1 for every k, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


def _assemble(horizon: float, finest_level: int, dyad: np.ndarray,
              event_times: np.ndarray, gaps: np.ndarray, dw: np.ndarray,
              z_locals: np.ndarray, jump_times: np.ndarray, jump_marks: np.ndarray,
              jump_small: np.ndarray) -> DrivingPath:
    """Derive cumulative and per-level aggregation data from gap-level noise
    (`dyad` is the finest dyadic grid, `gaps` the event spacings)."""
    w_values = np.concatenate(([0.0], np.cumsum(dw)))
    cell_edges = event_times.searchsorted(dyad)
    if (event_times[cell_edges] != dyad).any():
        raise ValueError("event grid does not contain the dyadic grid")
    jump_events = event_times.searchsorted(jump_times)
    if (event_times[jump_events] != jump_times).any():
        raise ValueError("jump time missing from the event grid")
    jump_cells = dyad.searchsorted(jump_times) - 1

    # per finest-cell aggregates, then pairwise aggregation up the levels
    starts = cell_edges[:-1]
    counts = cell_edges[1:] - starts
    w_cell_left = np.repeat(w_values[starts], counts)
    contrib = (w_values[:-1] - w_cell_left) * gaps + z_locals
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
                       w_values=w_values, jump_times=jump_times,
                       jump_marks=jump_marks, jump_small=jump_small,
                       jump_events=jump_events, jump_cells=jump_cells,
                       cell_edges=cell_edges, level_dw=tuple(level_dw),
                       level_dz=tuple(level_dz))


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
    """Simulate one driving path: jump stream first, then the Wiener data on
    the union of the finest dyadic grid and the jump times.

    A jump time that collides exactly with a dyadic point (or an earlier jump)
    is nudged by one ulp and the nudge is logged; collisions have probability
    zero but must not corrupt the event grid.
    """
    if finest_level < 0:
        raise ValueError("finest_level must be nonnegative")
    jump_times, jump_marks, jump_small = simulate_events(horizon, model, rng)
    dyad = dyadic_grid(horizon, finest_level)
    event_times = np.sort(np.concatenate((dyad, jump_times)))
    gaps = event_times[1:] - event_times[:-1]
    if not gaps.all():  # a jump time on a dyadic point or on an earlier jump
        jump_times = _nudged(jump_times, dyad, horizon)
        order = np.argsort(jump_times, kind="stable")
        jump_times, jump_marks, jump_small = \
            jump_times[order], jump_marks[order], jump_small[order]
        event_times = np.sort(np.concatenate((dyad, jump_times)))
        gaps = event_times[1:] - event_times[:-1]
    dw, z_locals = sample_dw_dz(gaps, rng)
    return _assemble(horizon, finest_level, dyad, event_times, gaps, dw, z_locals,
                     jump_times, jump_marks, jump_small)
