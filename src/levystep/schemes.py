"""Strong Ito-Taylor steppers for the linear jump-diffusion

    dY = drift * Y dt + diffusion * Y dW
         + small_jump * Y p(x) (compensated small-jump measure)(dt, dx)
         + tail_jump  * Y q(x) (tail jump measure)(dt, dx).

A stepper consumes a `Slices` batch (it never samples noise itself) and
returns one result per slice, computed with whole-array operations.  Both
steppers are linear in Y, so each step is a multiplicative factor;
`euler_factor` / `milstein_factor` compute the factors of a batch,
`step_factor` picks one by scheme and `run_scheme` chains the factors of a
ladder level into a trajectory.

Conventions for the Milstein double sums (jumps of the slice are indexed in
time order; `small n` / `tail n` means the outer sum runs over that region's
jumps only; sums with an empty index range are zero):

    term  outer integrator      inner accumulation            inner range
    I21   Wiener                p over small jumps            k <= n
    I31   Wiener                q over tail jumps             k <= n
    I22   compensated small     p over small jumps            k <  n (lead)
                                 ... time-compensator uses    k <= n
    I33   tail                  q over tail jumps             k <  n
    I32   compensated small     q over tail jumps             k <  n (lead)
    I23   tail                  p over small jumps            k <  n (lead)

The Wiener and time integrals of a running jump sum over a slice [a, b] are
taken by summation by parts: the running small p-sum integrates against dW
to the sum over small jumps of p * (W(b) - W(t_n)), and against time to the
sum of p * (b - t_n); likewise for the tail q-sum.  The leads pair each jump
with the running sums strictly before it.  All sums are formed left to right
in time order.
`I32Compensator` selects between two published conventions for the I32
time-compensator; TAIL_RUNNING_SUM integrates the running tail q-sum over
time and is the one consistent with the term's iterated-integral definition,
SMALL_RUNNING_SUM accumulates q over small-region marks instead and is kept
for comparison.  The choice is part of the scheme's coefficients: it rides on
`LinearCoefficients.i32`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .levy import LevyModel, moment
from .path import DrivingPath, Slices, dyadic_grid


class Scheme(enum.Enum):
    EULER = "euler"
    MILSTEIN = "milstein"

    @property
    def strong_order(self) -> float:
        return 0.5 if self is Scheme.EULER else 1.0


class I32Compensator(enum.Enum):
    TAIL_RUNNING_SUM = "tail_running_sum"
    SMALL_RUNNING_SUM = "small_running_sum"


DEFAULT_I32 = I32Compensator.TAIL_RUNNING_SUM

TERM_KEYS = ("0", "1", "2", "3", "11", "12", "13", "21", "31", "22", "23", "32", "33")


@dataclass(frozen=True)
class LinearCoefficients:
    """Scalar coefficients of the linear model plus the amplitude moment the
    compensated terms need over the *active* small region (the full ball for
    a finite-activity model, the disc for a truncated one)."""

    drift: float
    diffusion: float
    small_jump: float
    tail_jump: float
    p: Callable[[np.ndarray], np.ndarray]   # applied to whole arrays of marks
    q: Callable[[np.ndarray], np.ndarray]
    p_integral: float      # integral of p over the active small region
    i32: I32Compensator = DEFAULT_I32  # the I32 time-compensator convention

    def __post_init__(self) -> None:
        if not math.isfinite(self.p_integral):
            raise ValueError("the p moment over the active small region must be finite")

    @classmethod
    def for_model(cls, drift: float, diffusion: float, small_jump: float,
                  tail_jump: float, model: LevyModel) -> "LinearCoefficients":
        return cls(drift=drift, diffusion=diffusion, small_jump=small_jump,
                   tail_jump=tail_jump, p=model.p, q=model.q,
                   p_integral=moment(model, 1))


def euler_factor(slices: Slices, coef: LinearCoefficients) -> np.ndarray:
    n, sid, small = slices.left.size, slices.slice_id, slices.small
    # per-slice sums of p over small jumps and q over tail jumps, in time order
    sum_p = np.bincount(sid, np.where(small, coef.p(slices.mark), 0.0), minlength=n)
    sum_q = np.bincount(sid, np.where(small, 0.0, coef.q(slices.mark)), minlength=n)
    return (1.0
            + coef.drift * slices.delta
            + coef.diffusion * slices.dw
            + coef.small_jump * (sum_p - slices.delta * coef.p_integral)
            + coef.tail_jump * sum_q)


def _jump_sums(slices: Slices, coef: LinearCoefficients) -> np.ndarray:
    """Per slice, the sums over its jumps that the order-1 terms need, one
    row each: sum_p, sum_q, sum_p_wincr, sum_q_wincr, i21_lead, i31_lead,
    i22_time, i23_time, i22_hold, i32_hold_tail, i32_hold_small, i22_lead,
    i33_lead, i32_lead, i23_lead (see the module docstring).

    Every sum is formed from 0.0 left to right in time order, as a walk of
    the slice forms it: jump j goes to row slice_id[j], column (its rank in
    the slice) + 1 of a zero-padded matrix whose cumulative sums along the
    row are the running sums, and whose last column holds the totals.
    """
    n, sid, small = slices.left.size, slices.slice_id, slices.small
    if not sid.size:
        return np.zeros((15, n))
    q_mark = coef.q(slices.mark)
    # p at small jumps, q at tail jumps, q at small jumps; zero elsewhere
    amps = np.where(np.array((small, ~small, small)),
                    np.array((coef.p(slices.mark), q_mark, q_mark)), 0.0)
    pq = amps[:2]
    at = np.array((slices.time, slices.w))
    ends = np.array((slices.left, slices.w_left, slices.right, slices.w_right))[:, sid]
    since, wincr = at - ends[:2]        # from the slice's left end to the jump
    to_end, w_to_end = ends[2:] - at    # from the jump to the slice's right end
    per_jump = np.concatenate((
        pq,                                                 # sum_p, sum_q
        # sum_p_wincr, sum_q_wincr, i21_lead, i31_lead, i22_time, i23_time
        (np.array((wincr, w_to_end, since))[:, None] * pq).reshape(6, -1),
        amps * to_end))                                     # i22_hold, i32_hold_*
    col = np.arange(1, sid.size + 1) - sid.searchsorted(sid)
    padded = np.zeros((per_jump.shape[0], n, int(col.max()) + 1))
    padded[:, sid, col] = per_jump
    run = padded.cumsum(axis=2)
    # the leads pair each jump's p (or q) with the p-sum (or q-sum) strictly
    # before it: p.P (i22), q.Q (i33), p.Q (i32), q.P (i23)
    leads = (padded[[0, 1, 0, 1], :, 1:] * run[[0, 1, 1, 0], :, :-1]).cumsum(axis=2)
    return np.concatenate((run[:, :, -1], leads[:, :, -1]))


def _term_rows(slices: Slices, coef: LinearCoefficients) -> np.ndarray:
    """The thirteen terms at y = 1, one row per key of TERM_KEYS."""
    b, s = coef.drift, coef.diffusion
    cf, cg = coef.small_jump, coef.tail_jump
    m1 = coef.p_integral
    delta, dw, dz = slices.delta, slices.dw, slices.dz
    (sum_p, sum_q, sum_p_wincr, sum_q_wincr, i21_lead, i31_lead, i22_time, i23_time,
     i22_hold, i32_hold_tail, i32_hold_small, i22_lead, i33_lead, i32_lead,
     i23_lead) = _jump_sums(slices, coef)
    i32_comp = i32_hold_tail if coef.i32 is I32Compensator.TAIL_RUNNING_SUM else i32_hold_small
    # six terms are (a jump sum) - m1 * (its compensator); 22 has two more parts
    t2, t12, t21, t22, t23, t32 = (
        np.array((sum_p, sum_p_wincr, i21_lead, i22_lead, i23_lead, i32_lead))
        - m1 * np.array((delta, dz, delta * dw - dz, i22_time, i23_time, i32_comp)))
    scale = np.array([b, s, cf, cg, 0.5 * s * s, cf * s, cg * s, cf * s, cg * s,
                      cf * cf, cf * cg, cf * cg, cg * cg])
    return scale[:, None] * np.array((
        delta,                                                        # 0
        dw,                                                           # 1
        t2,                                                           # 2
        sum_q,                                                        # 3
        dw * dw - delta,                                              # 11
        t12,                                                          # 12
        sum_q_wincr,                                                  # 13
        t21,                                                          # 21
        i31_lead,                                                     # 31
        t22 - m1 * i22_hold + 0.5 * m1 * m1 * delta * delta,          # 22
        t23,                                                          # 23
        t32,                                                          # 32
        i33_lead))                                                    # 33


def milstein_terms(y: float, slices: Slices,
                   coef: LinearCoefficients) -> dict[str, np.ndarray]:
    """All thirteen order-1 terms over every slice, keyed by multiindex text.

    The keys are the digit words of the integrals ('0', '1', '2', '3' and the
    nine two-digit words); each value is an array over the slices, and
    summing the values and adding y gives the Milstein update from state y.
    Empty jump sums contribute zero.
    """
    return dict(zip(TERM_KEYS, y * _term_rows(slices, coef)))


def milstein_factor(slices: Slices, coef: LinearCoefficients) -> np.ndarray:
    # the terms added in key order, left to right
    return 1.0 + np.cumsum(_term_rows(slices, coef), axis=0)[-1]


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray


def step_factor(scheme: Scheme, slices: Slices, coef: LinearCoefficients) -> np.ndarray:
    """The multiplicative one-slice update of either scheme, per slice (used
    for grid slices and for partial slices ending at an interior jump time)."""
    if scheme is Scheme.EULER:
        return euler_factor(slices, coef)
    return milstein_factor(slices, coef)


def run_scheme(scheme: Scheme, grid: np.ndarray, path: DrivingPath,
               coef: LinearCoefficients, y0: float) -> Trajectory:
    """Advance the scheme across every slice of `grid`, which must be the
    path's uniform dyadic grid at some level 0..path.finest_level."""
    grid = np.asarray(grid, dtype=np.float64)
    level = (grid.size - 1).bit_length() - 1  # a level-L grid has 2**L + 1 points
    if not (0 <= level <= path.finest_level
            and np.array_equal(grid, dyadic_grid(path.horizon, level))):
        raise ValueError("grid must be the path's uniform dyadic grid at a level "
                         f"in 0..{path.finest_level}")
    factors = step_factor(scheme, path.slices(level), coef)
    # the running product y0 * f0 * f1 * ..., formed left to right
    values = np.cumprod(np.concatenate(([y0], factors)))
    return Trajectory(times=grid, values=values)
