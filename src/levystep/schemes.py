"""Strong Ito-Taylor steppers for the linear jump-diffusion

    dY = drift * Y dt + diffusion * Y dW
         + small_jump * Y p(x) (compensated small-jump measure)(dt, dx)
         + tail_jump  * Y q(x) (tail jump measure)(dt, dx).

A stepper consumes one IntervalSlice (it never samples noise itself) and
advances Y across it.  Both steppers are linear in Y, so each step is a
multiplicative factor; `euler_factor` / `milstein_factor` compute that factor,
`step_factor` picks one by scheme and `run_scheme` applies it slice by slice.

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

The lookahead decomposition of the Wiener/time inner integrals uses each
jump's next-same-region jump time capped at the slice end (SliceJump fields).
`I32Compensator` selects between two published conventions for the I32
time-compensator; TAIL_RUNNING_SUM integrates the running tail q-sum over
time and is the one consistent with the term's iterated-integral definition,
SMALL_RUNNING_SUM accumulates q over small-region marks instead and is kept
for comparison.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .common import Region
from .levy import LevyModel, moment
from .path import DrivingPath, IntervalSlice, dyadic_grid


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


@dataclass(frozen=True)
class LinearCoefficients:
    """Scalar coefficients of the linear model plus the amplitude moments the
    compensated terms need over the *active* small region (the full ball for
    a finite-activity model, the disc for a truncated one)."""

    drift: float
    diffusion: float
    small_jump: float
    tail_jump: float
    p: Callable[[float], float]
    q: Callable[[float], float]
    p_integral: float      # integral of p over the active small region
    p_sq_integral: float   # integral of p^2 over the active small region

    def __post_init__(self) -> None:
        if not math.isfinite(self.p_integral) or not math.isfinite(self.p_sq_integral):
            raise ValueError("amplitude moments over the active small region must be finite")

    @classmethod
    def for_model(cls, drift: float, diffusion: float, small_jump: float,
                  tail_jump: float, model: LevyModel) -> "LinearCoefficients":
        return cls(drift=drift, diffusion=diffusion, small_jump=small_jump,
                   tail_jump=tail_jump, p=model.p, q=model.q,
                   p_integral=moment(model, 1),
                   p_sq_integral=moment(model, 2))


def euler_factor(slc: IntervalSlice, coef: LinearCoefficients) -> float:
    sum_p = 0.0
    sum_q = 0.0
    for j in slc.jumps:
        if j.region is Region.SMALL:
            sum_p += coef.p(j.mark)
        else:
            sum_q += coef.q(j.mark)
    return (1.0
            + coef.drift * slc.delta
            + coef.diffusion * slc.delta_w
            + coef.small_jump * (sum_p - slc.delta * coef.p_integral)
            + coef.tail_jump * sum_q)


def milstein_terms(y: float, slc: IntervalSlice, coef: LinearCoefficients,
                   i32_compensator: I32Compensator = DEFAULT_I32) -> dict[str, float]:
    """All thirteen order-1 terms over one slice, keyed by multiindex text.

    The keys are the digit words of the integrals ('0', '1', '2', '3' and the
    nine two-digit words); summing the values and adding y gives the Milstein
    update.  Empty jump sums contribute zero.
    """
    b, s = coef.drift, coef.diffusion
    cf, cg = coef.small_jump, coef.tail_jump
    m1 = coef.p_integral
    delta, dw, dz = slc.delta, slc.delta_w, slc.delta_z
    w0 = slc.w_left

    sum_p = 0.0            # p over small jumps
    sum_q = 0.0            # q over tail jumps
    sum_p_wincr = 0.0      # p * (W at jump - W at left), small jumps
    sum_q_wincr = 0.0      # q * (W at jump - W at left), tail jumps
    i21_lead = 0.0         # running small p-sum (k<=n) * Wiener gap to next small
    i31_lead = 0.0         # running tail q-sum (k<=n) * Wiener gap to next tail
    i22_lead = 0.0         # strict-prior small p-sum * p at small jump
    i22_time = 0.0         # (jump time - left) * p at small jump
    i22_hold = 0.0         # running small p-sum (k<=n) * hold time to next small
    i33_lead = 0.0         # strict-prior tail q-sum * q at tail jump
    i32_lead = 0.0         # strict-prior tail q-sum * p at small jump
    i32_hold_tail = 0.0    # running tail q-sum (k<=n) * hold time to next tail
    i32_hold_small = 0.0   # running small q-sum (k<=n) * hold time to next small
    i23_lead = 0.0         # strict-prior small p-sum * q at tail jump
    i23_time = 0.0         # (jump time - left) * q at tail jump

    acc_p = 0.0            # p-sum over small jumps seen so far
    acc_q = 0.0            # q-sum over tail jumps seen so far
    acc_q_small = 0.0      # q-sum over *small* jumps (I32 variant only)
    for j in slc.jumps:
        if j.region is Region.SMALL:
            pj = coef.p(j.mark)
            sum_p += pj
            sum_p_wincr += pj * (j.w_value - w0)
            i22_lead += acc_p * pj
            i22_time += (j.time - slc.left) * pj
            i32_lead += acc_q * pj
            acc_p += pj
            acc_q_small += coef.q(j.mark)
            i21_lead += acc_p * (j.w_next_small - j.w_value)
            i22_hold += acc_p * (j.next_small_time - j.time)
            i32_hold_small += acc_q_small * (j.next_small_time - j.time)
        else:
            qj = coef.q(j.mark)
            sum_q += qj
            sum_q_wincr += qj * (j.w_value - w0)
            i33_lead += acc_q * qj
            i23_lead += acc_p * qj
            i23_time += (j.time - slc.left) * qj
            acc_q += qj
            i31_lead += acc_q * (j.w_next_tail - j.w_value)
            i32_hold_tail += acc_q * (j.next_tail_time - j.time)

    if i32_compensator is I32Compensator.TAIL_RUNNING_SUM:
        i32_comp = i32_hold_tail
    else:
        i32_comp = i32_hold_small

    return {
        "0": b * y * delta,
        "1": s * y * dw,
        "2": cf * y * (sum_p - delta * m1),
        "3": cg * y * sum_q,
        "11": 0.5 * s * s * y * (dw * dw - delta),
        "12": cf * s * y * (sum_p_wincr - m1 * dz),
        "13": cg * s * y * sum_q_wincr,
        "21": cf * s * y * (i21_lead - m1 * (delta * dw - dz)),
        "31": cg * s * y * i31_lead,
        "22": cf * cf * y * (i22_lead - m1 * i22_time - m1 * i22_hold
                             + 0.5 * m1 * m1 * delta * delta),
        "23": cf * cg * y * (i23_lead - m1 * i23_time),
        "32": cf * cg * y * (i32_lead - m1 * i32_comp),
        "33": cg * cg * y * i33_lead,
    }


def milstein_factor(slc: IntervalSlice, coef: LinearCoefficients,
                    i32_compensator: I32Compensator = DEFAULT_I32) -> float:
    return 1.0 + sum(milstein_terms(1.0, slc, coef, i32_compensator).values())


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray
    scheme: Scheme

    @property
    def strong_order(self) -> float:
        return self.scheme.strong_order


def step_factor(scheme: Scheme, slc: IntervalSlice, coef: LinearCoefficients,
                i32_compensator: I32Compensator = DEFAULT_I32) -> float:
    """The multiplicative one-slice update of either scheme (used for grid
    slices and for partial slices ending at an interior jump time)."""
    if scheme is Scheme.EULER:
        return euler_factor(slc, coef)
    return milstein_factor(slc, coef, i32_compensator)


def run_scheme(scheme: Scheme, grid: np.ndarray, path: DrivingPath,
               coef: LinearCoefficients, y0: float,
               i32_compensator: I32Compensator = DEFAULT_I32) -> Trajectory:
    """Advance the scheme across every slice of `grid`, which must be the
    path's uniform dyadic grid at some level 0..path.finest_level."""
    grid = np.asarray(grid, dtype=np.float64)
    level = (grid.size - 1).bit_length() - 1  # a level-L grid has 2**L + 1 points
    if not (0 <= level <= path.finest_level
            and np.array_equal(grid, dyadic_grid(path.horizon, level))):
        raise ValueError("grid must be the path's uniform dyadic grid at a level "
                         f"in 0..{path.finest_level}")
    values = np.empty(grid.size)
    values[0] = y0
    y = y0
    for i, slc in enumerate(path.slices(level)):
        y = y * step_factor(scheme, slc, coef, i32_compensator)
        values[i + 1] = y
    return Trajectory(times=grid, values=values, scheme=scheme)
