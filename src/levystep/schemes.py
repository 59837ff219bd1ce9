"""Strong Ito-Taylor steppers for the linear jump-diffusion

    dY = drift * Y dt + diffusion * Y dW
         + small_jump * Y p(x) (compensated small-jump measure)(dt, dx)
         + tail_jump  * Y q(x) (tail jump measure)(dt, dx).

A stepper consumes a `Slices` batch (it never samples noise itself) and
returns one result per slice, computed with whole-array operations.  Both
steppers are linear in Y, so each step is a multiplicative factor: Euler
keeps the four order-1/2 terms ('0', '1', '2', '3') of the Ito-Taylor
expansion and Milstein adds its nine order-1 terms.  `step_factor` forms the
factors of a batch, `chain` turns the factors of consecutive slices into
values and `run_scheme` does both for a ladder level.

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
The I32 time-compensator integrates the running tail q-sum over time, as the
term's iterated-integral definition has it.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .levy import LevyModel, moment
from .path import DrivingPath, Slices


class Scheme(enum.Enum):
    EULER = "euler"
    MILSTEIN = "milstein"

    @property
    def strong_order(self) -> float:
        return 0.5 if self is Scheme.EULER else 1.0


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

    def __post_init__(self) -> None:
        if not math.isfinite(self.p_integral):
            raise ValueError("the p moment over the active small region must be finite")

    @classmethod
    def for_model(cls, drift: float, diffusion: float, small_jump: float,
                  tail_jump: float, model: LevyModel) -> "LinearCoefficients":
        return cls(drift=drift, diffusion=diffusion, small_jump=small_jump,
                   tail_jump=tail_jump, p=model.p, q=model.q,
                   p_integral=moment(model, 1))


def _half_terms(slices: Slices, coef: LinearCoefficients) -> tuple[np.ndarray, ...]:
    """The four order-1/2 terms at y = 1, keys '0', '1', '2', '3'."""
    n, sid, small = slices.left.size, slices.slice_id, slices.small
    # per-slice sums of p over small jumps and q over tail jumps, in time order
    sum_p = np.bincount(sid, np.where(small, coef.p(slices.mark), 0.0), minlength=n)
    sum_q = np.bincount(sid, np.where(small, 0.0, coef.q(slices.mark)), minlength=n)
    return (coef.drift * slices.delta,
            coef.diffusion * slices.dw,
            coef.small_jump * (sum_p - slices.delta * coef.p_integral),
            coef.tail_jump * sum_q)


def _jump_sums(slices: Slices, coef: LinearCoefficients) -> np.ndarray:
    """Per slice, the sums over its jumps that the order-1 terms need, one
    row each: sum_p_wincr, sum_q_wincr, i21_lead, i31_lead, i22_time,
    i23_time, i22_hold, i32_hold, i22_lead, i33_lead, i32_lead, i23_lead (see
    the module docstring).

    Every sum is formed from 0.0 left to right in time order, as a walk of
    the slice forms it: the slices holding jumps advance their running sums
    together, one jump rank at a time, so the work and memory go with the
    jumps the slices hold, whatever the largest count in the batch.
    """
    n, sid, small = slices.left.size, slices.slice_id, slices.small
    if not sid.size:
        return np.zeros((12, n))
    # p at small jumps, q at tail jumps; zero elsewhere
    pq = np.where(np.array((small, ~small)),
                  np.array((coef.p(slices.mark), coef.q(slices.mark))), 0.0)
    at = np.array((slices.time, slices.w))
    ends = np.array((slices.left, slices.w_left, slices.right, slices.w_right))[:, sid]
    since, wincr = at - ends[:2]        # from the slice's left end to the jump
    to_end, w_to_end = ends[2:] - at    # from the jump to the slice's right end
    per_jump = np.concatenate((
        pq,                                                 # P, Q (for the leads)
        # sum_p_wincr, sum_q_wincr, i21_lead, i31_lead, i22_time, i23_time
        (np.array((wincr, w_to_end, since))[:, None] * pq).reshape(6, -1),
        pq * to_end))                                       # i22_hold, i32_hold
    held, first, count = np.unique(sid, return_index=True, return_counts=True)
    # by decreasing jump count, so the slices holding a jump of rank r are a prefix
    order = np.argsort(-count, kind="stable")
    held, first, count = held[order], first[order], count[order]
    run = np.zeros((per_jump.shape[0], held.size))
    leads = np.zeros((4, held.size))
    for rank, m in enumerate(np.searchsorted(-count, -np.arange(count[0]), "left").tolist()):
        x = per_jump[:, first[:m] + rank]
        # the leads pair each jump's p (or q) with the p-sum (or q-sum)
        # strictly before it: p.P (i22), q.Q (i33), p.Q (i32), q.P (i23)
        leads[:, :m] += x[[0, 1, 0, 1]] * run[[0, 1, 1, 0], :m]
        run[:, :m] += x
    out = np.zeros((12, n))
    out[:, held] = np.concatenate((run[2:], leads))
    return out


def _order_one_terms(slices: Slices, coef: LinearCoefficients):
    """The nine order-1 terms at y = 1, one array over the slices at a time,
    in TERM_KEYS order."""
    s, cf, cg = coef.diffusion, coef.small_jump, coef.tail_jump
    m1 = coef.p_integral
    delta, dw, dz = slices.delta, slices.dw, slices.dz
    (sum_p_wincr, sum_q_wincr, i21_lead, i31_lead, i22_time, i23_time,
     i22_hold, i32_hold, i22_lead, i33_lead, i32_lead, i23_lead) = _jump_sums(slices, coef)
    # six terms are (a jump sum) - m1 * (its compensator); 22 has two more parts
    yield 0.5 * s * s * (dw * dw - delta)                               # 11
    yield cf * s * (sum_p_wincr - m1 * dz)                              # 12
    yield cg * s * sum_q_wincr                                          # 13
    yield cf * s * (i21_lead - m1 * (delta * dw - dz))                  # 21
    yield cg * s * i31_lead                                             # 31
    yield cf * cf * (i22_lead - m1 * i22_time - m1 * i22_hold
                     + 0.5 * m1 * m1 * delta * delta)                   # 22
    yield cf * cg * (i23_lead - m1 * i23_time)                          # 23
    yield cf * cg * (i32_lead - m1 * i32_hold)                          # 32
    yield cg * cg * i33_lead                                            # 33


def milstein_terms(y: float, slices: Slices,
                   coef: LinearCoefficients) -> dict[str, np.ndarray]:
    """All thirteen order-1 terms over every slice, keyed by multiindex text.

    The keys are the digit words of the integrals ('0', '1', '2', '3' and the
    nine two-digit words); each value is an array over the slices, and
    summing the values and adding y gives the Milstein update from state y.
    Empty jump sums contribute zero.
    """
    terms = itertools.chain(_half_terms(slices, coef), _order_one_terms(slices, coef))
    return {key: y * term for key, term in zip(TERM_KEYS, terms)}


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray


def step_factor(scheme: Scheme, slices: Slices, coef: LinearCoefficients) -> np.ndarray:
    """The multiplicative one-slice update of either scheme, per slice.  Euler
    adds its four terms to 1.0 one by one; Milstein sums all thirteen in key
    order, one order-1 term live at a time, and adds 1.0 last."""
    t0, t1, t2, t3 = _half_terms(slices, coef)
    if scheme is Scheme.EULER:
        return 1.0 + t0 + t1 + t2 + t3
    for term in itertools.chain((t1, t2, t3), _order_one_terms(slices, coef)):
        t0 += term
    return 1.0 + t0


def run_scheme(scheme: Scheme, grid: np.ndarray, path: DrivingPath,
               coef: LinearCoefficients, y0: float) -> Trajectory:
    """Advance the scheme across every slice of `grid` on one path (not a chunk
    of several), `grid` the path's uniform dyadic grid at a level 0..finest_level."""
    if len(path.cell_edges) != 1:
        raise ValueError(f"run_scheme takes one path, not a chunk of {len(path.cell_edges)} paths")
    grid = np.asarray(grid, dtype=np.float64)
    level = (grid.size - 1).bit_length() - 1  # a level-L grid has 2**L + 1 points
    if not (0 <= level <= path.finest_level
            and np.array_equal(grid, path.grid(level)[0])):
        raise ValueError("grid must be the path's uniform dyadic grid at a level "
                         f"in 0..{path.finest_level}")
    return Trajectory(times=grid, values=chain(step_factor(scheme, path.slices(level), coef), y0))


def chain(factors: np.ndarray, y0: float) -> np.ndarray:
    """y0, y0 * f0, y0 * f0 * f1, ... over consecutive slices, left to right
    along the last axis (a row of factors per path, for a chunk)."""
    values = np.empty((*factors.shape[:-1], factors.shape[-1] + 1))
    values[..., 0] = y0
    values[..., 1:] = factors
    return np.multiply.accumulate(values, axis=-1, out=values)
