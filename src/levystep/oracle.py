"""Reference solutions evaluated on a shared driving path.

The linear model has a closed-form pathwise solution (a stochastic
exponential): between jumps

    Y_t = Y_s * exp((drift - small_jump * p_integral - diffusion^2 / 2)(t - s)
                    + diffusion * (W_t - W_s))

and across a jump with mark x the solution is multiplied by
(1 + small_jump * p(x)) on the small region or (1 + tail_jump * q(x)) on the
tail.  The p_integral drift correction is the compensator of the active small
region, so for a truncated model this is the exact solution of the truncated
equation.

`fine_reference` is the fallback when no closed form is wanted: the order-1
scheme run on a much finer dyadic grid of the same path, with the I32
convention its coefficients carry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .schemes import LinearCoefficients, Scheme, run_scheme
from .path import DrivingPath


class OracleKind(enum.Enum):
    EXACT_LINEAR = "exact_linear"
    FINE_GRID = "fine_grid"


@dataclass(frozen=True)
class OracleConfig:
    kind: OracleKind = OracleKind.EXACT_LINEAR
    level: int | None = None  # FINE_GRID only

    def __post_init__(self) -> None:
        if self.kind is OracleKind.FINE_GRID and self.level is None:
            raise ValueError("fine-grid oracle needs a level")


def exact_solution(path: DrivingPath, eval_times: np.ndarray,
                   coef: LinearCoefficients, y0: float) -> np.ndarray:
    """The exact solution at the requested event times (right-continuous:
    the value at a jump time includes that jump)."""
    idx = path.event_index(eval_times)
    log_drift = coef.drift - coef.small_jump * coef.p_integral \
        - 0.5 * coef.diffusion**2
    gaps = np.diff(path.event_times)
    # multiplier attributed to each event: the gap ending there, then any jump there
    mult = np.exp(log_drift * gaps + coef.diffusion * path.dw)
    marks = path.jump_marks
    mult[path.jump_events - 1] *= np.where(path.jump_small,
                                           1.0 + coef.small_jump * coef.p(marks),
                                           1.0 + coef.tail_jump * coef.q(marks))
    values = np.concatenate(([y0], y0 * np.cumprod(mult)))
    return values[idx]


def fine_reference(path: DrivingPath, eval_times: np.ndarray,
                   coef: LinearCoefficients, y0: float, level: int) -> np.ndarray:
    """Order-1 scheme on the dyadic grid at `level`, read off at eval_times.

    The reference must be meaningfully finer than whatever it judges: every
    evaluation gap has to span at least 16 reference steps (4 dyadic levels).
    """
    eval_times = np.asarray(eval_times, dtype=np.float64)
    if level > path.finest_level:
        raise ValueError("reference level exceeds the path's finest level")
    step = path.horizon / 2**level
    min_gap = np.min(np.diff(eval_times)) if eval_times.size > 1 else path.horizon
    if min_gap < 16 * step * (1 - 1e-12):
        raise ValueError("reference level is not at least 4 dyadic levels finer "
                         "than the evaluation grid")
    traj = run_scheme(Scheme.MILSTEIN, path.grid(level), path, coef, y0)
    pos = np.searchsorted(traj.times, eval_times)
    if np.any(pos >= traj.times.size) or np.any(traj.times[pos] != eval_times):
        raise ValueError("evaluation times must lie on the reference grid")
    return traj.values[pos]

