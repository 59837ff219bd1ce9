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
        if self.kind is OracleKind.EXACT_LINEAR and self.level is not None:
            raise ValueError("oracle.level applies to the fine_grid oracle only; "
                             "the exact_linear oracle would ignore it")


def exact_solution(path: DrivingPath, events: np.ndarray,
                   coef: LinearCoefficients, y0: float) -> np.ndarray:
    """The exact solution at the events with the given integer indices
    (right-continuous: the value at a jump time includes that jump)."""
    events, n = np.asarray(events), path.event_times.size
    if not (events.dtype.kind == "i" and events.ndim == 1
            and np.all((0 <= events) & (events < n))):
        raise ValueError(f"events must be a 1-D integer event-index array in 0..{n - 1}")
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
    return values[events]


def fine_reference(path: DrivingPath, coef: LinearCoefficients, y0: float,
                   level: int, at_level: int) -> np.ndarray:
    """Order-1 scheme on the dyadic grid at `level`, read off at the
    2**at_level + 1 grid points of `at_level`.

    The reference must be meaningfully finer than whatever it judges: every
    evaluated step has to span at least 16 reference steps (4 dyadic levels).
    """
    if not (0 <= at_level and at_level + 4 <= level <= path.finest_level):
        raise ValueError(f"reference level {level} must lie in {at_level + 4}.."
                         f"{path.finest_level}: 4 dyadic levels finer, within the path")
    values = run_scheme(Scheme.MILSTEIN, path.grid(level), path, coef, y0).values
    return values[::1 << (level - at_level)]
