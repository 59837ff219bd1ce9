"""The reference solution evaluated on a shared driving path.

The linear model has a closed-form pathwise solution (a stochastic
exponential): between jumps

    Y_t = Y_s * exp((drift - small_jump * p_integral - diffusion^2 / 2)(t - s)
                    + diffusion * (W_t - W_s))

and across a jump with mark x the solution is multiplied by
(1 + small_jump * p(x)) on the small region or (1 + tail_jump * q(x)) on the
tail.  The p_integral drift correction is the compensator of the active small
region, so for a truncated model this is the exact solution of the truncated
equation.

The solution restarts from y0 at the first event of each path of a chunk
(`path.join`), so each path's values are the ones it gives alone.
"""

from __future__ import annotations

import numpy as np

from .schemes import LinearCoefficients
from .path import DrivingPath


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
    # multiplier attributed to each event: the gap ending there, then any jump there
    mult = np.exp(log_drift * path.gaps + coef.diffusion * path.dw)
    marks = path.jump_marks
    mult[path.jump_events - 1] *= np.where(path.jump_small,
                                           1.0 + coef.small_jump * coef.p(marks),
                                           1.0 + coef.tail_jump * coef.q(marks))
    return y0 * path.along_paths(np.multiply, mult)[events]
