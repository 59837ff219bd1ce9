"""Independent oracles used across the test modules.

Everything here recomputes what the package computes, by a different route:
set membership by exhaustive enumeration, event positions by searching their
times, moments by adaptive quadrature, the order-1 integral terms by an
event walk over raw gap-level data that never uses the package's lookahead
bookkeeping or aggregation identities, and a path's sup errors one ladder
level at a time instead of in one batch.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import integrate

from levystep import LinearCoefficients
from levystep.common import Region
from levystep.multiindex import in_hierarchical_set
from levystep.path import Slices
from levystep.schemes import run_scheme, step_factor


# -- brute-force index sets ---------------------------------------------------

def all_words(max_len: int):
    for length in range(max_len + 1):
        for digits in itertools.product("0123", repeat=length):
            yield "".join(digits)


def brute_hierarchical(gamma, max_len: int) -> set[str]:
    return {a for a in all_words(max_len) if in_hierarchical_set(a, gamma)}


def brute_remainder(members: set[str], max_len: int) -> set[str]:
    return {a for a in all_words(max_len + 1)
            if a not in members and a and a[1:] in members}


# -- event lookup by time -----------------------------------------------------

def event_indices(path, times) -> np.ndarray:
    """Positions of the float `times` in the path's event grid, found by
    search; raises if any of them is not an event time of the path."""
    times = np.asarray(times, dtype=np.float64)
    idx = np.minimum(path.event_times.searchsorted(times), path.event_times.size - 1)
    if (path.event_times[idx] != times).any():
        raise ValueError(f"{times!r} holds a time that is not an event of this path")
    return idx


# -- sup errors one ladder level at a time ------------------------------------

def sup_error_one_level(cfg, path, coef, level: int, exact_at_events) -> tuple[float, float]:
    """(sup |err|^2, sup |Y_scheme|^2) for one ladder level on one path: the
    level's trajectory by run_scheme, then a second batch of partial slices
    from the level's grid to every interior jump."""
    edges = path.grid_events(level)
    traj = run_scheme(cfg.scheme, path.grid(level), path, coef, cfg.y0)
    err = np.abs(traj.values - exact_at_events[edges])
    if path.jump_times.size:
        # the base value is the last grid value at or before the jump
        cell = path.jump_cells >> (path.finest_level - level)
        parts = path.slice_between(edges[cell], path.jump_events)
        y_at = traj.values[cell] * step_factor(cfg.scheme, parts, coef)
        err = np.concatenate((err, np.abs(y_at - exact_at_events[path.jump_events])))
    sup = float(np.max(err))
    return sup * sup, float(np.max(np.abs(traj.values))) ** 2


# -- quadrature moments -------------------------------------------------------

def quad_power_law_moment(c: float, a: float, amp, power: int,
                          lo: float, hi: float) -> float:
    """integral over lo < |x| < hi of amp(x)**power c|x|^(-1-a) dx."""
    def f(x, sign):
        return amp(sign * x) ** power * c * x ** (-1.0 - a)
    pos, _ = integrate.quad(f, lo, hi, args=(1.0,), epsrel=1e-11, limit=300)
    neg, _ = integrate.quad(f, lo, hi, args=(-1.0,), epsrel=1e-11, limit=300)
    return pos + neg


# -- synthetic slices ---------------------------------------------------------

class RawSlice:
    """Gap-level description of one interval: event times ev[0..n], per-gap
    Wiener increments and local time integrals, and what happens at each
    event after the left end (a jump, or nothing when its region is None).
    The slice aggregates are derived exactly as the production code defines
    them; the walker below uses only the raw arrays."""

    def __init__(self, left, delta, jump_data, dws, zlocs, w_left, times=None):
        # jump_data: sequence of (fraction in (0,1], mark, region), sorted, one
        # per interior event plus optionally one for the right end; `times`,
        # when given, replaces left + fraction * delta
        self.left = left
        self.delta = delta
        self.jump_data = list(jump_data)
        self.dws = list(dws)
        self.zlocs = list(zlocs)
        self.times = (list(times) if times is not None
                      else [left + f * delta for f, _, _ in jump_data])
        self.ev = [left] + self.times[:len(self.dws) - 1] + [left + delta]
        self.w = [w_left]
        for d in dws:
            self.w.append(self.w[-1] + d)

    @classmethod
    def from_path(cls, path, ia: int, ib: int) -> "RawSlice":
        """The raw gap data of `path` over the event indices ia < ib (a jump
        at event ib belongs to the slice)."""
        regions = {int(e): (float(m), Region.SMALL if s else Region.TAIL)
                   for e, m, s in zip(path.jump_events, path.jump_marks, path.jump_small)}
        times = [float(t) for t in path.event_times[ia + 1:ib + 1]]
        left = float(path.event_times[ia])
        jump_data = [(None, *regions.get(i, (None, None))) for i in range(ia + 1, ib + 1)]
        return cls(left, float(path.event_times[ib]) - left, jump_data,
                   path.dw[ia:ib], path.z_locals[ia:ib], float(path.w_values[ia]),
                   times=times)

    def to_slice(self) -> Slices:
        """The one-slice batch the production evaluator consumes."""
        dw_tot = sum(self.dws)
        dz = sum((self.w[j] - self.w[0]) * (self.ev[j + 1] - self.ev[j]) + self.zlocs[j]
                 for j in range(len(self.dws)))
        at_jump = [i for i, (_, _, reg) in enumerate(self.jump_data) if reg is not None]

        def one(v):
            return np.array([v], dtype=np.float64)

        return Slices(left=one(self.left), right=one(self.ev[-1]), delta=one(self.delta),
                      dw=one(dw_tot), dz=one(dz), w_left=one(self.w[0]),
                      w_right=one(self.w[-1]),
                      time=np.array([self.times[i] for i in at_jump], dtype=np.float64),
                      mark=np.array([self.jump_data[i][1] for i in at_jump], dtype=np.float64),
                      small=np.array([self.jump_data[i][2] is Region.SMALL for i in at_jump],
                                     dtype=bool),
                      w=np.array([self.w[i + 1] for i in at_jump], dtype=np.float64),
                      slice_id=np.zeros(len(at_jump), dtype=np.intp))


def random_raw_slice(rng: np.random.Generator, max_jumps: int = 6) -> RawSlice:
    k = int(rng.integers(0, max_jumps + 1))
    fracs = np.sort(rng.random(k))
    regions = [Region.SMALL if rng.random() < 0.5 else Region.TAIL for _ in range(k)]
    marks = [float(rng.uniform(-0.9, 0.9)) if r is Region.SMALL
             else float(rng.uniform(1.0, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
             for r in regions]
    n_g = k + 1
    return RawSlice(left=float(rng.uniform(0.0, 2.0)),
                    delta=float(rng.uniform(0.05, 1.0)),
                    jump_data=list(zip(fracs, marks, regions)),
                    dws=list(rng.normal(0.0, 0.3, n_g)),
                    zlocs=list(rng.normal(0.0, 0.05, n_g)),
                    w_left=float(rng.normal()))


# -- event-walk evaluation of the thirteen order-1 terms ----------------------

def walk_terms(y: float, raw: RawSlice, coef: LinearCoefficients) -> dict:
    """Evaluate every integral by walking the ordered event sequence.

    Piecewise-constant integrands are integrated gap by gap against time or
    the per-gap Wiener increments; inner compensated integrals are evaluated
    at each outer jump; the time-against-Wiener integral uses per-gap
    integration by parts with the raw local time integrals.
    """
    b, s = coef.drift, coef.diffusion
    F, G, m1 = coef.small_jump, coef.tail_jump, coef.p_integral
    tau, delta = raw.left, raw.delta
    ev, w, dws, zlocs = raw.ev, raw.w, raw.dws, raw.zlocs
    jumps = raw.jump_data
    n_g = len(dws)

    # running sums *after* event i (a jump at the right end, event n_g, is
    # counted but integrates over no time)
    jp = [0.0] * (n_g + 1)
    jq = [0.0] * (n_g + 1)
    for i in range(1, n_g + 1):
        jp[i], jq[i] = jp[i - 1], jq[i - 1]
        if i <= len(jumps):
            _, mark, reg = jumps[i - 1]
            if reg is Region.SMALL:
                jp[i] += coef.p(mark)
            elif reg is Region.TAIL:
                jq[i] += coef.q(mark)

    h = [ev[i + 1] - ev[i] for i in range(n_g)]
    dw_tot = sum(dws)
    # integral of (s - tau) dW: per-gap parts, (s-t_i) dW over a gap = h dw - zloc
    int_s_dw = sum((ev[i] - tau) * dws[i] + h[i] * dws[i] - zlocs[i] for i in range(n_g))
    dz = sum((w[i] - w[0]) * h[i] + zlocs[i] for i in range(n_g))
    int_jp_ds = sum(jp[i] * h[i] for i in range(n_g))
    int_jq_ds = sum(jq[i] * h[i] for i in range(n_g))
    int_jp_dw = sum(jp[i] * dws[i] for i in range(n_g))
    int_jq_dw = sum(jq[i] * dws[i] for i in range(n_g))

    sum_p = sum(coef.p(m) for _, m, r in jumps if r is Region.SMALL)
    sum_q = sum(coef.q(m) for _, m, r in jumps if r is Region.TAIL)
    sum_p_w = sum(coef.p(m) * (w[i + 1] - w[0])
                  for i, (_, m, r) in enumerate(jumps) if r is Region.SMALL)
    sum_q_w = sum(coef.q(m) * (w[i + 1] - w[0])
                  for i, (_, m, r) in enumerate(jumps) if r is Region.TAIL)

    i22 = i33 = i32_lead = i23 = 0.0
    for i, (_, m, r) in enumerate(jumps):
        t = raw.times[i]
        if r is Region.SMALL:
            i22 += coef.p(m) * (jp[i] - m1 * (t - tau))
            i32_lead += jq[i] * coef.p(m)
        elif r is Region.TAIL:
            i33 += jq[i] * coef.q(m)
            i23 += coef.q(m) * (jp[i] - m1 * (t - tau))
    return {
        "0": b * y * delta,
        "1": s * y * dw_tot,
        "2": F * y * (sum_p - delta * m1),
        "3": G * y * sum_q,
        "11": 0.5 * s * s * y * (dw_tot * dw_tot - delta),
        "12": F * s * y * (sum_p_w - m1 * dz),
        "13": G * s * y * sum_q_w,
        "21": F * s * y * (int_jp_dw - m1 * int_s_dw),
        "31": G * s * y * int_jq_dw,
        "22": F * F * y * (i22 - m1 * (int_jp_ds - 0.5 * m1 * delta * delta)),
        "23": F * G * y * i23,
        "32": F * G * y * (i32_lead - m1 * int_jq_ds),
        "33": G * G * y * i33,
    }


def slice_terms(terms: dict, k: int = 0) -> dict:
    """The thirteen terms of slice k of a batch, as floats."""
    return {key: float(val[k]) for key, val in terms.items()}


def assert_term_match(got: dict, want: dict, tol: float = 1e-12) -> None:
    for key, expect in want.items():
        scale = max(1.0, abs(expect))
        assert abs(got[key] - expect) <= tol * scale, \
            f"term {key}: got {got[key]!r}, walk value {expect!r}"
