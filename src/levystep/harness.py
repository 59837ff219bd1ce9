"""Monte-Carlo studies of strong convergence and truncation error.

Every study couples all resolutions pathwise: per path one DrivingPath is
built at the finest level and each step-size ladder entry (or each truncation
level) is evaluated on slices of that same path against the same reference,
so the reported error is pure discretization (or truncation) error with no
resampling noise.  Path i's RNG stream is the one numpy's
SeedSequence((master seed, i)) gives, its seed words hashed a block of paths
at a time (`path_rng`).  Paths are evaluated a chunk at a time, joined
into one array structure, and every per-slice and per-path value is formed
as it would be for the path alone.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields
from functools import cache, lru_cache
from itertools import repeat
from typing import ClassVar

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .common import ConfigError, choice, finite, integer, require
from .levy import LevyModel, activate, model_from_config, truncate
from .oracle import exact_solution
from .path import DrivingPath, build_path, grid_fits, join
from .schemes import LinearCoefficients, Scheme, chain, run_scheme, step_factor

SUP_NOTE = ("strong error sup taken over grid points and jump times; "
            "the scheme is evaluated at interior jump times through "
            "partial-interval slices")
TRUNC_SUP_NOTE = "truncation difference sup taken over the shared coarse grid"


# -- configuration -----------------------------------------------------------

# 2**20 cells, checked before any allocation: a level-20 path holds about 41 MiB
# built (with the 8 MiB grid build_path keeps; also its peak), 73 MiB once Euler
# steps read its dW data and 105 MiB (106 MiB peak) once Milstein steps read dZ, W;
# a level-20 Milstein study (ladder 12..18, 2 paths) peaks at about 180 MiB traced
_MAX_FINEST_LEVEL = 20
# expected events a path (grid points plus jumps), checked before any path is
# drawn; 8x the finest-level cap, so a jump rate times T beyond ~7e6 is refused
_MAX_EXPECTED_EVENTS = 2**23
# per-path results a study holds (paths times ladder levels or epsilons), checked
# before any allocation; 32 MiB an array of them, and 64 MiB for the convergence
# study's (paths, 2, levels) rows
_MAX_PATH_RESULTS = 2**22
# jump entries a convergence path's partial slices are expected to hold,
# checked before any path is drawn: a cell of n jumps gives partial slices
# holding n (n + 1) / 2 of them a ladder level.  They are evaluated in pieces
# (below), so the bound caps time, not memory: about 1.6 s a path at the
# bound (2-core VM)
_MAX_PARTIAL_ENTRIES = 2**22
# the freed heap a study keeps for its next chunk (`_hold_heap`): glibc
# returns free heap beyond this to the system, and maps a block of half of it
# or more apart from the heap
_HELD_HEAP = 64 << 20
# jump entries one evaluator call of a chunk's partial slices holds at most
# (a slice holding more is evaluated alone): ~250 B each while evaluated, so
# a piece takes at most a quarter of the held heap (about 16 MB), whatever
# the jumps of one cell, and the heap it frees is kept for the next piece
_PARTIAL_PIECE_ENTRIES = _HELD_HEAP // 4 // 256
# a chunk of paths evaluated together closes once its paths' events (grid
# points and jumps) reach _CHUNK_EVENTS: 16 paths at finest level 10, and a
# path with more events is a chunk alone.  A chunk's arrays so stay within
# that many events beyond one path's own, its partial slices are bounded by
# the pieces above alone, and its fixed cost (about 0.85 ms a chunk on the
# README converge config, 2-core VM) is shared by many paths
_CHUNK_EVENTS = 2**14

_TOP_KEYS = {"model", "b", "sigma", "F", "G", "y0", "T", "scheme",
             "ladder_levels", "finest_level", "paths", "seed", "epsilons",
             "truncation_level", "trajectory_level"}


@dataclass(frozen=True)
class StudyConfig:
    model: LevyModel
    epsilon: float | None
    drift: float
    diffusion: float
    small_jump: float
    tail_jump: float
    y0: float
    horizon: float
    scheme: Scheme
    ladder_levels: tuple[int, ...]
    finest_level: int
    paths: int
    seed: int
    epsilons: tuple[float, ...] | None = None
    truncation_level: int | None = None
    trajectory_level: int | None = None
    source: dict = field(default_factory=dict, compare=False)

    def config_hash(self) -> str:
        blob = json.dumps(self.source, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def coefficients_for(self, active_model) -> LinearCoefficients:
        return LinearCoefficients.for_model(self.drift, self.diffusion, self.small_jump,
                                            self.tail_jump, active_model)


def config_from_dict(obj: dict) -> StudyConfig:
    require(isinstance(obj, dict), "config must be a JSON object")
    extra = set(obj) - _TOP_KEYS
    require(not extra, f"unknown config keys: {sorted(extra)}")
    require("model" in obj, "config needs a 'model' section")
    model, eps = model_from_config(obj["model"])

    def num(key, default=None):
        val = obj.get(key, default)
        require(val is not None, f"config key '{key}' is required")
        return finite(key, val)

    horizon = num("T", 1.0)
    require(horizon > 0, "T must be positive")
    scheme = choice("scheme", Scheme, obj.get("scheme", "euler"))

    ladder = obj.get("ladder_levels", [])
    require(isinstance(ladder, (list, tuple)), "ladder_levels must be a list")
    levels = tuple(integer("ladder_levels", x) for x in ladder)
    require(all(lv >= 0 for lv in levels), "ladder levels must be nonnegative")
    require(list(levels) == sorted(set(levels)), "ladder levels must be strictly increasing")

    finest = integer("finest_level", obj.get(
        "finest_level", min(max(levels) + 2, _MAX_FINEST_LEVEL) if levels else 8))
    require(0 <= finest <= _MAX_FINEST_LEVEL,
            f"config key 'finest_level' must lie in 0..{_MAX_FINEST_LEVEL}, got {finest}")
    require(max(levels, default=0) <= finest, "ladder_levels must not exceed finest_level")
    require(grid_fits(horizon, finest),
            f"config key 'T' must keep T * 2**finest_level finite and T / 2**finest_level a "
            f"normal float, got T = {horizon!r} at finest_level {finest}")

    paths = integer("paths", obj.get("paths", 0))
    require(paths >= 1, "config key 'paths' must be at least 1")
    require("seed" in obj, "config key 'seed' is required")
    seed = integer("seed", obj["seed"])
    require(seed >= 0, f"config key 'seed' must be nonnegative, got {seed}")

    epsilons = obj.get("epsilons")
    if epsilons is not None:
        require(isinstance(epsilons, (list, tuple)) and epsilons,
                "epsilons must be a nonempty list")
        epsilons = tuple(sorted({finite("epsilons", e) for e in epsilons}, reverse=True))
        require(all(0 < e < 1 for e in epsilons) and epsilons[-1] / 4 > 0,
                "epsilons must lie in (0, 1), with min(epsilons)/4 a positive float")
    columns = max(1, len(levels), len(epsilons or ()))
    require(paths * columns <= _MAX_PATH_RESULTS,
            f"config key 'paths' times {columns} (results a path, one per ladder level or "
            f"epsilon) exceeds the bound {_MAX_PATH_RESULTS}; lower 'paths'")

    def require_events_within_budget(active, keys):
        events = 2**finest + active.active_rate * horizon
        require(events <= _MAX_EXPECTED_EVENTS,
                f"about {events:.3g} expected events a path (2**finest_level + jump "
                f"rate * T) exceed the bound {_MAX_EXPECTED_EVENTS}; lower {keys}")

    if model.is_finite_activity or eps is not None:
        require_events_within_budget(activate(model, eps), "'T' or 'finest_level'" + (
            ", or raise 'model.epsilon'" if eps is not None else ""))
    if epsilons is not None:  # the truncation study's reference model
        require_events_within_budget(truncate(model, epsilons[-1] / 4),
                                     "'T' or 'finest_level', or raise min('epsilons')")

    def grid_level(key):
        """A grid level within the path; the finest ladder level by default."""
        level = obj.get(key)
        if level is None:
            level = max(levels, default=None)
        if level is not None:
            level = integer(key, level)
            require(0 <= level <= finest, f"{key} must not exceed finest_level")
        return level

    trunc_level, traj_level = grid_level("truncation_level"), grid_level("trajectory_level")
    drift, sigma = num("b"), num("sigma")
    # the exact solution's drift holds sigma**2 / 2 as a Python float
    require(math.isfinite(sigma * sigma),
            f"config key 'sigma' is too large: its square overflows, got {sigma}")

    return StudyConfig(
        model=model, epsilon=eps,
        drift=drift, diffusion=sigma,
        small_jump=num("F"), tail_jump=num("G"),
        y0=num("y0", 1.0), horizon=horizon, scheme=scheme,
        ladder_levels=levels, finest_level=finest, paths=paths, seed=seed,
        epsilons=epsilons, truncation_level=trunc_level,
        trajectory_level=traj_level,
        source=obj,
    )


def config_from_json(path) -> StudyConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(obj)


# SeedSequence's hash constants (numpy's bit_generator.pyx, NEP 19), as
# Python ints masked to 32 bits: uint32 arrays wrap on them without a warning
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# path indices _seed_block hashes at once (32 KB of seed words)
_BLOCK = 2**10


def _hashmix(value: np.ndarray, const: int, mult: int = _MULT_A) -> tuple[np.ndarray, int]:
    """SeedSequence's `hashmix` of each uint32 word, and the next constant;
    with _MULT_B, the hash of one word its `generate_state` gives."""
    value = value ^ const
    const = const * mult & _MASK32
    value *= const
    return value ^ value >> 16, const


@lru_cache(maxsize=1)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """Row j of this read-only (_BLOCK, 4) uint64 array holds what
    SeedSequence((master_seed, i)).generate_state(4, np.uint64) gives for
    path index i = block * _BLOCK + j.  It follows SeedSequence's documented
    algorithm for two entropy words (each below 2**32): a pool of 4 words,
    each `hashmix`ed in, then `mix`ed into every other, then hashed out to 8
    words, as uint32 array arithmetic over the block's indices."""
    entropy = [np.full(_BLOCK, master_seed, np.uint32),
               np.arange(_BLOCK, dtype=np.uint32) + block * _BLOCK]
    pool, const = [], _INIT_A
    for word in entropy + [np.zeros(_BLOCK, np.uint32)] * 2:
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
                pool[dst] = mixed ^ mixed >> 16
    words, const = [], _INIT_B
    for k in range(8):  # generate_state cycles through the pool
        word, const = _hashmix(pool[k % 4], const, _MULT_B)
        words.append(word.astype(np.uint64))
    # each uint64 word is a little-endian pair of uint32 words
    seeds = np.stack([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])], axis=1)
    seeds.setflags(write=False)
    return seeds


class _SeedWords(ISeedSequence):
    """One path's PCG64 seed words, as its SeedSequence would generate them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("these seed words serve only PCG64's generate_state(4, uint64)")
        return self.words


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Path `path_index`'s own stream: the one
    default_rng(SeedSequence((master_seed, path_index))) gives, bit for bit.
    For a seed and an index that are ints below 2**32 the seed words come
    from a cached block of _BLOCK indices hashed at once (`_seed_block`), so
    the stream's `bit_generator.seed_seq` is not a SeedSequence and
    `Generator.spawn` is unavailable.  Any other input goes to SeedSequence
    itself, which raises on a negative or non-integer one."""
    if (isinstance(master_seed, int) and isinstance(path_index, int)
            and 0 <= master_seed <= _MASK32 and 0 <= path_index <= _MASK32):
        block, row = divmod(path_index, _BLOCK)
        words = _seed_block(master_seed, block)[row]
        return np.random.Generator(np.random.PCG64(_SeedWords(words)))
    return np.random.default_rng(np.random.SeedSequence((master_seed, path_index)))


# -- slope fitting -----------------------------------------------------------

def fit_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y against x plus its standard error (normal
    theory; se is nan with fewer than three points)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    if x.size < 3:
        return slope, math.nan
    resid = y - (slope * x + intercept)
    s2 = float(np.dot(resid, resid)) / (x.size - 2)
    return slope, math.sqrt(s2 / sxx)


# -- study reports -----------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class _StudyReport:
    """The fields both studies report: per column (ladder level or epsilon)
    the mean over paths of the squared sup error, its standard error and
    each path's value, and the log-log slope fit through the means."""
    scheme: Scheme
    mean_sup_sq: np.ndarray
    std_err: np.ndarray
    per_path: np.ndarray        # (paths, columns) squared sup errors
    slope: float
    slope_se: float
    slope_ci: tuple[float, float]
    paths: int
    seed: int
    config_hash: str


def _shared_fields(cfg: StudyConfig, mean: np.ndarray, se: np.ndarray, per_path: np.ndarray,
                   log_x: np.ndarray, log_y: np.ndarray) -> dict:
    """The _StudyReport fields of a study: `fit_slope`'s slope of log_y
    against log_x, its standard error, and the normal-theory 95% interval
    about the slope (NaN where the standard error is)."""
    slope, slope_se = fit_slope(log_x, log_y)
    half = 1.96 * slope_se
    return dict(scheme=cfg.scheme, mean_sup_sq=mean, std_err=se, per_path=per_path,
                slope=slope, slope_se=slope_se, slope_ci=(slope - half, slope + half),
                paths=cfg.paths, seed=cfg.seed, config_hash=cfg.config_hash())


# -- strong convergence study ------------------------------------------------

_EXCLUDE_MIN_LEVELS = 4


def exclude_coarsest(mean: np.ndarray, se: np.ndarray) -> bool:
    """Pre-asymptotic guard: True when the coarsest level's mean error is not
    statistically separated (2 s.e.) from the next level's.  Never fires when
    dropping the point would leave fewer than _EXCLUDE_MIN_LEVELS - 1 levels."""
    if mean.size < _EXCLUDE_MIN_LEVELS:
        return False
    return bool(abs(mean[0] - mean[1]) < 2.0 * math.hypot(se[0], se[1]))


@dataclass(frozen=True, kw_only=True)
class ConvergenceReport(_StudyReport):
    levels: tuple[int, ...]
    deltas: np.ndarray
    scheme_sup_sq: np.ndarray   # mean over paths of sup |Y_scheme|^2 per level
    excluded_coarsest: bool
    target_order: float
    sup_note: str = SUP_NOTE
    kind: ClassVar[str] = "strong_convergence"


def _sup_errors(cfg: StudyConfig, coef: LinearCoefficients, chunk: DrivingPath) -> np.ndarray:
    """Rows sup |err|^2 and sup |Y_scheme|^2, a column per ladder level, of
    each path of the chunk against the exact solution at its events.  The
    partial slices from each level's grid to every jump are cut into pieces
    of at most _PARTIAL_PIECE_ENTRIES jump entries (`_pieces`); the first
    piece is gathered with the slices of every level into one batch
    (`DrivingPath.ladder`), and each piece takes one evaluator call."""
    levels, jumps, n_paths = cfg.ladder_levels, chunk.jump_events, len(chunk.cell_edges)
    exact = exact_solution(chunk, np.arange(chunk.event_times.size), coef, cfg.y0)
    owner = chunk.jump_cells >> cfg.finest_level  # the path of each jump
    edges = [chunk.grid_events(lv) for lv in levels]  # (paths, 2**lv + 1) each
    # the flat position in an edges-shaped array of the last grid point at or
    # before each jump: its cell in the chunk's slices, one more per earlier path
    at_cell = [(chunk.jump_cells >> (cfg.finest_level - lv)) + owner for lv in levels]
    ia = np.concatenate([e.ravel()[c] for e, c in zip(edges, at_cell)])
    ib = np.tile(jumps, len(levels))
    # the jumps a partial slice holds: those of its cell up to its own
    held = np.tile(np.arange(1, jumps.size + 1), len(levels)) - jumps.searchsorted(ia, "right")
    # per-slice factors do not depend on the batch, so each piece gives what
    # one call would
    factors = np.concatenate([
        step_factor(cfg.scheme, chunk.ladder(levels if a == 0 else (), ia[a:b], ib[a:b]), coef)
        for a, b in _pieces(held, _PARTIAL_PIECE_ENTRIES)])
    bounds = np.cumsum([0] + [n_paths << lv for lv in levels])
    at_jumps = factors[bounds[-1]:].reshape(len(levels), jumps.size)
    out = np.empty((n_paths, 2, len(levels)))
    for k, (e, c) in enumerate(zip(edges, at_cell)):
        values = chain(factors[bounds[k]:bounds[k + 1]].reshape(n_paths, -1), cfg.y0)
        sup = np.abs(values - exact[e]).max(axis=1)
        y_at = values.ravel()[c] * at_jumps[k]  # the scheme at the jump times
        np.maximum.at(sup, owner, np.abs(y_at - exact[jumps]))  # unlike fmax, keeps a NaN
        out[:, 0, k] = np.square(sup)
        out[:, 1, k] = np.square(np.abs(values).max(axis=1))
    return out


def _pieces(held: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive runs [a, b) of the slices holding `held` jumps each, in
    order, each run holding at most `budget` jumps in all or else one slice;
    a single empty run when there are no slices."""
    ends = np.cumsum(held)
    runs, a = [], 0
    while not runs or a < held.size:
        reach = (ends[a - 1] if a else 0) + budget
        b = min(max(int(ends.searchsorted(reach, "right")), a + 1), held.size)
        runs.append((a, b))
        a = b
    return runs


@cache
def _hold_heap() -> None:
    """Keep the heap a chunk frees for the next chunk, process-wide, where
    the C library has `mallopt`.  Left to glibc's dynamic thresholds, which
    follow the largest block freed (about 1 MB on the README configs), the
    heap a chunk frees goes back to the system and the next chunk faults it
    in again.  Fixed at the ceiling of that dynamic rule on 64-bit
    (DEFAULT_MMAP_THRESHOLD_MAX, and twice that for trimming), at most
    _HELD_HEAP of freed heap is kept; no result changes."""
    mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, _HELD_HEAP // 2)  # M_MMAP_THRESHOLD
        mallopt(-1, _HELD_HEAP)  # M_TRIM_THRESHOLD


def _per_path(cfg: StudyConfig, model: LevyModel, shape: tuple[int, ...], rows) -> np.ndarray:
    """The Monte-Carlo loop of both studies: path i is built at the finest
    level from its own stream, and a chunk of paths at a time is evaluated
    by one `rows(join(paths))` call, whose (len(paths), *shape) result
    holds each path's row as the path alone would give it.  So a path's row
    depends on neither the path count nor the chunking."""
    require(cfg.paths >= 2, "a study needs config key 'paths' at least 2")
    _hold_heap()
    out = np.empty((cfg.paths, *shape))
    paths, events = [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # _path_stats names the path
        for i in range(cfg.paths):
            try:
                path = build_path(cfg.horizon, cfg.finest_level, model, path_rng(cfg.seed, i))
            except RuntimeError as exc:
                raise RuntimeError(f"path {i}: {exc}") from exc
            paths.append(path)
            events += path.event_times.size
            if events >= _CHUNK_EVENTS or i == cfg.paths - 1:
                out[i + 1 - len(paths):i + 1] = rows(join(paths))
                paths, events = [], 0
    return out


def _path_stats(per_path: np.ndarray, key: str, values) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over paths (axis 0) of every per-path value,
    the last axis a column per `key` value; raises, naming the path or the
    column, on a nonfinite value, mean or standard error, or a zero mean."""
    bad = np.argwhere(~np.isfinite(per_path))
    if bad.size:
        raise RuntimeError(f"nonfinite result on path {bad[0][0]} at {key} {values[bad[0][-1]]}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = per_path.mean(axis=0)
        se = per_path.std(axis=0, ddof=1) / math.sqrt(per_path.shape[0])
    bad = np.argwhere(~(np.isfinite(mean) & np.isfinite(se)))
    if bad.size:
        raise RuntimeError(f"nonfinite mean or standard error over paths at {key} "
                           f"{values[bad[0][-1]]}")
    if np.any(mean <= 0):
        raise RuntimeError(f"degenerate study: zero mean over paths at {key} "
                           f"{values[np.argwhere(mean <= 0)[0][-1]]}")
    return mean, se


def strong_error_study(cfg: StudyConfig) -> ConvergenceReport:
    require(len(cfg.ladder_levels) >= 2, "a convergence study needs at least two ladder levels")
    active = activate(cfg.model, cfg.epsilon)
    levels = cfg.ladder_levels
    # n ~ Poisson(m) jumps in a cell give E[n (n + 1) / 2] = m**2 / 2 + m entries,
    # and level L has 2**L cells of m = rate * T / 2**L
    mu = active.active_rate * cfg.horizon
    entries = sum(mu * mu / 2**(lv + 1) + mu for lv in levels)
    require(entries <= _MAX_PARTIAL_ENTRIES,
            f"about {entries:.3g} expected jump entries in a path's partial slices (the sum "
            f"over ladder levels L of (rate * T)**2 / 2**(L + 1) + rate * T) exceed the bound "
            f"{_MAX_PARTIAL_ENTRIES}; lower 'T', 'ladder_levels' or the jump rate of 'model'")
    coef = cfg.coefficients_for(active)
    deltas = np.array([cfg.horizon / 2**lv for lv in levels])
    rows = _per_path(cfg, active, (2, len(levels)), lambda chunk: _sup_errors(cfg, coef, chunk))
    (mean, scheme_sup), (se, _) = _path_stats(rows, "level", levels)
    excluded = exclude_coarsest(mean, se)
    keep = slice(1, None) if excluded else slice(None)
    return ConvergenceReport(
        levels=levels, deltas=deltas, scheme_sup_sq=scheme_sup, excluded_coarsest=excluded,
        target_order=cfg.scheme.strong_order,
        **_shared_fields(cfg, mean, se, rows[:, 0],
                         np.log(deltas[keep]), 0.5 * np.log(mean[keep])))


# -- truncation study ---------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class TruncationReport(_StudyReport):
    epsilons: np.ndarray
    eps_reference: float
    level: int
    sup_note: str = TRUNC_SUP_NOTE
    kind: ClassVar[str] = "truncation"


def truncation_study(cfg: StudyConfig) -> TruncationReport:
    """Coupled truncation-error ladder.

    Jumps are simulated once per path with the smallest ball eps0 = min/4
    removed; every coarser truncation reuses the same path with the jumps
    below its own level filtered out and its own analytic compensator
    moments, so the measured difference is pure truncation error.
    """
    require(cfg.epsilons is not None, "a truncation study needs an 'epsilons' list")
    require(len(cfg.epsilons) >= 2, "a truncation study needs at least two distinct epsilons")
    require(cfg.truncation_level is not None,
            "a truncation study needs 'truncation_level' (or ladder_levels)")
    require(cfg.epsilon is None,
            "a truncation study truncates at its own 'epsilons'; "
            "remove model.epsilon, which it would ignore")
    eps_list = np.array(cfg.epsilons)  # descending
    eps0 = float(eps_list.min()) / 4.0
    level = cfg.truncation_level
    active0 = truncate(cfg.model, eps0)
    coef0 = cfg.coefficients_for(active0)
    coefs = [cfg.coefficients_for(truncate(cfg.model, float(e))) for e in eps_list]

    def sup_diffs(chunk: DrivingPath) -> np.ndarray:
        batch = chunk.slices(level)

        def values(b, c):  # a row per path
            return chain(step_factor(cfg.scheme, b, c).reshape(len(chunk.cell_edges), -1),
                         cfg.y0)

        ref = values(batch, coef0)
        kept = (batch.keep_jumps(~batch.small | (np.abs(batch.mark) > e)) for e in eps_list)
        return np.transpose([np.square(np.abs(values(b, c) - ref).max(axis=1))
                             for b, c in zip(kept, coefs)])

    per_path = _per_path(cfg, active0, eps_list.shape, sup_diffs)
    mean, se = _path_stats(per_path, "epsilon", eps_list)
    return TruncationReport(
        epsilons=eps_list, eps_reference=eps0, level=level,
        **_shared_fields(cfg, mean, se, per_path, np.log(eps_list), np.log(mean)))


# -- single-trajectory run (CLI `simulate`) -----------------------------------

def simulate_trajectory(cfg: StudyConfig):
    """One coupled (scheme, exact solution) trajectory on the trajectory_level grid."""
    require(cfg.trajectory_level is not None,
            "simulate needs 'trajectory_level' (or ladder_levels)")
    active = activate(cfg.model, cfg.epsilon)
    coef = cfg.coefficients_for(active)
    path = build_path(cfg.horizon, cfg.finest_level, active, path_rng(cfg.seed, 0))
    level = cfg.trajectory_level
    with np.errstate(over="ignore", invalid="ignore"):  # `bad` names the time
        oracle_vals = exact_solution(path, path.grid_events(level)[0], coef, cfg.y0)
        traj = run_scheme(cfg.scheme, path.grid(level)[0], path, coef, cfg.y0)
    bad = ~(np.isfinite(traj.values) & np.isfinite(oracle_vals))
    if bad.any():
        raise RuntimeError(f"nonfinite result on path 0 at time {traj.times[bad.argmax()]}")
    return traj, oracle_vals


# -- output writers -----------------------------------------------------------

def _write_csv(out_path, header, rows) -> None:
    """The header, then each row's values as round-trip floats; a count prints as itself."""
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{float(v):.17g}" for v in row] for row in rows)


def write_errors_csv(report: ConvergenceReport, out_path) -> None:
    _write_csv(out_path, ["delta", "mean_sup_sq_error", "std_err", "paths"],
               zip(report.deltas, report.mean_sup_sq, report.std_err, repeat(report.paths)))


def write_truncation_csv(report: TruncationReport, out_path) -> None:
    _write_csv(out_path, ["epsilon", "mean_sup_sq_diff", "std_err", "paths"],
               zip(report.epsilons, report.mean_sup_sq, report.std_err, repeat(report.paths)))


def write_trajectory_csv(times, y_scheme, y_oracle, out_path) -> None:
    _write_csv(out_path, ["time", "y_scheme", "y_oracle"], zip(times, y_scheme, y_oracle))


def _json_value(v):
    if isinstance(v, Scheme):
        return v.value
    return np.asarray(v).tolist() if isinstance(v, (np.ndarray, tuple)) else v


def report_dict(report: _StudyReport) -> dict:
    """Every field of the report but `per_path`, plus its `kind`.  A slope
    fit left undefined (NaN: too few points for a standard error) is written
    as null; a NaN anywhere else stays, and the JSON writer refuses it."""
    doc = {f.name: _json_value(getattr(report, f.name))
           for f in fields(report) if f.name != "per_path"}
    for key in ("slope", "slope_se", "slope_ci"):
        doc[key] = np.where(np.isnan(doc[key]), None, doc[key]).tolist()
    return doc | {"kind": report.kind}


def write_report_json(report, out_path) -> None:
    # formed before the file is opened: a nonfinite value raises and leaves
    # no partial report behind
    text = json.dumps(report_dict(report), indent=2, sort_keys=True, allow_nan=False)
    with open(out_path, "w") as fh:
        fh.write(text + "\n")
