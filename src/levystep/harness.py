"""Monte-Carlo studies of strong convergence and truncation error.

Every study couples all resolutions pathwise: per path one DrivingPath is
built at the finest level and each step-size ladder entry (or each truncation
level) is evaluated on slices of that same path against the same reference,
so the reported error is pure discretization (or truncation) error with no
resampling noise.  Per-path RNG streams derive from (master seed, path index)
through numpy's SeedSequence.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .common import ConfigError, choice, finite, integer, require
from .levy import LevyModel, activate, model_from_config, truncate
from .oracle import exact_solution
from .path import DrivingPath, build_path, stack
from .schemes import LinearCoefficients, Scheme, chain, run_scheme, step_factor

SUP_NOTE = ("strong error sup taken over grid points and jump times; "
            "the scheme is evaluated at interior jump times through "
            "partial-interval slices")
TRUNC_SUP_NOTE = "truncation difference sup taken over the shared coarse grid"


# -- configuration -----------------------------------------------------------

_MAX_FINEST_LEVEL = 20  # 2**20 cells, about 100 MB of arrays a path; checked before any allocation
# expected events a path (grid points plus jumps), checked before any path is
# drawn; 8x the finest-level cap, so a jump rate times T beyond ~7e6 is refused
_MAX_EXPECTED_EVENTS = 2**23
# per-path results a study holds (paths times ladder levels or epsilons), checked
# before any allocation; 32 MiB an array of them
_MAX_PATH_RESULTS = 2**22

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

    finest = integer("finest_level", obj.get("finest_level", (max(levels) + 2) if levels else 8))
    require(0 <= finest <= _MAX_FINEST_LEVEL,
            f"config key 'finest_level' must lie in 0..{_MAX_FINEST_LEVEL}, got {finest}")
    if levels:
        require(finest >= max(levels) + 2,
                "finest_level must be at least two levels finer than the ladder")

    paths = integer("paths", obj.get("paths", 0))
    require(paths >= 2, "paths must be at least 2")
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

    return StudyConfig(
        model=model, epsilon=eps,
        drift=num("b"), diffusion=num("sigma"),
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


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Independent per-path stream derived from (master seed, path index)."""
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


# -- strong convergence study ------------------------------------------------

_EXCLUDE_MIN_LEVELS = 4


def exclude_coarsest(mean: np.ndarray, se: np.ndarray) -> bool:
    """Pre-asymptotic guard: True when the coarsest level's mean error is not
    statistically separated (2 s.e.) from the next level's.  Never fires when
    dropping the point would leave fewer than _EXCLUDE_MIN_LEVELS - 1 levels."""
    if mean.size < _EXCLUDE_MIN_LEVELS:
        return False
    return bool(abs(mean[0] - mean[1]) < 2.0 * math.hypot(se[0], se[1]))


@dataclass(frozen=True)
class ConvergenceReport:
    scheme: Scheme
    levels: tuple[int, ...]
    deltas: np.ndarray
    mean_sup_sq: np.ndarray
    std_err: np.ndarray
    per_path: np.ndarray        # (paths, levels) squared sup errors
    scheme_sup_sq: np.ndarray   # mean over paths of sup |Y_scheme|^2 per level
    slope: float
    slope_se: float
    slope_ci: tuple[float, float]
    excluded_coarsest: bool
    target_order: float
    paths: int
    seed: int
    config_hash: str
    sup_note: str = SUP_NOTE


def _sup_errors(cfg: StudyConfig, path: DrivingPath, coef: LinearCoefficients,
                exact_at_events: np.ndarray) -> np.ndarray:
    """Rows sup |err|^2 and sup |Y_scheme|^2, a column per ladder level, on one
    path; the slices of every level go through one evaluator call."""
    levels, jumps = cfg.ladder_levels, path.jump_events
    edges = [path.grid_events(lv) for lv in levels]
    cells = [path.jump_cells >> (path.finest_level - lv) for lv in levels]
    batches = [path.slices(lv) for lv in levels]
    partial = jumps.size > 0
    if partial:  # from each level's last grid point at or before every jump to it
        batches.append(path.slice_between(np.concatenate([e[c] for e, c in zip(edges, cells)]),
                                          np.tile(jumps, len(levels))))
    batch, bounds = stack(batches)
    factors = step_factor(cfg.scheme, batch, coef)
    out = np.empty((2, len(levels)))
    for k, e in enumerate(edges):
        values = chain(factors[bounds[k]:bounds[k + 1]], cfg.y0)
        err = np.abs(values - exact_at_events[e])
        if partial:  # the scheme at the jump times
            y_at = values[cells[k]] * factors[bounds[-2] + k * jumps.size:][:jumps.size]
            err = np.concatenate((err, np.abs(y_at - exact_at_events[jumps])))
        sup = float(np.max(err))  # np.max, unlike max(), keeps a NaN
        out[:, k] = sup * sup, _square(float(np.max(np.abs(values))))
    return out


def _square(x: float) -> float:
    """x ** 2, or inf where that leaves the float range (`**` rounds through
    C pow, which differs from x * x in the last bit for some x)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _path_stats(per_path: np.ndarray, key: str, values) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error over paths (rows), one column per `key` value;
    raises, naming path and column, on a nonfinite result or a zero mean."""
    bad = np.argwhere(~np.isfinite(per_path))
    if bad.size:
        i, k = bad[0]
        raise RuntimeError(f"nonfinite result on path {i} at {key} {values[k]}")
    mean = per_path.mean(axis=0)
    if np.any(mean <= 0):
        raise RuntimeError(f"degenerate study: zero mean over paths at {key} "
                           f"{values[int(np.argmax(mean <= 0))]}")
    return mean, per_path.std(axis=0, ddof=1) / math.sqrt(per_path.shape[0])


def strong_error_study(cfg: StudyConfig) -> ConvergenceReport:
    require(len(cfg.ladder_levels) >= 2, "a convergence study needs at least two ladder levels")
    active = activate(cfg.model, cfg.epsilon)
    coef = cfg.coefficients_for(active)
    levels = cfg.ladder_levels
    deltas = np.array([cfg.horizon / 2**lv for lv in levels])
    per_path = np.empty((cfg.paths, len(levels)))
    scheme_sup = np.empty_like(per_path)
    for i in range(cfg.paths):
        rng = path_rng(cfg.seed, i)
        path = build_path(cfg.horizon, cfg.finest_level, active, rng)
        exact = exact_solution(path, np.arange(path.event_times.size), coef, cfg.y0)
        per_path[i], scheme_sup[i] = _sup_errors(cfg, path, coef, exact)
    mean, se = _path_stats(per_path, "level", levels)
    excluded = exclude_coarsest(mean, se)
    keep = slice(1, None) if excluded else slice(None)
    slope, slope_se = fit_slope(np.log(deltas[keep]), 0.5 * np.log(mean[keep]))
    half = 1.96 * slope_se
    return ConvergenceReport(
        scheme=cfg.scheme, levels=levels, deltas=deltas, mean_sup_sq=mean,
        std_err=se, per_path=per_path, scheme_sup_sq=scheme_sup.mean(axis=0),
        slope=slope, slope_se=slope_se, slope_ci=(slope - half, slope + half),
        excluded_coarsest=excluded, target_order=cfg.scheme.strong_order,
        paths=cfg.paths, seed=cfg.seed, config_hash=cfg.config_hash(),
    )


# -- truncation study ---------------------------------------------------------

@dataclass(frozen=True)
class TruncationReport:
    scheme: Scheme
    epsilons: np.ndarray
    eps_reference: float
    level: int
    mean_sup_sq: np.ndarray
    std_err: np.ndarray
    per_path: np.ndarray
    slope: float
    slope_se: float
    slope_ci: tuple[float, float]
    paths: int
    seed: int
    config_hash: str
    sup_note: str = TRUNC_SUP_NOTE


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
    base = cfg.model
    active0 = truncate(base, eps0)
    coef0 = cfg.coefficients_for(active0)
    coefs = [cfg.coefficients_for(truncate(base, float(e))) for e in eps_list]

    per_path = np.empty((cfg.paths, eps_list.size))
    for i in range(cfg.paths):
        rng = path_rng(cfg.seed, i)
        path = build_path(cfg.horizon, cfg.finest_level, active0, rng)
        batch = path.slices(level)
        ref = chain(step_factor(cfg.scheme, batch, coef0), cfg.y0)
        for k, e in enumerate(eps_list):
            kept = batch.keep_jumps(~batch.small | (np.abs(batch.mark) > e))
            values = chain(step_factor(cfg.scheme, kept, coefs[k]), cfg.y0)
            per_path[i, k] = _square(float(np.max(np.abs(values - ref))))
    mean, se = _path_stats(per_path, "epsilon", eps_list)
    slope, slope_se = fit_slope(np.log(eps_list), np.log(mean))
    half = 1.96 * slope_se
    return TruncationReport(
        scheme=cfg.scheme, epsilons=eps_list, eps_reference=eps0, level=level,
        mean_sup_sq=mean, std_err=se, per_path=per_path,
        slope=slope, slope_se=slope_se, slope_ci=(slope - half, slope + half),
        paths=cfg.paths, seed=cfg.seed, config_hash=cfg.config_hash(),
    )


# -- single-trajectory run (CLI `simulate`) -----------------------------------

def simulate_trajectory(cfg: StudyConfig):
    """One coupled (scheme, exact solution) trajectory on the trajectory_level grid."""
    require(cfg.trajectory_level is not None,
            "simulate needs 'trajectory_level' (or ladder_levels)")
    active = activate(cfg.model, cfg.epsilon)
    coef = cfg.coefficients_for(active)
    rng = path_rng(cfg.seed, 0)
    path = build_path(cfg.horizon, cfg.finest_level, active, rng)
    level = cfg.trajectory_level
    oracle_vals = exact_solution(path, path.grid_events(level), coef, cfg.y0)
    traj = run_scheme(cfg.scheme, path.grid(level), path, coef, cfg.y0)
    bad = ~(np.isfinite(traj.values) & np.isfinite(oracle_vals))
    if bad.any():
        raise RuntimeError(f"nonfinite result on path 0 at time {traj.times[bad.argmax()]}")
    return traj, oracle_vals


# -- output writers -----------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_errors_csv(report: ConvergenceReport, out_path) -> None:
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delta", "mean_sup_sq_error", "std_err", "paths"])
        for d, m, s in zip(report.deltas, report.mean_sup_sq, report.std_err):
            w.writerow([_fmt(d), _fmt(m), _fmt(s), report.paths])


def write_truncation_csv(report: TruncationReport, out_path) -> None:
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "mean_sup_sq_diff", "std_err", "paths"])
        for e, m, s in zip(report.epsilons, report.mean_sup_sq, report.std_err):
            w.writerow([_fmt(e), _fmt(m), _fmt(s), report.paths])


def write_trajectory_csv(times, y_scheme, y_oracle, out_path) -> None:
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "y_scheme", "y_oracle"])
        for t, a, b in zip(times, y_scheme, y_oracle):
            w.writerow([_fmt(t), _fmt(a), _fmt(b)])


def _json_num(v: float):
    return None if (isinstance(v, float) and math.isnan(v)) else v


def report_dict(report: ConvergenceReport | TruncationReport) -> dict:
    common = {
        "scheme": report.scheme.value,
        "slope": _json_num(report.slope),
        "slope_se": _json_num(report.slope_se),
        "slope_ci": [_json_num(v) for v in report.slope_ci],
        "paths": report.paths,
        "seed": report.seed,
        "config_hash": report.config_hash,
        "sup_note": report.sup_note,
        "mean_sup_sq": [float(v) for v in report.mean_sup_sq],
        "std_err": [float(v) for v in report.std_err],
    }
    if isinstance(report, ConvergenceReport):
        common.update({
            "kind": "strong_convergence",
            "deltas": [float(d) for d in report.deltas],
            "levels": list(report.levels),
            "target_order": report.target_order,
            "excluded_coarsest": report.excluded_coarsest,
            "scheme_sup_sq": [float(v) for v in report.scheme_sup_sq],
        })
    else:
        common.update({
            "kind": "truncation",
            "epsilons": [float(e) for e in report.epsilons],
            "eps_reference": report.eps_reference,
            "level": report.level,
        })
    return common


def write_report_json(report, out_path) -> None:
    # formed before the file is opened: a nonfinite value raises and leaves
    # no partial report behind
    text = json.dumps(report_dict(report), indent=2, sort_keys=True, allow_nan=False)
    with open(out_path, "w") as fh:
        fh.write(text + "\n")


def ensure_out_dir(out_dir) -> Path:
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p
