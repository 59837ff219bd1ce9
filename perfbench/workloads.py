"""The benchmark's three workloads: inputs made from a seed, one timed study,
and the check of its answer.

A study drives only entry points that the package keeps across its planned
rewrites: `cli.main` (which parses the config and calls `strong_error_study`
or `truncation_study`), `config_from_dict`, `path_rng`, `build_path` and
`run_scheme`.  Functions are looked up on their modules at study time, so a
traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from levystep import cli, harness, levy
from levystep import path as path_mod
from levystep import schemes

_IDENTITY = {"coef": 1.0, "exponent": 1.0}
_ATOMS_MODEL = {
    "small": {"kind": "atoms", "atoms": [[0.5, 0.6], [-0.4, 0.4]]},
    "tail": {"kind": "atoms", "atoms": [[1.5, 0.3], [-2.0, 0.2]]},
    "p": _IDENTITY,
    "q": _IDENTITY,
}
_POWER_LAW_A = 1.2

# Acceptance windows from the README's test criteria 6, 7 and 8.
MILSTEIN_WINDOW = (0.8, 1.2)
TRUNCATION_WINDOW = (2.0 - _POWER_LAW_A - 0.3, 2.0 - _POWER_LAW_A + 0.3)
CENTERING_SE = 3.0
# What --break-check substitutes: windows nothing can fall in, an expectation
# no finite mean is within 3 s.e. of.
BROKEN_WINDOW = (math.inf, -math.inf)
BROKEN_EXPECTATION = math.inf


def converge_config(seed: int, paths: int) -> dict:
    """The README strong-convergence config with the order-1 scheme."""
    return {"model": _ATOMS_MODEL, "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1,
            "y0": 1.0, "T": 1.0, "scheme": "milstein",
            "ladder_levels": [3, 4, 5, 6, 7, 8], "finest_level": 10,
            "paths": paths, "seed": seed}


def truncate_config(seed: int, paths: int) -> dict:
    """Criterion 7's truncation study at a = 1.2."""
    model = dict(_ATOMS_MODEL, small={"kind": "power_law", "c": 1.0, "a": _POWER_LAW_A})
    return {"model": model, "b": -0.5, "sigma": 0.3, "F": 0.2, "G": 0.1,
            "y0": 1.0, "T": 1.0, "scheme": "euler",
            "epsilons": [0.5, 0.25, 0.125], "truncation_level": 5,
            "ladder_levels": [3, 5], "finest_level": 8,
            "paths": paths, "seed": seed}


def centering_config(seed: int, paths: int) -> dict:
    """Criterion 8's model with every coefficient but F set to zero, so one
    Euler step over [0, T] from y0 = 1 moves y by exactly the compensated
    small-jump term F (sum of p over small jumps - T * integral of p), whose
    expectation is 0."""
    return {"model": _ATOMS_MODEL, "b": 0.0, "sigma": 0.0, "F": 0.2, "G": 0.0,
            "y0": 1.0, "T": 1.0, "scheme": "euler", "finest_level": 0,
            "paths": paths, "seed": seed}


@dataclass(frozen=True)
class Outcome:
    """One study: its wall time (None when it raised), the sha256 of its
    answer, and why its check failed (None when the answer is correct)."""

    wall_s: float | None
    digest: str | None
    failure: str | None


def _nonfinite(obj) -> bool:
    """True if any number in a parsed JSON value is missing or not finite."""
    if obj is None:
        return True
    if isinstance(obj, (bool, str)):
        return False
    if isinstance(obj, (int, float)):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_nonfinite(v) for v in obj.values())
    return any(_nonfinite(v) for v in obj)


class CliStudy:
    """`levystep converge|truncate` on a config file, timed from config parse
    to the written report.json and checked from the files it wrote."""

    def __init__(self, command: str, csv_name: str, config_path: Path,
                 paths: int, window: tuple[float, float]):
        self.command = command
        self.config_path = config_path
        self.paths = paths
        self.window = window
        self.out_dir = config_path.parent
        self.report_path = self.out_dir / "report.json"
        self.csv_path = self.out_dir / csv_name

    def run(self) -> Outcome:
        for stale in (self.report_path, self.csv_path):
            stale.unlink(missing_ok=True)
        argv = [self.command, "--config", str(self.config_path),
                "--out-dir", str(self.out_dir)]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            return Outcome(None, None, f"levystep {self.command} exited {code}")
        blob = self.report_path.read_bytes()
        return Outcome(wall, hashlib.sha256(blob).hexdigest(), self._check(blob))

    def _check(self, blob: bytes) -> str | None:
        report = json.loads(blob)
        if _nonfinite(report):
            return "report.json holds a missing or nonfinite number"
        with open(self.csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if not rows or any(not math.isfinite(float(v)) for row in rows for v in row):
            return f"{self.csv_path.name} is empty or holds a nonfinite number"
        if report.get("paths") != self.paths:
            return f"report covers {report.get('paths')} paths, not {self.paths}"
        lo, hi = self.window
        if not lo <= report["slope"] <= hi:
            return f"slope {report['slope']!r} outside [{lo}, {hi}]"
        return None


class CenteringStudy:
    """Many single-interval paths, one Euler step each; the mean step must be
    within 3 standard errors of its expectation 0."""

    def __init__(self, config: dict, expectation: float):
        self.config = config
        self.expectation = expectation
        self.paths = config["paths"]

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        values = self._values()
        wall = time.perf_counter() - t0
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        return Outcome(wall, digest, self._check(values))

    def _values(self) -> np.ndarray:
        cfg = harness.config_from_dict(self.config)
        active = levy.activate(cfg.model, cfg.epsilon)
        coef = cfg.coefficients_for(active)
        path_rng, build_path = harness.path_rng, path_mod.build_path
        run_scheme = schemes.run_scheme
        horizon, y0, seed = self.config["T"], self.config["y0"], self.config["seed"]
        grid = np.array([0.0, horizon])
        values = np.empty(self.paths)
        for i in range(self.paths):
            path = build_path(horizon, 0, active, path_rng(seed, i))
            values[i] = run_scheme(cfg.scheme, grid, path, coef, y0).values[-1] - y0
        return values

    def _check(self, values: np.ndarray) -> str | None:
        if not np.all(np.isfinite(values)):
            return "nonfinite step value"
        mean = float(values.mean())
        se = float(values.std(ddof=1)) / math.sqrt(values.size)
        if not abs(mean - self.expectation) <= CENTERING_SE * se:
            return (f"mean {mean!r} is {abs(mean - self.expectation) / se:.2f} s.e. "
                    f"from {self.expectation} (limit {CENTERING_SE})")
        return None


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    paths: int        # Monte-Carlo paths per study
    setup_kind: str   # how the set-up probe readies the model: activate | truncate

    def config(self, seed: int, paths: int) -> dict:
        return _CONFIGS[self.name](seed, paths)

    def study(self, config: dict, config_path: Path, break_check: bool):
        """The study of `config`, already written to `config_path`; its
        outputs go next to that file."""
        if self.name == "centering-single":
            return CenteringStudy(config, BROKEN_EXPECTATION if break_check else 0.0)
        if self.name == "converge-milstein":
            window = MILSTEIN_WINDOW
            command, csv_name = "converge", "errors.csv"
        else:
            window = TRUNCATION_WINDOW
            command, csv_name = "truncate", "truncation.csv"
        return CliStudy(command, csv_name, config_path, config["paths"],
                        BROKEN_WINDOW if break_check else window)


_CONFIGS = {
    "converge-milstein": converge_config,
    "truncate-powerlaw": truncate_config,
    "centering-single": centering_config,
}

WORKLOADS = {
    w.name: w for w in (
        Workload("converge-milstein", 1337, 150, "activate"),
        Workload("truncate-powerlaw", 2026, 2000, "truncate"),
        Workload("centering-single", 42, 5000, "activate"),
    )
}
