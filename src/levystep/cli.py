"""Command-line entry points.

    levystep simulate --config cfg.json [--seed S] [--out-dir D]
    levystep converge --config cfg.json [--paths M] [--seed S] [--out-dir D]
    levystep truncate --config cfg.json [--paths M] [--seed S] [--out-dir D]

Exit codes: 0 success, 2 configuration error (bad flags, a missing or invalid
config, an --out-dir that is not a directory), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .common import ConfigError, require
from . import harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="levystep")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "write one coupled scheme/oracle trajectory"),
        ("converge", "run the strong-convergence study"),
        ("truncate", "run the truncation-error study"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name != "simulate":  # simulate runs one path
            p.add_argument("--paths", type=int, default=None, help="override the path count")
        p.add_argument("--out-dir", default=".", help="output directory (created if needed)")
    return parser


def _load_config(args) -> harness.StudyConfig:
    cfg = harness.config_from_json(args.config)
    overrides = {key: value for key in ("seed", "paths")
                 if (value := getattr(args, key, None)) is not None}
    if overrides:
        # parsed again as a whole, so an override is checked like the key it replaces
        cfg = harness.config_from_dict({**cfg.source, **overrides})
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = Path(args.out_dir)
        # refused before a long run; created only once the run has succeeded
        require(out.is_dir() or not out.exists(), f"--out-dir {out} is not a directory")
        if args.command == "simulate":
            traj, oracle_vals = harness.simulate_trajectory(cfg)
            harness.ensure_out_dir(out)
            harness.write_trajectory_csv(traj.times, traj.values, oracle_vals,
                                         out / "trajectory.csv")
            print(f"wrote {out / 'trajectory.csv'}")
        elif args.command == "converge":
            report = harness.strong_error_study(cfg)
            harness.ensure_out_dir(out)
            harness.write_errors_csv(report, out / "errors.csv")
            harness.write_report_json(report, out / "report.json")
            print(f"slope {report.slope:.4f} "
                  f"(ci {report.slope_ci[0]:.4f}..{report.slope_ci[1]:.4f}, "
                  f"target {report.target_order}); wrote {out / 'errors.csv'}, "
                  f"{out / 'report.json'}")
        else:
            report = harness.truncation_study(cfg)
            harness.ensure_out_dir(out)
            harness.write_truncation_csv(report, out / "truncation.csv")
            harness.write_report_json(report, out / "report.json")
            print(f"slope {report.slope:.4f} "
                  f"(ci {report.slope_ci[0]:.4f}..{report.slope_ci[1]:.4f}); "
                  f"wrote {out / 'truncation.csv'}, {out / 'report.json'}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, distinct from config problems
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
