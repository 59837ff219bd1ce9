#!/usr/bin/env python3
"""levystep benchmark: Monte-Carlo paths per second on three coupled workloads.

    python3 perfbench/run.py --workload converge-milstein --seed 1337 \
        --seconds 10 --trace 0

Run it from the root of a checkout: it imports `levystep` from `src/` there
and from nowhere else, and exits 2 without a result if `src/levystep` is
missing.  With `--trace 0` it times the set-up of a fresh interpreter, then
repeats one study for `--seconds` (a repeat starts only if one as long as
the last would end in time) and prints the end-to-end metrics.  There is no
untimed warm-up study: the first study in a process that has imported the
package showed no start-up penalty, and the median absorbs one slow study.  With `--trace 1` it alternates
untraced and traced studies and prints the per-layer metrics of the traced
ones, plus the tracing overhead.  Every study's answer is checked, and every
study of a run must give the same answer bit for bit.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; `failed / attempted` is the run's
fail ratio.  A fuller record (machine, commit, per-study times, digests, exact
counts, which layers were not called) goes to
`.perfbench/<workload>-seed<seed>/result-trace<0|1>.json`, and a traced run
writes its spans next to it.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# the keys of workloads.WORKLOADS, which can only be imported once src/ is found
WORKLOAD_NAMES = ("converge-milstein", "truncate-powerlaw", "centering-single")
MIN_TIMED_STUDIES = 3   # timed studies per untraced run, however short --seconds
MIN_TRACED_PAIRS = 2    # untraced/traced pairs per traced run
SETUP_PROBES = 3        # timed fresh-interpreter set-ups (after one untimed)
PROBE_TIMEOUT_S = 60

# Run in a fresh interpreter: import levystep from the checkout, parse the
# workload's config and ready its model's coefficients, then say "ready".
_SETUP_PROBE = """
import sys
src, config_path, kind = sys.argv[1:4]
sys.path.insert(0, src)
import levystep
from levystep import harness, levy
if not levystep.__file__.startswith(src):
    sys.exit("levystep imported from " + levystep.__file__)
cfg = harness.config_from_json(config_path)
if kind == "truncate":
    radii = list(cfg.epsilons) + [min(cfg.epsilons) / 4.0]
    coefs = [cfg.coefficients_for(levy.truncate(cfg.model, e)) for e in radii]
else:
    coefs = [cfg.coefficients_for(levy.activate(cfg.model, cfg.epsilon))]
print("ready", flush=True)
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed of the study (default: 1337, 2026 or 42 by workload)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long to keep repeating timed studies")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--paths", type=int, default=None,
                   help="Monte-Carlo paths per study (default: the workload's own)")
    p.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench",
                   help="where studies, records and spans are written")
    p.add_argument("--break-check", action="store_true",
                   help="make every correctness check fail (shows that failures are counted)")
    return p.parse_args(argv)


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def _time_setup(config_path: Path, kind: str) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to run,
    for one untimed probe (which fills byte-code caches) and SETUP_PROBES
    timed ones; returns the timed ones."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(config_path), kind],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _, err = child.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
                raise RuntimeError("set-up probe did not exit") from None
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode}): {err.strip()}")
        times.append(elapsed)
    return times[1:]


def _run_checked(study, reference: list, label: str):
    """Run one study and fold a changed answer into its failure.  `reference`
    holds the first digest of the run once there is one."""
    from workloads import Outcome
    try:
        outcome = study.run()
    except Exception as exc:  # a study that raises is a failed run, not a crashed benchmark
        traceback.print_exc()
        return Outcome(None, None, f"{label} raised {type(exc).__name__}: {exc}")
    if outcome.digest is not None:
        if not reference:
            reference.append(outcome.digest)
        elif outcome.digest != reference[0] and outcome.failure is None:
            outcome = Outcome(outcome.wall_s, outcome.digest,
                              f"{label} answer differs from the run's first study")
    return outcome


def _paths_per_s(outcomes, paths):
    return [paths / o.wall_s for o in outcomes if o.wall_s]


def _more(start: float, seconds: float, last_s: float, done: int, minimum: int) -> bool:
    """Whether to start another repeat: always until `minimum` are done, then
    only if one as long as the last would still end within `seconds`."""
    return done < minimum or time.perf_counter() - start + last_s <= seconds


def _untraced_run(study, seconds, reference):
    outcomes = []
    start = last = time.perf_counter()
    while _more(start, seconds, time.perf_counter() - last, len(outcomes), MIN_TIMED_STUDIES):
        last = time.perf_counter()
        outcomes.append(_run_checked(study, reference, f"study {len(outcomes) + 1}"))
    return outcomes


def _traced_run(study, seconds, reference, layertrace):
    from workloads import Outcome
    untraced, tracers = [], []
    start = last = time.perf_counter()
    while _more(start, seconds, time.perf_counter() - last, len(tracers), MIN_TRACED_PAIRS):
        last = time.perf_counter()
        untraced.append(_run_checked(study, reference, f"untraced study {len(untraced) + 1}"))
        with layertrace.Tracer() as tracer:
            traced = _run_checked(study, reference, f"traced study {len(tracers) + 1}")
        if tracers and traced.failure is None and \
                tracer.exact_counts() != tracers[0][1].exact_counts():
            traced = Outcome(traced.wall_s, traced.digest,
                             f"traced study {len(tracers) + 1} counts differ from the first")
        tracers.append((traced, tracer))
    outcomes = [o for pair in zip(untraced, (o for o, _ in tracers)) for o in pair]
    return outcomes, untraced, tracers


def _machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _commit() -> dict:
    """The git commit when the checkout is a repository, and always a sha256
    over the package sources (sorted paths and contents)."""
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes() + b"\0")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _write_spans(path: Path, tracer, header: dict) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps(dict(header, fields=["name", "start_s", "end_s",
                                                 "parent", "path_id"])) + "\n")
        for name, start, end, parent, path_id in tracer.spans:
            fh.write(json.dumps([name, start - tracer.origin, end - tracer.origin,
                                 parent, path_id]) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "levystep" / "__init__.py").is_file():
        print(f"benchmark: no levystep package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import levystep
    import layertrace
    import workloads
    import_s = time.perf_counter() - t0
    if not Path(levystep.__file__).resolve().is_relative_to(SRC):
        print(f"benchmark: levystep came from {levystep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    paths = workload.paths if args.paths is None else args.paths
    out_dir = args.out_dir / f"{workload.name}-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    config = workload.config(seed, paths)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    study = workload.study(config, config_path, args.break_check)

    record = {"workload": workload.name, "seed": seed, "paths_per_study": paths,
              "seconds": args.seconds, "trace": args.trace, "config": config,
              "machine": _machine(), "source": _commit(), "import_s": import_s}
    reference: list[str] = []
    if args.trace == 0:
        setup = _time_setup(config_path, workload.setup_kind)
        outcomes = _untraced_run(study, args.seconds, reference)
        rates = _paths_per_s(outcomes, paths)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "paths_per_s": {"value": _median_or_zero(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record.update(setup_s_samples=setup, study_wall_s=[o.wall_s for o in outcomes])
    else:
        outcomes, untraced, tracers = _traced_run(study, args.seconds, reference, layertrace)
        values, status, path_samples = layertrace.layer_metrics([t for _, t in tracers])
        plain = _median_or_zero(_paths_per_s(untraced, paths))
        traced = _median_or_zero(_paths_per_s([o for o, _ in tracers], paths))
        values["trace.overhead_ratio"] = plain / traced if traced else 0.0
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layertrace.metric_units().items()}
        last = tracers[-1][1]
        spans_path = out_dir / "spans-trace1.jsonl.gz"
        _write_spans(spans_path, last, {"workload": workload.name, "seed": seed})
        record.update(
            untraced_paths_per_s=plain, traced_paths_per_s=traced,
            layer_status=status, exact_counts=last.exact_counts(),
            jumps_kept_base="jumps on the built paths, once per truncation radius",
            per_path_samples=path_samples,
            missing_hooks=sorted(last.missing_hooks), spans=spans_path.name,
            untraced_wall_s=[o.wall_s for o in untraced],
            traced_wall_s=[o.wall_s for o, _ in tracers])

    failures = [o.failure for o in outcomes if o.failure is not None]
    attempted, failed = len(outcomes), len(failures)
    correct = failed == 0
    record.update(correct=correct, attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, failures=failures,
                  digest=reference[0] if reference else None, metrics=metrics)
    record_path = out_dir / f"result-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"{workload.name} seed {seed}: {attempted} studies of {paths} paths, "
          f"{failed} failed; record {record_path}")
    for failure in failures[:5]:
        print(f"  failed: {failure}")
    for name, m in metrics.items():
        note = record.get("layer_status", {}).get(name)
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
