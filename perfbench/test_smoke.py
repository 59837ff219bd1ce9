"""Smoke test of the benchmark at tiny path counts.

    python3 -m pytest perfbench/test_smoke.py

Runs the real benchmark command in subprocesses, with records written to a
temporary directory, and checks that every metric named in BENCHMARK.json
is printed with its unit, that tracing changes no answer and no exact count,
that a failing check is counted, and that a directory without the package
sources gives no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_PATHS = {"converge-milstein": 12, "truncate-powerlaw": 60, "centering-single": 300}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(out_dir, workload, trace, *extra, cwd=ROOT, bench_dir=BENCH_DIR):
    cmd = [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
           "--seconds", "0", "--trace", str(trace),
           "--paths", str(TINY_PATHS[workload]), "--out-dir", str(out_dir), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(out_dir, workload, trace):
    (run_dir,) = out_dir.glob(f"{workload}-seed*")
    return json.loads((run_dir / f"result-trace{trace}.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: an untraced run and two traced runs, all with the
    workload's default seed, each in its own output directory."""
    out = {}
    for workload in WORKLOADS:
        for trace, tag in ((0, "plain"), (1, "traced"), (1, "traced-again")):
            out_dir = tmp_path_factory.mktemp(f"{workload}-{tag}")
            proc = _bench(out_dir, workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, tag] = (_result(proc), _record(out_dir, workload, trace))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(runs, workload):
    for tag, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        result, _ = runs[workload, tag]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for metric in SPEC["end_to_end"]:
        assert runs[workload, "plain"][0]["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_answer_and_no_count(runs, workload):
    _, plain = runs[workload, "plain"]
    _, traced = runs[workload, "traced"]
    _, again = runs[workload, "traced-again"]
    assert plain["digest"] and plain["digest"] == traced["digest"] == again["digest"]
    assert traced["exact_counts"] == again["exact_counts"]
    counts = traced["exact_counts"]
    assert counts["harness.paths"] == counts["path.built"] > 0
    assert counts["levy.marks"] == counts["path.jumps_small"] + counts["path.jumps_tail"]
    assert not traced["missing_hooks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_failing_check_is_counted(tmp_path, workload):
    proc = _bench(tmp_path, workload, 0, "--break-check")
    result = _result(proc)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert _record(tmp_path, workload, 0)["fail_ratio"] == 1.0


def test_no_result_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path / "out", "centering-single", 0, cwd=tmp_path,
                  bench_dir=tmp_path / BENCH_DIR.name)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
