"""Per-layer spans and counts for the traced run.

The package is not instrumented.  Instead, while a `Tracer` is installed it
replaces the functions each layer exposes (module attributes that callers
look up at call time, and methods of the path and model classes) with
wrappers that record a span: name, start, end, parent span and path id.
Spans stay in memory; `layer_metrics` turns them into per-layer busy and
self times (a span's duration minus the part its child spans cover), and
the run writes them out when it ends.

A layer none of whose hooked functions exists any more is reported as not
measured; a layer whose hooks exist but were never called is reported as
not called.  Both are printed with the value 0.
"""

from __future__ import annotations

import functools
import logging
import statistics
import time
from collections import defaultdict

import numpy as np

from levystep import harness, levy, schemes
from levystep import path as path_mod

_LEVY_MODELS = [getattr(levy, n) for n in ("LevyModel", "TruncatedModel") if hasattr(levy, n)]
_DRIVING_PATH = getattr(path_mod, "DrivingPath", None)

# span name -> the (owner, attribute) pairs wrapped under it
HOOKS = {
    "harness.study": [(harness, "strong_error_study"), (harness, "truncation_study")],
    "harness.rng": [(harness, "path_rng")],
    "path.build": [(harness, "build_path"), (path_mod, "build_path")],
    "path.simulate_events": [(path_mod, "simulate_events")],
    "levy.mark": [(cls, attr) for cls in _LEVY_MODELS
                  for attr in ("sample_small_mark", "sample_tail_mark")],
    "oracle.exact": [(harness, "exact_solution")],
    "schemes.run": [(harness, "run_scheme"), (schemes, "run_scheme")],
    "schemes.partial_step": [(harness, "step_factor")],
    "path.slices": [(_DRIVING_PATH, "slices"), (_DRIVING_PATH, "slice_grid")],
    "path.partial_slice": [(_DRIVING_PATH, "slice_between")],
    "path.with_jumps": [(_DRIVING_PATH, "with_jumps")],
    "harness.fit": [(harness, "fit_slope")],
    "cli.io": [(harness, "config_from_json"), (harness, "write_errors_csv"),
               (harness, "write_truncation_csv"), (harness, "write_report_json")],
}

_INHERITED = object()  # marks a method the class did not define itself

# spans that belong to one Monte-Carlo path (the per-path span covers them)
_PATH_LAYERS = frozenset(HOOKS) - {"harness.study", "harness.fit", "cli.io"}


def _array_bytes(obj) -> int:
    """Computed size of a path: nbytes of its array fields (tuples of arrays
    included); object fields such as jump records are not counted."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (tuple, list)):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return total


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_path(counts, args, kwargs, path):
    counts["path.built"] += 1
    counts["path.events"] += path.event_times.size
    counts["path.bytes"] += _array_bytes(path)
    for jump in path.jumps:
        small = getattr(jump.region, "value", jump.region) == "small"
        counts["path.jumps_small" if small else "path.jumps_tail"] += 1


def _count_oracle(counts, args, kwargs, result):
    counts["oracle.events_evaluated"] += len(_arg(args, kwargs, 1, "eval_times"))


def _count_steps(counts, args, kwargs, result):
    counts["schemes.slices_stepped"] += len(_arg(args, kwargs, 1, "grid")) - 1


def _count_kept(counts, args, kwargs, result):
    counts["path.jumps_kept"] += len(result.jumps)
    counts["path.jumps_offered"] += len(args[0].jumps)


# span name -> (count names it feeds, counter run on each call's result)
_COUNTERS = {
    "path.build": (("path.built", "path.events", "path.bytes", "path.jumps_small",
                    "path.jumps_tail"), _count_path),
    "oracle.exact": (("oracle.events_evaluated",), _count_oracle),
    "schemes.run": (("schemes.slices_stepped",), _count_steps),
    "path.with_jumps": (("path.jumps_kept", "path.jumps_offered"), _count_kept),
}


class _NudgeCounter(logging.Handler):
    """Counts the grid-collision warnings of `levystep.path`."""

    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if "collid" in str(record.msg).lower():
            self.counts["path.nudges"] += 1


class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, path id]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing_hooks: set[str] = set()
        self.unmeasured_counts: set[str] = set()
        self.origin = time.perf_counter()
        self._stack: list[int] = []
        self._path_id = -1   # paths started so far in this study, minus one
        self._saved: list[tuple[object, str, object]] = []
        self._nudges = _NudgeCounter(self.counts)

    def __enter__(self):
        for name, targets in HOOKS.items():
            found = [(owner, attr) for owner, attr in targets
                     if owner is not None and getattr(owner, attr, None) is not None]
            if not found:
                self.missing_hooks.add(name)
            for owner, attr in found:
                self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
                setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
        logging.getLogger("levystep.path").addHandler(self._nudges)
        return self

    def __exit__(self, *exc):
        logging.getLogger("levystep.path").removeHandler(self._nudges)
        for owner, attr, original in reversed(self._saved):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _COUNTERS.get(name)
        is_rng = name == "harness.rng"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_rng:  # each path starts by deriving its stream
                self._path_id += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._path_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                self._count(counter, args, kwargs, result)
            return result

        return traced

    def _count(self, counter, args, kwargs, result):
        names, fn = counter
        try:
            fn(self.counts, args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.unmeasured_counts.update(names)

    def exact_counts(self) -> dict[str, int]:
        """The counts that must repeat exactly for the same inputs."""
        calls = _calls(self.spans)
        out = {k: v for k, v in self.counts.items() if k not in self.unmeasured_counts}
        out["path.partial_slices"] = calls["path.partial_slice"]
        out["levy.marks"] = calls["levy.mark"]
        out["harness.paths"] = calls["harness.rng"]
        return dict(sorted(out.items()))


def _nested(spans, span) -> bool:
    """A span directly inside one of its own layer (a truncated model's tail
    sampler calls the base model's) is part of that call, not another."""
    return span[3] >= 0 and spans[span[3]][0] == span[0]


def _calls(spans):
    calls = defaultdict(int)
    for span in spans:
        if not _nested(spans, span):
            calls[span[0]] += 1
    return calls


def _times(spans):
    """Per span name: (busy seconds, self seconds)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    busy, own = defaultdict(float), defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        if not _nested(spans, spans[i]):
            busy[name] += end - start
        own[name] += end - start - covered[i]
    return busy, own


def _path_durations_ms(spans) -> list[float]:
    """Per Monte-Carlo path: first path-layer span start to last span end."""
    first, last = {}, {}
    for name, start, end, _, path_id in spans:
        if path_id < 0 or name not in _PATH_LAYERS:
            continue
        first[path_id] = min(first.get(path_id, start), start)
        last[path_id] = max(last.get(path_id, end), end)
    return [1e3 * (last[p] - first[p]) for p in first]


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, better, span layers it needs, counts it needs)
PER_LAYER = {
    "oracle.exact_s": ("s", "lower", ("oracle.exact",), ()),
    "oracle.events_evaluated": ("count", "lower", ("oracle.exact",), ("oracle.events_evaluated",)),
    "oracle.us_per_event": ("us", "lower", ("oracle.exact",), ("oracle.events_evaluated",)),
    "path.slices_s": ("s", "lower", ("path.slices",), ()),
    "schemes.step_s": ("s", "lower", ("schemes.run",), ()),
    "schemes.slices_stepped": ("count", "lower", ("schemes.run",), ("schemes.slices_stepped",)),
    "schemes.step_us_per_slice": ("us", "lower", ("schemes.run",), ("schemes.slices_stepped",)),
    "path.partial_slice_s": ("s", "lower", ("path.partial_slice",), ()),
    "schemes.partial_step_s": ("s", "lower", ("schemes.partial_step",), ()),
    "path.partial_slices": ("count", "lower", ("path.partial_slice",), ()),
    "harness.rng_setup_s": ("s", "lower", ("harness.rng",), ()),
    "path.simulate_events_s": ("s", "lower", ("path.simulate_events",), ()),
    "levy.mark_sample_s": ("s", "lower", ("levy.mark",), ()),
    "levy.marks": ("count", "lower", ("levy.mark",), ()),
    "path.assemble_s": ("s", "lower", ("path.build",), ()),
    "path.with_jumps_s": ("s", "lower", ("path.with_jumps",), ()),
    "path.jumps_kept_ratio": ("ratio", "higher", ("path.with_jumps",),
                              ("path.jumps_kept", "path.jumps_offered")),
    "harness.self_s": ("s", "lower", ("harness.study",), ()),
    "path.events": ("count", "lower", ("path.build",), ("path.events",)),
    "path.jumps_small": ("count", "lower", ("path.build",), ("path.jumps_small",)),
    "path.jumps_tail": ("count", "lower", ("path.build",), ("path.jumps_tail",)),
    "path.nudges": ("count", "lower", ("path.build",), ()),
    "path.nudge_ratio": ("ratio", "lower", ("path.build",), ("path.jumps_small", "path.jumps_tail")),
    "path.bytes_per_path": ("B_computed", "lower", ("path.build",), ("path.bytes", "path.built")),
    "harness.path_ms_p50": ("ms", "lower", ("harness.rng",), ()),
    "harness.path_ms_p99": ("ms", "lower", ("harness.rng",), ()),
    "harness.fit_s": ("s", "lower", ("harness.fit",), ()),
    "cli.io_s": ("s", "lower", ("cli.io",), ()),
}


TRACE_OVERHEAD = ("trace.overhead_ratio", "ratio", "lower")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {name: unit for name, (unit, _, _, _) in PER_LAYER.items()}
    units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
    return units


def _study_values(tracer: Tracer) -> dict[str, float]:
    busy, own = _times(tracer.spans)
    c = tracer.counts
    calls = _calls(tracer.spans)
    return {
        "oracle.exact_s": busy["oracle.exact"],
        "oracle.events_evaluated": c["oracle.events_evaluated"],
        "oracle.us_per_event": 1e6 * _ratio(busy["oracle.exact"], c["oracle.events_evaluated"]),
        "path.slices_s": busy["path.slices"],
        "schemes.step_s": own["schemes.run"],
        "schemes.slices_stepped": c["schemes.slices_stepped"],
        "schemes.step_us_per_slice": 1e6 * _ratio(own["schemes.run"], c["schemes.slices_stepped"]),
        "path.partial_slice_s": busy["path.partial_slice"],
        "schemes.partial_step_s": busy["schemes.partial_step"],
        "path.partial_slices": calls["path.partial_slice"],
        "harness.rng_setup_s": busy["harness.rng"],
        "path.simulate_events_s": own["path.simulate_events"],
        "levy.mark_sample_s": busy["levy.mark"],
        "levy.marks": calls["levy.mark"],
        "path.assemble_s": own["path.build"],
        "path.with_jumps_s": busy["path.with_jumps"],
        "path.jumps_kept_ratio": _ratio(c["path.jumps_kept"], c["path.jumps_offered"]),
        "harness.self_s": own["harness.study"],
        "path.events": c["path.events"],
        "path.jumps_small": c["path.jumps_small"],
        "path.jumps_tail": c["path.jumps_tail"],
        "path.nudges": c["path.nudges"],
        "path.nudge_ratio": _ratio(c["path.nudges"], c["path.jumps_small"] + c["path.jumps_tail"]),
        "path.bytes_per_path": _ratio(c["path.bytes"], c["path.built"]),
        "harness.fit_s": busy["harness.fit"],
        "cli.io_s": busy["cli.io"],
    }


def layer_metrics(tracers: list[Tracer]) -> tuple[dict[str, float], dict[str, str], int]:
    """Per-layer values over the traced studies of a run (the median of each
    study's value; per-path percentiles over all their paths), the status
    ("not called" or "not measured") of each metric that reads 0 for that
    reason, and the number of per-path samples."""
    per_study = [_study_values(t) for t in tracers]
    values = {name: statistics.median(v[name] for v in per_study) for name in per_study[0]}
    durations = [d for t in tracers for d in _path_durations_ms(t.spans)]
    values["harness.path_ms_p50"] = statistics.median(durations) if durations else 0.0
    values["harness.path_ms_p99"] = float(np.percentile(durations, 99)) if durations else 0.0
    called = {span[0] for t in tracers for span in t.spans}
    missing = set().union(*(t.missing_hooks for t in tracers))
    unmeasured = set().union(*(t.unmeasured_counts for t in tracers))
    status = {}
    for name, (_, _, layers, count_names) in PER_LAYER.items():
        if missing.intersection(layers) or unmeasured.intersection(count_names):
            status[name] = "not measured"
            values[name] = 0.0
        elif not called.intersection(layers):
            status[name] = "not called"
    return values, status, len(durations)
