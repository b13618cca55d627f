"""Statistics and span tracing shared by the benchmark's processes."""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter

import calib

NARRATE_MOVIES = 10000  # movies in narrate-large's standing database
SCALES = [100, 1000, 10000]  # sizes of the narration scaling curve
LABELS = ["Path", "Subgraph", "GraphMultiInstance", "GraphCyclic",
          "NestedFlattenable", "NestedGeneral", "Aggregate", "HigherOrder"]
QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q5flat"]
CRASH_TYPES = ["AttributeError", "NotFlattenable", "DanglingReference"]

# Every per-layer metric and its unit.  Each traced run reports all of
# them; a layer the workload never calls reads 0, which is the control.
PER_LAYER = {
    "parser.parse_us": "us",
    "parser.resolve_us": "us",
    "query_graph.build_us": "us",
    "classifier.classify_us": "us",
    "translator.translate_us": "us",
    **{f"translator.translate_us.{label}": "us" for label in LABELS},
    "rewriter.flatten_us": "us",
    "translator.procedural_ratio": "ratio",
    "explain.rejected": "ratio",
    **{f"explain.crashes.{kind}": "ratio" for kind in CRASH_TYPES},
    "explain.crashes.other": "ratio",
    "narrator.narrate_ms": "ms",
    "narrator.self_ms": "ms",
    "data.follow_join_calls": "count",
    "data.follow_join_ms": "ms",
    "data.rows_scanned": "count",
    "data.rows_scanned_per_match": "ratio",
    "data.cell_calls": "count",
    "templates.parse_template_calls": "count",
    "templates.instantiate_calls": "count",
    "templates.ms": "ms",
    "narrator.narrate_ms.n100": "ms",
    "narrator.narrate_ms.n1000": "ms",
    "narrator.narrate_ms.n10000": "ms",
    "schema.load_schema_ms": "ms",
    "data.load_data_ms": "ms",
    **{f"evaluator.evaluate_ms.{q}": "ms" for q in QUERIES},
    "oracle.nonvacuous_ratio": "ratio",
    "oracle.bag_mismatches": "count",
    "oracle.sqlite_mismatches": "count",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.work_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile
TAIL_CAP = 0.99  # beyond p99 a run's tail is set by host stalls, not the program


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile, capped at p99, with at
    least TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    if n <= TAIL_SAMPLES:
        return 0.0, max(samples)
    q = min(1 - TAIL_SAMPLES / n, TAIL_CAP)
    rank = min(n - 1 - TAIL_SAMPLES, math.ceil(q * n) - 1)
    return 100 * q, sorted(samples)[rank]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def summarize(latencies_ms: list[float], gauge: calib.Gauge) -> dict:
    """End-to-end latency metrics of one run, rescaled by the calibration
    kernel; the raw figures are kept alongside for the printout."""
    scaled = gauge.rescale(latencies_ms)
    pct, value = tail(scaled)
    return {
        "op_p50_ms": median(scaled),
        "op_tail_ms": value,
        "tail_percentile": round(pct, 3),
        "samples": len(scaled),
        "ops_per_s": 1000 * len(scaled) / sum(scaled),
        "raw_op_tail_ms": tail(latencies_ms)[1],
        "raw_ops_per_s": 1000 * len(latencies_ms) / sum(latencies_ms),
        "kernel_ms": median(gauge.kernel_times()),
    }


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, op id, tag].

    `call` wraps one call in a span; `patch` replaces a module attribute
    with a spanned wrapper, which `restore` undoes.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._patched: list[tuple] = []

    def call(self, name, fn, *args, tag=None):
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.op, tag]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args)
        finally:
            record[2] = time.perf_counter_ns()
            self.stack.pop()

    def patch(self, owner, attr: str, name: str):
        original = getattr(owner, attr)

        def spanned(*args):
            return self.call(name, original, *args)

        setattr(owner, attr, spanned)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # analysis ---------------------------------------------------------------

    def durations(self, name: str, tag=None) -> list[float]:
        """Durations in ms of every span called `name` (and tag, if given)."""
        return [
            (s[2] - s[1]) / 1e6 for s in self.spans
            if s[0] == name and (tag is None or s[5] == tag)
        ]

    def self_times(self, name: str) -> list[float]:
        """Self time in ms of each `name` span: duration minus direct children."""
        covered = Counter()
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return [
            (s[2] - s[1] - covered[i]) / 1e6
            for i, s in enumerate(self.spans) if s[0] == name
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
