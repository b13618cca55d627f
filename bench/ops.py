"""Operations of the in-process workloads, their checks, and the traced run.

A runner's `op(i, call)` performs operation i (the same inputs every time
it is asked for i), returns the nanoseconds spent in tabletalk calls, and
then checks the output against its reference, recording the outcome.
`call(name, fn, *args, tag=None)` is either a plain call or a span.
"""

from __future__ import annotations

import json
import os
import resource
import time
from array import array
from collections import Counter

import calib
import common
import gen
import reference
from tabletalk import data, narrator, rewriter, templates
from tabletalk.classifier import classify
from tabletalk.data import RankSpec, load_data
from tabletalk.errors import TabletalkError
from tabletalk.evaluator import evaluate
from tabletalk.narrator import NarrationPlan, narrate
from tabletalk.parser import parse_sql, resolve_names
from tabletalk.query_graph import build
from tabletalk.translator import translate

ORACLE_ROWS = 5  # rows per table; q2 reads 5**6 combinations


def direct(name, fn, *args, tag=None):
    return fn(*args)


def corpus_texts() -> dict[str, str]:
    texts = {}
    for name in gen.CORPUS:
        with open(os.path.join("fixtures", "queries", f"{name}.sql"), encoding="utf-8") as fh:
            texts[name] = fh.read()
    return texts


class Outcome:
    """Attempted and failed operations; `wrong` counts outputs that differ
    from their reference (a subset of failed); `stats` holds other counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.causes: Counter = Counter()
        self.stats: Counter = Counter()

    def fail(self, cause: str, wrong: bool = False):
        self.failed += 1
        self.wrong += wrong
        self.causes[cause] += 1


class ExplainMix:
    """parse_sql -> resolve_names -> build -> classify -> translate on one text.

    A run does a fixed amount of work, OPS_PER_SECOND operations for each
    second asked for, so the known crashes it counts depend on the seed
    alone and not on how fast the host happened to be."""

    counted_ops = 400  # operations replayed with per-call counting
    rotation = 1
    OPS_PER_SECOND = 2000  # about the rate this machine reaches

    def limit(self, seconds):
        return max(1, round(self.OPS_PER_SECOND * seconds))

    def __init__(self, seed, graphs, dbs, work):
        self.seed = seed
        self.graph = graphs["movies"]
        self.corpus = corpus_texts()
        self.expected = reference.load_expected()
        self.out = Outcome()
        self._restart()

    def _restart(self):
        self.stream = gen.SqlStream(self.seed, self.corpus)
        self.position = 0

    def text(self, i):
        if i < self.position:
            self._restart()
        while self.position <= i:
            item = self.stream.next()
            self.position += 1
        return item

    def op(self, i, call):
        name, text = self.text(i)
        graph = self.graph
        label = result = crash = None
        start = time.perf_counter_ns()
        try:
            ast = call("parser.parse_sql", parse_sql, text)
            call("parser.resolve_names", resolve_names, ast, graph)
            qg = call("query_graph.build", build, ast, graph)
        except TabletalkError:
            rejected = True
        except Exception as exc:  # a crash is measured, not propagated
            rejected, crash = False, exc
        else:
            rejected = False
            try:
                cls = call("classifier.classify", classify, qg)
                label = cls.label
                result = call("translator.translate", translate, qg, graph, cls, tag=label)
            except Exception as exc:  # the procedural fallback is documented as total
                crash = exc
        elapsed = time.perf_counter_ns() - start
        self.check(name, rejected, crash, label, result)
        return elapsed

    def check(self, name, rejected, crash, label, result):
        out = self.out
        out.attempted += 1
        if rejected:
            out.stats["rejected"] += 1
            if name != "gen":
                out.fail(f"corpus {name} rejected", wrong=True)
            return
        if crash is not None:
            out.fail(f"crash:{type(crash).__name__}")
            return
        out.stats["translated"] += 1
        out.stats["procedural"] += result.style == "procedural"
        if not result.text.strip():
            out.fail("empty text", wrong=True)
        elif name != "gen":
            gold = self.expected["translation"].get(name)
            if label != self.expected["taxonomy"][name]:
                out.fail(f"corpus {name} class {label}", wrong=True)
            elif gold is not None and " ".join(result.text.split()) != gold:
                out.fail(f"corpus {name} text", wrong=True)

    def layer_metrics(self, tracer, m):
        us = lambda name, tag=None: 1000 * common.median(tracer.durations(name, tag))
        m["parser.parse_us"] = us("parser.parse_sql")
        m["parser.resolve_us"] = us("parser.resolve_names")
        m["query_graph.build_us"] = us("query_graph.build")
        m["classifier.classify_us"] = us("classifier.classify")
        m["translator.translate_us"] = us("translator.translate")
        for label in common.LABELS:
            m[f"translator.translate_us.{label}"] = us("translator.translate", label)
        m["rewriter.flatten_us"] = us("rewriter.flatten")
        out = self.out
        m["translator.procedural_ratio"] = out.stats["procedural"] / max(out.stats["translated"], 1)
        m["explain.rejected"] = out.stats["rejected"] / out.attempted
        crashes = {k[6:]: v for k, v in out.causes.items() if k.startswith("crash:")}
        for kind in common.CRASH_TYPES:
            m[f"explain.crashes.{kind}"] = crashes.pop(kind, 0) / out.attempted
        m["explain.crashes.other"] = sum(crashes.values()) / out.attempted


class NarrateLarge:
    """One narrate call per operation, rotating through the plans run.py wrote."""


    def __init__(self, seed, graphs, dbs, work):
        self.graphs, self.work = graphs, work
        self.dbs = {(name, common.NARRATE_MOVIES): db for name, db in dbs.items()}
        with open(os.path.join(work, "plans.json"), encoding="utf-8") as fh:
            self.plans = json.load(fh)
        self.current = [p for p in self.plans if p["size"] == common.NARRATE_MOVIES]
        # Runs stop after whole rotations, so the plan mix is fixed; the
        # counting pass replays one rotation.
        self.rotation = self.counted_ops = len(self.current)
        self.out = Outcome()

    def limit(self, seconds):
        return None

    @staticmethod
    def plan(p):
        rank = RankSpec(p["rank"][0], p["rank"][1]) if p["rank"] else None
        return NarrationPlan(start_relation=p["start"], mode=p["mode"],
                             tuple_budget=p["budget"], rank=rank)

    def op(self, i, call):
        p = self.current[i % len(self.current)]
        graph, db = self.graphs[p["schema"]], self.dbs[(p["schema"], p["size"])]
        plan = self.plan(p)
        text, crash = None, None
        start = time.perf_counter_ns()
        try:
            text = call("narrator.narrate", narrate, graph, db, plan).text
        except Exception as exc:  # a crash is measured, not propagated
            crash = exc
        elapsed = time.perf_counter_ns() - start
        out = self.out
        out.attempted += 1
        if crash is not None:
            out.fail(f"crash:{type(crash).__name__}")
        elif not text:
            out.fail("empty text", wrong=True)
        elif text != p["expected"]:
            out.fail(f"text differs: {p['schema']} {p['start']} {p['mode']} "
                     f"k={p['budget']} rank={p['rank']}", wrong=True)
        return elapsed

    def scaling(self, m):
        """narrate_ms at each size over the same movie plans, untraced."""
        for size in common.SCALES:
            if ("movies", size) not in self.dbs:
                path = os.path.join(self.work, f"movies-{size}")
                self.dbs[("movies", size)] = load_data(self.graphs["movies"], path)
            self.current = [p for p in self.plans
                            if p["size"] == size and p["schema"] == "movies"]
            lat, n = loop(self.op, 0, len(self.current) * 3, len(self.current) * 3)
            m[f"narrator.narrate_ms.n{size}"] = common.median(lat[:n]) if n else 0.0
        self.current = [p for p in self.plans if p["size"] == common.NARRATE_MOVIES]

    def layer_metrics(self, tracer, m):
        n = max(len(tracer.durations("narrator.narrate")), 1)
        m["narrator.narrate_ms"] = common.median(tracer.durations("narrator.narrate"))
        m["narrator.self_ms"] = common.median(tracer.self_times("narrator.narrate"))
        m["data.follow_join_calls"] = len(tracer.durations("narrator.follow_join")) / n
        m["data.follow_join_ms"] = sum(tracer.durations("narrator.follow_join")) / n
        parse = tracer.durations("templates.parse_template")
        inst = tracer.durations("templates.instantiate")
        m["templates.parse_template_calls"] = len(parse) / n
        m["templates.instantiate_calls"] = len(inst) / n
        m["templates.ms"] = (sum(parse) + sum(inst)) / n


class OracleSoundness:
    """Load one seeded database from CSV text, evaluate q1..q9 and flatten(q5)."""

    counted_ops = 10
    rotation = 1

    def limit(self, seconds):
        return None

    def __init__(self, seed, graphs, dbs, work):
        self.seed = seed
        self.graph = graphs["movies"]
        texts = corpus_texts()
        self.asts = {}
        for name, text in texts.items():
            self.asts[name] = resolve_names(parse_sql(text), self.graph)
        self.sqlite_sql = dict(texts, q9=reference.load_expected()["sqlite_q9"])
        self.out = Outcome()

    def op(self, i, call):
        tables = gen.oracle_tables(f"oracle:{self.seed}:{i}", ORACLE_ROWS)
        csvs = {name: gen.csv_text(rows) for name, rows in tables.items()}
        start = time.perf_counter_ns()
        db = call("data.load_data", load_data, self.graph, csvs)
        flat = rewriter.flatten(self.asts["q5"])
        got = {q: call("evaluator.evaluate", evaluate, ast, db, tag=q)
               for q, ast in self.asts.items()}
        got["q5flat"] = call("evaluator.evaluate", evaluate, flat, db, tag="q5flat")
        elapsed = time.perf_counter_ns() - start
        self.check(tables, got)
        return elapsed

    def check(self, tables, got):
        out = self.out
        out.attempted += 1
        ref = reference.sqlite_results(tables, self.sqlite_sql)
        bad = [q for q in ref if Counter(got[q].rows) != ref[q]]
        out.stats["pairs"] += len(ref)
        out.stats["nonempty"] += sum(bool(got[q].rows) for q in ref)
        out.stats["sqlite_mismatches"] += len(bad)
        q5, flat = got["q5"].rows, got["q5flat"].rows
        out.stats["bag_mismatches"] += Counter(q5) != Counter(flat)
        if bad:
            out.fail("differs from sqlite3: " + ",".join(bad), wrong=True)
        elif set(q5) != set(flat):
            out.fail("flatten(q5) differs from q5 as a set", wrong=True)

    def layer_metrics(self, tracer, m):
        for q in list(self.asts) + ["q5flat"]:
            m[f"evaluator.evaluate_ms.{q}"] = common.median(tracer.durations("evaluator.evaluate", q))
        m["rewriter.flatten_us"] = 1000 * common.median(tracer.durations("rewriter.flatten"))
        m["data.load_data_ms"] = common.median(tracer.durations("data.load_data"))
        stats = self.out.stats
        m["oracle.nonvacuous_ratio"] = stats["nonempty"] / max(stats["pairs"], 1)
        m["oracle.bag_mismatches"] = stats["bag_mismatches"]
        m["oracle.sqlite_mismatches"] = stats["sqlite_mismatches"]


RUNNERS = {"explain-mix": ExplainMix, "narrate-large": NarrateLarge,
           "oracle-soundness": OracleSoundness}


def loop(op, seconds, limit, slots, call=direct, rotation=1, gauge=None):
    """Closed loop, one operation at a time, until `limit` ops or, without a
    limit, until `seconds` have passed and the last rotation is complete.

    A `gauge` runs the calibration kernel between operations.  Latencies go
    to a preallocated array, so the process's memory does not grow with the
    number of operations a faster program completes."""
    lat = array("d", [0.0]) * slots
    n = 0
    deadline = time.perf_counter() + seconds
    cap = slots if limit is None else min(limit, slots)
    while n < cap and (limit is not None or n % rotation
                       or time.perf_counter() < deadline):
        lat[n] = op(n, call) / 1e6
        n += 1
        if gauge is not None:
            gauge.after(n)
    if gauge is not None:
        gauge.close(n)
    return lat, n


def run(runner, seconds, trace, slots, spans_path) -> dict:
    if not trace:
        gauge = calib.Gauge()
        lat, n = loop(runner.op, seconds, runner.limit(seconds), slots,
                      rotation=runner.rotation, gauge=gauge)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out = runner.out
        result = common.summarize(list(lat[:n]), gauge)
        result.update(attempted=out.attempted, failed=out.failed, wrong=out.wrong,
                      causes=dict(out.causes), peak_rss_mb=peak_kb / 1024)
        return result

    # Traced run: untraced for half the time, then the same operations
    # again under spans, then a few more with per-call counting.
    lat, n = loop(runner.op, seconds / 2, runner.limit(seconds / 2), slots,
                  rotation=runner.rotation)
    untraced_ms = sum(lat[:n])
    outcome = runner.out
    runner.out = Outcome()
    tracer = common.Tracer()
    tracer.patch(narrator, "follow_join", "narrator.follow_join")
    tracer.patch(templates, "parse_template", "templates.parse_template")
    tracer.patch(templates, "instantiate", "templates.instantiate")
    tracer.patch(rewriter, "flatten", "rewriter.flatten")

    def spanned(i, call):
        tracer.op = i
        return runner.op(i, call)

    traced, _ = loop(spanned, 0, n, n, call=tracer.call)
    tracer.restore()
    traced_ms = sum(traced[:n])

    counts = count_calls(runner, min(n, runner.counted_ops))
    m = {name: 0.0 for name in common.PER_LAYER}
    runner.layer_metrics(tracer, m)
    m.update(counts)
    m["trace.overhead_ratio"] = traced_ms / untraced_ms - 1
    if isinstance(runner, NarrateLarge):
        runner.scaling(m)
    tracer.write(spans_path)
    return {"metrics": m, "attempted": outcome.attempted + runner.out.attempted,
            "failed": outcome.failed + runner.out.failed,
            "wrong": outcome.wrong + runner.out.wrong,
            "causes": dict(outcome.causes + runner.out.causes)}


def count_calls(runner, n_ops) -> dict:
    """Replay n_ops operations counting Row.cell calls and rows scanned by
    follow_join (cell reads of rows other than the probing row)."""
    counters = Counter()
    active = []
    cell, follow = data.Row.cell, narrator.follow_join

    def counted_cell(row, attribute):
        counters["cell"] += 1
        if active and row is not active[-1]:
            counters["scanned"] += 1
        return cell(row, attribute)

    def counted_follow(db, edge, row):
        active.append(row)
        try:
            found = follow(db, edge, row)
        finally:
            active.pop()
        counters["matches"] += len(found)
        return found

    saved = runner.out
    runner.out = Outcome()
    data.Row.cell, narrator.follow_join = counted_cell, counted_follow
    try:
        loop(runner.op, 0, n_ops, max(n_ops, 1))
    finally:
        data.Row.cell, narrator.follow_join = cell, follow
        runner.out = saved
    per_op = max(n_ops, 1)
    return {
        "data.cell_calls": counters["cell"] / per_op,
        "data.rows_scanned": counters["scanned"] / per_op,
        "data.rows_scanned_per_match": counters["scanned"] / max(counters["matches"], 1),
    }
