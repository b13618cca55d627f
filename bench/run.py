"""The tabletalk benchmark.  Run it from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: explain-mix, narrate-large, oracle-soundness, cli-oneshot
(bench/WORKLOADS.md says what each measures and why).  Every workload is a
closed loop with one caller: one process, one operation at a time, and
cli-oneshot runs one child at a time.  Every operation's output is checked
against a reference that does not come from the code under test.

--trace 0 measures the end-to-end metrics; its times are rescaled by a
calibration kernel run between operations (bench/calib.py), so
that the host's drifting speed does not show as a change of the program.
--trace 1 is the separate traced run that gives the per-layer metrics and
the tracing overhead.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

Inputs are generated from --seed into .bench_out/ in the checkout; the
spans of a traced run are kept there as spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

import calib
import common
import gen
import reference

WORKLOADS = ["explain-mix", "narrate-large", "oracle-soundness", "cli-oneshot"]
# fail_ratio is printed but is not in the JSON line, which carries it as
# failed/attempted: it is 0 on three workloads.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 7  # set-ups per run; setup_s is their median
INTERP_SAMPLES = 10
CHILD_TIMEOUT_S = 150
CLI_OP_TIMEOUT_S = 30
# Rankings per start: only those that change which rows are narrated or
# their order (MOVIE has no `name`; on the split schema only MOVIE.title
# ranks anything, since each movie links one director and one actor).
RANKS = [None, ("id", True), ("name", False), ("year", True), ("title", True)]
MOVIE_RANKS = [None, ("id", True), ("year", True), ("title", True)]
SPLIT_RANKS = [None, ("title", True)]
MOVIES = os.path.join("fixtures", "movies.schema.json")

# Benchmark-owned CLI probe: times `import tabletalk.cli`, then
# `cli.main(argv)` and the loads inside it, and writes the spans to a file.
CLI_PROBE = """
import sys, time, json
t0 = time.perf_counter()
import tabletalk.cli as cli
t1 = time.perf_counter()
from tabletalk import data, schema
spans = [["cli.import", t0, t1]]
def timed(module, attr, name):
    fn = getattr(module, attr)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append([name, start, time.perf_counter()])
    setattr(module, attr, wrapper)
timed(schema, "load_schema", "schema.load_schema")
timed(data, "load_data", "data.load_data")
code = cli.main(sys.argv[2:])
spans.insert(1, ["cli.main", t1, time.perf_counter()])
sys.stdout.flush()
with open(sys.argv[1], "w") as fh:
    json.dump(spans, fh)
sys.exit(code)
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tabletalk benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    for needed in (os.path.join("src", "tabletalk", "__init__.py"), MOVIES):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.stderr.write(f"bench: {needed} not found; run from the root of a "
                             "tabletalk checkout\n")
            return 2
    # One CPU for this process and every child: the calibration kernel then
    # runs on the CPU whose speed it is to gauge.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(args, root, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def bench(args, root, work, out_dir) -> int:
    cli_tables = prepare(args.workload, args.seed, work, args.trace)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    here = os.path.dirname(os.path.abspath(__file__))

    def worker(seconds, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join(here, "worker.py"), args.workload,
             str(args.seed), str(seconds), str(trace), work],
            cwd=root, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])

    setups = [worker(0, 0) for _ in range(SETUP_SAMPLES - 1)]
    if args.workload == "cli-oneshot":
        setups.append(worker(0, 0))
        result = CliOneshot(root, env, work, cli_tables).run(args.seconds, args.trace)
    else:
        result = worker(args.seconds, args.trace)
        setups.append(result)
    spans = os.path.join(work, "spans.jsonl")
    if args.trace and os.path.exists(spans):
        shutil.copy(spans, os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))

    attempted, failed, wrong = result["attempted"], result["failed"], result["wrong"]
    causes = ", ".join(f"{k} {v}" for k, v in sorted(result["causes"].items())) or "none"
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: closed loop, "
          f"1 caller; python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"  fail_ratio {failed / max(attempted, 1):.6f} ratio "
          f"({failed} of {attempted}; {wrong} wrong outputs; causes: {causes})")
    if args.trace:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in common.PER_LAYER.items()}
    else:
        result["setup_s"] = common.median(s["setup_s"] for s in setups)
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"  op_tail_ms is p{result['tail_percentile']} of {result['samples']} samples; "
              f"setup_s is the median of set-ups {[round(s['setup_s'], 4) for s in setups]}")
        print(f"  before rescaling: op_tail_ms {result['raw_op_tail_ms']:.6g} ms, ops_per_s "
              f"{result['raw_ops_per_s']:.6g} 1/s, setup_s "
              f"{common.median(s['raw_setup_s'] for s in setups):.6g} s; calibration "
              f"kernel median {result['kernel_ms']:.4g} ms (reference {calib.REF_MS} ms)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


# --- inputs ---------------------------------------------------------------------

def prepare(workload, seed, work, trace):
    """Generate the workload's inputs into `work`; returns what the
    orchestrator itself needs (the CLI expectations).

    The standing database goes to `work/movies` (and `work/split`); the
    other sizes of the narration scaling curve to `work/movies-<size>`."""
    movies_fix = gen.read_csv_dir(os.path.join("fixtures", "movies"))
    split_fix = gen.read_csv_dir(os.path.join("fixtures", "split"))
    reference.check_formatter(movies_fix, split_fix)
    if workload == "narrate-large":
        plans = []
        sizes = common.SCALES if trace else [common.NARRATE_MOVIES]
        for size in sizes:
            tables = gen.scaled_movies(movies_fix, seed, size, size // 10)
            name = "movies" if size == common.NARRATE_MOVIES else f"movies-{size}"
            gen.write_tables(tables, os.path.join(work, name))
            plans += movie_plans(reference.typed_tables(tables), size)
        size = common.NARRATE_MOVIES
        tables = gen.scaled_split(split_fix, seed, size, size // 10)
        gen.write_tables(tables, os.path.join(work, "split"))
        typed = reference.typed_tables(tables)
        plans += [
            {"schema": "split", "size": size, "start": "MOVIE", "mode": mode,
             "budget": 3, "rank": rank,
             "expected": reference.narrate_split(typed, mode, rank)}
            for mode in ("declarative", "procedural") for rank in SPLIT_RANKS
        ]
        with open(os.path.join(work, "plans.json"), "w", encoding="utf-8") as fh:
            json.dump(plans, fh)
    if workload == "cli-oneshot":
        tables = gen.scaled_movies(movies_fix, seed, 1000, 100)
        gen.write_tables(tables, os.path.join(work, "movies"))
        return reference.typed_tables(tables)
    return None


def movie_plans(typed, size):
    """Both modes and the rankings of each start; the tuple budget varies
    only from DIRECTOR, the one start that narrates a join."""
    return [
        {"schema": "movies", "size": size, "start": start, "mode": mode,
         "budget": budget, "rank": rank,
         "expected": reference.narrate_movies(typed, start, mode, budget, rank)}
        for start, budgets, ranks in (("DIRECTOR", (1, 2, 3), RANKS),
                                      ("MOVIE", (3,), MOVIE_RANKS))
        for mode in ("declarative", "procedural") for budget in budgets
        for rank in ranks
    ]


# --- cli-oneshot ------------------------------------------------------------------

class CliOneshot:
    """One `python -m tabletalk.cli` child per operation, one at a time."""

    def __init__(self, root, env, work, typed):
        self.root, self.env, self.work = root, env, work
        self.commands = self._commands(typed)
        self.attempted = self.failed = self.wrong = self.peak_kb = 0
        self.causes = {}

    def _commands(self, typed):
        """(argv, stdin text or None, expectation) for one rotation."""
        gold = reference.load_expected()
        texts = {}
        for q in gen.CORPUS:
            with open(os.path.join("fixtures", "queries", f"{q}.sql"), encoding="utf-8") as fh:
                texts[q] = fh.read()
        schema = ["--schema", MOVIES]
        cmds = []
        for q in gen.CORPUS:
            label = gold["taxonomy"][q]
            expect = {"stderr_has": f"class: {label}\n"}
            if q in gold["translation"]:
                expect["stdout"] = gold["translation"][q] + "\n"
            cmds.append((["explain", texts[q], *schema], None, expect))
            cmds.append((["explain", *schema], texts[q], expect))
            cmds.append((["classify", texts[q], *schema], None, {"first_line": label}))
        cmds.append((["graph", *schema], None, {"prefix": gold["dot_prefix"]["schema"]}))
        cmds.append((["graph", texts["q7"], *schema], None,
                     {"prefix": gold["dot_prefix"]["query"], "contains": "cluster_NQ1"}))
        data = ["--data", os.path.relpath(os.path.join(self.work, "movies"), self.root)]
        narr = gold["narration"]
        cmds.append((["narrate", *schema, *data], None,
                     {"stdout": narr["movies_declarative"] + "\n"}))
        cmds.append((["narrate", *schema, *data, "--mode", "procedural"], None,
                     {"stdout": narr["movies_procedural"] + "\n"}))
        for k in (1, 2):
            text = reference.narrate_movies(typed, "DIRECTOR", "declarative", k, None)
            cmds.append((["narrate", *schema, *data, "--max-tuples", str(k)], None,
                         {"stdout": text + "\n"}))
        text = reference.narrate_movies(typed, "MOVIE", "declarative", 3, None)
        cmds.append((["narrate", *schema, *data, "--start", "MOVIE"], None,
                     {"stdout": text + "\n"}))
        return cmds

    def spawn(self, argv, stdin_text):
        """Run one child; returns (seconds, exit code, stdout, stderr, maxrss kB)."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=fo, stderr=fe,
                stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL)
            timer = threading.Timer(CLI_OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                if stdin_text is not None:
                    proc.stdin.write(stdin_text.encode())
                    proc.stdin.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            fo.seek(0)
            fe.seek(0)
            stdout = fo.read().decode("utf-8", "replace")
            stderr = fe.read().decode("utf-8", "replace")
        return elapsed, proc.returncode, stdout, stderr, usage.ru_maxrss

    def op(self, i, probe_spans=None):
        argv, stdin_text, expect = self.commands[i % len(self.commands)]
        if probe_spans is None:
            cmd = [sys.executable, "-m", "tabletalk.cli", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_PROBE, probe_spans, *argv]
        elapsed, code, stdout, stderr, rss = self.spawn(cmd, stdin_text)
        self.attempted += 1
        problem = check_cli(code, stdout, stderr, expect)
        if problem:
            self.failed += 1
            self.wrong += not problem.startswith(("exit", "traceback"))
            self.causes[problem] = self.causes.get(problem, 0) + 1
        self.peak_kb = max(self.peak_kb, rss)
        return elapsed

    def run(self, seconds, trace):
        span = seconds / 2 if trace else seconds
        lat = []
        gauge = calib.Gauge()
        deadline = time.perf_counter() + span
        rotation = len(self.commands)
        while len(lat) % rotation or time.perf_counter() < deadline:
            lat.append(1000 * self.op(len(lat)))
            gauge.after(len(lat))
        gauge.close(len(lat))
        result = {"attempted": self.attempted, "failed": self.failed}
        if not trace:
            result.update(common.summarize(lat, gauge))
            result.update(wrong=self.wrong, causes=self.causes,
                          peak_rss_mb=self.peak_kb / 1024)
            return result

        tracer = common.Tracer()
        spans_file = os.path.join(self.work, "probe.json")
        traced = []
        for i in range(len(lat)):
            traced.append(1000 * self.op(i, spans_file))
            with open(spans_file, encoding="utf-8") as fh:
                records = json.load(fh)
            base = len(tracer.spans)
            for name, start, end in records:
                parent = -1 if name.startswith("cli.") else base + 1
                tracer.spans.append([name, int(start * 1e9), int(end * 1e9), parent, i, None])
        tracer.write(os.path.join(self.work, "spans.jsonl"))
        interp = [1000 * self.spawn([sys.executable, "-c", "pass"], None)[0]
                  for _ in range(INTERP_SAMPLES)]
        m = {name: 0.0 for name in common.PER_LAYER}
        m["cli.interp_ms"] = common.median(interp)
        m["cli.import_ms"] = common.median(tracer.durations("cli.import"))
        m["cli.work_ms"] = common.median(tracer.durations("cli.main"))
        m["schema.load_schema_ms"] = common.median(tracer.durations("schema.load_schema"))
        m["data.load_data_ms"] = common.median(tracer.durations("data.load_data"))
        m["trace.overhead_ratio"] = sum(traced) / sum(lat) - 1
        return {"metrics": m, "attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "causes": self.causes}


def check_cli(code, stdout, stderr, expect):
    """The reason an operation failed, or None."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if code != 0:
        return f"exit {code}"
    if "stdout" in expect and stdout != expect["stdout"]:
        return "stdout differs from golden"
    if "first_line" in expect and stdout.splitlines()[:1] != [expect["first_line"]]:
        return "stdout differs from golden label"
    if "prefix" in expect and not stdout.startswith(expect["prefix"]):
        return "stdout lacks golden prefix"
    if "contains" in expect and expect["contains"] not in stdout:
        return "stdout lacks golden fragment"
    if not stdout.strip():
        return "stdout empty"
    if "stderr_has" in expect and expect["stderr_has"] not in stderr:
        return "stderr lacks golden class"
    return None


if __name__ == "__main__":
    sys.exit(main())
