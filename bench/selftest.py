"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

1. Each generator gives identical inputs for the same seed and different
   inputs for another seed; filler rows never link to fixture rows.
2. Each correctness check can fail: a mutated expected text, a perturbed
   evaluator row, a crashing translate, and a forced non-zero CLI exit each
   raise the failure count of their workload.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import gen  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tabletalk import data, evaluator, schema  # noqa: E402

FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'}: {what}")
    if not condition:
        FAILURES.append(what)


def generators():
    corpus = ops.corpus_texts()
    a = gen.SqlStream(7, corpus)
    b = gen.SqlStream(7, corpus)
    c = gen.SqlStream(8, corpus)
    texts_a = [a.next() for _ in range(400)]
    expect(texts_a == [b.next() for _ in range(400)], "SQL stream repeats for a seed")
    expect(texts_a != [c.next() for _ in range(400)], "SQL stream differs across seeds")
    generated = [t for name, t in texts_a if name == "gen"]
    expect(len(set(generated)) > 0.9 * len(generated), "most generated SQL texts are distinct")

    fixture = gen.read_csv_dir(os.path.join("fixtures", "movies"))
    one = gen.scaled_movies(fixture, 3, 1000, 100)
    expect(one == gen.scaled_movies(fixture, 3, 1000, 100), "scaled movies repeat for a seed")
    expect(one != gen.scaled_movies(fixture, 4, 1000, 100), "scaled movies differ across seeds")
    fixture_ids = {str(r[0]) for r in fixture["MOVIE"][1:]}
    filler_links = [r for r in one["CAST"][len(fixture["CAST"]):] + one["DIRECTED"][len(fixture["DIRECTED"]):]
                    if str(r[0]) in fixture_ids]
    expect(not filler_links and len(one["MOVIE"]) == 1001,
           "filler has 1000 movies in all and never links to a fixture movie")
    split = gen.read_csv_dir(os.path.join("fixtures", "split"))
    expect(gen.scaled_split(split, 3, 100, 10) == gen.scaled_split(split, 3, 100, 10),
           "scaled split repeats for a seed")
    t = gen.oracle_tables(5, 5)
    expect(t == gen.oracle_tables(5, 5) and t != gen.oracle_tables(6, 5),
           "oracle tables repeat for a seed and differ across seeds")
    expect(all(len(rows) == 6 for rows in t.values()), "oracle tables hold 5 rows each")


def explain_checks(graphs):
    runner = ops.ExplainMix(1, graphs, {}, None)
    runner.op(0, ops.direct)  # op 0 is q1
    expect(runner.out.failed == 0, "explain: q1 passes against its golden")
    runner.expected = copy.deepcopy(runner.expected)
    runner.expected["translation"]["q1"] += " (mutated)"
    runner.op(0, ops.direct)
    expect(runner.out.failed == 1 and runner.out.wrong == 1,
           "explain: a mutated golden translation counts as a failed, wrong output")
    saved = ops.translate
    ops.translate = lambda *args: (_ for _ in ()).throw(AttributeError("forced"))
    try:
        runner.op(1, ops.direct)
    finally:
        ops.translate = saved
    expect(runner.out.causes.get("crash:AttributeError") == 1,
           "explain: a crash in translate counts as a failure by exception type")


def narrate_checks(graphs, work):
    movies = gen.read_csv_dir(os.path.join("fixtures", "movies"))
    split = gen.read_csv_dir(os.path.join("fixtures", "split"))
    for name, tables in (("movies", movies), ("split", split)):
        gen.write_tables(tables, os.path.join(work, name))
    plans = run.movie_plans(reference.typed_tables(movies), common.NARRATE_MOVIES)[:2]
    bad = dict(plans[0], expected=plans[0]["expected"].replace("Woody", "Woodie"))
    with open(os.path.join(work, "plans.json"), "w", encoding="utf-8") as fh:
        json.dump([plans[0], bad], fh)
    dbs = {name: data.load_data(graphs[name], os.path.join(work, name))
           for name in ("movies", "split")}
    runner = ops.NarrateLarge(1, graphs, dbs, work)
    runner.op(0, ops.direct)
    expect(runner.out.failed == 0, "narrate: the golden narration passes")
    runner.op(1, ops.direct)
    expect(runner.out.failed == 1 and runner.out.wrong == 1,
           "narrate: a mutated expected text counts as a failed, wrong output")


def oracle_checks(graphs):
    runner = ops.OracleSoundness(1, graphs, {}, None)
    runner.op(0, ops.direct)
    expect(runner.out.failed == 0, "oracle: evaluator agrees with sqlite3")
    saved = ops.evaluate

    def perturbed(ast, db):
        result = evaluator.evaluate(ast, db)
        result.rows = result.rows + result.rows[:1] if result.rows else [("extra",)]
        return result

    ops.evaluate = perturbed
    try:
        runner.op(0, ops.direct)
    finally:
        ops.evaluate = saved
    expect(runner.out.failed == 1 and runner.out.stats["sqlite_mismatches"] > 0,
           "oracle: a perturbed evaluator row counts as a failed operation")


def cli_checks(work):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    typed = reference.typed_tables(gen.read_csv_dir(os.path.join("fixtures", "movies")))
    cli = run.CliOneshot(ROOT, env, work, typed)
    good = cli.commands[0]
    forced = (["explain", "select nothing sensible", "--schema", run.MOVIES], None, good[2])
    cli.commands = [good, forced]
    cli.op(0)
    expect(cli.failed == 0, "cli: explain q1 passes against its golden")
    cli.op(1)
    expect(cli.failed == 1 and "exit 2" in cli.causes, "cli: a forced non-zero exit counts as a failure")
    expect(run.check_cli(0, "x\n", "Traceback (most recent call last)", {}) is not None,
           "cli: a traceback on stderr counts as a failure")


def main() -> int:
    work = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        graphs = {"movies": schema.load_schema(run.MOVIES),
                  "split": schema.load_schema(os.path.join("fixtures", "split.schema.json"))}
        generators()
        explain_checks(graphs)
        narrate_checks(graphs, work)
        oracle_checks(graphs)
        cli_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
