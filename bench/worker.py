"""Runs one in-process workload in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py <workload> <seed> <seconds> <trace 0|1> <work dir>

It first times the program's set-up: `import tabletalk`, `load_schema`, and
`load_data` of the workload's standing database, read from the work dir
that bench/run.py filled.  The calibration kernel runs just before and just
after it, and setup_s is rescaled by them (raw_setup_s is the raw time).
With seconds 0 it stops there, which is how run.py samples set-up several
times.  The benchmark's own modules are
imported only after that, so they add nothing to the set-up time.

Each workload is a closed loop with one caller.  An operation's latency
covers only calls into tabletalk; generating its input and checking its
output happen outside the timed interval.
"""

import os
import sys
import time

import calib

MOVIES_SCHEMA = os.path.join("fixtures", "movies.schema.json")
SPLIT_SCHEMA = os.path.join("fixtures", "split.schema.json")
LATENCY_SLOTS = 500_000  # preallocated, so memory does not grow with speed


def setup(workload: str, work: str):
    """Import and load as a user of the library would; returns the state."""
    t0 = time.perf_counter()
    import tabletalk  # noqa: F401  (the import is part of what is timed)
    from tabletalk import data, schema

    parts = {"load_schema": [], "load_data": []}

    def timed(kind, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        parts[kind].append(time.perf_counter() - start)
        return result

    graphs, dbs = {}, {}
    graphs["movies"] = timed("load_schema", schema.load_schema, MOVIES_SCHEMA)
    if workload == "narrate-large":
        graphs["split"] = timed("load_schema", schema.load_schema, SPLIT_SCHEMA)
    if workload in ("narrate-large", "cli-oneshot"):
        for name in graphs:
            dbs[name] = timed("load_data", data.load_data, graphs[name],
                              os.path.join(work, name))
    return time.perf_counter() - t0, parts, graphs, dbs


def main(argv) -> int:
    workload, seed, seconds, trace, work = (
        argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
    before = calib.kernel_ms()
    raw_setup_s, parts, graphs, dbs = setup(workload, work)
    setup_s = raw_setup_s * calib.factor(before, calib.kernel_ms())
    import json

    if seconds == 0:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    import ops

    runner = ops.RUNNERS[workload](seed, graphs, dbs, work)
    spans = os.path.join(work, "spans.jsonl")
    result = ops.run(runner, seconds, trace, LATENCY_SLOTS, spans)
    result.update(setup_s=setup_s, raw_setup_s=raw_setup_s)
    if trace:
        m = result["metrics"]
        m["schema.load_schema_ms"] = 1000 * parts["load_schema"][0]
        if parts["load_data"]:
            m["data.load_data_ms"] = 1000 * sum(parts["load_data"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
