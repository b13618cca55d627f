"""Command-line entry point: narrate, explain, classify, graph."""

from __future__ import annotations

import argparse
import json
import sys

from . import schema
from .errors import TabletalkError

USAGE_EXIT = 1
INPUT_EXIT = 2


class _ArgumentParser(argparse.ArgumentParser):
    """Usage problems exit 1 (argparse's default of 2 is our input-error code)."""

    def error(self, message):
        raise SystemExit(self.usage_error(message))

    def usage_error(self, message) -> int:
        """Print this (sub)command's usage and `message`; the exit code."""
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        return USAGE_EXIT


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="tabletalk",
        description="Narrate relational data and explain SQL queries in English.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, outputs=("text", "json")):
        p.add_argument("--schema", required=True, help="annotation file (JSON)")
        p.add_argument("--output", choices=outputs, default="text")
        p.set_defaults(subparser=p)

    narrate = sub.add_parser("narrate", help="narrate table contents")
    add_common(narrate)
    narrate.add_argument("--data", help="directory of <RELATION>.csv files")
    narrate.add_argument(
        "--mode",
        choices=("declarative", "procedural", "auto"),
        default="auto",
    )
    narrate.add_argument("--max-tuples", type=int, default=3, metavar="K")
    narrate.add_argument("--start", help="start relation for narration")
    explain = sub.add_parser("explain", help="translate a SQL query to English")
    explain.add_argument("sql", nargs="?", help="SQL text (or pipe via stdin)")
    add_common(explain)
    clf = sub.add_parser("classify", help="print the taxonomy class of a query")
    clf.add_argument("sql", nargs="?")
    add_common(clf)
    graph_cmd = sub.add_parser(
        "graph", help="DOT for a query graph, or the schema graph without SQL"
    )
    graph_cmd.add_argument("sql", nargs="?")
    add_common(graph_cmd, outputs=("text", "json", "dot"))
    return parser


def _read_sql(args) -> str | None:
    """The SQL argument; piped stdin is read only when there is none."""
    given = getattr(args, "sql", None)
    if given is not None or sys.stdin.isatty():
        return given
    try:
        return sys.stdin.read().strip() or None
    except OSError:
        return None


def _envelope(result, cls=None, notes=(), diagnostics=()):
    return json.dumps(
        {
            "result": result,
            "class": cls,
            "notes": list(notes),
            "diagnostics": list(diagnostics),
        },
        indent=2,
    )


def _load_query(sql, graph):
    """Parse and resolve `sql`, then build its query graph."""
    from . import parser, query_graph

    ast = parser.parse_sql(sql)
    parser.resolve_names(ast, graph)
    return query_graph.build(ast, graph)


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # worded by the subcommand, which owns the flags it accepts
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return _dispatch(args)
    except TabletalkError as exc:
        sys.stderr.write(f"{exc}\n")
        return INPUT_EXIT
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return INPUT_EXIT


def _dispatch(args) -> int:
    """Run one subcommand, importing only the submodules it uses."""
    graph = schema.load_schema(args.schema)
    if args.command == "narrate":
        if not args.data:
            return args.subparser.usage_error("narrate requires --data")
        if args.max_tuples < 0:
            sys.stderr.write(
                f"tabletalk: error: --max-tuples must be 0 or more, got {args.max_tuples}\n"
            )
            return INPUT_EXIT
        from . import data, narrator

        db = data.load_data(graph, args.data)
        plan = narrator.NarrationPlan(
            start_relation=args.start,
            mode=args.mode,
            tuple_budget=args.max_tuples,
            rank=data.RankSpec.load_order(),
        )
        narrative = narrator.narrate(graph, db, plan)
        if args.output == "json":
            print(_envelope(narrative.text, None, [], narrative.diagnostics))
        else:
            print(narrative.text)
            for diag in narrative.diagnostics:
                sys.stderr.write(f"note: {diag}\n")
        return 0

    if args.command == "graph":
        sql = _read_sql(args)
        if sql:
            from . import query_graph

            dot = query_graph.emit_dot(_load_query(sql, graph))
        else:
            dot = schema.emit_dot(graph)
        if args.output == "json":
            print(_envelope(dot, None, [], list(graph.warnings)))
        else:
            sys.stdout.write(dot)
        return 0

    sql = _read_sql(args)
    if not sql:
        return args.subparser.usage_error("a SQL query is required (argument or stdin)")
    from . import classifier

    qg = _load_query(sql, graph)
    cls = classifier.classify(qg)
    if args.command == "classify":
        if args.output == "json":
            print(_envelope(cls.label, cls.label, cls.evidence, []))
        else:
            print(cls.label)
            for line in cls.evidence:
                print(f"  - {line}")
        return 0

    from . import translator

    result = translator.translate(qg, graph, cls)
    if args.output == "json":
        print(_envelope(result.text, cls.label, result.notes, []))
    else:
        print(result.text)
        sys.stderr.write(f"class: {cls.label}\n")
        for note in result.notes:
            sys.stderr.write(f"note: {note}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
