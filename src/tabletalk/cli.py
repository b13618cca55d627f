"""Command-line entry point: narrate, explain, classify, graph.

`COMMANDS` declares each subcommand's flags.  Parsing, the usage lines,
`-h` output and every usage error come from it, worded as argparse words
them at 80 columns.  A flag takes its value as `--flag value` or
`--flag=value`, may be shortened to a unique prefix, and repeats with the
last value winning; `--` ends the flags.
"""

import json
import re
import sys

from . import schema
from .errors import TabletalkError

USAGE_EXIT = 1
INPUT_EXIT = 2
WIDTH, HELP_COLUMN = 78, 24  # argparse's layout at 80 columns
REQUIRED = object()
DESCRIPTION = "Narrate relational data and explain SQL queries in English."
HELP = ("-h", "--help")
_SCHEMA = ("--schema", str, REQUIRED, "annotation file (JSON)")
_OUTPUT = ("--output", ("text", "json"), "text", "")

# Subcommand -> (its help line, the help of its optional SQL argument or
# None when it takes none, its flags).  A flag is (name, value, default,
# help): its value is free text (str), an integer (int, shown as K) or one
# of a tuple of choices; a REQUIRED flag must be given.
COMMANDS = {
    "narrate": ("narrate table contents", None, (
        _SCHEMA, _OUTPUT, ("--data", str, None, "directory of <RELATION>.csv files"),
        ("--mode", ("declarative", "procedural", "auto"), "auto", ""),
        ("--max-tuples", int, 3, ""), ("--start", str, None, "start relation for narration"),
    )),
    "explain": ("translate a SQL query to English", "SQL text (or pipe via stdin)",
                (_SCHEMA, _OUTPUT)),
    "classify": ("print the taxonomy class of a query", "", (_SCHEMA, _OUTPUT)),
    "graph": ("DOT for a query graph, or the schema graph without SQL", "",
              (_SCHEMA, ("--output", ("text", "json", "dot"), "text", ""))),
}


class _Stop(Exception):
    """(command or None for the top level, message): ends the run with a
    usage error, or with the command's help when the message is None."""


def parse_args(argv) -> dict:
    """The command, its `sql` argument and its flags (keyed by name) of one
    command line; raises _Stop."""
    extras, rest = [], list(argv)  # other flags before the command are unrecognized
    while rest and (found := _flag(rest[0], HELP, None)):
        if found[0]:
            raise _Stop(None, None)
        extras.append(rest.pop(0))
    if not rest:
        raise _Stop(None, "the following arguments are required: command")
    command = _value(("command", tuple(COMMANDS)), rest.pop(0), None)
    _, sql_help, flags = COMMANDS[command]
    spec = {flag[0]: flag for flag in flags}
    opts = {"command": command} | {name: flag[2] for name, flag in spec.items()}
    # Every argument is matched before any is consumed, as argparse does.
    end = rest.index("--") if "--" in rest else len(rest)
    args = [(arg, _flag(arg, HELP + tuple(spec), command)) for arg in rest[:end]]
    args += [(arg, None) for arg in rest[end + 1:]]
    while args:
        arg, found = args.pop(0)
        if found is None and sql_help is not None and "sql" not in opts:
            opts["sql"] = arg
        elif found is None or found[0] is None:
            extras.append(arg)
        elif found[0] in HELP:
            raise _Stop(command, None)
        else:
            name, value = found
            if value is None:
                if not args or args[0][1] is not None:
                    raise _Stop(command, f"argument {name}: expected one argument")
                value = args.pop(0)[0]
            opts[name] = _value(spec[name], value, command)
    missing = [name for name in spec if opts[name] is REQUIRED]
    if missing:
        raise _Stop(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _Stop(command, f"unrecognized arguments: {' '.join(extras)}")
    return {"sql": None} | opts


def _flag(arg, names, command):
    """(the flag of `names` that `arg` gives, None for an unknown one;
    its `=value` or None), or None when `arg` is a value."""
    if arg in ("-", "--") or not arg.startswith("-"):
        return None
    key, eq, value = arg.partition("=")
    prefixed = [name for name in names if key.startswith("--") and name.startswith(key)]
    found = [key] if key in names else prefixed
    if len(found) > 1:
        raise _Stop(command, f"ambiguous option: {arg} could match {', '.join(found)}")
    if not found and (" " in arg or re.fullmatch(r"-\d+|-\d*\.\d+", arg)):  # text or a number
        return None
    return (found[0] if found else None), (value if eq else None)


def _value(flag, text, command):
    """`text` as the value of a flag (or of the command itself)."""
    name, kind = flag[:2]
    if isinstance(kind, tuple) and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise _Stop(command, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    try:
        return int(text) if kind is int else text
    except ValueError:
        raise _Stop(command, f"argument {name}: invalid int value: {text!r}") from None


def _shown(name, kind) -> str:
    """A flag with its value, as usage and help show it."""
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {'K' if kind is int else name[2:].upper()}"


def _usage(command) -> str:
    """The usage line, wrapped within WIDTH under its first part."""
    if command is None:
        parts = ["[-h]", f"{{{','.join(COMMANDS)}}} ..."]
    else:
        _, sql_help, flags = COMMANDS[command]
        shown = [(_shown(name, kind), default is REQUIRED) for name, kind, default, _ in flags]
        parts = ["[-h]"] + [text if required else f"[{text}]" for text, required in shown]
        parts += [] if sql_help is None else ["[sql]"]
    lines = ["usage: tabletalk" + (f" {command}" if command else "")]
    indent = " " * (len(lines[0]) + 1)
    for part in parts:
        if len(lines[-1]) + 1 + len(part) > WIDTH:
            lines.append(indent + part)
        else:
            lines[-1] += f" {part}"
    return "\n".join(lines) + "\n"


def _help(command) -> str:
    if command is None:
        out = [f"\n{DESCRIPTION}\n\npositional arguments:\n  {{{','.join(COMMANDS)}}}\n"]
        out += [_row(name, entry[0], indent=4) for name, entry in COMMANDS.items()]
        flags = ()
    else:
        _, sql_help, flags = COMMANDS[command]
        out = [] if sql_help is None else ["\npositional arguments:\n", _row("sql", sql_help)]
    out.append("\noptions:\n" + _row("-h, --help", "show this help message and exit"))
    out += [_row(_shown(name, kind), text) for name, kind, _, text in flags]
    return _usage(command) + "".join(out)


def _row(name, text, indent=2) -> str:
    """One help entry, its text starting at HELP_COLUMN."""
    return f"{' ' * indent + name:<{HELP_COLUMN if text else 0}}{text}\n"


def main(argv=None) -> int:
    try:
        return _dispatch(parse_args(sys.argv[1:] if argv is None else argv))
    except _Stop as stop:
        command, message = stop.args
        if message is None:
            sys.stdout.write(_help(command))
            return 0
        prog = "tabletalk" + (f" {command}" if command else "")
        sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
        return USAGE_EXIT
    except (TabletalkError, OSError) as exc:
        sys.stderr.write(f"{exc}\n")
        return INPUT_EXIT


def _read_sql(opts) -> str | None:
    """The SQL argument; piped stdin is read only when there is none.  A
    closed stdin (None) gives none."""
    if opts["sql"] is not None or sys.stdin is None or sys.stdin.isatty():
        return opts["sql"]
    try:
        return sys.stdin.read().strip() or None
    except OSError:
        return None


def _print(opts, envelope, text, notes=()):
    """Print the JSON envelope (result, class, notes, diagnostics), or
    `text` on stdout and each of `notes` as a line on stderr."""
    if opts["--output"] == "json":
        keys = ("result", "class", "notes", "diagnostics")
        print(json.dumps(dict(zip(keys, envelope)), indent=2))
    else:
        sys.stdout.write(text)
        sys.stderr.write("".join(f"{note}\n" for note in notes))
    return 0


def _load_query(sql, graph):
    """Parse and resolve `sql`, then build its query graph."""
    from . import parser, query_graph

    ast = parser.parse_sql(sql)
    parser.resolve_names(ast, graph)
    return query_graph.build(ast, graph)


def _dispatch(opts) -> int:
    """Run one subcommand, importing only the submodules it uses."""
    command = opts["command"]
    graph = schema.load_schema(opts["--schema"])
    if command == "narrate":
        budget = opts["--max-tuples"]
        if not opts["--data"]:
            raise _Stop(command, "narrate requires --data")
        if budget < 0:
            sys.stderr.write(f"tabletalk: error: --max-tuples must be 0 or more, got {budget}\n")
            return INPUT_EXIT
        from . import data, narrator

        db = data.load_data(graph, opts["--data"])
        rank = data.RankSpec.load_order()
        plan = narrator.NarrationPlan(opts["--start"], opts["--mode"], budget, rank)
        narrative = narrator.narrate(graph, db, plan)
        text, diagnostics = narrative.text, narrative.diagnostics
        notes = [f"note: {diag}" for diag in diagnostics]
        return _print(opts, (text, None, [], diagnostics), f"{text}\n", notes)

    sql = _read_sql(opts)
    if command == "graph":
        from . import dot

        text = dot.emit_query_dot(_load_query(sql, graph)) if sql else dot.emit_dot(graph)
        return _print(opts, (text, None, [], list(graph.warnings)), text)
    if not sql:
        raise _Stop(command, "a SQL query is required (argument or stdin)")
    from . import classifier

    qg = _load_query(sql, graph)
    cls = classifier.classify(qg)
    if command == "classify":
        text = "".join([f"{cls.label}\n"] + [f"  - {line}\n" for line in cls.evidence])
        return _print(opts, (cls.label, cls.label, cls.evidence, []), text)

    from . import translator

    result = translator.translate(qg, graph, cls)
    notes = [f"class: {cls.label}"] + [f"note: {note}" for note in result.notes]
    return _print(opts, (result.text, cls.label, result.notes, []), f"{result.text}\n", notes)


if __name__ == "__main__":
    sys.exit(main())
