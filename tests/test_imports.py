"""Which submodules each entry point loads, and the package's public names."""

import importlib
import json
import subprocess
import sys
import types

import pytest

import tabletalk
from conftest import FIXTURES, corpus_sql

SCHEMA = str(FIXTURES / "movies.schema.json")
DATA = str(FIXTURES / "movies")

# Runs `cli.main` on the arguments, then prints the modules that importing
# and running the CLI added to `sys.modules` as the last line of stdout.
# Modules loaded before it (by `site` and its .pth files) do not count.
CLI_PROBE = """
import json, sys
before = set(sys.modules)
from tabletalk import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def loaded_by(code, *args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def package(*names):
    return {f"tabletalk.{name}" for name in names}


BASE = {"tabletalk"} | package("cli", "errors", "record", "schema", "templates")
QUERY = BASE | package("parser", "ast_nodes", "query_graph")
CLASSIFY = QUERY | package("classifier", "rewriter")
NOT_NARRATE = package(
    "parser", "ast_nodes", "query_graph", "classifier", "rewriter", "translator", "evaluator",
    "dot",
)
NOT_EXPLAIN = package("data", "narrator", "evaluator")


SUBCOMMANDS = pytest.mark.parametrize(
    "args,stdin,expected,absent",
    [
        (("narrate", "--schema", SCHEMA, "--data", DATA), "",
         BASE | package("data", "narrator"), NOT_NARRATE),
        (("graph", "--schema", SCHEMA), "", BASE | package("dot"),
         NOT_NARRATE - package("dot") | NOT_EXPLAIN),
        (("graph", "--schema", SCHEMA), corpus_sql("q7"), QUERY | package("dot"), NOT_EXPLAIN),
        (("classify", "--schema", SCHEMA), corpus_sql("q8"), CLASSIFY,
         NOT_EXPLAIN | package("translator", "dot")),
        (("explain", "--schema", SCHEMA), corpus_sql("q1"),
         CLASSIFY | package("translator"), NOT_EXPLAIN | package("dot")),
    ],
    ids=["narrate", "graph-schema", "graph-query", "classify", "explain"],
)

# Costly at start-up and needed by no subcommand: `dataclasses` and the
# `inspect` it imports took about 11 ms of `explain`.
SLOW_STDLIB = {"dataclasses", "inspect", "typing"}


@SUBCOMMANDS
def test_each_subcommand_loads_only_what_it_uses(args, stdin, expected, absent):
    loaded = {m for m in loaded_by(CLI_PROBE, *args, stdin=stdin)
              if m.split(".")[0] == "tabletalk"}
    assert not loaded & absent
    assert loaded == expected


@SUBCOMMANDS
def test_no_subcommand_loads_dataclasses_inspect_or_typing(args, stdin, expected, absent):
    assert not loaded_by(CLI_PROBE, *args, stdin=stdin) & SLOW_STDLIB


# Loaded by argparse (`gettext` and `locale` for its messages) and, for
# `string`, compiled at import: about 6 ms of every subcommand's start.
PARSER_STDLIB = {"argparse", "gettext", "locale", "string"}


@SUBCOMMANDS
def test_no_subcommand_loads_argparse_gettext_locale_or_string(args, stdin, expected, absent):
    assert not loaded_by(CLI_PROBE, *args, stdin=stdin) & PARSER_STDLIB


@pytest.mark.parametrize("args", [("--help",), ("explain", "-h"), ("frob",)])
def test_help_and_usage_errors_load_no_parser_stdlib(args):
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, *args], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == (1 if args == ("frob",) else 0)
    assert not set(json.loads(proc.stdout.splitlines()[-1])) & PARSER_STDLIB


def test_bare_import_loads_no_submodule():
    code = "import json, sys, tabletalk; print(json.dumps(sorted(sys.modules)))"
    assert {m for m in loaded_by(code) if m.startswith("tabletalk")} == {"tabletalk"}


def test_importing_the_cli_leaves_the_evaluator_out():
    code = "import json, sys, tabletalk.cli; print(json.dumps(sorted(sys.modules)))"
    assert "tabletalk.evaluator" not in loaded_by(code)


def test_a_name_is_cached_on_first_use():
    code = (
        "import json, tabletalk; tabletalk.narrate; "
        "print(json.dumps(sorted(vars(tabletalk))))"
    )
    names = loaded_by(code)
    assert "narrate" in names
    assert "translate" not in names


PUBLIC = {
    "Clause", "Database", "Motif", "NarrationPlan", "Narrative", "QueryClass",
    "QueryGraph", "RankSpec", "ResultSet", "Row", "SchemaGraph",
    "TranslationResult", "build", "classify", "detect_motifs", "detect_patterns",
    "emit_dot", "evaluate", "fallback_mode", "flatten", "follow_join",
    "instantiate", "lexicalize_predicate", "load_data", "load_schema",
    "merge_common", "narrate", "parse_sql", "parse_template",
    "resolve_names", "select_tuples", "serialize", "shape",
    "translate", "translate_procedural", "validate",
}


def test_the_public_names_are_unchanged():
    assert sorted(tabletalk.__all__) == tabletalk.__all__
    assert set(tabletalk.__all__) == PUBLIC


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_name_is_its_home_modules_object(name):
    value = getattr(tabletalk, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("tabletalk.")
    assert getattr(home, name) is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tabletalk import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(tabletalk.__all__)


def test_dir_lists_every_public_name():
    assert set(tabletalk.__all__) <= set(dir(tabletalk))
    assert "__version__" in dir(tabletalk)


def test_submodules_and_version_are_still_reachable():
    from tabletalk import data

    assert isinstance(data, types.ModuleType)
    assert data is sys.modules["tabletalk.data"]
    assert tabletalk.__version__ == "0.1.0"


def test_an_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'tabletalk' has no attribute 'no_such_name'"):
        tabletalk.no_such_name
    with pytest.raises(ImportError):
        from tabletalk import no_such_name  # noqa: F401
