import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import FIXTURES, corpus_sql, upper_alias_refs

SCHEMA = str(FIXTURES / "movies.schema.json")
DATA = str(FIXTURES / "movies")


def run_cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "tabletalk.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


class TestNarrateCommand:
    def test_narrate_prints_the_paragraph(self):
        proc = run_cli("narrate", "--schema", SCHEMA, "--data", DATA)
        assert proc.returncode == 0
        assert proc.stdout.strip() == (
            "Woody Allen was born in Brooklyn, New York, USA on "
            "December 1, 1935. As a director, Woody Allen's work includes "
            "Match Point (2005), Melinda and Melinda (2004), and "
            "Anything Else (2003)."
        )

    def test_explicit_start_flag(self):
        proc = run_cli(
            "narrate", "--schema", SCHEMA, "--data", DATA, "--start", "director"
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("Woody Allen was born")

    def test_max_tuples_flag_limits_the_list(self):
        proc = run_cli(
            "narrate", "--schema", SCHEMA, "--data", DATA, "--max-tuples", "1"
        )
        assert "Match Point (2005)." in proc.stdout
        assert "Melinda" not in proc.stdout

    @pytest.mark.parametrize("budget", ["-1", "-2"])
    def test_negative_max_tuples_is_an_input_error(self, budget):
        proc = run_cli(
            "narrate", "--schema", SCHEMA, "--data", DATA, "--max-tuples", budget
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"tabletalk: error: --max-tuples must be 0 or more, got {budget}"
        ]

    def test_split_fixture_sentence(self):
        proc = run_cli(
            "narrate",
            "--schema", str(FIXTURES / "split.schema.json"),
            "--data", str(FIXTURES / "split"),
        )
        assert proc.stdout.strip() == (
            "The movie M1 involves the director D1 who was born in Italy "
            "and the actor A1 who is Greek."
        )

    def test_an_empty_narration_carries_a_note(self):
        args = ("narrate", "--schema", str(FIXTURES / "emp.schema.json"),
                "--data", str(FIXTURES / "emp"))
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout == "\n"
        assert proc.stderr.splitlines() == [
            "note: relation EMP has no clause, template or templated step to narrate"
        ]
        envelope = json.loads(run_cli(*args, "--output", "json").stdout)
        assert envelope["result"] == ""
        assert envelope["diagnostics"] == [
            "relation EMP has no clause, template or templated step to narrate"
        ]

    def test_zero_max_tuples_note_names_the_budget(self):
        proc = run_cli(
            "narrate", "--schema", SCHEMA, "--data", DATA, "--max-tuples", "0"
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("Woody Allen was born")
        assert proc.stderr.splitlines() == [
            "note: tuple budget 0 admits no MOVIE tuples from DIRECTOR; step skipped"
        ]

    def test_ragged_data_is_an_input_error(self, tmp_path):
        data = tmp_path / "movies"
        shutil.copytree(DATA, data)
        with (data / "MOVIE.csv").open("a", encoding="utf-8") as fh:
            fh.write("4,Scoop\n")
        lineno = len((data / "MOVIE.csv").read_text(encoding="utf-8").splitlines())
        proc = run_cli("narrate", "--schema", SCHEMA, "--data", str(data))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"MOVIE: row at line {lineno} has 2 cells, expected 3"
        ]

    def test_byte_order_mark_narrates_the_same_text(self, tmp_path):
        data = tmp_path / "movies"
        shutil.copytree(DATA, data)
        movie = data / "MOVIE.csv"
        movie.write_bytes(b"\xef\xbb\xbf" + movie.read_bytes())
        want = run_cli("narrate", "--schema", SCHEMA, "--data", DATA)
        proc = run_cli("narrate", "--schema", SCHEMA, "--data", str(data))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == want.stdout

    @pytest.mark.parametrize("case", ["latin1-data", "latin1-schema", "duplicate", "long-cell"])
    def test_unreadable_input_is_an_input_error(self, tmp_path, case):
        data = tmp_path / "movies"
        shutil.copytree(DATA, data)
        schema = tmp_path / "movies.schema.json"
        shutil.copy(SCHEMA, schema)
        if case == "latin1-data":
            (data / "ACTOR.csv").write_bytes(b"id,name\n1,Beyonc\xe9\n")
            line = f"{data / 'ACTOR.csv'}: not UTF-8 at byte offset 16 (invalid continuation byte)"
        elif case == "latin1-schema":
            raw = schema.read_bytes()
            schema.write_bytes(raw.replace(b'"movie"', b'"m\xf6vie"', 1))
            at = raw.index(b'"movie"') + 2
            line = f"{schema}: not UTF-8 at byte offset {at} (invalid start byte)"
        elif case == "long-cell":
            (data / "ACTOR.csv").write_text("id,name\n1," + "x" * 140_000 + "\n", encoding="utf-8")
            line = f"{data / 'ACTOR.csv'}: line 2: field larger than field limit (131072)"
        else:
            (data / "movie.csv").write_text("id,title,year\n1,Other,1999\n", encoding="utf-8")
            line = (f"data files {str(data / 'MOVIE.csv')!r} and "
                    f"{str(data / 'movie.csv')!r} both hold relation MOVIE")
        proc = run_cli("narrate", "--schema", str(schema), "--data", str(data))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [line]

    def test_missing_data_is_a_usage_error(self):
        proc = run_cli("narrate", "--schema", SCHEMA)
        assert proc.returncode == 1
        assert "requires --data" in proc.stderr
        assert proc.stderr.startswith("usage: tabletalk narrate [-h]")
        assert "[sql]" not in proc.stderr.lower()

    def test_unknown_subcommand_is_a_usage_error(self):
        proc = run_cli("chat", "--schema", SCHEMA)
        assert proc.returncode == 1


class TestExplainCommand:
    def test_q1_sentence_and_class(self):
        proc = run_cli("explain", corpus_sql("q1"), "--schema", SCHEMA)
        assert proc.returncode == 0
        assert proc.stdout.strip() == (
            "Find the titles of movies where the actor Brad Pitt plays"
        )
        assert "class: Path" in proc.stderr

    def test_sql_via_stdin(self):
        proc = run_cli("explain", "--schema", SCHEMA, stdin=corpus_sql("q6"))
        assert proc.returncode == 0
        assert proc.stdout.strip() == "Find movies that have all genres"

    def test_argument_wins_and_stdin_is_left_unread(self):
        # The pipe's write end stays open, so reading stdin would block.
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, corpus_sql("q6").encode())
            proc = subprocess.run(
                [sys.executable, "-m", "tabletalk.cli", "explain", corpus_sql("q1"),
                 "--schema", SCHEMA],
                stdin=read_end, capture_output=True, text=True, timeout=30,
            )
        finally:
            os.close(read_end)
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stdout.strip() == (
            "Find the titles of movies where the actor Brad Pitt plays"
        )
        assert proc.stderr == "class: Path\n"

    @pytest.mark.parametrize("command", ["explain", "classify"])
    def test_missing_sql_prints_the_subcommand_usage(self, command):
        proc = run_cli(command, "--schema", SCHEMA)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"usage: tabletalk {command} [-h]")
        assert "--data" not in proc.stderr
        assert "a SQL query is required" in proc.stderr

    def test_bad_sql_is_an_input_error(self):
        proc = run_cli("explain", "select nothing sensible", "--schema", SCHEMA)
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_aggregate_in_where_is_an_input_error(self):
        proc = run_cli(
            "explain", "select m.title from MOVIES m where count(*) > 1", "--schema", SCHEMA
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["aggregate count(*) in WHERE; use HAVING"]

    def test_two_column_in_subquery_is_an_input_error(self):
        proc = run_cli(
            "explain",
            "select m.title from MOVIES m where m.id in (select g.mid, g.genre from GENRE g)",
            "--schema", SCHEMA,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            "IN subquery must select one column, not 2 columns"
        ]

    def test_unknown_schema_file_is_an_input_error(self):
        proc = run_cli("explain", "select m.title from MOVIE m", "--schema", "/nope.json")
        assert proc.returncode == 2


class TestClosedStdin:
    """With file descriptor 0 closed, `sys.stdin` is None: no SQL is piped."""

    @staticmethod
    def run(*args):
        return subprocess.run(
            ["sh", "-c", '"$0" -m tabletalk.cli "$@" <&-', sys.executable, *args],
            capture_output=True, text=True, timeout=60,
        )

    @pytest.mark.parametrize("command", ["explain", "classify"])
    def test_no_sql_is_the_usage_error(self, command):
        proc = self.run(command, "--schema", SCHEMA)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"{USAGE[command]}tabletalk {command}: error: "
            "a SQL query is required (argument or stdin)\n"
        )

    def test_graph_prints_the_schema_graph(self):
        proc = self.run("graph", "--schema", SCHEMA)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == run_cli("graph", "--schema", SCHEMA).stdout

    def test_sql_given_as_an_argument_still_runs(self):
        proc = self.run("explain", "--schema", SCHEMA, corpus_sql("q1"))
        assert proc.returncode == 0
        assert proc.stdout == "Find the titles of movies where the actor Brad Pitt plays\n"


class TestClassifyCommand:
    def test_q8_label_and_evidence(self):
        proc = run_cli("classify", corpus_sql("q8"), "--schema", SCHEMA)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "HigherOrder"
        assert len(lines) > 1


class TestGraphCommand:
    def test_schema_graph_without_sql(self):
        proc = run_cli("graph", "--schema", SCHEMA)
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph schema {")

    def test_query_graph_with_sql(self):
        proc = run_cli("graph", corpus_sql("q7"), "--schema", SCHEMA)
        assert proc.stdout.startswith("digraph query {")
        assert "cluster_NQ1" in proc.stdout


class TestMixedCaseAliases:
    @pytest.mark.parametrize("command", ["explain", "classify", "graph"])
    def test_upper_cased_references_print_what_q1_prints(self, command):
        plain = run_cli(command, corpus_sql("q1"), "--schema", SCHEMA)
        mixed = run_cli(command, upper_alias_refs(corpus_sql("q1")), "--schema", SCHEMA)
        assert plain.returncode == mixed.returncode == 0
        assert mixed.stdout == plain.stdout
        assert "Traceback" not in mixed.stderr


class TestOutputDot:
    @pytest.mark.parametrize(
        "args",
        [
            ("narrate", "--schema", SCHEMA, "--data", DATA),
            ("explain", corpus_sql("q1"), "--schema", SCHEMA),
            ("classify", corpus_sql("q8"), "--schema", SCHEMA),
        ],
        ids=["narrate", "explain", "classify"],
    )
    def test_dot_outside_graph_is_a_usage_error(self, args):
        proc = run_cli(*args, "--output", "dot")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"usage: tabletalk {args[0]}")
        assert "invalid choice: 'dot'" in proc.stderr

    def test_graph_prints_dot(self):
        proc = run_cli("graph", "--schema", SCHEMA, "--output", "dot")
        assert proc.returncode == 0
        assert proc.stdout.startswith("digraph schema {")


class TestNarrateOnlyFlags:
    @pytest.mark.parametrize(
        "args",
        [
            ("explain", corpus_sql("q3"), "--schema", SCHEMA, "--mode", "procedural"),
            ("classify", corpus_sql("q3"), "--schema", SCHEMA, "--max-tuples", "-5",
             "--start", "NOPE", "--data", "/nonexistent"),
            ("graph", "--schema", SCHEMA, "--start", "MOVIE"),
        ],
        ids=["explain", "classify", "graph"],
    )
    def test_narrate_flags_elsewhere_are_a_usage_error(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"usage: tabletalk {args[0]} [-h]")
        assert "unrecognized arguments: --" in proc.stderr


class TestJsonEnvelope:
    @pytest.mark.parametrize(
        "args,stdin",
        [
            (("narrate", "--schema", SCHEMA, "--data", DATA, "--output", "json"), ""),
            (("explain", "--schema", SCHEMA, "--output", "json"), "q1"),
            (("classify", "--schema", SCHEMA, "--output", "json"), "q8"),
            (("graph", "--schema", SCHEMA, "--output", "json"), ""),
        ],
    )
    def test_stable_envelope_keys(self, args, stdin):
        proc = run_cli(*args, stdin=corpus_sql(stdin) if stdin else "")
        doc = json.loads(proc.stdout)
        assert list(doc) == ["result", "class", "notes", "diagnostics"]

    def test_explain_envelope_content(self):
        proc = run_cli(
            "explain", "--schema", SCHEMA, "--output", "json", stdin=corpus_sql("q8")
        )
        doc = json.loads(proc.stdout)
        assert doc["class"] == "HigherOrder"
        assert doc["result"] == "Find actors whose movies are all in the same year"
        assert doc["notes"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("narrate", "--schema", SCHEMA, "--data", DATA),
            ("narrate", "--schema", SCHEMA, "--data", DATA, "--mode", "procedural"),
            ("graph", "--schema", SCHEMA),
        ],
    )
    def test_byte_identical_stdout(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    def test_explain_byte_identical(self):
        runs = {
            run_cli("explain", "--schema", SCHEMA, stdin=corpus_sql("q3")).stdout
            for _ in range(2)
        }
        assert len(runs) == 1


# The command-line surface, byte for byte: usage lines, help text and the
# wording of every usage error (exit 1).
USAGE = {
    "tabletalk": "usage: tabletalk [-h] {narrate,explain,classify,graph} ...\n",
    "narrate": (
        "usage: tabletalk narrate [-h] --schema SCHEMA [--output {text,json}]\n"
        "                         [--data DATA] [--mode {declarative,procedural,auto}]\n"
        "                         [--max-tuples K] [--start START]\n"
    ),
    "explain": "usage: tabletalk explain [-h] --schema SCHEMA [--output {text,json}] [sql]\n",
    "classify": "usage: tabletalk classify [-h] --schema SCHEMA [--output {text,json}] [sql]\n",
    "graph": "usage: tabletalk graph [-h] --schema SCHEMA [--output {text,json,dot}] [sql]\n",
}
HELP_OPTION = "  -h, --help            show this help message and exit\n"
SCHEMA_OPTION = "  --schema SCHEMA       annotation file (JSON)\n"
HELP = {
    "tabletalk": (
        USAGE["tabletalk"] + "\n"
        "Narrate relational data and explain SQL queries in English.\n\n"
        "positional arguments:\n"
        "  {narrate,explain,classify,graph}\n"
        "    narrate             narrate table contents\n"
        "    explain             translate a SQL query to English\n"
        "    classify            print the taxonomy class of a query\n"
        "    graph               DOT for a query graph, or the schema graph without SQL\n\n"
        "options:\n" + HELP_OPTION
    ),
    "narrate": (
        USAGE["narrate"] + "\noptions:\n" + HELP_OPTION + SCHEMA_OPTION
        + "  --output {text,json}\n"
        "  --data DATA           directory of <RELATION>.csv files\n"
        "  --mode {declarative,procedural,auto}\n"
        "  --max-tuples K\n"
        "  --start START         start relation for narration\n"
    ),
    "explain": (
        USAGE["explain"] + "\npositional arguments:\n"
        "  sql                   SQL text (or pipe via stdin)\n\n"
        "options:\n" + HELP_OPTION + SCHEMA_OPTION + "  --output {text,json}\n"
    ),
    "classify": (
        USAGE["classify"] + "\npositional arguments:\n  sql\n\n"
        "options:\n" + HELP_OPTION + SCHEMA_OPTION + "  --output {text,json}\n"
    ),
    "graph": (
        USAGE["graph"] + "\npositional arguments:\n  sql\n\n"
        "options:\n" + HELP_OPTION + SCHEMA_OPTION + "  --output {text,json,dot}\n"
    ),
}
NARRATE = ("narrate", "--schema", SCHEMA, "--data", DATA)


class TestUsageSurface:
    @pytest.mark.parametrize("command", list(HELP))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_the_full_text_and_exits_0(self, command, flag):
        args = (flag,) if command == "tabletalk" else (command, flag)
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout == HELP[command]

    def test_help_wins_over_the_flags_before_it(self):
        proc = run_cli("explain", "--schema", SCHEMA, "-h")
        assert proc.returncode == 0
        assert proc.stdout == HELP["explain"]

    def test_narrate_usage_wraps_onto_three_lines(self):
        lines = USAGE["narrate"].splitlines()
        assert len(lines) == 3
        assert max(map(len, lines)) <= 80

    @pytest.mark.parametrize(
        "args,prog,message",
        [
            ((), "tabletalk", "the following arguments are required: command"),
            (("frob",), "tabletalk",
             "argument command: invalid choice: 'frob' "
             "(choose from 'narrate', 'explain', 'classify', 'graph')"),
            (("narrate",), "narrate", "the following arguments are required: --schema"),
            (("explain",), "explain", "the following arguments are required: --schema"),
            (("classify", "--data", DATA), "classify",
             "the following arguments are required: --schema"),
            (("graph",), "graph", "the following arguments are required: --schema"),
            ((*NARRATE, "--mode", "bogus"), "narrate",
             "argument --mode: invalid choice: 'bogus' "
             "(choose from 'declarative', 'procedural', 'auto')"),
            (("explain", "--schema", SCHEMA, "--output", "dot"), "explain",
             "argument --output: invalid choice: 'dot' (choose from 'text', 'json')"),
            (("graph", "--schema", SCHEMA, "--output=svg"), "graph",
             "argument --output: invalid choice: 'svg' (choose from 'text', 'json', 'dot')"),
            ((*NARRATE, "--max-tuples", "x"), "narrate",
             "argument --max-tuples: invalid int value: 'x'"),
            ((*NARRATE, "--max-tuples="), "narrate",
             "argument --max-tuples: invalid int value: ''"),
            ((*NARRATE, "--max-tuples"), "narrate",
             "argument --max-tuples: expected one argument"),
            (("graph", "--schema"), "graph", "argument --schema: expected one argument"),
            (("explain", "--schema", SCHEMA, "--output"), "explain",
             "argument --output: expected one argument"),
            (("narrate", "--s", SCHEMA), "narrate",
             "ambiguous option: --s could match --schema, --start"),
            ((*NARRATE, "--m", "auto"), "narrate",
             "ambiguous option: --m could match --mode, --max-tuples"),
            ((*NARRATE, "extra"), "narrate", "unrecognized arguments: extra"),
            (("explain", "--schema", SCHEMA, "select 1", "select 2", "--bogus"), "explain",
             "unrecognized arguments: select 2 --bogus"),
        ],
        ids=[
            "no-command", "unknown-command", "narrate-no-schema", "explain-no-schema",
            "classify-no-schema", "graph-no-schema", "bad-mode", "bad-output",
            "bad-output-equals", "bad-int", "empty-int", "no-int", "no-schema-value",
            "no-output-value", "ambiguous-s", "ambiguous-m", "extra-narrate",
            "extra-explain",
        ],
    )
    def test_each_usage_error_has_its_exact_wording(self, args, prog, message):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        name = "tabletalk" if prog == "tabletalk" else f"tabletalk {prog}"
        assert proc.stderr == f"{USAGE[prog]}{name}: error: {message}\n"

    @pytest.mark.parametrize(
        "args",
        [
            ("explain", "--schema=" + SCHEMA, corpus_sql("q1")),
            ("explain", "--sch", SCHEMA, corpus_sql("q1")),
            ("explain", corpus_sql("q1"), "--output=text", "--schema", SCHEMA),
            ("explain", "--schema", SCHEMA, "--", corpus_sql("q1")),
        ],
        ids=["equals", "prefix", "sql-first", "double-dash"],
    )
    def test_accepted_flag_forms_explain_q1(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout == "Find the titles of movies where the actor Brad Pitt plays\n"
        assert proc.stderr == "class: Path\n"

    def test_prefix_and_equals_forms_reach_narrate(self):
        want = run_cli(*NARRATE, "--max-tuples", "1", "--mode", "procedural")
        got = run_cli("narrate", "--sch=" + SCHEMA, "--data=" + DATA, "--max", "1",
                      "--mo=procedural")
        assert want.returncode == got.returncode == 0
        assert got.stdout == want.stdout
        assert "Match Point" in got.stdout

    def test_the_last_repeated_flag_wins(self):
        want = run_cli(*NARRATE, "--max-tuples", "2")
        got = run_cli(*NARRATE, "--max-tuples", "1", "--max-tuples", "2")
        assert got.stdout == want.stdout
        assert got.returncode == 0

    @pytest.mark.parametrize(
        "flags", [("--max-tuples", "-1"), ("--max-tuples=-1",), ("--max", "-1")]
    )
    def test_a_negative_budget_reaches_the_input_check(self, flags):
        proc = run_cli(*NARRATE, *flags)
        assert proc.returncode == 2
        assert proc.stderr == "tabletalk: error: --max-tuples must be 0 or more, got -1\n"
