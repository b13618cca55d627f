import csv
import gc
import io
import json
import random
import re
import sqlite3
from collections import Counter
from pathlib import Path

import pytest

from conftest import CORPUS_NAMES, corpus_sql, resolved
from random_db import random_database

from tabletalk import evaluator, parser, rewriter, schema
from tabletalk.ast_nodes import (
    ColumnRef,
    Compare,
    Constant,
    CountStar,
    FromItem,
    Query,
    ScalarSubquery,
    SelectItem,
)
from tabletalk.data import Database, Row, load_data
from tabletalk.errors import SqlError, UnknownRelation
from tabletalk.evaluator import evaluate

GOLDEN_DIR = Path(__file__).parent / "golden"


def _run(sql, graph, db):
    return evaluate(parser.resolve_names(parser.parse_sql(sql), graph), db).rows


def _col(alias, attribute):
    """A column reference as resolve_names leaves it."""
    return ColumnRef(alias, attribute, attribute=attribute)


def _movie_db(graph, **tables):
    """The movie schema's tables from CSV bodies; tables not given are empty."""
    headers = {
        "MOVIE": "id,title,year",
        "GENRE": "mid,genre",
        "DIRECTOR": "id,name,bdate,blocation",
        "DIRECTED": "mid,did",
        "CAST": "mid,aid,role",
        "ACTOR": "id,name",
    }
    return load_data(
        graph, {name: head + "\n" + tables.get(name, "") for name, head in headers.items()}
    )


@pytest.fixture
def reads(monkeypatch):
    """Cells read from now on, by (relation, attribute)."""
    counts = Counter()
    cell = Row.cell

    def counted(row, attribute):
        counts[row.relation, attribute] += 1
        return cell(row, attribute)

    monkeypatch.setattr(Row, "cell", counted)
    return counts


class TestCorpusResults:
    def test_q1_single_brad_pitt_movie(self, movie_graph, movie_db):
        result = evaluate(resolved("q1", movie_graph), movie_db)
        assert result.columns == ["title"]
        assert result.rows == [("Seven",)]

    def test_q5_equals_q1_on_fixture(self, movie_graph, movie_db):
        q1 = evaluate(resolved("q1", movie_graph), movie_db)
        q5 = evaluate(resolved("q5", movie_graph), movie_db)
        assert Counter(q1.rows) == Counter(q5.rows)

    def test_empty_database_yields_empty_results(self, movie_graph):
        db = _movie_db(movie_graph)
        for name in CORPUS_NAMES:
            result = evaluate(resolved(name, movie_graph), db)
            assert result.rows == [], name

    def test_q7_counts(self, movie_graph, movie_db):
        result = evaluate(resolved("q7", movie_graph), movie_db)
        assert set(result.rows) == {(1, "Match Point", 2), (4, "Seven", 2)}

    def test_q9_earliest_version_only(self, movie_graph, movie_db):
        result = evaluate(resolved("q9", movie_graph), movie_db)
        names = {r[0] for r in result.rows}
        assert "Fay Wray" in names  # plays in the 1933 King Kong
        assert "Jessica Lange" not in names  # plays in the 1976 remake

    def test_count_distinct_reads_each_member_cell_once(self, movie_graph, movie_db, reads):
        # The fixture's 8 genre rows each join a movie, so each is one
        # group member, and its genre is read once.
        sql = ("select m.id from MOVIES m, GENRE g where m.id = g.mid "
               "group by m.id having count(distinct g.genre) = 1")
        assert _run(sql, movie_graph, movie_db)
        assert len(movie_db.table("GENRE")) == 8
        assert reads["GENRE", "genre"] == 8

    def test_deterministic(self, movie_graph, movie_db):
        ast = resolved("q2", movie_graph)
        assert evaluate(ast, movie_db) == evaluate(ast, movie_db)


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("case*.json")))
def test_golden_micro_cases(path):
    case = json.loads(path.read_text())
    graph = schema.loads(json.dumps(case["schema"]))
    db = load_data(graph, case["tables"])
    ast = parser.parse_sql(case["query"])
    parser.resolve_names(ast, graph)
    result = evaluate(ast, db)
    assert result.columns == case["columns"], case["name"]
    assert [list(r) for r in result.rows] == case["rows"], case["name"]


class TestRandomDatabase:
    def test_zero_rows(self, movie_graph):
        db = random_database(movie_graph, 0, 0)
        assert all(rows == [] for rows in db.tables.values())

    def test_same_seed_identical(self, movie_graph):
        assert random_database(movie_graph, 42, 5) == random_database(
            movie_graph, 42, 5
        )

    def test_row_bounds_and_key_uniqueness(self, movie_graph):
        db = random_database(movie_graph, 1, 5)
        for rel, rows in db.tables.items():
            assert len(rows) <= 5
        ids = [r.cell("id") for r in db.tables["MOVIE"]]
        assert len(ids) == len(set(ids))
        aids = [r.cell("id") for r in db.tables["ACTOR"]]
        assert len(aids) == len(set(aids))

    def test_seeds_differ(self, movie_graph):
        outs = {
            json.dumps(
                {k: [list(r.values.values()) for r in v] for k, v in db.tables.items()}
            )
            for db in (random_database(movie_graph, s, 5) for s in range(5))
        }
        assert len(outs) > 1


class TestMonotoneExists:
    def test_adding_a_tuple_never_shrinks_spj_results(self, movie_graph):
        rng = random.Random(3)
        queries = [resolved(n, movie_graph) for n in ("q1", "q2", "q3")]
        import copy

        for seed in range(30):
            db = random_database(movie_graph, seed, 4)
            before = [len(evaluate(q, db).rows) for q in queries]
            bigger = copy.deepcopy(db)
            rel = rng.choice(movie_graph.relations)
            pool = [
                v
                for table in bigger.tables.values()
                for row in table
                for v in row.values.values()
                if isinstance(v, int)
            ]
            values = {}
            for attr in movie_graph.attributes_of(rel.name):
                if pool and rng.random() < 0.8:
                    values[attr.name] = rng.choice(pool)
                else:
                    values[attr.name] = rng.randint(1, 9)
            bigger.tables[rel.name] = bigger.tables[rel.name] + [Row(rel.name, values)]
            after = [len(evaluate(q, bigger).rows) for q in queries]
            assert all(a >= b for a, b in zip(after, before)), seed


class TestOrderBy:
    @pytest.fixture(scope="class")
    def db(self, movie_graph):
        return _movie_db(movie_graph, MOVIE="1,a,\n2,b,2005\n3,c,1999\n4,d,\n")

    @pytest.mark.parametrize(
        "direction, rows",
        [("asc", [("c", 1999), ("b", 2005), ("a", None), ("d", None)]),
         ("desc", [("b", 2005), ("c", 1999), ("a", None), ("d", None)])],
    )
    def test_nulls_sort_last_in_both_directions(self, movie_graph, db, direction, rows):
        sql = f"select m.title, m.year from MOVIES m order by m.year {direction}"
        assert _run(sql, movie_graph, db) == rows

    def test_nulls_last_under_a_second_descending_key(self, movie_graph, db):
        sql = "select m.title, m.year from MOVIES m order by m.year desc, m.title desc"
        assert _run(sql, movie_graph, db) == [
            ("b", 2005), ("c", 1999), ("d", None), ("a", None)
        ]


class TestPredicatePlacement:
    """Each WHERE conjunct is checked as soon as its aliases are bound."""

    @pytest.fixture(scope="class")
    def db(self, movie_graph):
        return _movie_db(
            movie_graph,
            MOVIE="1,A,2005\n2,B,1999\n3,C,2005\n",
            CAST="1,1,x\n3,2,y\n3,1,z\n",
            GENRE="1,action\n3,drama\n",
            ACTOR="1,P\n2,Q\n",
        )

    def test_correlated_conjunct_naming_only_outer_aliases(self, movie_graph, db):
        sql = (
            "select m.title from MOVIES m where exists ("
            "select * from CAST c, GENRE g where m.year < 2000 and g.mid = c.mid)"
        )
        assert _run(sql, movie_graph, db) == [("B",)]

    def test_inner_alias_shadows_outer(self, movie_graph, db):
        # Inside the subquery m is the inner MOVIES, bound after c: some cast
        # row's movie is from 2005, so every outer movie qualifies.
        sql = (
            "select m.title from MOVIES m where exists ("
            "select * from CAST c, MOVIES m where c.mid = m.id and m.year = 2005)"
        )
        assert _run(sql, movie_graph, db) == [("A",), ("B",), ("C",)]

    def test_constant_only_conjunct(self, movie_graph, db):
        false = "select m.title, c.role from MOVIES m, CAST c where 1 = 2"
        assert _run(false, movie_graph, db) == []
        true = "select m.title, c.role from MOVIES m, CAST c where 1 = 1 and c.mid = m.id"
        assert _run(true, movie_graph, db) == [("A", "x"), ("C", "y"), ("C", "z")]

    def test_conjunct_on_the_last_from_item(self, movie_graph, db):
        sql = (
            "select m.title, g.genre from MOVIES m, CAST c, GENRE g "
            "where g.genre = 'drama' and c.role = 'y'"
        )
        assert _run(sql, movie_graph, db) == [("A", "drama"), ("B", "drama"), ("C", "drama")]

    def test_rows_keep_cross_product_order_without_order_by(
        self, movie_graph, db, emp_graph, emp_db
    ):
        # Levels with an equality to a bound column or a constant read the
        # join index, which must hand their rows back in load order.
        cases = [
            (movie_graph, db,
             "select m.id, c.aid, a.id from MOVIES m, CAST c, ACTOR a where m.id = c.mid",
             [(1, 1, 1), (1, 1, 2), (3, 2, 1), (3, 2, 2), (3, 1, 1), (3, 1, 2)]),
            (movie_graph, db,
             "select c.role, m.title from CAST c, MOVIES m where m.year = 2005 and c.aid = 1",
             [("x", "A"), ("x", "C"), ("z", "A"), ("z", "C")]),
            (movie_graph, db,
             "select m.title, c.role from MOVIES m, CAST c where c.mid = m.id and 3 = c.mid",
             [("C", "y"), ("C", "z")]),
            (emp_graph, emp_db,
             "select e1.name, e2.name from EMP e1, EMP e2 where e1.did = e2.did",
             [("Alice", "Alice"), ("Alice", "Bob"), ("Bob", "Alice"), ("Bob", "Bob"),
              ("Carol", "Carol")]),
            (emp_graph, emp_db,
             "select e2.name, e1.name from EMP e2, EMP e1, DPT d "
             "where d.mgr = e1.eid and e1.did = e2.did",
             [("Alice", "Alice"), ("Bob", "Alice"), ("Carol", "Carol")]),
        ]
        for graph, data, sql, rows in cases:
            assert _run(sql, graph, data) == rows, sql

    def test_the_check_that_picks_an_index_is_not_read_again(self, movie_graph, reads):
        db = _movie_db(movie_graph, MOVIE="1,A,2005\n2,B,1999\n", CAST="1,1,x\n2,7,y\n1,2,z\n")
        sql = "select m.title, c.role from MOVIES m, CAST c where m.id = c.mid"
        assert _run(sql, movie_graph, db) == [("A", "x"), ("A", "z"), ("B", "y")]
        # Building the index of CAST.mid reads each cast row once, and each
        # movie's id is read once to look up its cast rows.
        assert (reads["CAST", "mid"], reads["MOVIE", "id"]) == (3, 2)

    def test_int_column_never_equals_a_str_constant(self, movie_graph, db):
        sql = "select m.title from MOVIES m where m.year = '2005'"
        assert _run(sql, movie_graph, db) == []

    @pytest.mark.parametrize("sql, rows", [
        ("select m.title, c.role from MOVIES m, CAST c where m.id = c.mid", [("A", "x")]),
        ("select c.role, m.title from CAST c, MOVIES m where c.mid = m.id", [("x", "A")]),
    ], ids=["index_on_cast", "index_on_movie"])
    def test_null_join_cell_matches_nothing(self, movie_graph, sql, rows):
        db = _movie_db(movie_graph, MOVIE="1,A,2005\n,N,1999\n", CAST="1,1,x\n,2,y\n")
        assert _run(sql, movie_graph, db) == rows

    def test_scalar_subquery_with_several_rows_raises(self, movie_graph, db):
        sql = (
            "select m.title from MOVIES m, CAST c "
            "where m.year = (select m2.year from MOVIES m2) and c.mid = m.id"
        )
        with pytest.raises(SqlError, match="more than one value"):
            _run(sql, movie_graph, db)

    def test_exists_stops_before_a_binding_that_would_raise(self, movie_graph, db):
        # The first cast row (aid 1) is a witness; the second (aid 2) would
        # make the scalar subquery return two values, as IN, which reads
        # the whole child, finds.
        child = ("select c.mid from CAST c "
                 "where c.aid = (select a.id from ACTOR a where a.id <= c.aid)")
        sql = f"select m.title from MOVIES m where exists ({child})"
        assert _run(sql, movie_graph, db) == [("A",), ("B",), ("C",)]
        with pytest.raises(SqlError, match="more than one value"):
            _run(f"select m.title from MOVIES m where m.id in ({child})", movie_graph, db)

    def test_subquery_conjunct_is_skipped_once_every_binding_is_filtered(
        self, movie_graph, db
    ):
        # The year filter is checked at the first level and rejects every
        # movie, so the scalar subquery that would raise is never evaluated.
        sql = (
            "select m.title from MOVIES m, CAST c "
            "where m.year = (select m2.year from MOVIES m2) and m.year = 1900"
        )
        assert _run(sql, movie_graph, db) == []


class TestSqlErrors:
    """Hand-built ASTs that resolve_names would reject still raise SqlError
    when evaluated over tables where the bad part is reached."""

    @pytest.fixture(scope="class")
    def db(self, movie_graph):
        return _movie_db(movie_graph, MOVIE="1,A,2005\n2,B,1999\n")

    @staticmethod
    def _movies(where=(), select=None):
        """select <select or m.title> from MOVIE m where <where>"""
        return Query(
            select_items=[SelectItem(select or _col("m", "title"))],
            from_items=[FromItem("MOVIE", "m", canonical="MOVIE")],
            where=list(where),
        )

    @pytest.mark.parametrize("where, select", [
        ([Compare(_col("x", "id"), "=", Constant(1))], None),
        ([Compare(_col("m", "id"), "=", _col("x", "id"))], None),
        ([], _col("x", "title")),
    ], ids=["where_constant", "where_join", "select"])
    def test_unbound_alias(self, db, where, select):
        with pytest.raises(SqlError, match="alias 'x' not bound during evaluation"):
            evaluate(self._movies(where, select), db)

    def test_unknown_comparison_operator(self, db):
        ast = self._movies([Compare(_col("m", "id"), "<>", Constant(1))])
        with pytest.raises(SqlError, match="unknown operator '<>'"):
            evaluate(ast, db)

    @pytest.mark.parametrize("where, message", [
        ([Compare(_col("x", "id"), "=", Constant(1))], "alias 'x' not bound"),
        ([Compare(_col("m", "id"), "<>", Constant(1))], "unknown operator '<>'"),
    ], ids=["unbound_alias", "unknown_operator"])
    def test_planning_raises_before_any_row_is_read(self, movie_graph, where, message):
        with pytest.raises(SqlError, match=message):
            evaluate(self._movies(where), _movie_db(movie_graph))

    def test_count_star_in_where(self, db):
        ast = self._movies([Compare(CountStar(), ">", Constant(0))])
        with pytest.raises(SqlError, match=r"count\(\*\) outside HAVING"):
            evaluate(ast, db)

    def test_scalar_subquery_with_two_rows_outside_exists(self, db):
        inner = Query(
            select_items=[SelectItem(_col("m2", "year"))],
            from_items=[FromItem("MOVIE", "m2", canonical="MOVIE")],
        )
        ast = self._movies([Compare(_col("m", "year"), "=", ScalarSubquery(inner))])
        with pytest.raises(SqlError, match="scalar subquery returned more than one value"):
            evaluate(ast, db)


class TestSubqueryMemo:
    """Within one evaluate call a subquery runs once for each distinct value
    of the columns it reads from enclosing queries."""

    @pytest.fixture(scope="class")
    def db(self, movie_graph):
        return _movie_db(
            movie_graph,
            MOVIE="1,A,2005\n2,B,1999\n3,C,2005\n4,D,\n5,E,\n",
            CAST="1,1,x\n2,7,y\n3,1,z\n4,2,w\n",
            GENRE="1,action\n1,drama\n1,comedy\n3,drama\n4,comedy\n",
            ACTOR="1,P\n2,Q\n7,R\n",
        )

    def test_uncorrelated_subquery_runs_once_per_call(self, movie_graph, db, reads):
        # Only the subquery reads CAST.role: one pass over 4 rows per call.
        sql = "select m.title from MOVIES m where m.id in (select c.mid from CAST c where c.role != 'q')"
        ast = parser.resolve_names(parser.parse_sql(sql), movie_graph)
        assert evaluate(ast, db).rows == [("A",), ("B",), ("C",), ("D",)]
        assert reads["CAST", "role"] == 4
        evaluate(ast, db)
        assert reads["CAST", "role"] == 8

    def test_correlated_subquery_runs_once_per_distinct_outer_value(
        self, movie_graph, db, reads
    ):
        # Five movies but three distinct years (2005, 1999, null).  EXISTS
        # stops at its first witness: 2005 and 1999 each find one at the
        # first CAST row, and the null year, which no aid differs from,
        # scans all four.  Run per movie, without the memo, it reads
        # 1 + 1 + 1 + 4 + 4 = 11.
        sql = "select m.title from MOVIES m where exists (select c.role from CAST c where c.aid != m.year)"
        assert _run(sql, movie_graph, db) == [("A",), ("B",), ("C",)]
        assert reads["CAST", "aid"] == 1 + 1 + 4

    @pytest.mark.parametrize("sql, rows", [
        # The innermost m is the inner MOVIES, so the middle query is keyed
        # by the outer m.id alone; cast row y names no movie.
        ("select m.title from MOVIES m where exists (select * from CAST c "
         "where c.mid = m.id and exists (select * from MOVIES m where m.id = c.aid))",
         [("A",), ("C",), ("D",)]),
        # q6's shape: the middle query reads m only through its child.
        ("select m.title from MOVIES m where not exists (select * from GENRE g1 "
         "where not exists (select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
         [("A",)]),
        # Groups A and C share the year the HAVING subquery reads.
        ("select m.title, count(*) from MOVIES m, CAST c where c.mid = m.id group by m.title "
         "having 1 < (select count(*) from MOVIES m2 where m2.year = m.year)",
         [("A", 1), ("C", 1)]),
        # D and E share a null year, which no year equals.
        ("select m.title from MOVIES m where 0 = (select count(*) from MOVIES m2 where m2.year = m.year)",
         [("D",), ("E",)]),
    ], ids=["shadowing", "two_level", "having_shared_key", "null_outer_value"])
    def test_results_per_key(self, movie_graph, db, sql, rows):
        assert _run(sql, movie_graph, db) == rows

    @pytest.mark.parametrize("keyword, rows", [
        ("exists", [("A",), ("C",), ("D",)]),
        ("not exists", [("B",), ("E",)]),
    ])
    def test_exists_reads_its_child_up_to_the_first_witness(
        self, movie_graph, db, reads, keyword, rows
    ):
        # Movie 1 has three genres, but the first is its witness; movies 3
        # and 4 have one each, and 2 and 5 (a null id) have none to read.
        # Evaluated whole, the child reads all five genres.
        sql = (f"select m.title from MOVIES m where {keyword} (select g.genre "
               "from GENRE g where g.mid = m.id and g.genre != 'x')")
        assert _run(sql, movie_graph, db) == rows
        assert reads["GENRE", "genre"] == 3

    def test_uncorrelated_exists_stops_at_its_witness(self, movie_graph, db, reads):
        # Cast row y, the second, is the first with a role after 'x'.
        sql = "select m.title from MOVIES m where exists (select * from CAST c where c.role > 'x')"
        assert len(_run(sql, movie_graph, db)) == 5
        assert reads["CAST", "role"] == 2

    @pytest.mark.parametrize("sql, rows", [
        ("select m.title from MOVIES m where m.id in (select c.mid from CAST c)",
         [("A",), ("B",)]),
        # C's null year is in no set, though the set holds a null.
        ("select m.title from MOVIES m where m.year in (select m2.year from MOVIES m2)",
         [("A",), ("B",)]),
        ("select m.title from MOVIES m where m.id in "
         "(select c.mid from CAST c where c.role != m.title)",
         [("A",), ("B",)]),
    ], ids=["uncorrelated", "null_needle", "correlated"])
    def test_in_over_duplicate_and_null_values(self, movie_graph, sql, rows):
        # CAST.mid holds 1 twice, a null and a dangling 9; each movie that
        # matches comes out once.
        db = _movie_db(movie_graph, MOVIE="1,A,2005\n2,B,2005\n3,C,\n",
                       CAST="1,1,x\n1,2,y\n,3,z\n9,4,w\n2,5,v\n")
        assert _run(sql, movie_graph, db) == rows

    @pytest.mark.parametrize("keyword, rows", [
        ("exists", [("A",)]),
        ("not exists", [("B",), ("C",)]),
    ])
    def test_grouped_exists_child_is_evaluated_whole(self, movie_graph, keyword, rows):
        # Movie 2 has one cast row: it passes WHERE but not HAVING, so it
        # is no witness.
        db = _movie_db(movie_graph, MOVIE="1,A,2005\n2,B,1999\n3,C,1999\n",
                       CAST="1,1,x\n2,2,y\n1,3,z\n")
        sql = (f"select m.title from MOVIES m where {keyword} (select c.mid from CAST c "
               "where c.mid = m.id group by c.mid having count(*) > 1)")
        assert _run(sql, movie_graph, db) == rows

    @pytest.mark.parametrize("sql", [
        "select m.title from MOVIES m where exists ({child}) and m.id in ({child})",
        "select m.title from MOVIES m where m.id in ({child}) and not exists ({child})",
        "select m.title from MOVIES m where m.year >= all ({child}) and m.id in ({child})",
    ], ids=["exists_then_in", "in_then_not_exists", "all_then_in"])
    def test_one_block_under_two_connectors(self, movie_graph, db, sql):
        child = "select c.mid from CAST c where c.role != 'x'"
        separate = parser.resolve_names(parser.parse_sql(sql.format(child=child)), movie_graph)
        shared = parser.resolve_names(parser.parse_sql(sql.format(child=child)), movie_graph)
        shared.where[1].query = shared.where[0].query
        assert shared.where[0].query is shared.where[1].query
        assert evaluate(shared, db).rows == evaluate(separate, db).rows


def _blocks(query):
    """`query` and every block nested in it, at any depth."""
    yield query
    for _, _, child in query.subqueries():
        yield from _blocks(child)


def _shared_child(movie_graph):
    """One block under two connectors, EXISTS and IN."""
    child = "select c.mid from CAST c where c.role != 'x'"
    sql = f"select m.title from MOVIES m where exists ({child}) and m.id in ({child})"
    ast = parser.resolve_names(parser.parse_sql(sql), movie_graph)
    ast.where[1].query = ast.where[0].query
    return ast


class TestKeptPlan:
    """A block's plan is made on its first evaluation and kept on it."""

    def test_an_unresolved_query_raises_until_it_is_resolved(self, movie_graph, movie_db):
        ast = parser.parse_sql(corpus_sql("q5"))
        with pytest.raises(SqlError, match="call resolve_names first"):
            evaluate(ast, movie_db)
        assert [block.plan for block in _blocks(ast)] == [None, None, None]
        parser.resolve_names(ast, movie_graph)
        assert evaluate(ast, movie_db).rows == [("Seven",)]

    def test_a_block_is_planned_once_across_calls(self, movie_graph, movie_db, monkeypatch):
        made = []
        plan = evaluator._Plan
        monkeypatch.setattr(evaluator, "_Plan", lambda *args: made.append(args) or plan(*args))
        ast = resolved("q5", movie_graph)
        for _ in range(2):
            assert evaluate(ast, movie_db).rows == [("Seven",)]
        assert len(made) == 3

    def test_the_kept_plan_holds_nothing_tied_to_a_database(self, movie_graph, movie_db):
        # Each kept AST is first evaluated over the fixture, then over
        # random databases, and must answer as a fresh copy does.
        fresh = {name: (lambda name=name: resolved(name, movie_graph)) for name in CORPUS_NAMES}
        fresh["flatten(q5)"] = lambda: rewriter.flatten(resolved("q5", movie_graph))
        fresh["shared_child"] = lambda: _shared_child(movie_graph)
        kept = {name: make() for name, make in fresh.items()}
        dbs = [movie_db] + [random_database(movie_graph, seed, 6) for seed in range(24)]
        nonempty = 0
        for i, db in enumerate(dbs):
            for name, make in fresh.items():
                rows = evaluate(kept[name], db).rows
                assert rows == evaluate(make(), db).rows, (i, name)
                nonempty += bool(rows)
        assert all(block.plan is not None for ast in kept.values() for block in _blocks(ast))
        assert nonempty >= 50, nonempty  # 86 of the 275 pairs

    def test_evaluation_leaves_no_cyclic_garbage(self, movie_graph, movie_db):
        asts = {name: resolved(name, movie_graph) for name in CORPUS_NAMES}
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for ast in asts.values():
                evaluate(ast, movie_db)
            evaluate(rewriter.flatten(asts["q5"]), movie_db)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestTying:
    """Each call ties every block's levels to its database's tables and
    indexes before it reads a row."""

    @pytest.mark.parametrize("where", ["c.mid = m.id", "c.role = 'Mills'", "c.mid != m.id"])
    def test_a_missing_table_raises_though_no_row_reaches_it(self, movie_graph, where):
        sql = f"select m.title from MOVIES m where exists (select * from CAST c where {where})"
        ast = parser.resolve_names(parser.parse_sql(sql), movie_graph)
        db = Database({"MOVIE": []})
        for _ in range(2):
            with pytest.raises(UnknownRelation, match="^no table loaded for relation 'CAST'$"):
                evaluate(ast, db)
        db.tables["CAST"] = []
        assert evaluate(ast, db).rows == []

    @pytest.mark.parametrize("sql", [
        "select m.title from MOVIES m",
        "select m.title from MOVIES m where m.year = 1995",
        "select m.title from GENRE g, MOVIES m where m.id = g.mid",
    ])
    def test_a_table_replaced_between_calls_is_read_afresh(self, movie_graph, sql):
        ast = parser.resolve_names(parser.parse_sql(sql), movie_graph)
        db = _movie_db(movie_graph, MOVIE="1,Heat,1995\n", GENRE="1,drama\n")
        assert evaluate(ast, db).rows == [("Heat",)]
        db.tables["MOVIE"] = _movie_db(movie_graph, MOVIE="1,Alien,1995\n").table("MOVIE")
        assert evaluate(ast, db).rows == [("Alien",)]


# --- differential check against sqlite3 ---------------------------------

DIFF_ROWS = 30
DIFF_SEEDS = range(6)
TITLES = ("Seven", "Match Point", "King Kong", "Troy", "Alien", "Heat")
YEARS = (1933, 1976, 1995, 2004, 2005)
ACTORS = ("Brad Pitt", "Fay Wray", "Jessica Lange", "Morgan Freeman", "Naomi Watts")
DIRECTORS = ("G. Loucas", "Woody Allen", "Peter Jackson")
GENRES = ("action", "drama", "comedy")
ROLES = TITLES + ("Mills", "Ann Darrow")
# q9's `<= all` written with NOT EXISTS, which sqlite3 supports: no row
# of the child may leave the comparison anything but true, so a null on
# either side counts against it as SQL's ALL does.
SQLITE_Q9 = (
    "select a.name from MOVIES m, CAST c, ACTOR a where m.id = c.mid and "
    "c.aid = a.id and not exists (select * from MOVIES m1, MOVIES m2 where "
    "m1.title = m2.title and m2.title = m.title and m1.id != m2.id and "
    "(m.year <= m1.year) is not 1)"
)

# Non-corpus shapes whose subquery results are keyed on outer values.
EXTRA_SQL = {
    "shadowing_exists": (
        "select m.title from MOVIES m where exists (select * from CAST c where "
        "c.mid = m.id and exists (select * from MOVIES m where m.id = c.aid and "
        "m.year = 2005))"
    ),
    "correlated_count": (
        "select m.title, m.year from MOVIES m where 1 < (select count(*) from "
        "CAST c where c.mid = m.id)"
    ),
    "nested_not_exists_constant": (
        "select a.name from ACTOR a where not exists (select * from CAST c where "
        "c.aid = a.id and not exists (select * from MOVIES m where m.id = c.mid "
        "and m.year = 2005))"
    ),
    # IN over a column with duplicate and dangling values.
    "in_dangling": "select m.title from MOVIES m where m.id in (select c.mid from CAST c)",
    "correlated_in": (
        "select m.title, m.year from MOVIES m where m.id in (select c.mid from "
        "CAST c where c.role = m.title)"
    ),
    # EXISTS over a grouped child: a binding passing WHERE is no witness yet.
    "exists_grouped_having": (
        "select m.title from MOVIES m where exists (select c.mid from CAST c "
        "where c.mid = m.id group by c.mid having count(*) > 1)"
    ),
    "exists_order_by": (
        "select m.title from MOVIES m where exists (select c.role from CAST c "
        "where c.mid = m.id order by c.role desc)"
    ),
    # A star stands for every column of the FROM list, flat.
    "star_join": "select * from MOVIES m, GENRE g where m.id = g.mid",
    "exists_grouped_star": (
        "select m.title from MOVIES m where exists (select * from CAST c "
        "where c.mid = m.id group by c.aid)"
    ),
    # Most movies share their title with several later ones.
    "not_exists_many_witnesses": (
        "select m.title, m.year from MOVIES m where not exists (select * from "
        "MOVIES m2 where m2.title = m.title and m2.year > m.year)"
    ),
    # A scalar subquery that returns no row compares as NULL: never true.
    "scalar_always_empty": (
        "select m.title from MOVIES m where m.year != (select m2.year from "
        "MOVIES m2 where m2.id = 0)"
    ),
    "scalar_empty_for_some": (
        "select m.title, m.year from MOVIES m where m.year >= (select m2.year "
        "from MOVIES m2 where m2.id = m.id and m2.year > 2000)"
    ),
    # Constants among the select items: rows are read item by item.
    "constant_items": "select 'x', m.title, 7 from MOVIES m where m.year > 2003",
}


def _diff_tables(seed, nulls=0.0):
    """DIFF_ROWS rows per movie-schema table over domains holding the corpus
    constants; one foreign key in ten dangles, and a share `nulls` of the
    cells that are no key is null."""
    rng = random.Random(seed)
    ids = {rel: rng.sample(range(1, 3 * DIFF_ROWS), DIFF_ROWS)
           for rel in ("MOVIE", "ACTOR", "DIRECTOR")}

    def ref(rel):
        return rng.choice(ids[rel]) if rng.random() < 0.9 else 9999

    tables = {
        "MOVIE": [["id", "title", "year"]]
        + [[i, rng.choice(TITLES), rng.choice(YEARS)] for i in ids["MOVIE"]],
        "ACTOR": [["id", "name"]] + [[i, rng.choice(ACTORS)] for i in ids["ACTOR"]],
        "DIRECTOR": [["id", "name", "bdate", "blocation"]]
        + [[i, rng.choice(DIRECTORS), "May 14, 1944", "Modesto"] for i in ids["DIRECTOR"]],
        "CAST": [["mid", "aid", "role"]]
        + [[ref("MOVIE"), ref("ACTOR"), rng.choice(ROLES)] for _ in range(DIFF_ROWS)],
        "DIRECTED": [["mid", "did"]]
        + [[ref("MOVIE"), ref("DIRECTOR")] for _ in range(DIFF_ROWS)],
        "GENRE": [["mid", "genre"]]
        + [[ref("MOVIE"), rng.choice(GENRES)] for _ in range(DIFF_ROWS)],
    }
    blank = random.Random(f"{seed}:nulls")  # leaves rng's draws as they were
    for rows in tables.values():
        for row in rows[1:]:
            for i, name in enumerate(rows[0]):
                if name not in ("id", "mid", "aid", "did") and blank.random() < nulls:
                    row[i] = None  # an empty CSV cell; NULL in sqlite3
    return tables


def _csv(rows):
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue()


def _sqlite_rows(tables, sql):
    con = sqlite3.connect(":memory:")
    try:
        for name, rows in tables.items():
            con.execute(f"create table {name} ({', '.join(rows[0])})")
            marks = ", ".join("?" for _ in rows[0])
            con.executemany(f"insert into {name} values ({marks})", rows[1:])
        con.execute("create view MOVIES as select * from MOVIE")
        return Counter(con.execute(sql).fetchall())
    finally:
        con.close()


@pytest.mark.parametrize("nulls", [0.0, 0.15])
def test_agrees_with_sqlite_on_larger_databases(movie_graph, nulls):
    queries = {name: (resolved(name, movie_graph), corpus_sql(name))
               for name in CORPUS_NAMES if name != "q9"}
    flat = rewriter.flatten(resolved("q5", movie_graph))
    queries["flatten(q5)"] = (flat, flat.render())
    queries["q9"] = (resolved("q9", movie_graph), SQLITE_Q9)
    for name, sql in EXTRA_SQL.items():
        queries[name] = (parser.resolve_names(parser.parse_sql(sql), movie_graph), sql)
    pairs = nonempty = 0
    for seed in DIFF_SEEDS:
        tables = _diff_tables(seed, nulls)
        db = load_data(movie_graph, {name: _csv(rows) for name, rows in tables.items()})
        for name, (ast, sql) in queries.items():
            rows = evaluate(ast, db).rows
            assert Counter(rows) == _sqlite_rows(tables, sql), (seed, name)
            pairs += 1
            nonempty += bool(rows)
    assert nonempty >= 0.2 * pairs, (nonempty, pairs)


# Over an empty MOVIE table an aggregate still yields one row, in which
# the block's own columns read NULL.
EMPTY_MOVIE_SQL = [
    "select m.title, count(*) from MOVIES m",
    "select count(*) from MOVIES m order by m.title",
    "select m.year, count(distinct m.title) from MOVIES m, CAST c where m.id = c.mid",
    "select count(*) from MOVIES m group by m.year",
    "select a.name from ACTOR a where 1 > (select count(*) from MOVIES m where m.id = a.id)",
    "select a.name from ACTOR a where exists (select m.title, count(*) from MOVIES m "
    "where m.id = a.id)",
]


@pytest.mark.parametrize("sql", EMPTY_MOVIE_SQL)
def test_an_aggregate_over_an_empty_table_agrees_with_sqlite(movie_graph, sql):
    tables = _diff_tables(0)
    tables["MOVIE"] = tables["MOVIE"][:1]  # the header only
    db = load_data(movie_graph, {name: _csv(rows) for name, rows in tables.items()})
    rows = evaluate(parser.resolve_names(parser.parse_sql(sql), movie_graph), db).rows
    assert Counter(rows) == _sqlite_rows(tables, sql)


def test_a_star_names_every_column_of_the_from_list(movie_graph, movie_db):
    sql = "select * from MOVIES m, GENRE g where m.id = g.mid"
    result = evaluate(parser.resolve_names(parser.parse_sql(sql), movie_graph), movie_db)
    assert result.columns == ["id", "title", "year", "mid", "genre"]  # as sqlite3 names them
    assert result.rows and {len(row) for row in result.rows} == {5}


def _star_variants(movie_graph):
    """q5 and each flattenable IN query of EXTRA_SQL, with `*` for the
    outer select list, name-resolved."""
    texts = [corpus_sql("q5")] + [sql for sql in EXTRA_SQL.values() if " in (" in sql]
    for sql in texts:
        star = re.sub(r"^select .+? from ", "select * from ", sql, count=1, flags=re.S)
        ast = parser.resolve_names(parser.parse_sql(star), movie_graph)
        if rewriter.flattenable(ast) is None:
            yield ast


def test_a_flattened_star_renders_the_columns_it_evaluates(movie_graph):
    asts = list(_star_variants(movie_graph))
    assert len(asts) >= 2
    nonempty = 0
    for seed in DIFF_SEEDS:
        tables = _diff_tables(seed)
        db = load_data(movie_graph, {name: _csv(rows) for name, rows in tables.items()})
        for ast in asts:
            assert ast.render().startswith("select * from ")  # as written
            flat = rewriter.flatten(ast)
            again = parser.resolve_names(parser.parse_sql(flat.render()), movie_graph)
            want, got, reparsed = evaluate(ast, db), evaluate(flat, db), evaluate(again, db)
            assert got.columns == reparsed.columns == want.columns, flat.render()
            assert got.rows == reparsed.rows, flat.render()
            assert set(got.rows) == set(want.rows), flat.render()
            nonempty += bool(want.rows)
    assert nonempty
