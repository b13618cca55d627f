import random

import pytest

from conftest import CORPUS_NAMES, corpus_sql, resolved

from tabletalk import parser
from tabletalk.ast_nodes import Compare, InSubquery, ScalarSubquery
from tabletalk.errors import (
    AmbiguousColumn,
    SqlError,
    SyntaxError_,
    UnknownColumn,
    UnknownRelation,
    Unsupported,
)


class TestParse:
    def test_q1_shape(self):
        ast = parser.parse_sql(corpus_sql("q1"))
        assert len(ast.from_items) == 3
        assert len(ast.where) == 3
        assert [i.alias for i in ast.from_items] == ["m", "c", "a"]

    def test_minimal_query(self):
        ast = parser.parse_sql("select t.a from T t")
        assert len(ast.select_items) == 1
        assert ast.from_items[0].alias == "t"
        assert ast.where == []

    def test_q7_group_and_correlated_having(self):
        ast = parser.parse_sql(corpus_sql("q7"))
        assert len(ast.group_by) == 2
        assert len(ast.having) == 1
        having = ast.having[0]
        assert isinstance(having, Compare)
        assert isinstance(having.rhs, ScalarSubquery)

    def test_q1_with_shortened_constant_parses(self):
        # Parsing is schema-free; constants are opaque.
        text = corpus_sql("q1").replace("'Brad Pitt'", "'Brad'")
        ast = parser.parse_sql(text)
        assert len(ast.where) == 3

    def test_bare_relation_alias_defaults_to_name(self):
        ast = parser.parse_sql("select title from MOVIE where id in (select mid from CAST c)")
        assert ast.from_items[0].alias == "MOVIE"
        assert isinstance(ast.where[0], InSubquery)

    @pytest.mark.parametrize(
        "sql,construct",
        [
            ("select a.x from A a where a.x = 1 or a.y = 2", "OR"),
            ("select a.x from A a join B b on a.x = b.y", "JOIN"),
            ("select a.x from A a union select b.y from B b", "UNION"),
            ("select distinct a.x from A a", "DISTINCT"),
            ("select sum(a.x) from A a", "SUM"),
            ("select a.x from A a where a.x + 1 = 2", "arithmetic"),
            ("select a.x from A a where a.x not in (select b.y from B b)", "NOT IN"),
            ("select a.x from A a where a.x like 'z%'", "LIKE"),
            ("select a.x from A a where a.x = any (select b.y from B b)", "ANY"),
            ("select a.x from A a limit 5", "LIMIT"),
        ],
    )
    def test_unsupported_constructs(self, sql, construct):
        with pytest.raises(Unsupported):
            parser.parse_sql(sql)

    def test_syntax_error_carries_position(self):
        with pytest.raises(SyntaxError_) as err:
            parser.parse_sql("select from T t")
        assert 0 <= err.value.position <= len("select from T t")

    def test_roundtrip_corpus(self, movie_graph, emp_graph):
        for name in CORPUS_NAMES + ["emp"]:
            graph = emp_graph if name == "emp" else movie_graph
            ast = resolved(name, graph)
            again = parser.parse_sql(parser.render_sql(ast))
            parser.resolve_names(again, graph)
            assert again == ast, name


class TestResolve:
    def test_q3_aliases_resolve_independently(self, movie_graph):
        ast = resolved("q3", movie_graph)
        refs = [r for r in ast.column_refs()]
        actors = {r.alias for r in refs if r.relation == "ACTOR"}
        assert actors == {"a1", "a2"}

    def test_q9_unqualified_year_resolves_to_movie(self, movie_graph):
        ast = resolved("q9", movie_graph)
        compare_all = ast.where[-1]
        assert compare_all.lhs.alias == "m"
        assert compare_all.lhs.relation == "MOVIE"

    def test_q5_unqualified_id_resolves_to_outer_movie(self, movie_graph):
        ast = resolved("q5", movie_graph)
        in_pred = ast.where[0]
        assert in_pred.column.alias == "m"

    def test_unknown_alias(self, movie_graph):
        ast = parser.parse_sql("select m.title from MOVIE m where x.z = 1")
        with pytest.raises(UnknownRelation):
            parser.resolve_names(ast, movie_graph)

    def test_unknown_column(self, movie_graph):
        ast = parser.parse_sql("select m.box_office from MOVIE m")
        with pytest.raises(UnknownColumn):
            parser.resolve_names(ast, movie_graph)

    def test_ambiguous_column(self, movie_graph):
        ast = parser.parse_sql("select id from MOVIE m, ACTOR a where m.id = a.id")
        with pytest.raises(AmbiguousColumn):
            parser.resolve_names(ast, movie_graph)

    def test_duplicate_alias(self, movie_graph):
        ast = parser.parse_sql("select m.title from MOVIE m, CAST m")
        with pytest.raises(SqlError):
            parser.resolve_names(ast, movie_graph)

    def test_dpt_alternate_name(self, emp_graph):
        ast = resolved("emp", emp_graph)
        dept = next(i for i in ast.from_items if i.alias == "d")
        assert dept.canonical == "DEPT"


class TestCanonicalAliases:
    """After resolution each reference carries its FROM item's spelling."""

    SQL = (
        "select M.title from MOVIE m "
        "where exists (select G.mid from GENRE g where G.mid = M.id) "
        "and M.id in (select m.id from MOVIE M where m.year = 2005)"
    )

    def test_references_take_the_from_spelling(self, movie_graph):
        ast = parser.resolve_names(parser.parse_sql(self.SQL), movie_graph)
        exists, in_pred = ast.where
        assert [r.alias for r in ast.column_refs()] == ["m", "m"]
        # The correlated M.id resolves through the outer scope.
        assert [r.alias for r in exists.query.column_refs()] == ["g", "g", "m"]
        # The inner M shadows the outer m.
        assert [r.alias for r in in_pred.query.column_refs()] == ["M", "M"]

    def test_resolved_query_renders_the_from_spelling(self, movie_graph):
        ast = parser.resolve_names(parser.parse_sql(self.SQL), movie_graph)
        assert ast.render() == (
            "select m.title from MOVIE m "
            "where exists (select g.mid from GENRE g where g.mid = m.id) "
            "and m.id in (select M.id from MOVIE M where M.year = 2005)"
        )


class TestTotality:
    def test_parser_survives_byte_fuzzing(self):
        rng = random.Random(0)
        seeds = [corpus_sql(n) for n in CORPUS_NAMES]
        for i in range(10_000):
            if i % 3 == 0 and seeds:
                base = list(rng.choice(seeds))
                for _ in range(rng.randint(1, 6)):
                    pos = rng.randrange(len(base))
                    base[pos] = chr(rng.randrange(256))
                text = "".join(base)
            else:
                text = "".join(
                    chr(rng.randrange(256)) for _ in range(rng.randrange(64))
                )
            try:
                parser.parse_sql(text)
            except (SyntaxError_, Unsupported):
                pass

    def test_error_positions_are_bounded(self):
        rng = random.Random(1)
        for _ in range(500):
            text = "".join(chr(rng.randrange(128)) for _ in range(rng.randrange(40)))
            try:
                parser.parse_sql(text)
            except SyntaxError_ as err:
                assert 0 <= err.position <= len(text)
            except Unsupported:
                pass
