import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
            again = parser.parse_sql(ast.render())
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

    @pytest.mark.parametrize(
        "sql,aggregate",
        [
            ("select m.title from MOVIES m where count(*) > 1", "count(*)"),
            ("select m.title from MOVIES m where 1 < count(distinct m.year)",
             "count(distinct m.year)"),
            ("select m.title from MOVIES m where count(*) >= all "
             "(select g.mid from GENRE g)", "count(*)"),
            ("select m.title from MOVIES m where m.id in (select g.mid from GENRE g "
             "where count(*) > 1 group by g.mid)", "count(*)"),
            ("select m.title from MOVIES m where exists (select * from GENRE g "
             "where g.mid = m.id and count(distinct g.genre) = 2)",
             "count(distinct g.genre)"),
        ],
        ids=["top", "distinct", "all", "in-child", "exists-child"],
    )
    def test_aggregate_in_where_is_rejected(self, movie_graph, sql, aggregate):
        ast = parser.parse_sql(sql)
        with pytest.raises(SqlError) as info:
            parser.resolve_names(ast, movie_graph)
        assert str(info.value) == f"aggregate {aggregate} in WHERE; use HAVING"

    @pytest.mark.parametrize(
        "sql",
        [
            "select m.title from MOVIES m where 1 < "
            "(select count(*) from GENRE g where g.mid = m.id)",
            "select m.id, count(*) from MOVIES m group by m.id having count(*) > 1",
        ],
        ids=["scalar-select-list", "having"],
    )
    def test_aggregate_outside_where_resolves(self, movie_graph, sql):
        parser.resolve_names(parser.parse_sql(sql), movie_graph)

    @pytest.mark.parametrize(
        "sql,message",
        [
            ("select m.title from MOVIES m where m.id in (select * from GENRE g)",
             "IN subquery must select one column, not *"),
            ("select m.title from MOVIES m where m.id in "
             "(select g.mid, g.genre from GENRE g)",
             "IN subquery must select one column, not 2 columns"),
            ("select m.title from MOVIES m where m.year <= all "
             "(select m2.year, m2.id from MOVIES m2)",
             "ALL subquery must select one column, not 2 columns"),
            ("select m.title from MOVIES m where m.year = "
             "(select m2.year, m2.id from MOVIES m2 where m2.id = m.id)",
             "scalar subquery must select one column, not 2 columns"),
            ("select m.title from MOVIES m where m.year < (select * from MOVIES m2)",
             "scalar subquery must select one column, not *"),
            ("select m.title from MOVIES m where exists (select * from GENRE g "
             "where g.mid in (select c.mid, c.aid from CAST c))",
             "IN subquery must select one column, not 2 columns"),
        ],
        ids=["in-star", "in-two", "all-two", "scalar-two", "scalar-star", "nested-in"],
    )
    def test_compared_subquery_must_select_one_column(self, movie_graph, sql, message):
        ast = parser.parse_sql(sql)
        with pytest.raises(SqlError) as info:
            parser.resolve_names(ast, movie_graph)
        assert str(info.value) == message

    def test_exists_child_may_select_anything(self, movie_graph):
        sql = ("select m.title from MOVIES m where exists "
               "(select g.mid, g.genre from GENRE g where g.mid = m.id)")
        parser.resolve_names(parser.parse_sql(sql), movie_graph)

    def test_dpt_alternate_name(self, emp_graph):
        ast = resolved("emp", emp_graph)
        dept = next(i for i in ast.from_items if i.alias == "d")
        assert dept.canonical == "DEPT"


class TestLevels:
    """`resolve_names` records, on each reference, how many query blocks
    out its FROM item is."""

    THREE_DEEP = (
        "select m.title from MOVIE m where exists "
        "(select c.mid from CAST c where c.mid = m.id and exists "
        "(select a.id from ACTOR a where a.id = c.aid and a.name = title "
        "and role = 'Lead' and M.year > 2000))"
    )

    def test_every_reference_of_a_three_deep_correlated_query(self, movie_graph):
        ast = parser.parse_sql(self.THREE_DEEP)
        parser.resolve_names(ast, movie_graph)
        child = ast.where[0].query
        grandchild = child.where[1].query

        def levels(query):
            return [(r.alias, r.attribute, r.level) for r in query.column_refs()]

        assert levels(ast) == [("m", "title", 0)]
        assert levels(child) == [("c", "mid", 0), ("c", "mid", 0), ("m", "id", 1)]
        assert levels(grandchild) == [
            ("a", "id", 0),
            ("a", "id", 0), ("c", "aid", 1),
            ("a", "name", 0), ("m", "title", 2),
            ("c", "role", 1),
            ("m", "year", 2),
        ]

    def test_an_inner_alias_shadows_an_outer_one_case_insensitively(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.id in "
            "(select M.mid from GENRE M where m.genre = 'drama')"
        )
        parser.resolve_names(ast, movie_graph)
        child = ast.where[0].query
        assert [(r.alias, r.relation, r.level) for r in child.column_refs()] == [
            ("M", "GENRE", 0), ("M", "GENRE", 0),
        ]
        assert ast.where[0].column.level == 0


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


# The grammar's token alphabet: keywords in any case, identifiers, numbers
# (a non-ASCII digit included), strings with doubled quotes, and every
# punctuation, operator and arithmetic token.
_KEYWORD = st.sampled_from(sorted(parser.KEYWORDS)).flatmap(
    lambda word: st.tuples(*(st.sampled_from([c.lower(), c]) for c in word)).map("".join)
)
_TOKEN = st.one_of(
    _KEYWORD,
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True),
    st.from_regex(r"[0-9\u0663]{1,4}", fullmatch=True),
    st.from_regex(r"'([^']|''){0,5}'", fullmatch=True),
    st.sampled_from(["(", ")", ",", ".", "*", "<=", ">=", "<>", "!=", "=", "<", ">"]),
    st.sampled_from(["+", "-", "/", "%"]),
)
_SPACE = st.text(alphabet=" \t\n\r\x0b\x0c\xa0\u2003", max_size=3)


class TestLexer:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(_SPACE, _TOKEN), max_size=25), _SPACE)
    def test_each_token_is_the_text_at_its_offset(self, pairs, tail):
        text = "".join(space + token for space, token in pairs) + tail
        tokens = parser.tokenize(text)
        assert tokens[-1] == ("eof", "", len(text))
        end = 0
        for kind, value, pos in tokens[:-1]:
            covered = text[pos:pos + len(value)]
            assert (covered.upper() if kind == "keyword" else covered) == value
            assert text[end:pos].strip() == ""  # only spaces between tokens
            end = pos + len(value)
        assert text[end:].strip() == ""

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("select a from T t where t.a = 'abc", "unexpected character \"'\"", 30),
            ("a 'b  \n", "unexpected character \"'\"", 2),
            ("select a from T where a ! b", "unexpected character '!'", 24),
            ("a !", "unexpected character '!'", 2),
            ('select a from T where a = "b"', "unexpected character '\"'", 26),
            ("select a from T;", "unexpected character ';'", 15),
            ("a ; \t", "unexpected character ';'", 2),
            ("\u2003;", "unexpected character ';'", 1),
        ],
    )
    def test_error_message_and_offset(self, text, message, position):
        with pytest.raises(SyntaxError_) as err:
            parser.tokenize(text)
        assert str(err.value) == f"{message} at offset {position}"
        assert err.value.position == position
        assert err.value.expected == ()

    @pytest.mark.parametrize("text", ["", " ", "a \t\n", "a\u2003\xa0", "'x' "])
    def test_trailing_whitespace_ends_at_eof(self, text):
        tokens = parser.tokenize(text)
        assert tokens[-1] == ("eof", "", len(text))
        assert [value for _, value, _ in tokens[:-1]] == text.split()


_NEST = "select a from T where a in ("
_OPS = ("=", "!=", "<", "<=", ">", ">=")


class TestErrorContract:
    """Every raise site of the lexer and parser: error type, message,
    position and expected set, exactly."""

    @pytest.mark.parametrize(
        "sql,error,message,position,expected",
        [
            # lexer
            ("select  \t§ from T", SyntaxError_, "unexpected character '§'", 9, ()),
            ("select a\xa0\u2003§ from T", SyntaxError_, "unexpected character '§'", 10, ()),
            ("select 'é' § from T", SyntaxError_, "unexpected character '§'", 11, ()),
            ("select a§ from T", SyntaxError_, "unexpected character '§'", 8, ()),
            ("select a from T;", SyntaxError_, "unexpected character ';'", 15, ()),
            ("select a from T where a ! b", SyntaxError_, "unexpected character '!'", 24, ()),
            ("select a from T t where t.a = 'abc", SyntaxError_,
             "unexpected character \"'\"", 30, ()),
            # trailing input
            ("select a from T t x \t\n", SyntaxError_, "unexpected trailing input 'x'", 18,
             ("end of input",)),
            ("select a from T t where t.a = 1)", SyntaxError_,
             "unexpected trailing input ')'", 31, ("end of input",)),
            ("select a from T where a in (select b from U where b = 'x'' y') z",
             SyntaxError_, "unexpected trailing input 'z'", 63, ("end of input",)),
            # missing keyword or punctuation
            ("", SyntaxError_, "expected SELECT, found ''", 0, ("SELECT",)),
            ("select a where a = 1", SyntaxError_, "expected FROM, found 'WHERE'", 9,
             ("FROM",)),
            ("select a from T group a", SyntaxError_, "expected BY, found 'a'", 22, ("BY",)),
            ("select a from T order a", SyntaxError_, "expected BY, found 'a'", 22, ("BY",)),
            ("select count * from T", SyntaxError_, "expected '(', found '*'", 13, ("(",)),
            ("select count(* from T", SyntaxError_, "expected ')', found 'FROM'", 15,
             (")",)),
            ("select a from T where a in (select b from U", SyntaxError_,
             "expected ')', found ''", 43, (")",)),
            # missing identifier or expression
            ("select a from where", SyntaxError_, "expected relation name, found 'WHERE'",
             14, ("relation name",)),
            ("select t. from T t", SyntaxError_, "expected column name, found 'FROM'", 10,
             ("column name",)),
            ("select a from T where a = b.", SyntaxError_, "expected column name, found ''",
             28, ("column name",)),
            ("select a as from T", SyntaxError_, "expected select alias, found 'FROM'", 12,
             ("select alias",)),
            ("select from T", SyntaxError_, "expected expression, found 'FROM'", 7,
             ("expression",)),
            ("select a from T where a = 1 and", SyntaxError_, "expected expression, found ''",
             31, ("expression",)),
            # predicates
            ("select a from T where a b", SyntaxError_,
             "expected comparison operator, found 'b'", 24, _OPS),
            ("select a from T where 1 in (select b from U)", SyntaxError_,
             "IN requires a column reference on its left", 27, ()),
            pytest.param("select a from T where a = " + "1" * 5000, SyntaxError_,
                         "integer constant too long", 26, (), id="5000-digit constant"),
            # unsupported constructs
            ("select distinct a from T", Unsupported, "SELECT DISTINCT", 16, None),
            ("select a from T having a = 1", Unsupported, "HAVING without GROUP BY", 16, None),
            ("select a from T union select b from U", Unsupported, "UNION", 16, None),
            ("select a from T intersect select b from U", Unsupported, "INTERSECT", 16, None),
            ("select a from T except select b from U", Unsupported, "EXCEPT", 16, None),
            ("select a from T limit 5", Unsupported, "LIMIT", 16, None),
            ("select sum(a) from T", Unsupported, "aggregate SUM", 7, None),
            ("select avg(a) from T", Unsupported, "aggregate AVG", 7, None),
            ("select min(a) from T", Unsupported, "aggregate MIN", 7, None),
            ("select max(a) from T", Unsupported, "aggregate MAX", 7, None),
            ("select count(a) from T", Unsupported, "count over a plain expression", 13, None),
            ("select a + 1 from T", Unsupported, "arithmetic expressions", 9, None),
            ("select a - 1 from T", Unsupported, "arithmetic expressions", 9, None),
            ("select a * 2 from T", Unsupported, "arithmetic expressions", 9, None),
            ("select a from T join U on a = b", Unsupported, "explicit JOIN syntax", 16, None),
            ("select a from T, U left join V", Unsupported, "explicit JOIN syntax", 19, None),
            ("select a from T where a = 1 or b = 2", Unsupported, "OR", 28, None),
            ("select a from T where not in (select b from U)", Unsupported, "NOT IN", 26,
             None),
            ("select a from T where a not in (select b from U)", Unsupported, "NOT IN", 24,
             None),
            ("select a from T where not a = 1", Unsupported, "NOT over a general predicate",
             26, None),
            ("select a from T where a like 'x'", Unsupported, "LIKE", 24, None),
            ("select a from T where a between 1 and 2", Unsupported, "BETWEEN", 24, None),
            ("select a from T where a is null", Unsupported, "IS", 24, None),
            ("select a from T where a = any (select b from U)", Unsupported,
             "ANY quantifier", 26, None),
            ("select a from T where a = some (select b from U)", Unsupported,
             "SOME quantifier", 26, None),
            # nesting
            (_NEST * parser.MAX_NESTING + "select a from T" + ")" * parser.MAX_NESTING,
             SyntaxError_, "query nesting too deep", parser.MAX_NESTING * len(_NEST), ()),
        ],
    )
    def test_raise_site(self, sql, error, message, position, expected):
        with pytest.raises(SqlError) as err:
            parser.parse_sql(sql)
        assert type(err.value) is error
        assert err.value.position == position
        if error is Unsupported:
            assert err.value.construct == message
            assert str(err.value) == f"unsupported construct: {message} at offset {position}"
        else:
            assert str(err.value) == f"{message} at offset {position}"
            assert err.value.expected == expected

    def test_nesting_at_the_limit_parses(self):
        depth = parser.MAX_NESTING - 1
        parser.parse_sql(_NEST * depth + "select a from T" + ")" * depth)
