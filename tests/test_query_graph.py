import re
from pathlib import Path

import pytest

from conftest import CORPUS_NAMES, built, corpus_sql, generated_sql

from tabletalk import parser, query_graph as QG
from tabletalk.ast_nodes import Constant, FromItem, Query
from tabletalk.classifier import classify
from tabletalk.dot import _escape, emit_query_dot
from tabletalk.errors import SyntaxError_, TabletalkError

# A subquery predicate that names only outer aliases, one and two of them
# (ROADMAP item 3).
ONE_OUTER_ALIAS = (
    "select g1.mid from GENRE g1 where g1.mid in "
    "(select m2.id from MOVIES m2, DIRECTED d3 "
    "where m2.id = d3.mid and g1.genre < g1.genre and m2.year >= 2003 "
    "group by m2.id having count(*) > 1)"
)
TWO_OUTER_ALIASES = (
    "select g1.genre from GENRE g1, MOVIES m2 where g1.mid = m2.id and g1.mid in "
    "(select m3.id from MOVIES m3 where m2.title != g1.genre and m3.title = 'King Kong')"
)
# Correlated only through its HAVING clause.
HAVING_OUTER = (
    "select m.title from MOVIE m where exists "
    "(select c.mid from CAST c group by c.mid having count(*) > m.year)"
)
# Correlated only through the needle of a nested IN.
NESTED_NEEDLE = (
    "select m.title from MOVIES m where exists "
    "(select g.mid from GENRE g where m.id in (select c.mid from CAST c))"
)

# Query DOT is pinned byte for byte: the corpus, emp.sql and these.
DOT_GOLDEN_DIR = Path(__file__).parent / "golden" / "dot"
DOT_GOLDEN_SQL = {
    "order_by": "select m.title, m.year from MOVIE m order by m.year desc, m.title",
    "count_distinct": (
        "select d.name, count(distinct g.genre) from DIRECTOR d, DIRECTED r, GENRE g "
        "where d.id = r.did and r.mid = g.mid group by d.name"
    ),
    "group_and_order": (
        "select m.id, m.title, count(*) from MOVIE m, CAST c where m.id = c.mid "
        "group by m.id, m.title having count(*) > 1 order by m.title desc, m.id"
    ),
    # Columns keep the spelling the query gives them, aliases their FROM one.
    "spelling": "select M.TITLE from MOVIES m group by M.Title order by M.YEAR",
    # A child's select list naming an enclosing alias adds no SELECT section.
    "outer_select": (
        "select m.title from MOVIE m where exists "
        "(select m.year from CAST c where c.mid = m.id)"
    ),
    "one_outer_alias": ONE_OUTER_ALIAS,
    "two_outer_aliases": TWO_OUTER_ALIASES,
    "having_outer": HAVING_OUTER,
    # Conjuncts and select items that no node owns are drawn as notes.
    "ownerless": (
        "select m.id, count(*) from MOVIE m where 1 < 2 group by m.id having count(*) > 1"
    ),
}


def built_sql(sql, graph):
    ast = parser.parse_sql(sql)
    parser.resolve_names(ast, graph)
    return QG.build(ast, graph)


def of_kind(qg, kind):
    return [entry for entry in qg.conjuncts if entry.kind == kind]


class TestBuild:
    def test_q1_partition(self, corpus_graphs):
        qg = corpus_graphs["q1"]
        assert [item.alias for item in qg.query.from_items] == ["m", "c", "a"]
        joins = of_kind(qg, "join")
        assert len(joins) == 2
        assert all(e.fk_backed for e in joins)
        brad = [entry.pred for entry in qg.conjuncts if entry.owner == "a"]
        assert len(brad) == 1
        assert isinstance(brad[0].rhs, Constant)
        assert brad[0].rhs.value == "Brad Pitt"

    def test_q3_multi_instance_and_nonfk_join(self, corpus_graphs):
        qg = corpus_graphs["q3"]
        assert len(qg.query.from_items) == 5
        relations = [item.canonical for item in qg.query.from_items]
        assert relations.count("CAST") == 2 and relations.count("ACTOR") == 2
        assert QG.shape(qg).repeated == ["CAST", "ACTOR"]
        nonfk = [e for e in of_kind(qg, "join") if not e.fk_backed]
        assert len(nonfk) == 1
        assert nonfk[0].pred.op == ">"
        assert set(nonfk[0].ends) == {"a1", "a2"}

    def test_q7_nested_child_under_compare_having(self, corpus_graphs):
        qg = corpus_graphs["q7"]
        (entry,) = of_kind(qg, "nested")
        assert entry.connector == "compare_scalar"
        assert entry.site == "having"
        assert [item.canonical for item in entry.child.query.from_items] == ["GENRE"]
        assert [(e.kind, e.pred.render()) for e in entry.child.conjuncts] == [
            ("crossing", "g.mid = m.id")
        ]

    def test_crossing_edge_keeps_the_child_side_first(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIES m where exists "
            "(select c.mid from CAST c where m.id < c.mid)"
        )
        parser.resolve_names(ast, movie_graph)
        child = of_kind(QG.build(ast, movie_graph), "nested")[0].child
        (entry,) = child.conjuncts
        pred = entry.pred
        assert (entry.kind, entry.site, entry.correlated) == ("crossing", "where", True)
        assert pred.render() == "c.mid > m.id"
        assert (pred.lhs.relation, pred.rhs.relation) == ("CAST", "MOVIE")

    @pytest.mark.parametrize(
        "site", ["where", "group by m.title having"], ids=["where", "having"]
    )
    def test_the_parser_puts_a_scalar_subquery_on_the_right_only(self, site):
        # So a scalar comparison nests the block on its right, and no other.
        with pytest.raises(SyntaxError_):
            parser.parse_sql(
                f"select m.title from MOVIES m {site} (select count(*) from CAST c) > 1"
            )

    def test_group_and_order_notes(self, corpus_graphs, movie_graph):
        # GROUP BY and ORDER BY are read from the resolved block, bindings and all.
        group_by = corpus_graphs["q7"].query.group_by
        assert [(c.alias, c.relation, c.attribute) for c in group_by] == [
            ("m", "MOVIE", "id"), ("m", "MOVIE", "title")
        ]
        qg = built_sql("select m.title from MOVIES M order by m.YEAR desc, m.title", movie_graph)
        assert [(c.alias, c.relation, c.attribute, d) for c, d in qg.query.order_by] == [
            ("M", "MOVIE", "year", "desc"), ("M", "MOVIE", "title", "asc")
        ]

    def test_a_hand_built_graph_holds_an_empty_block(self):
        qg = QG.QueryGraph()
        assert qg.query == Query() and qg.conjuncts == []
        qg.query.from_items.append(FromItem("MOVIES", "m", "MOVIE"))
        assert qg.node("m").canonical == "MOVIE" and QG.QueryGraph().query.from_items == []
        report = QG.shape(qg)
        assert report.degrees == {"m": 0} and not report.has_aggregate

    def test_node_count_conservation(self, corpus_graphs):
        def count_nodes(qg):
            return len(qg.query.from_items) + sum(
                count_nodes(e.child) for e in of_kind(qg, "nested")
            )

        def count_from(ast):
            total = len(ast.from_items)
            for _, _, child in ast.subqueries():
                total += count_from(child)
            return total

        for name, qg in corpus_graphs.items():
            assert count_nodes(qg) == count_from(qg.query), name

    def test_predicate_conservation(self, corpus_graphs):
        # One entry per AST predicate, in source order; the nested ones hold
        # the block's subqueries in order, and only a join is FK-backed.
        for name, qg in corpus_graphs.items():
            ast = qg.query
            assert [e.site for e in qg.conjuncts] == (
                ["where"] * len(ast.where) + ["having"] * len(ast.having)
            ), name
            nested = [(e.site, e.connector, e.child.query) for e in of_kind(qg, "nested")]
            assert nested == list(ast.subqueries()), name
            for e in qg.conjuncts:
                assert (e.kind == "nested") == (e.connector is not None) == (e.child is not None)
                assert e.kind == "join" or not e.fk_backed, name

    def test_every_block_files_each_conjunct_once(self, movie_graph):
        # Every WHERE and HAVING conjunct of every block, the corpus's and
        # generated ones, is one entry of `conjuncts`, at its own site; a
        # HAVING conjunct naming an enclosing alias too.  A join names this
        # block's aliases only, and a crossing comparison has its local side
        # first.
        texts = [corpus_sql(name) for name in CORPUS_NAMES] + list(generated_sql(2, 500))
        texts += [ONE_OUTER_ALIAS, TWO_OUTER_ALIASES, HAVING_OUTER, NESTED_NEEDLE]
        blocks = crossing = 0
        for text in texts:
            try:
                qg = built_sql(text, movie_graph)
            except TabletalkError:
                continue
            pending = [qg]
            while pending:
                block = pending.pop()
                pending.extend(entry.child for entry in of_kind(block, "nested"))
                conjuncts = block.query.where + block.query.having
                filed = []
                for entry in block.conjuncts:
                    pred = entry.pred
                    sources = [c for c in conjuncts if c is pred]
                    if entry.kind == "crossing":
                        assert not pred.lhs.level and pred.rhs.level, text
                        # Filed as written, or mirrored: the same two sides swapped.
                        sources += [
                            c for c in conjuncts
                            if getattr(c, "lhs", 0) is pred.rhs and getattr(c, "rhs", 0) is pred.lhs
                        ]
                        crossing += 1
                    (source,) = sources
                    assert entry.site == ("where" if source in block.query.where else "having")
                    filed.append(source)
                    if entry.kind == "join":
                        assert not pred.lhs.level and not pred.rhs.level, text
                    elif entry.kind == "node":
                        assert block.node(entry.owner) is not None, text
                    else:
                        assert entry.kind in ("crossing", "ownerless", "outer", "nested"), text
                assert sorted(map(id, filed)) == sorted(map(id, conjuncts)), text
                blocks += 1
        assert blocks > 1000 and crossing > 100

    def test_fk_backed_matches_schema_key_pairs(self, corpus_graphs, movie_graph):
        for name, qg in corpus_graphs.items():
            for edge in of_kind(qg, "join"):
                a, b = edge.pred.lhs, edge.pred.rhs
                expected = edge.pred.op == "=" and movie_graph.fk_backed(
                    a.relation, a.attribute, b.relation, b.attribute
                )
                assert edge.fk_backed == expected, name

    def test_fk_set_is_built_with_the_joins(self, movie_graph):
        # The name index is first built while the joins are still being read.
        assert movie_graph.fk_backed("CAST", "mid", "MOVIE", "id")
        assert movie_graph.fk_backed("MOVIE", "id", "CAST", "mid")
        assert not movie_graph.fk_backed("MOVIE", "year", "CAST", "mid")

    @pytest.mark.parametrize(
        "sql,outer",
        [(ONE_OUTER_ALIAS, "g1.genre < g1.genre"), (TWO_OUTER_ALIASES, "m2.title != g1.genre")],
        ids=["one_alias", "two_aliases"],
    )
    def test_outer_only_predicates_are_outer_conditions(self, movie_graph, sql, outer):
        qg = built_sql(sql, movie_graph)
        child = of_kind(qg, "nested")[0].child
        kinds = {e.kind: [] for e in child.conjuncts}
        for e in child.conjuncts:
            kinds[e.kind].append(e.pred)
        assert [p.render() for p in kinds["outer"]] == [outer]
        assert kinds.get("ownerless", []) == child.query.having  # count(*) > 1 only
        assert "crossing" not in kinds
        assert [e.pred.render() for e in child.conjuncts if e.correlated] == [outer]
        assert qg.is_correlated()

    def test_an_outer_alias_in_having_makes_the_block_correlated(self, movie_graph):
        qg = built_sql(HAVING_OUTER, movie_graph)
        child = of_kind(qg, "nested")[0].child
        # One entry, at its HAVING site, flagged: not listed a second time.
        assert [(e.pred.render(), e.site, e.kind, e.correlated) for e in child.conjuncts] == [
            ("count(*) > m.year", "having", "ownerless", True)
        ]
        assert child.is_correlated() and qg.is_correlated()
        assert QG.shape(qg).correlated

    def test_a_nested_needle_naming_an_enclosing_alias_is_correlated(self, movie_graph):
        # The EXISTS child's IN tests `m.id`, a column of the block around it.
        qg = built_sql(NESTED_NEEDLE, movie_graph)
        assert QG.shape(qg).correlated
        assert classify(qg).evidence == [
            "nesting connectors: exists, in", "at least one subquery is correlated"
        ]
        assert (
            '  "NQ1.g" -> "m" [style=dotted, label="m.id in (select c.mid from CAST c)"];\n'
            in emit_query_dot(qg)
        )

    def test_a_having_conjunct_sits_on_the_node_it_names(self, movie_graph):
        qg = built_sql(
            "select m.title from MOVIE m where exists (select c.mid from CAST c "
            "group by c.mid having c.mid > m.year and count(distinct c.aid) > 1)", movie_graph
        )
        child = of_kind(qg, "nested")[0].child
        assert [(e.kind, e.owner, e.correlated) for e in child.conjuncts] == [
            ("node", "c", True), ("node", "c", False)
        ]

    @pytest.mark.parametrize(
        "having", ["count(*) > count(distinct c.aid)", "count(distinct c.aid) < count(*)"]
    )
    def test_a_having_count_distinct_sits_on_its_node_on_either_side(self, movie_graph, having):
        qg = built_sql(f"select c.mid from CAST c group by c.mid having {having}", movie_graph)
        assert [(e.kind, e.owner) for e in qg.conjuncts] == [("node", "c")]
        (record,) = [line for line in emit_query_dot(qg).splitlines() if line.startswith('  "c" [')]
        assert _escape(f"<<HAVING>> {having}") in record


class TestShape:
    def test_q1_path_shape(self, corpus_graphs):
        report = QG.shape(corpus_graphs["q1"])
        assert report.max_degree == 2
        assert not report.multi_instance
        assert not report.cyclic

    def test_q4_cycle_flag(self, corpus_graphs):
        assert QG.shape(corpus_graphs["q4"]).cyclic

    def test_q2_degree_three_hub(self, corpus_graphs):
        report = QG.shape(corpus_graphs["q2"])
        assert not report.cyclic
        assert report.degrees["m"] == 3

    def test_self_join_edges_do_not_count_as_cycles(self, corpus_graphs):
        assert not QG.shape(corpus_graphs["q3"]).cyclic

    @pytest.mark.parametrize("sql", [
        "select m.title from MOVIE m group by m.title",
        "select count(*) from MOVIE m",
        "select count(distinct m.year) from MOVIE m",
    ], ids=["group_by", "count", "count_distinct"])
    def test_a_group_by_or_a_count_alone_is_an_aggregate(self, movie_graph, sql):
        assert QG.shape(built_sql(sql, movie_graph)).has_aggregate

    def test_a_count_in_a_child_only_is_no_aggregate(self, movie_graph):
        qg = built_sql(
            "select m.title from MOVIE m where 1 < "
            "(select count(*) from CAST c where c.mid = m.id)", movie_graph
        )
        assert not QG.shape(qg).has_aggregate
        assert QG.shape(of_kind(qg, "nested")[0].child).has_aggregate


def _dot_golden_graph(name, movie_graph, emp_graph):
    if name == "emp":
        return built("emp", emp_graph)
    return built_sql(DOT_GOLDEN_SQL.get(name) or corpus_sql(name), movie_graph)


class TestDot:
    @pytest.mark.parametrize("name", [*CORPUS_NAMES, "emp", *DOT_GOLDEN_SQL])
    def test_query_dot_golden(self, name, movie_graph, emp_graph):
        dot = emit_query_dot(_dot_golden_graph(name, movie_graph, emp_graph))
        assert dot == (DOT_GOLDEN_DIR / f"{name}.dot").read_text(), name

    def test_q1_three_record_nodes(self, corpus_graphs):
        dot = emit_query_dot(corpus_graphs["q1"])
        assert dot.count("\\<\\<FROM\\>\\>") == 3
        assert "MOVIE m" in dot

    def test_q7_nested_cluster(self, corpus_graphs):
        dot = emit_query_dot(corpus_graphs["q7"])
        assert "subgraph cluster_NQ1" in dot
        assert "GROUP BY" in dot

    def test_no_edges_without_predicates(self, movie_graph):
        ast = parser.parse_sql("select m.title from MOVIE m")
        parser.resolve_names(ast, movie_graph)
        dot = emit_query_dot(QG.build(ast, movie_graph))
        assert "->" not in dot

    def test_deterministic(self, corpus_graphs):
        for name, qg in corpus_graphs.items():
            assert emit_query_dot(qg) == emit_query_dot(qg), name

    def test_every_edge_end_is_a_declared_node(self, movie_graph, emp_graph):
        dots = [(emit_query_dot(built(name, movie_graph)), name) for name in CORPUS_NAMES]
        dots.append((emit_query_dot(built("emp", emp_graph)), "emp"))
        for sql in (ONE_OUTER_ALIAS, TWO_OUTER_ALIASES, HAVING_OUTER, NESTED_NEEDLE):
            dots.append((emit_query_dot(built_sql(sql, movie_graph)), sql))
        for dot, name in dots:
            nodes = set(re.findall(r'^ *"([^"]+)" \[', dot, re.M))
            ends = re.findall(r'^ *"([^"]+)" -> "([^"]+)"', dot, re.M)
            assert ends, name
            assert [end for edge in ends for end in edge if end not in nodes] == [], name

    def test_outer_conditions_draw_dotted_edges_to_outer_nodes(self, movie_graph):
        dot = emit_query_dot(built_sql(TWO_OUTER_ALIASES, movie_graph))
        assert '"NQ1.m3" -> "m2" [style=dotted, label="m2.title != g1.genre"];' in dot
        assert '"NQ1.m3" -> "g1" [style=dotted, label="m2.title != g1.genre"];' in dot
        assert '"NQ1.m2"' not in dot

    def test_an_outer_alias_in_having_draws_a_dotted_edge(self, movie_graph):
        dot = emit_query_dot(built_sql(HAVING_OUTER, movie_graph))
        assert '"NQ1.c" -> "m" [style=dotted, label="count(*) \\> m.year"];' in dot

    def test_q6_crossing_edges_resolve_through_nested_scopes(self, corpus_graphs):
        dot = emit_query_dot(corpus_graphs["q6"])
        assert '"NQ2.g2" -> "m"' in dot  # innermost to outer query
        assert '"NQ2.g2" -> "NQ1.g1"' in dot  # innermost to middle query
        assert "cluster_NQ2" in dot
