import random

import pytest

from conftest import CORPUS_NAMES, corpus_sql

from tabletalk import parser, query_graph as QG, rewriter, translator
from tabletalk.ast_nodes import ColumnRef, Compare, FromItem
from tabletalk.classifier import LABELS, classify
from tabletalk.errors import NotFlattenable
from tabletalk.query_graph import Conjunct, QueryGraph

EXPECTED = {
    "q1": "Path",
    "q2": "Subgraph",
    "q3": "GraphMultiInstance",
    "q4": "GraphCyclic",
    "q5": "NestedFlattenable",
    "q6": "NestedGeneral",
    "q7": "Aggregate",
    "q8": "HigherOrder",
    "q9": "HigherOrder",
}


class TestTaxonomy:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_labels(self, corpus_graphs, name):
        result = classify(corpus_graphs[name])
        assert result.label == EXPECTED[name]
        assert result.evidence

    def test_single_relation_no_joins_is_degenerate_path(self, movie_graph):
        ast = parser.parse_sql("select m.title from MOVIE m")
        parser.resolve_names(ast, movie_graph)
        assert classify(QG.build(ast, movie_graph)).label == "Path"

    def test_cross_join_without_predicates_is_subgraph(self, movie_graph):
        ast = parser.parse_sql("select m.title from MOVIE m, ACTOR a")
        parser.resolve_names(ast, movie_graph)
        assert classify(QG.build(ast, movie_graph)).label == "Subgraph"

    def test_aggregate_over_cyclic_core_records_the_alternative(self, movie_graph):
        ast = parser.parse_sql(
            "select m.id, count(*) from MOVIE m, CAST c "
            "where m.id = c.mid and c.role = m.title group by m.id"
        )
        parser.resolve_names(ast, movie_graph)
        result = classify(QG.build(ast, movie_graph))
        assert result.label == "Aggregate"
        assert any("GraphCyclic" in line for line in result.evidence)

    @pytest.mark.parametrize("sql, evidence", [
        ("select m1.title from MOVIES m1, MOVIES m2, MOVIES m3 "
         "where m1.year = m2.year and m2.title = m3.title", "MOVIE"),
        ("select m1.title from MOVIES m1, CAST c1, MOVIES m2, CAST c2 "
         "where m1.id = c1.mid and c1.aid = c2.aid and c2.mid = m2.id", "MOVIE, CAST"),
    ], ids=["one_relation_thrice", "two_relations_twice"])
    def test_multi_instance_names_each_repeated_relation_once(self, movie_graph, sql, evidence):
        ast = parser.resolve_names(parser.parse_sql(sql), movie_graph)
        result = classify(QG.build(ast, movie_graph))
        assert result.label == "GraphMultiInstance"
        assert result.evidence == [f"multiple tuple variables over: {evidence}"]


IN_SHAPES = {
    "q5": corpus_sql("q5"),
    "group_by": "select m.title from MOVIE m where m.id in "
    "(select c.mid from CAST c group by c.mid)",
    "order_by": "select m.title from MOVIE m where m.id in "
    "(select c.mid from CAST c order by c.mid asc)",
    "count_star": "select m.title from MOVIE m where m.id in "
    "(select count(*) from CAST c)",
    "outer_constant": "select m.title from MOVIE m where m.id in "
    "(select c.mid from CAST c where m.year = 2005)",
    "correlated": "select m.title from MOVIE m where m.id in "
    "(select c.mid from CAST c where c.role = m.title)",
    "two_level": "select m.title from MOVIE m where m.id in "
    "(select c.mid from CAST c where c.aid in "
    "(select a.id from ACTOR a where a.name = 'Brad Pitt'))",
    "not_exists": "select m.title from MOVIE m where not exists "
    "(select c.mid from CAST c where c.mid = m.id)",
}

# IN-only, uncorrelated nesting that the rewriter still rejects.  A child
# predicate that names only an outer alias (outer_constant) is correlation.
REJECTED_UNCORRELATED = {"group_by", "order_by", "count_star"}


class TestAgreesWithRewriter:
    @pytest.mark.parametrize("name", IN_SHAPES)
    def test_label_matches_flatten(self, movie_graph, name):
        ast = parser.parse_sql(IN_SHAPES[name])
        parser.resolve_names(ast, movie_graph)
        qg = QG.build(ast, movie_graph)
        cls = classify(qg)
        try:
            rewriter.flatten(ast)
        except NotFlattenable as exc:
            reason = str(exc)
        else:
            reason = None
        assert (cls.label == "NestedFlattenable") == (reason is None)
        if name in REJECTED_UNCORRELATED:
            assert cls.evidence == ["nesting connectors: in", reason]
        elif name == "outer_constant":
            assert cls.evidence == [
                "nesting connectors: in", "at least one subquery is correlated"
            ]
        try:
            translator.translate(qg, movie_graph, cls)
        except NotFlattenable as exc:
            pytest.fail(f"translate leaked NotFlattenable: {exc}")


def _edge(a: str, b: str, column: str, op: str, fk: bool) -> Conjunct:
    pred = Compare(ColumnRef(a, column), op, ColumnRef(b, column))
    return Conjunct(pred, "where", "join", fk_backed=fk)


def _random_spj_graph(rng: random.Random) -> QueryGraph:
    relations = ["MOVIE", "GENRE", "DIRECTOR", "CAST", "ACTOR"]
    qg = QueryGraph()
    n = rng.randint(1, 5)
    for i in range(n):
        relation = rng.choice(relations)
        qg.query.from_items.append(FromItem(relation, f"t{i}", relation))
    for _ in range(rng.randint(0, n + 1)):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a == b:
            continue
        qg.conjuncts.append(
            _edge(f"t{a}", f"t{b}", "k", rng.choice(["=", "=", ">"]), rng.random() < 0.7)
        )
    return qg


class TestProperties:
    def test_totality_and_uniqueness_on_generated_graphs(self):
        rng = random.Random(7)
        for _ in range(400):
            qg = _random_spj_graph(rng)
            result = classify(qg)
            assert result.label in LABELS
            assert len(result.evidence) >= 1

    def test_a_chord_on_a_path_makes_it_cyclic(self):
        rng = random.Random(11)
        relations = ["MOVIE", "GENRE", "DIRECTOR", "CAST", "ACTOR"]
        for _ in range(200):
            n = rng.randint(2, 5)
            qg = QueryGraph()
            chosen = rng.sample(relations, n)
            for i, rel in enumerate(chosen):
                qg.query.from_items.append(FromItem(rel, f"t{i}", rel))
            for i in range(n - 1):
                qg.conjuncts.append(_edge(f"t{i}", f"t{i+1}", "k", "=", True))
            assert classify(qg).label == "Path"
            a, b = rng.sample(range(n), 2)
            qg.conjuncts.append(_edge(f"t{a}", f"t{b}", "j", "=", False))
            # A non-key edge between two nodes of a path closes a cycle.
            assert classify(qg).label == "GraphCyclic"
            assert QG.shape(qg).cyclic


def test_correlation_through_having_is_evidence(movie_graph):
    ast = parser.parse_sql(
        "select m.title from MOVIE m where exists "
        "(select c.mid from CAST c group by c.mid having count(*) > m.year)"
    )
    parser.resolve_names(ast, movie_graph)
    assert classify(QG.build(ast, movie_graph)).evidence == [
        "nesting connectors: exists", "at least one subquery is correlated"
    ]
