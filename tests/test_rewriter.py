from collections import Counter

import pytest

from conftest import resolved

from tabletalk import evaluator, parser, query_graph as QG, rewriter
from tabletalk.errors import NotFlattenable


class TestFlatten:
    def test_q5_flattens_to_q1(self, movie_graph):
        q5 = resolved("q5", movie_graph)
        q1 = resolved("q1", movie_graph)
        assert rewriter.flatten(q5) == q1

    def test_flat_query_is_unchanged(self, movie_graph):
        q1 = resolved("q1", movie_graph)
        assert rewriter.flatten(q1) == q1

    def test_idempotent_on_image(self, movie_graph):
        q5 = resolved("q5", movie_graph)
        once = rewriter.flatten(q5)
        assert rewriter.flatten(once) == once

    def test_input_left_untouched(self, movie_graph):
        q5 = resolved("q5", movie_graph)
        rendered_before = parser.render_sql(q5)
        rewriter.flatten(q5)
        assert parser.render_sql(q5) == rendered_before

    def test_not_exists_is_not_flattenable(self, movie_graph):
        with pytest.raises(NotFlattenable):
            rewriter.flatten(resolved("q6", movie_graph))

    def test_correlated_in_is_not_flattenable(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.id in "
            "(select c.mid from CAST c where c.role = m.title)"
        )
        parser.resolve_names(ast, movie_graph)
        with pytest.raises(NotFlattenable):
            rewriter.flatten(ast)

    def test_outer_reference_shadowed_below_is_not_flattenable(self, movie_graph):
        # The child's m is the outer movie; flattening the grandchild's own
        # m first must not capture it.
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.id in "
            "(select c.mid from CAST c where c.role = m.title and c.mid in "
            "(select m.id from MOVIE m))"
        )
        parser.resolve_names(ast, movie_graph)
        assert rewriter.flattenable(ast) == (
            "correlated reference m.title blocks flattening"
        )
        with pytest.raises(NotFlattenable):
            rewriter.flatten(ast)

    def test_alias_collision_renamed(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.id in "
            "(select m.mid from CAST m)"
        )
        parser.resolve_names(ast, movie_graph)
        flat = rewriter.flatten(ast)
        aliases = [i.alias for i in flat.from_items]
        assert len(aliases) == len({a.upper() for a in aliases})
        assert flat.where[0].rhs.alias == "m_2"

    def test_two_level_chain_over_emp_dept(self, emp_graph):
        nested = parser.parse_sql(
            "select e.name from EMP e where e.did in "
            "(select d.did from DEPT d where d.mgr in "
            "(select e2.eid from EMP e2 where e2.sal >= 100))"
        )
        parser.resolve_names(nested, emp_graph)
        flat = rewriter.flatten(nested)
        assert not list(flat.subqueries())
        assert len(flat.from_items) == 3
        # Oracle: the naive evaluator agrees on 100 random databases.
        for seed in range(100):
            db = evaluator.random_database(emp_graph, seed, 5)
            got = Counter(evaluator.evaluate(flat, db).rows)
            want = Counter(evaluator.evaluate(nested, db).rows)
            assert got == want, seed


class TestMotifs:
    def test_q6_division_params(self, corpus_graphs):
        motifs = rewriter.detect_motifs(corpus_graphs["q6"])
        assert [m.kind for m in motifs] == ["Division"]
        assert motifs[0].params["range"] == "MOVIE"
        assert motifs[0].params["divisor"] == "GENRE"

    def test_q8_same_value_attribute(self, corpus_graphs):
        motifs = rewriter.detect_motifs(corpus_graphs["q8"])
        assert [m.kind for m in motifs] == ["SameValue"]
        assert motifs[0].params["attribute"] == "year"
        assert motifs[0].params["relation"] == "MOVIE"

    def test_q9_superlative_direction(self, corpus_graphs):
        motifs = rewriter.detect_motifs(corpus_graphs["q9"])
        assert [m.kind for m in motifs] == ["SuperlativeAll"]
        assert motifs[0].params["direction"] == "min"

    def test_no_motifs_on_plain_corpus_queries(self, corpus_graphs):
        for name in ("q1", "q2", "q3", "q4", "q5"):
            assert rewriter.detect_motifs(corpus_graphs[name]) == [], name

    def test_uncorrelated_all_is_not_superlative(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.year <= all "
            "(select m2.year from MOVIE m2)"
        )
        parser.resolve_names(ast, movie_graph)
        qg = QG.build(ast, movie_graph)
        assert rewriter.detect_motifs(qg) == []
