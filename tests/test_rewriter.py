import copy
from collections import Counter

import pytest

from conftest import CORPUS_NAMES, ROOT, corpus_sql, generated_sql, resolved
from random_db import random_database

from tabletalk import evaluator, parser, query_graph as QG, rewriter
from tabletalk.classifier import classify
from tabletalk.ast_nodes import Compare, InSubquery
from tabletalk.errors import NotFlattenable, TabletalkError


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
        rendered_before = q5.render()
        rewriter.flatten(q5)
        assert q5.render() == rendered_before

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

    def test_in_in_having_is_not_flattenable(self, movie_graph):
        ast = parser.parse_sql(
            "select m.id from MOVIES m group by m.id "
            "having m.id in (select c.mid from CAST c)"
        )
        parser.resolve_names(ast, movie_graph)
        assert rewriter.flattenable(ast) == "IN nesting in HAVING is not flattenable"

    def test_an_in_over_a_child_holding_an_exists_is_not_flattenable(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.id in (select g.mid from GENRE g "
            "where exists (select c.mid from CAST c))"
        )
        parser.resolve_names(ast, movie_graph)
        assert rewriter.flattenable(ast) == "exists nesting is not flattenable"
        with pytest.raises(NotFlattenable):
            rewriter.flatten(ast)

    def test_conjuncts_it_does_not_rename_are_shared(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.year > 2000 and m.id in "
            "(select m.mid from CAST m where m.role = 'Nola' and 1 = 1)"
        )
        parser.resolve_names(ast, movie_graph)
        outer, nested = ast.where
        renamed, constant = nested.query.where
        flat = rewriter.flatten(ast)
        assert flat.render() == (
            "select m.title from MOVIE m, CAST m_2 where m.year > 2000 "
            "and m.id = m_2.mid and m_2.role = 'Nola' and 1 = 1"
        )
        assert flat.where[0] is outer
        assert flat.where[2] is not renamed
        assert flat.where[3] is constant

    def test_a_taken_fresh_alias_is_skipped(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIES m, MOVIES m_2 where m.id = m_2.id and "
            "m.id in (select m.id from MOVIES m where m.year > 2003)"
        )
        parser.resolve_names(ast, movie_graph)
        assert rewriter.flatten(ast).render() == (
            "select m.title from MOVIES m, MOVIES m_2, MOVIES m_3 where m.id = m_2.id "
            "and m.id = m_3.id and m_3.year > 2003"
        )

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
            db = random_database(emp_graph, seed, 5)
            got = Counter(evaluator.evaluate(flat, db).rows)
            want = Counter(evaluator.evaluate(nested, db).rows)
            assert got == want, seed


def reference_flatten(ast):
    """Deep copy, then unnest in place: the straightforward flatten that
    `rewriter.flatten` must match node for node."""
    out = copy.deepcopy(ast)
    _reference_level(out)
    return out


def _reference_level(query):
    new_where = []
    for pred in query.where:
        if not isinstance(pred, InSubquery):
            new_where.append(pred)
            continue
        child = pred.query
        _reference_level(child)
        taken = {item.alias.upper() for item in query.from_items}
        renames = {}
        for item in child.from_items:
            if item.alias.upper() in taken:
                n = 2
                while f"{item.alias}_{n}".upper() in taken:
                    n += 1
                renames[item.alias] = item.alias = f"{item.alias}_{n}"
            taken.add(item.alias.upper())
        for ref in child.column_refs():
            ref.alias = renames.get(ref.alias, ref.alias)
        query.from_items.extend(child.from_items)
        new_where.append(Compare(pred.column, "=", child.select_items[0].expr))
        new_where.extend(child.where)
    query.where = new_where


def flattenable_inputs(movie_graph, emp_graph):
    texts = [(corpus_sql(name), movie_graph) for name in CORPUS_NAMES]
    texts.append(((ROOT / "fixtures" / "queries" / "emp.sql").read_text(), emp_graph))
    texts.extend((text, movie_graph) for text in generated_sql(1, 3000))
    for text, graph in texts:
        try:
            ast = parser.parse_sql(text)
            parser.resolve_names(ast, graph)
        except TabletalkError:
            continue
        if rewriter.flattenable(ast) is None:
            yield ast


class TestFlattenCopiesOnlyWhatItRewrites:
    def test_matches_the_reference_and_leaves_the_input_alone(self, movie_graph, emp_graph):
        nested = renamed = 0
        for ast in flattenable_inputs(movie_graph, emp_graph):
            if not list(ast.subqueries()):
                assert rewriter.flatten(ast) == ast
                continue
            before = copy.deepcopy(ast)
            flat = rewriter.flatten(ast)
            want = reference_flatten(before)
            assert flat.render() == want.render()
            assert flat == want
            assert ast == before
            nested += 1
            renamed += any("_" in item.alias for item in flat.from_items)
        assert nested > 500 and renamed > 100

    @pytest.mark.parametrize("sql", [
        "select m.title from MOVIE m where m.id in (select m.mid from CAST m)",
        "select m.title from MOVIE m where m.id in (select c.mid from CAST c "
        "where c.aid in (select m.id from ACTOR m where m.name = 'Brad Pitt'))",
    ])
    def test_changing_the_output_changes_nothing_in_the_input(self, movie_graph, sql):
        ast = parser.parse_sql(sql)
        parser.resolve_names(ast, movie_graph)
        before = copy.deepcopy(ast)
        flat = rewriter.flatten(ast)
        renamed = [item for item in flat.from_items if item.alias.startswith("m_")]
        assert renamed
        for item in renamed:
            item.alias = "zz"
        for ref in (r for r in flat.column_refs() if r.alias.startswith("m_")):
            ref.alias = "zz"
        for part in (flat.where, flat.from_items, flat.select_items):
            part.clear()
        assert ast == before and repr(ast) == repr(before)
        assert ast.render() == sql


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

    def test_all_over_a_grouping_child_is_not_superlative(self, movie_graph):
        # Correlated through HAVING; the superlative frame would drop it.
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.year >= all (select m2.year from "
            "MOVIE m2 group by m2.year having count(*) > m.id)"
        )
        parser.resolve_names(ast, movie_graph)
        qg = QG.build(ast, movie_graph)
        assert qg.conjuncts[0].child.is_correlated()
        assert rewriter.detect_motifs(qg) == []

    @pytest.mark.parametrize("sql", [
        # SuperlativeAll: an ALL comparison that is no min or max of its own column.
        "select m.title from MOVIE m where m.year = all "
        "(select m2.year from MOVIE m2 where m2.title = m.title)",
        "select m.title from MOVIE m where 2000 <= all "
        "(select m2.year from MOVIE m2 where m2.title = m.title)",
        "select m.title from MOVIE m where m.year <= all "
        "(select count(*) from MOVIE m2 where m2.title = m.title)",
        "select m.title from MOVIE m where m.year <= all "
        "(select m2.id from MOVIE m2 where m2.title = m.title)",
        "select m.title from MOVIE m where m.id <= all "
        "(select a.id from ACTOR a where a.name = m.title)",
        # Division: both connectors must be NOT EXISTS.
        "select m.title from MOVIE m where not exists (select * from GENRE g1 where "
        "exists (select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        "select m.title from MOVIE m where exists (select * from GENRE g1 where "
        "not exists (select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))",
        # Division: the innermost query must be correlated to both blocks above.
        "select m.title from MOVIE m where not exists (select * from GENRE g1 where "
        "not exists (select * from GENRE g2 where g2.mid = m.id))",
        "select m.title from MOVIE m where not exists (select * from GENRE g1 where "
        "not exists (select * from GENRE g2 where g2.genre = g1.genre))",
        # SameValue: the distinct count must equal 1.
        "select a.id from MOVIE m, CAST c, ACTOR a where m.id = c.mid and c.aid = a.id "
        "group by a.id having count(distinct m.year) = 2",
    ], ids=[
        "all_equal", "constant_lhs", "count_child", "other_attribute", "other_relation",
        "inner_exists", "outer_exists", "outer_level_only", "middle_level_only",
        "distinct_count_two",
    ])
    def test_a_near_miss_classifies_with_no_motif(self, movie_graph, sql):
        qg = QG.build(parser.resolve_names(parser.parse_sql(sql), movie_graph), movie_graph)
        assert classify(qg).motifs == []

    def test_uncorrelated_all_is_not_superlative(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m where m.year <= all "
            "(select m2.year from MOVIE m2)"
        )
        parser.resolve_names(ast, movie_graph)
        qg = QG.build(ast, movie_graph)
        assert rewriter.detect_motifs(qg) == []
