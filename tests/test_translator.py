import json

import pytest

from conftest import CORPUS_NAMES, built

from tabletalk import parser, query_graph as QG, translator
from tabletalk.ast_nodes import ColumnRef, Compare
from tabletalk.translator import (
    LEXICON,
    lexicalize_predicate,
    load_motif_patterns,
    translate,
    translate_procedural,
)

GOLDEN = {
    "q1": "Find the titles of movies where the actor Brad Pitt plays",
    "q2": "Find the actors and titles of action movies directed by G. Loucas",
    "q3": (
        "Find the name of an actor who has played in a movie, and the name "
        "of another actor who has played in the movie, and the id of the "
        "first actor is larger than the id of the second actor"
    ),
    "q6": "Find movies that have all genres",
    "q8": "Find actors whose movies are all in the same year",
}


class TestGoldenTranslations:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_exact_sentence(self, movie_graph, corpus_graphs, name):
        result = translate(corpus_graphs[name], movie_graph)
        assert result.text == GOLDEN[name]
        assert result.style == "declarative"

    def test_q5_flattens_to_the_q1_sentence(self, movie_graph, corpus_graphs):
        q5 = translate(corpus_graphs["q5"], movie_graph)
        q1 = translate(corpus_graphs["q1"], movie_graph)
        assert q5.text == q1.text
        assert q5.class_used.label == "NestedFlattenable"
        assert any("flatten" in n for n in q5.notes)

    def test_q8_and_q9_carry_higher_order_warnings(self, movie_graph, corpus_graphs):
        for name in ("q8", "q9"):
            result = translate(corpus_graphs[name], movie_graph)
            assert any("higher-order" in n for n in result.notes), name

    def test_q9_reads_earliest(self, movie_graph, corpus_graphs):
        result = translate(corpus_graphs["q9"], movie_graph)
        assert result.style == "procedural"
        assert "the earliest such year" in result.text

    def test_q4_literal_rendering(self, movie_graph, corpus_graphs):
        result = translate(corpus_graphs["q4"], movie_graph)
        assert result.text == (
            "Find the titles of movies where the role of the cast entry "
            "is the title of the movie"
        )

    def test_emp_ordinal_rendering(self, emp_graph):
        result = translate(built("emp", emp_graph), emp_graph)
        assert result.text == (
            "Find the name of an employee, and the salary of the first "
            "employee is larger than the salary of the second employee"
        )


class TestProcedural:
    def test_q1_collapses_to_four_steps(self, movie_graph, corpus_graphs):
        result = translate_procedural(corpus_graphs["q1"], movie_graph)
        steps = result.text.split("\n")
        assert len(steps) == 4
        assert steps[0] == "1. Consider each movie (m)."
        assert steps[1] == (
            "2. For each movie, bring in its cast entries (c), and for each "
            "cast entry, its actors (a)."
        )
        assert steps[2] == (
            "3. Keep combinations where the name of the actor is Brad Pitt."
        )
        assert steps[3] == "4. Report the title of the movie."

    def test_q7_steps(self, movie_graph, corpus_graphs):
        result = translate_procedural(corpus_graphs["q7"], movie_graph)
        steps = result.text.split("\n")
        assert steps[0] == "1. Consider each movie (m)."
        assert steps[1] == "2. For each movie, bring in its cast entries (c)."
        assert steps[2] == (
            "3. Group the combinations by the id of the movie and the title "
            "of the movie."
        )
        assert steps[3] == (
            "4. Keep groups where 1 is less than the number of genres for "
            "which the mid of the genre is the id of the movie."
        )
        assert steps[4] == (
            "5. Report the id of the movie, the title of the movie, and the "
            "number of rows in each group."
        )

    def test_single_relation_no_predicates_is_two_steps(self, emp_graph):
        ast = parser.parse_sql("select e.name from EMP e")
        parser.resolve_names(ast, emp_graph)
        result = translate_procedural(QG.build(ast, emp_graph), emp_graph)
        steps = result.text.split("\n")
        assert len(steps) == 2
        assert steps[0] == "1. Consider each employee (e)."
        assert steps[1] == "2. Report the name of the employee."


class TestLexicalize:
    def test_heading_convention(self, movie_graph, corpus_graphs):
        pred = corpus_graphs["q1"].node("a").where_part[0]
        refs = translator._References(corpus_graphs["q1"], movie_graph)
        assert lexicalize_predicate(pred, movie_graph, refs) == "the actor Brad Pitt"

    def test_salary_comparison_with_ordinals(self, emp_graph):
        qg = built("emp", emp_graph)
        refs = translator._References(qg, emp_graph)
        pred = Compare(
            ColumnRef("e1", "sal", "EMP"), ">", ColumnRef("e2", "sal", "EMP")
        )
        assert lexicalize_predicate(pred, emp_graph, refs, heading=False) == (
            "the salary of the first employee is larger than "
            "the salary of the second employee"
        )

    def test_degenerate_self_comparison(self, movie_graph, corpus_graphs):
        refs = translator._References(corpus_graphs["q1"], movie_graph)
        ref = ColumnRef("m", "title", "MOVIE")
        pred = Compare(ref, "=", ref)
        out = lexicalize_predicate(pred, movie_graph, refs, heading=False)
        assert out == "the title of the movie is the title of the movie"

    def test_every_operator_has_one_lexicon_entry(self):
        assert set(LEXICON) == {"=", "!=", "<", "<=", ">", ">="}


class TestInvariants:
    def test_totality_over_corpus(self, movie_graph, emp_graph):
        for name in CORPUS_NAMES:
            result = translate(built(name, movie_graph), movie_graph)
            assert result.text.strip(), name
            assert "{" not in result.text and "}" not in result.text, name
        result = translate(built("emp", emp_graph), emp_graph)
        assert result.text.strip()

    def test_declarative_has_one_find_and_no_numbering(
        self, movie_graph, corpus_graphs
    ):
        for name in ("q1", "q2"):
            result = translate(corpus_graphs[name], movie_graph)
            assert result.text.count("Find") == 1
            assert "\n" not in result.text
            assert not result.text[0].isdigit()

    def test_ordinal_soundness_q3(self, movie_graph, corpus_graphs):
        text = translate(corpus_graphs["q3"], movie_graph).text
        # two ACTOR instances: exactly the ordinals first and second appear
        assert "the first actor" in text
        assert "the second actor" in text
        assert "third" not in text

    def test_procedural_total_on_all_corpus(self, movie_graph):
        for name in CORPUS_NAMES:
            result = translate_procedural(built(name, movie_graph), movie_graph)
            assert result.text.startswith("1. ")
            assert result.text.rstrip().endswith(".")


class TestEdges:
    def test_order_by_survives_declarative_rendering(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIE m, CAST c, ACTOR a "
            "where m.id = c.mid and c.aid = a.id and a.name = 'Brad Pitt' "
            "order by m.year desc"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        assert result.text == (
            "Find the titles of movies where the actor Brad Pitt plays "
            "sorted by the year of the movie in descending order"
        )

    def test_division_frame_requires_heading_projection(self, movie_graph):
        ast = parser.parse_sql(
            "select m.year from MOVIE m where not exists "
            "(select * from GENRE g1 where not exists "
            "(select * from GENRE g2 where g2.mid = m.id and g2.genre = g1.genre))"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        # "Find movies that have all genres" would misstate a year query.
        assert result.style == "procedural"

    def test_premodifier_with_named_root_entity(self, movie_graph):
        ast = parser.parse_sql(
            "select m.year from MOVIE m, GENRE g "
            "where m.id = g.mid and g.genre = 'action' and m.title = 'Seven'"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        assert result.text == "Find the years of the action movie Seven"

    def test_raw_nested_in_renders_inline_subqueries(
        self, movie_graph, corpus_graphs
    ):
        result = translate_procedural(corpus_graphs["q5"], movie_graph)
        steps = result.text.split("\n")
        assert steps[1] == (
            "2. Keep combinations where the id of the movie is among "
            "(consider each cast entry (c); keep combinations where the aid "
            "of the cast entry is among (consider each actor (a); keep "
            "combinations where the name of the actor is Brad Pitt; report "
            "the id of the actor); report the mid of the cast entry)."
        )


class TestMotifPatternFile:
    def test_q3_natural_phrase_via_pattern(self, movie_graph, corpus_graphs, tmp_path):
        patterns = [
            {
                "shape": {"relation": "ACTOR", "count": 2, "via": "MOVIE"},
                "phrase": "pairs of actors who have played in the same movie",
            }
        ]
        path = tmp_path / "motifs.json"
        path.write_text(json.dumps(patterns))
        loaded = load_motif_patterns(str(path))
        result = translate(
            corpus_graphs["q3"], movie_graph, motif_patterns=loaded
        )
        assert result.text == (
            "Find pairs of actors who have played in the same movie, and the "
            "id of the first actor is larger than the id of the second actor"
        )
        assert any("user motif" in n for n in result.notes)


@pytest.mark.parametrize(
    "n, word",
    [(3, "third"), (10, "tenth"), (11, "11th"), (12, "12th"), (13, "13th"),
     (21, "21st"), (22, "22nd"), (23, "23rd"), (24, "24th"), (101, "101st"),
     (111, "111th"), (112, "112th")],
)
def test_ordinal_suffixes(n, word):
    assert translator._ordinal(n) == word
