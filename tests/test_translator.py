import pytest

from conftest import CORPUS_NAMES, built, corpus_sql, generated_sql

from tabletalk import parser, query_graph as QG, rewriter, translator
from tabletalk.ast_nodes import ColumnRef, Compare, Constant, CountStar
from tabletalk.classifier import classify
from tabletalk.dot import _escape, emit_query_dot
from tabletalk.errors import TabletalkError
from tabletalk.translator import (
    LEXICON,
    lexicalize_predicate,
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

    def test_aggregate_notes_are_exact(self, movie_graph, corpus_graphs):
        result = translate(corpus_graphs["q7"], movie_graph)
        assert result.class_used.label == "Aggregate"
        assert result.notes == ["aggregate query rendered procedurally"]

    @pytest.mark.parametrize("name,reading", [
        ("q6", "relational division (for-all) pattern"),
        ("q8", 'count(distinct ...) = 1 read as "all in the same"'),
        ("q9", 'comparison with ALL read as "earliest"'),
    ])
    def test_a_motif_reading_is_noted(self, movie_graph, corpus_graphs, name, reading):
        result = translate(corpus_graphs[name], movie_graph)
        higher_order = [translator.HIGHER_ORDER_NOTE] if name != "q6" else []
        assert result.notes == higher_order + [reading]

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

    def test_two_separate_follow_steps(self, movie_graph):
        # The director is linked to no earlier FROM item, so it starts a
        # step of its own between the two "For each" steps.
        ast = parser.parse_sql(
            "select m.title from MOVIES m, CAST c, DIRECTOR d, DIRECTED r "
            "where m.id = c.mid and r.did = d.id"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate_procedural(QG.build(ast, movie_graph), movie_graph)
        assert result.text == (
            "1. Consider each movie (m).\n"
            "2. For each movie, bring in its cast entries (c).\n"
            "3. Consider each director (d).\n"
            "4. For each director, bring in its directing credits (r).\n"
            "5. Report the title of the movie."
        )

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
        (pred,) = [e.pred for e in corpus_graphs["q1"].conjuncts if e.owner == "a"]
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

    def test_heading_collapses_only_an_equality(self, movie_graph, corpus_graphs):
        refs = translator._References(corpus_graphs["q1"], movie_graph)
        pred = Compare(ColumnRef("a", "name", "ACTOR", "name"), "!=", Constant("Brad Pitt"))
        assert lexicalize_predicate(pred, movie_graph, refs) == (
            "the name of the actor is not Brad Pitt"
        )

    def test_standalone_references_cover_both_sides(self, emp_graph):
        pred = Compare(
            ColumnRef("e1", "sal", "EMP"), ">", ColumnRef("e2", "sal", "EMP")
        )
        assert lexicalize_predicate(pred, emp_graph, heading=False) == (
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

    def test_order_by_ends_an_itemized_rendering(self, movie_graph):
        ast = parser.parse_sql(
            "select m1.title, m2.title from MOVIES m1, MOVIES m2 "
            "where m1.year = m2.year order by m1.title"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        assert result.class_used.label == "GraphMultiInstance"
        assert result.text == (
            "Find the title of a movie, and the title of another movie, and the "
            "year of the first movie is the year of the second movie, "
            "sorted by the title of the first movie"
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

    def test_a_query_selecting_no_column_finds_its_first_relation(self, movie_graph):
        # No column is selected, so the first FROM item is the root and the
        # opening names only its noun.
        ast = parser.parse_sql("select 'x' from MOVIES m where m.year > 2003")
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        assert result.text == "Find movies where the year of the movie is larger than 2003"

    def test_repeated_join_reaches_its_relation_once(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIES m, GENRE g "
            "where m.id = g.mid and g.mid = m.id and g.genre = 'comedy'"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        assert result.text == "Find the titles of comedy movies"

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

    @pytest.mark.parametrize("op,word", [("<=", "smallest"), (">=", "largest")])
    def test_a_superlative_over_a_non_temporal_attribute(self, movie_graph, op, word):
        # q9 with the movie's id, which is not temporal, in place of its year.
        ast = parser.parse_sql(
            "select a.name from MOVIES m, CAST c, ACTOR a "
            f"where m.id = c.mid and c.aid = a.id and m.id {op} all "
            "(select m1.id from MOVIES m1, MOVIES m2 where m1.title = m2.title "
            "and m2.title = m.title and m1.id != m2.id)"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        assert result.notes[1:] == [f'comparison with ALL read as "{word}"']
        assert result.text.split("\n")[2] == (
            f"3. Keep combinations where the id of the movie is the {word} such id."
        )

    def test_a_relay_chain_stops_at_a_node_with_a_condition(self, movie_graph):
        # In q1 the cast entry is a relay, so the actor's phrase is reached
        # through it.  Here it owns a condition: the chain from the actor
        # stops at it, and no phrase from the actor to the movie is said.
        ast = parser.parse_sql(
            "select a.id from MOVIES m, CAST c, ACTOR a "
            "where m.id = c.mid and c.aid = a.id and c.role = 'King Kong'"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        assert result.text == "Find the ids of actors where the cast entry King Kong"

    def test_superlative_reading_stays_on_its_own_all_comparison(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIES m where m.year >= all "
            "(select m2.year from MOVIES m2 where m2.title = m.title) "
            "and m.id < all (select c.mid from CAST c)"
        )
        parser.resolve_names(ast, movie_graph)
        steps = translate(QG.build(ast, movie_graph), movie_graph).text.split("\n")
        assert steps[1] == (
            "2. Keep combinations where the year of the movie is the latest such year."
        )
        assert steps[2] == (
            "3. Keep combinations where the id of the movie is less than every "
            "value from (consider each cast entry (c); report the mid of the "
            "cast entry)."
        )

    def test_same_value_frame_keeps_a_second_having_condition(self, movie_graph):
        ast = parser.parse_sql(
            "select a.id, a.name from MOVIES m, CAST c, ACTOR a "
            "where m.id = c.mid and c.aid = a.id group by a.id, a.name "
            "having count(distinct m.year) = 1 and count(distinct m.title) > 2"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        # "Find actors whose movies are all in the same year" drops the titles.
        assert result.style == "procedural"
        steps = result.text.split("\n")
        assert steps[3:5] == [
            "4. Keep groups where the number of distinct years of the movie is 1.",
            "5. Keep groups where the number of distinct titles of the movie is "
            "larger than 2.",
        ]

    def test_count_scalar_says_its_nested_predicates(self, movie_graph):
        ast = parser.parse_sql(
            "select m.id, m.title, count(*) from MOVIES m, CAST c "
            "where m.id = c.mid group by m.id, m.title "
            "having 1 < (select count(*) from GENRE g where g.mid = m.id "
            "and g.mid in (select c2.mid from CAST c2 where c2.role = 'Chris'))"
        )
        parser.resolve_names(ast, movie_graph)
        steps = translate(QG.build(ast, movie_graph), movie_graph).text.split("\n")
        assert steps[3] == (
            "4. Keep groups where 1 is less than the number of genres for which "
            "the mid of the genre is the id of the movie and the mid of the genre "
            "is among (consider each cast entry (c2); keep combinations where the "
            "role of the first cast entry is Chris; report the mid of the first cast entry)."
        )

    @pytest.mark.parametrize(
        "sql,label",
        [
            ("select m.title from MOVIES m where 1 = 2", "Path"),
            ("select m.title from MOVIES m where m.id in "
             "(select g.mid from GENRE g where 1 = 2)", "NestedFlattenable"),
        ],
    )
    def test_constant_only_conjunct_is_said(self, movie_graph, sql, label):
        ast = parser.parse_sql(sql)
        parser.resolve_names(ast, movie_graph)
        qg = QG.build(ast, movie_graph)
        result = translate(qg, movie_graph)
        assert result.class_used.label == label
        assert result.text == "Find the titles of movies where 1 is 2"

    def test_division_frame_declines_a_constant_only_conjunct(self, movie_graph):
        ast = parser.parse_sql(corpus_sql("q6") + " and 1 = 2")
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        # "Find movies that have all genres" would drop the 1 = 2.
        assert result.style == "procedural"
        assert "1 is 2" in result.text

    @pytest.mark.parametrize(
        "sql,step",
        [
            ("select m.title from MOVIES m where 1 = 2",
             "1. Consider each movie (m).\n"
             "2. Keep combinations where 1 is 2.\n"
             "3. Report the title of the movie."),
            (corpus_sql("q6") + " and 1 = 2", "2. Keep combinations where 1 is 2."),
        ],
    )
    def test_constant_only_conjunct_is_a_where_step(self, movie_graph, sql, step):
        # No GROUP BY: the conjunct filters combinations, not groups.
        ast = parser.parse_sql(sql)
        parser.resolve_names(ast, movie_graph)
        text = translate_procedural(QG.build(ast, movie_graph), movie_graph).text
        assert step in text
        assert "groups" not in text

    def test_count_scalar_says_its_constant_only_conjunct(self, movie_graph):
        ast = parser.parse_sql(
            "select m.title from MOVIES m where 1 < (select count(*) from GENRE g "
            "where g.mid = m.id and 1 = 2)"
        )
        parser.resolve_names(ast, movie_graph)
        result = translate(QG.build(ast, movie_graph), movie_graph)
        assert result.text == (
            "1. Consider each movie (m).\n"
            "2. Keep combinations where 1 is less than the number of genres for "
            "which the mid of the genre is the id of the movie and 1 is 2.\n"
            "3. Report the title of the movie."
        )


class TestOuterConditions:
    """A subquery predicate that names only enclosing aliases is said, and
    worded by the block that binds them."""

    def translated(self, sql, graph):
        ast = parser.parse_sql(sql)
        parser.resolve_names(ast, graph)
        return translate(QG.build(ast, graph), graph).text

    def test_one_alias_outer_predicate_in_an_in_child(self, movie_graph):
        text = self.translated(
            "select g1.mid from GENRE g1 where g1.mid in "
            "(select m2.id from MOVIES m2, DIRECTED d3 "
            "where m2.id = d3.mid and g1.genre < g1.genre and m2.year >= 2003 "
            "group by m2.id having count(*) > 1)",
            movie_graph,
        )
        assert (
            "keep combinations where the year of the movie is at least 2003; "
            "keep combinations where the genre of the genre is less than the genre "
            "of the genre; group the combinations by the id of the movie"
        ) in text

    def test_count_frame_says_an_outer_only_predicate(self, movie_graph):
        text = self.translated(
            "select c2.mid, c2.role from ACTOR a1, CAST c2, MOVIES m3 "
            "where a1.id = c2.aid and c2.mid = m3.id and 1 >= (select count(*) "
            "from DIRECTOR d4 where a1.name <= a1.name and c2.aid != m3.id) "
            "and m3.year <= 1976",
            movie_graph,
        )
        assert (
            "4. Keep combinations where 1 is at least the number of directors for "
            "which the name of the actor is at most the name of the actor and the "
            "aid of the cast entry is not the id of the movie."
        ) in text

    def test_an_inlined_child_numbers_outer_instances_with_its_own(self, movie_graph):
        # m3 is the child's movie and m2 the enclosing block's: they read apart.
        text = self.translated(
            "select g1.genre from GENRE g1, MOVIES m2 where g1.mid = m2.id and g1.mid in "
            "(select m3.id from MOVIES m3 where m2.title != g1.genre and m3.title = 'King Kong')",
            movie_graph,
        )
        assert (
            "(consider each movie (m3); keep combinations where the title of the first "
            "movie is King Kong; keep combinations where the title of the second movie "
            "is not the genre of the genre; report the id of the first movie)"
        ) in text

    def test_count_frame_numbers_outer_instances_with_its_own(self, movie_graph):
        text = self.translated(
            "select m1.title from MOVIES m1 where 1 != (select count(*) "
            "from MOVIES m2 where m2.id < m1.year)",
            movie_graph,
        )
        assert (
            "the number of movies for which the id of the first movie is less than "
            "the year of the second movie"
        ) in text


class TestProceduralWording:
    """Exact text of procedural steps that no golden covers."""

    CASES = {
        "sort_descending": (
            "select m.title from MOVIES m where m.year > 1990 "
            "order by m.year desc, m.title",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where the year of the movie is larger than 1990.\n"
            "3. Sort the results by the year of the movie (descending) and the "
            "title of the movie (ascending).\n"
            "4. Report the title of the movie.",
        ),
        # A count(*) child with no condition of its own.
        "count_unconditioned": (
            "select m.title from MOVIES m where 1 < (select count(*) from CAST c)",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where 1 is less than the number of cast entries.\n"
            "3. Report the title of the movie.",
        ),
        "star": (
            "select * from MOVIES m where m.year = 2005",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where the year of the movie is 2005.\n"
            "3. Report every column.",
        ),
        "scalar_value": (
            "select m.title from MOVIES m where m.year > "
            "(select m2.year from MOVIES m2 where m2.title = 'Seven')",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where the year of the movie is larger than the "
            "single value produced by (consider each movie (m2); keep "
            "combinations where the title of the first movie is Seven; report the "
            "year of the first movie).\n"
            "3. Report the title of the movie.",
        ),
        "exists": (
            "select m.title from MOVIES m where exists "
            "(select g.mid from GENRE g where g.genre = 'drama')",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where at least one row exists in (consider "
            "each genre (g); keep combinations where the genre of the genre is "
            "drama; report the mid of the genre).\n"
            "3. Report the title of the movie.",
        ),
        "compare_all": (
            "select m.title from MOVIES m where m.year > all "
            "(select m2.year from MOVIES m2 where m2.title = 'Seven')",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where the year of the movie is larger than "
            "every value from (consider each movie (m2); keep combinations "
            "where the title of the first movie is Seven; report the year of the "
            "first movie).\n"
            "3. Report the title of the movie.",
        ),
        "inlined_constant_ending_in_a_period": (
            "select m.title from MOVIES m where exists (select c.mid from CAST c, "
            "ACTOR a where c.aid = a.id and a.name = 'Sammy Davis Jr.')",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where at least one row exists in (consider each "
            "cast entry (c); for each cast entry, bring in its actors (a); keep "
            "combinations where the name of the actor is Sammy Davis Jr.; report "
            "the mid of the cast entry).\n"
            "3. Report the title of the movie.",
        ),
        # The child's correlation is said where the child is inlined.
        "inlined_crossing": (
            "select m.title from MOVIES m where exists "
            "(select g.mid from GENRE g where g.mid = m.id and g.genre = 'drama')",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where at least one row exists in (consider each "
            "genre (g); keep combinations where the mid of the genre is the id of the "
            "movie; keep combinations where the genre of the genre is drama; report "
            "the mid of the genre).\n"
            "3. Report the title of the movie.",
        ),
        # Nothing groups: count(*) counts the combinations.
        "ungrouped_count": (
            "select count(*) from MOVIES m, CAST c where m.id = c.mid",
            "1. Consider each movie (m).\n"
            "2. For each movie, bring in its cast entries (c).\n"
            "3. Report the number of combinations.",
        ),
        "inlined_ungrouped_count": (
            "select m.title from MOVIES m where 1 < (select count(*) "
            "from CAST c, ACTOR a where c.mid = m.id and c.aid = a.id)",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where 1 is less than the single value produced by "
            "(consider each cast entry (c); for each cast entry, bring in its actors "
            "(a); keep combinations where the mid of the cast entry is the id of the "
            "movie; report the number of combinations).\n"
            "3. Report the title of the movie.",
        ),
        # A count(*) child that groups is inlined whole, GROUP BY and HAVING too.
        "count_scalar_that_groups": (
            "select m.title from MOVIE m where 1 < (select count(*) from CAST c "
            "where c.mid = m.id group by c.mid having count(*) > m.year)",
            "1. Consider each movie (m).\n"
            "2. Keep combinations where 1 is less than the single value produced by "
            "(consider each cast entry (c); keep combinations where the mid of the "
            "cast entry is the id of the movie; group the combinations by the mid of "
            "the cast entry; keep groups where the number of rows in each group is "
            "larger than the year of the movie; report the number of rows in each "
            "group).\n"
            "3. Report the title of the movie.",
        ),
        # Both columns of the child's comparison belong to the outer query.
        "count_scalar_over_two_outer_aliases": (
            "select c1.aid from CAST c1, ACTOR a2 where c1.aid = a2.id and 0 > "
            "(select count(*) from GENRE g3 where c1.role > a2.name)",
            "1. Consider each cast entry (c1).\n"
            "2. For each cast entry, bring in its actors (a2).\n"
            "3. Keep combinations where 0 is larger than the number of genres for "
            "which the role of the cast entry is larger than the name of the actor.\n"
            "4. Report the aid of the cast entry.",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exact_steps(self, movie_graph, name):
        sql, expected = self.CASES[name]
        ast = parser.parse_sql(sql)
        parser.resolve_names(ast, movie_graph)
        result = translate_procedural(QG.build(ast, movie_graph), movie_graph)
        assert result.text == expected


def _blocks(qg):
    """`qg` and every block nested in it, at any depth."""
    pending = [qg]
    while pending:
        block = pending.pop()
        yield block
        pending.extend(entry.child for entry in block.conjuncts if entry.kind == "nested")


# Blocks that no corpus or generated query has.
EXTRA_SQL = [
    "select m.id, count(*) from MOVIE m where 1 < 2 group by m.id having count(*) > 1",
    "select m.title from MOVIE m where 1 < (select count(*) from CAST c "
    "where c.mid = m.id group by c.mid having count(*) > m.year)",
]


def _every_query(movie_graph, emp_graph):
    """(graph, query graph, text) for the corpus, emp.sql, generated SQL and
    `EXTRA_SQL`."""
    yield emp_graph, built("emp", emp_graph), "emp"
    texts = [corpus_sql(name) for name in CORPUS_NAMES] + EXTRA_SQL
    texts += [text for seed in (1, 2, 3) for text in generated_sql(seed, 300)]
    for text in texts:
        try:
            ast = parser.parse_sql(text)
            parser.resolve_names(ast, movie_graph)
        except TabletalkError:
            continue
        yield movie_graph, QG.build(ast, movie_graph), text


class TestEveryConjunctIsSaid:
    """Every entry of every block's `conjuncts` reaches the procedural text
    and the DOT output."""

    def test_procedural_text_marks_every_conjunct_said(
        self, movie_graph, emp_graph, monkeypatch
    ):
        made = []
        init = translator._References.__init__

        def recorded(refs, *args):
            init(refs, *args)
            made.append(refs)

        monkeypatch.setattr(translator._References, "__init__", recorded)
        blocks = counted = grouped = 0
        for graph, qg, text in _every_query(movie_graph, emp_graph):
            made.clear()
            steps = translate_procedural(qg, graph).text
            said, refs_of = {}, {}
            for refs in made:
                said.setdefault(id(refs.qg), set()).update(refs.said)
                refs_of[id(refs.qg)] = refs
            # A superlative reading words an ALL child by its motif alone.
            unsaid = {
                id(block)
                for parent in _blocks(qg)
                for motif in rewriter.detect_motifs(parent) if motif.kind == "SuperlativeAll"
                for block in _blocks(motif.entry.child)
            }
            for block in _blocks(qg):
                if id(block) in unsaid:
                    continue
                assert said.get(id(block)) == set(range(len(block.conjuncts))), text
                blocks += 1
                # Said means worded: every comparison's phrase is in the text,
                # but an FK join that a "bring in" step may stand for.
                for entry in block.conjuncts:
                    if entry.kind != "nested" and not entry.fk_backed:
                        refs = refs_of[id(block)]
                        phrase = lexicalize_predicate(entry.pred, graph, refs, heading=False)
                        assert phrase in steps, (text, phrase)
                # A count(*) child over one relation is said by the count
                # frame, or inlined whole when it groups.
                for entry in block.conjuncts:
                    if entry.connector != "compare_scalar":
                        continue
                    child = entry.child
                    nodes = child.query.from_items
                    items = [type(item.expr) for item in child.query.select_items]
                    if len(nodes) != 1 or items != [CountStar]:
                        continue
                    rel = graph.relation(nodes[0].canonical)
                    if child.query.group_by:
                        grouped += 1
                        expected = f"value produced by (consider each {rel.noun_singular} ("
                    else:
                        expected = f"the number of {rel.noun_plural}"
                    assert expected in steps, text
                    counted += 1
        assert blocks > 2000 and counted > 10 and grouped > 0

    def test_query_dot_draws_every_conjunct(self, movie_graph, emp_graph):
        drawn = 0
        for graph, qg, text in _every_query(movie_graph, emp_graph):
            dot = emit_query_dot(qg)
            clusters = 0
            for block in _blocks(qg):
                for entry in block.conjuncts:
                    if entry.kind == "nested":
                        assert f"({entry.connector})" in dot, text
                        clusters += 1
                    else:
                        assert _escape(entry.pred.render()) in dot, text
                        drawn += 1
                if any(isinstance(item.expr, CountStar) for item in block.query.select_items):
                    assert _escape("<<SELECT>> count(*)") in dot, text
            assert dot.count("subgraph cluster_") == clusters, text
        assert drawn > 5000


class TestMotifsOncePerLevel:
    NESTED = {
        "two_all": "select m.title from MOVIE m where m.year >= all "
        "(select m2.year from MOVIE m2 where m2.title = m.title) "
        "and m.id < all (select c.mid from CAST c where c.aid in "
        "(select a.id from ACTOR a))",
        "exists_chain": "select m.title from MOVIE m where exists "
        "(select c.mid from CAST c where c.mid = m.id and not exists "
        "(select g.mid from GENRE g where g.mid = c.mid))",
    }

    @pytest.mark.parametrize("name", CORPUS_NAMES + sorted(NESTED))
    def test_detect_motifs_runs_once_per_query_graph(self, movie_graph, monkeypatch, name):
        seen = []
        detect = rewriter.detect_motifs

        def counted(qg):
            seen.append(id(qg))
            return detect(qg)

        monkeypatch.setattr(rewriter, "detect_motifs", counted)
        ast = parser.parse_sql(self.NESTED.get(name) or corpus_sql(name))
        parser.resolve_names(ast, movie_graph)
        qg = QG.build(ast, movie_graph)
        translate(qg, movie_graph, classify(qg))
        assert seen and len(seen) == len(set(seen))

    def test_procedural_without_a_class_does_not_classify(self, movie_graph, corpus_graphs):
        result = translate_procedural(corpus_graphs["q7"], movie_graph)
        assert result.class_used is None


@pytest.mark.parametrize(
    "n, word",
    [(3, "third"), (10, "tenth"), (11, "11th"), (12, "12th"), (13, "13th"),
     (21, "21st"), (22, "22nd"), (23, "23rd"), (24, "24th"), (101, "101st"),
     (111, "111th"), (112, "112th")],
)
def test_ordinal_suffixes(n, word):
    assert translator._ordinal(n) == word


@pytest.mark.parametrize(
    "noun, phrase",
    [("actor", "an actor"), ("movie", "a movie"), ("user", "a user"),
     ("unit", "a unit"), ("union", "a union"), ("utility", "a utility"),
     ("European", "a European"), ("one-off", "a one-off"),
     ("umbrella", "an umbrella"), ("uninformed voter", "an uninformed voter"),
     ("usher", "an usher"), ("onerous task", "an onerous task"),
     ("hour", "an hour"), ("heir", "an heir"), ("honest broker", "an honest broker"),
     ("Honour", "an Honour"), ("house", "a house")],
)
def test_indefinite_article_follows_the_first_sound(noun, phrase):
    assert translator._indefinite(noun) == phrase
