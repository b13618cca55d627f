import copy
import json

import pytest
from conftest import FIXTURES

from tabletalk import evaluator, parser, query_graph, schema, translator
from tabletalk.data import load_data
from tabletalk.narrator import NarrationPlan, narrate
from tabletalk.errors import (
    BadTemplate,
    DanglingReference,
    MalformedDocument,
    MissingHeading,
)

MINI = {
    "relations": [
        {
            "name": "A",
            "heading": "x",
            "attributes": [{"name": "x"}, {"name": "y"}],
        },
        {
            "name": "B",
            "heading": "z",
            "attributes": [{"name": "z"}, {"name": "xref"}],
        },
    ],
    "joins": [{"from": "B", "to": "A", "from_key": "xref", "to_key": "x"}],
}


def mini(**overrides):
    doc = copy.deepcopy(MINI)
    doc.update(overrides)
    return schema.loads(json.dumps(doc))


class TestLoad:
    def test_movie_fixture_has_six_relations(self, movie_graph):
        assert len(movie_graph.relations) == 6
        names = {r.name for r in movie_graph.relations}
        assert names == {"MOVIE", "GENRE", "DIRECTOR", "DIRECTED", "CAST", "ACTOR"}
        assert movie_graph.warnings == []

    def test_zero_relations_document_warns(self):
        graph = schema.loads('{"relations": [], "joins": []}')
        assert graph.relations == []
        assert graph.warnings

    def test_dangling_join_reference(self):
        doc = copy.deepcopy(MINI)
        doc["joins"][0]["to"] = "ACTRO"
        with pytest.raises(DanglingReference):
            schema.loads(json.dumps(doc))

    def test_missing_heading(self):
        doc = copy.deepcopy(MINI)
        doc["relations"][0]["heading"] = "nope"
        with pytest.raises(MissingHeading):
            schema.loads(json.dumps(doc))

    def test_bad_template(self):
        doc = copy.deepcopy(MINI)
        doc["relations"][0]["attributes"][1]["template"] = '{A.y + "broken"'
        with pytest.raises(BadTemplate):
            schema.loads(json.dumps(doc))

    def test_template_placeholder_must_name_declared_attribute(self):
        doc = copy.deepcopy(MINI)
        doc["relations"][0]["attributes"][1]["template"] = "{A.ghost}"
        with pytest.raises(DanglingReference):
            schema.loads(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(MalformedDocument):
            schema.load_schema(b"not json at all")

    def test_relation_name_lookup_is_case_insensitive_and_alias_aware(
        self, movie_graph, movie_db
    ):
        assert movie_graph.relation("movie").name == "MOVIE"
        assert movie_graph.relation("MOVIES").name == "MOVIE"
        assert movie_graph.find_attribute("movie", "TITLE").name == "title"
        shouted = "select m.TITLE from MOVIES m where m.YEAR = 2005"
        plain = "select m.title from MOVIE m where m.year = 2005"
        results = {}
        for sql in (shouted, plain):
            ast = parser.parse_sql(sql)
            parser.resolve_names(ast, movie_graph)
            qg = query_graph.build(ast, movie_graph)
            results[sql] = (
                translator.translate(qg, movie_graph).text,
                evaluator.evaluate(ast, movie_db),
            )
        assert results[shouted][0] == results[plain][0]
        assert results[shouted][1].rows == results[plain][1].rows
        assert results[shouted][1].columns == ["TITLE"]

    def test_weights_default_to_one(self):
        graph = mini()
        assert graph.relation("A").weight == 1
        assert all(a.weight == 1 for a in graph.attributes)


class TestValidate:
    def test_fixture_validates_clean(self, movie_graph, split_graph, emp_graph):
        assert schema.validate(movie_graph) == []
        assert schema.validate(split_graph) == []
        assert schema.validate(emp_graph) == []

    def test_two_headings_is_flagged(self):
        graph = mini()
        for attr in graph.attributes:
            if attr.relation == "A":
                attr.is_heading = True
        diags = schema.validate(graph)
        assert any("heading" in d for d in diags)

    def test_disconnected_relation_warns(self):
        doc = copy.deepcopy(MINI)
        doc["relations"].append(
            {"name": "LONER", "heading": "w", "attributes": [{"name": "w"}]}
        )
        graph = schema.loads(json.dumps(doc))
        assert any("not connected" in w for w in graph.warnings)
        diags = schema.validate(graph)
        assert any("LONER" in d for d in diags)

    def test_single_field_mutations_are_caught(self, movie_graph):
        base = schema.loads(schema.serialize(movie_graph))
        base.relations[0].weight = -1
        assert any("negative weight" in d for d in schema.validate(base))

        base = schema.loads(schema.serialize(movie_graph))
        base.joins[0].from_key = "nonexistent"
        assert any("unknown attribute" in d for d in schema.validate(base))

        base = schema.loads(schema.serialize(movie_graph))
        base.attributes[0].relation = "GHOST"
        assert schema.validate(base)


class TestRoundTrip:
    def test_serialize_then_load_is_identity(
        self, movie_graph, split_graph, emp_graph
    ):
        for graph in (movie_graph, split_graph, emp_graph):
            again = schema.loads(schema.serialize(graph))
            assert again == graph


class TestDot:
    def test_movie_fixture_counts(self, movie_graph):
        dot = schema.emit_dot(movie_graph)
        assert dot.count("[label=") == 6 + 5  # 6 nodes, 5 join edges
        assert dot.count("->") == 5

    def test_empty_graph_is_header_and_footer(self):
        dot = schema.emit_dot(schema.SchemaGraph())
        assert dot.startswith("digraph schema {")
        assert dot.rstrip().endswith("}")
        assert "->" not in dot

    def test_deterministic(self, movie_graph):
        assert schema.emit_dot(movie_graph) == schema.emit_dot(movie_graph)

    def test_distinct_fixtures_render_distinct_graphs(
        self, movie_graph, split_graph, emp_graph
    ):
        outputs = {
            schema.emit_dot(movie_graph),
            schema.emit_dot(split_graph),
            schema.emit_dot(emp_graph),
        }
        assert len(outputs) == 3


def _respelled_movies(kind):
    """The movie document with one name spelled unlike its declaration."""
    doc = json.loads((FIXTURES / "movies.schema.json").read_text())
    edge = next(
        j for j in doc["joins"] if j.get("from") == "DIRECTED" and j.get("to") == "DIRECTOR"
    )
    if kind == "lower-case join endpoint":
        edge["from"] = "directed"
    elif kind == "upper-case join keys":
        edge["from_key"], edge["to_key"] = "DID", "ID"
    else:  # a placeholder naming the relation by its alias
        year = doc["relations"][0]["attributes"][2]
        year["template"] = '{MOVIES.title} + " was released in " + {MOVIES.year}'
    return doc


class TestNamesResolvedAtLoad:
    @pytest.mark.parametrize(
        "kind",
        ["lower-case join endpoint", "upper-case join keys", "alias placeholder"],
    )
    def test_respelled_name_narrates_like_the_fixture(self, kind, movie_graph, movie_db):
        graph = schema.loads(json.dumps(_respelled_movies(kind)))
        assert schema.validate(graph) == []
        assert graph.joins == movie_graph.joins
        db = load_data(graph, FIXTURES / "movies")
        for start in ("DIRECTOR", "MOVIE"):
            for mode in ("auto", "declarative"):
                plan = NarrationPlan(start_relation=start, mode=mode)
                got = narrate(graph, db, plan)
                want = narrate(movie_graph, movie_db, plan)
                assert (got.text, got.mode_used) == (want.text, want.mode_used)

    def test_serialize_prints_declared_spelling(self):
        doc = _respelled_movies("lower-case join endpoint")
        graph = schema.loads(json.dumps(doc))
        assert '"from": "DIRECTED"' in schema.serialize(graph)
        assert '"DIRECTED" -> "DIRECTOR"' in schema.emit_dot(graph)

    def test_validate_reports_a_template_edited_after_load(self, movie_graph):
        base = schema.loads(schema.serialize(movie_graph))
        base.projections[2].template = "{MOVIE.ghost}"
        assert any("unknown attribute" in d for d in schema.validate(base))
