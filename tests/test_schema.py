import copy
import json

import pytest
from conftest import FIXTURES

from tabletalk import evaluator, parser, query_graph, schema, translator
from tabletalk.data import load_data
from tabletalk.dot import emit_dot
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

    def test_joins_between_finds_a_self_join_edge(self):
        doc = json.loads((FIXTURES / "emp.schema.json").read_text())
        doc["relations"][0]["attributes"].append({"name": "mgr"})
        doc["joins"].append({"from": "EMP", "to": "EMP", "from_key": "mgr", "to_key": "eid"})
        graph = schema.loads(json.dumps(doc))
        (edge,) = graph.joins_between("emp", "EMP")
        assert (edge.from_key, edge.to_key) == ("mgr", "eid")
        assert edge not in graph.joins_between("EMP", "DEPT")
        assert len(graph.joins_between("DEPT", "EMP")) == 2
        assert graph.joins_between("emp", "dpt") == graph.joins_between("DEPT", "EMP")

    def test_a_lookup_of_an_undeclared_name_raises(self, movie_graph):
        with pytest.raises(DanglingReference) as err:
            movie_graph.relation("GHOST")
        assert str(err.value) == "unknown relation 'GHOST'"
        with pytest.raises(DanglingReference) as err:
            movie_graph.attribute("MOVIE", "ghost")
        assert str(err.value) == "unknown attribute MOVIE.ghost"

    def test_key_attributes_are_the_keys_on_either_end_of_an_edge(self, movie_graph):
        keys = {rel.name: movie_graph.key_attributes(rel.name) for rel in movie_graph.relations}
        assert keys == {
            "MOVIE": {"id"}, "GENRE": {"mid"}, "DIRECTOR": {"id"},
            "DIRECTED": {"mid", "did"}, "CAST": {"mid", "aid"}, "ACTOR": {"id"},
        }

    def test_a_load_indexes_the_graph_once(self, monkeypatch):
        built = []
        init = schema._Names.__init__
        monkeypatch.setattr(
            schema._Names, "__init__", lambda names, graph: built.append(graph) or init(names, graph)
        )
        graph = schema.load_schema(FIXTURES / "movies.schema.json")
        assert built == [graph]
        # The one index holds every join edge's keys, though it was built before them.
        assert graph.fk_backed("MOVIE", "id", "DIRECTED", "mid")
        assert graph.fk_backed("ACTOR", "id", "CAST", "aid")
        assert built == [graph]

    def test_weights_default_to_one(self):
        graph = mini()
        assert graph.relation("A").weight == 1
        assert all(a.weight == 1 for a in graph.attributes)


class TestValidate:
    def test_fixture_validates_clean(self, movie_graph, split_graph, emp_graph):
        assert schema.validate(movie_graph) == []
        assert schema.validate(split_graph) == []
        assert schema.validate(emp_graph) == []

    def test_a_heading_edited_to_name_no_attribute_is_flagged(self):
        graph = mini()
        graph.relation("A").heading_attribute = "ghost"
        assert schema.validate(graph) == ["relation A: heading 'ghost' names no attribute"]

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

    def test_an_attribute_edited_to_name_no_relation_is_reported(self):
        graph = mini()
        graph.attributes[0].relation = "GHOST"
        assert schema.validate(graph) == [
            "relation A: heading 'x' names no attribute",
            "attribute GHOST.x names unknown relation",
            "join edge names unknown attribute A.x",
        ]

    def test_a_join_edited_to_name_no_relation_is_reported(self):
        graph = mini()
        graph.joins[0].to_relation = "GHOST"
        assert schema.validate(graph) == [
            "join edge names unknown relation 'GHOST'",
            "join-edge graph is not connected; unreachable from A: B",
        ]

    def test_an_empty_graph_validates_clean(self):
        assert schema.validate(schema.SchemaGraph()) == []


# MINI with a third relation C, also joined to A, for route checks.
MINI3 = copy.deepcopy(MINI)
MINI3["relations"].append({"name": "C", "heading": "w", "attributes": [{"name": "w"}, {"name": "aref"}]})
MINI3["joins"].append({"from": "C", "to": "A", "from_key": "aref", "to_key": "x"})


def _set(path, value):
    """An edit of MINI3 that sets the item at `path` (keys and indexes)."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


def _template(text):
    return _set(("relations", 0, "attributes", 1, "template"), text)


def _phrase(route, text='"x"'):
    return _set(("phrases",), [{"route": route, "text": text}])


LOAD_FINDINGS = {
    "duplicate_relation": (
        lambda doc: doc["relations"].append({"name": "a", "heading": "q", "attributes": [{"name": "q"}]}),
        MalformedDocument, "duplicate relation a",
    ),
    "duplicate_attribute": (
        lambda doc: doc["relations"][0]["attributes"].append({"name": "Y"}),
        MalformedDocument, "duplicate attribute A.Y",
    ),
    "negative_attribute_weight": (
        _set(("relations", 0, "attributes", 1, "weight"), -1),
        MalformedDocument, "attribute A.y: negative weight",
    ),
    "short_join_path": (
        lambda doc: doc["joins"].append({"path": ["B", "A"], "template": '"x"'}),
        MalformedDocument, "join path ['B', 'A'] shorter than 3 relations",
    ),
    "short_phrase_route": (
        _phrase(["A"]), MalformedDocument, "phrase route ['A'] shorter than 2 relations",
    ),
    "route_names_unknown_relation": (
        _phrase(["A", "Z"]), DanglingReference, "phrase route names unknown relation 'Z'",
    ),
    "route_without_join_edge": (
        _phrase(["B", "C"]), MalformedDocument,
        "phrase route ['B', 'C']: no join edge between B and C",
    ),
    "join_names_unknown_relation": (
        _set(("joins", 0, "to"), "Z"), DanglingReference,
        "join edge names unknown relation 'Z'",
    ),
    # The join's keys are looked up on a relation that declares no attribute.
    "relation_without_attributes": (
        _set(("relations", 0, "attributes"), []), MissingHeading,
        "relation A: heading 'x' names no attribute",
    ),
    "placeholder_names_unknown_relation": (
        _template("{Z.y}"), DanglingReference,
        "projection A.y: placeholder names unknown relation 'Z'",
    ),
    "placeholder_off_its_route": (
        _phrase(["B", "A"], "{C}"), DanglingReference,
        "phrase B-A: placeholder alias 'C' is not on the route",
    ),
    "top_level_not_an_object": (
        None, MalformedDocument, "top level must be a JSON object",
    ),
    "missing_required_key": (
        lambda doc: doc["relations"][0].pop("name"), MalformedDocument,
        f"missing required key 'name' in {dict(list(MINI3['relations'][0].items())[1:])!r}",
    ),
    "loop_without_as": (
        _template('DEFINE L [i < arityOf(A.y)] { {A.y} } [i = arityOf(A.y)] { {A.y} }'),
        BadTemplate, "projection A.y: expected AS after DEFINE L",
    ),
    "loop_arms_bind_different_aliases": (
        _template('DEFINE L AS [i < arityOf(A.y)] { {A.y} } [i = arityOf(B.z)] { {B.z} }'),
        BadTemplate, "projection A.y: loop arms bind different aliases: A, B",
    ),
    "loop_without_i": (
        _template('DEFINE L AS [j < arityOf(A.y)] { {A.y} } [i = arityOf(A.y)] { {A.y} }'),
        BadTemplate, "projection A.y: expected loop variable 'i' at position 13",
    ),
    "bare_slot_in_a_projection": (
        _template("{A}"), BadTemplate,
        "projection A.y: slot {A} stands only in a translation phrase",
    ),
    "subject_slot_in_a_projection": (
        _template('{A.y} + " of " + {subject}'), BadTemplate,
        "projection A.y: slot {subject} stands only in a translation phrase",
    ),
    "attribute_on_the_subject_slot": (
        _phrase(["B", "A"], '{A.x} + " " + {Subject.y}'), BadTemplate,
        "phrase B-A: slot {Subject} takes no attribute: {Subject.y}",
    ),
    "loop_in_a_phrase": (
        _phrase(["B", "A"], 'DEFINE L AS [i < arityOf(A.y)] { {A.y} } [i = arityOf(A.y)] { {A.y} }'),
        BadTemplate, "phrase B-A: a translation phrase takes no loop",
    ),
    "variant_in_a_phrase": (
        _phrase(["B", "A"], '"of " + {A.y:noun}'), BadTemplate,
        "phrase B-A: a translation phrase takes no variant (:noun)",
    ),
    "loop_without_arity_of": (
        _template('DEFINE L AS [i < count(A.y)] { {A.y} } [i = arityOf(A.y)] { {A.y} }'),
        BadTemplate, "projection A.y: expected arityOf at position 17",
    ),
}


class TestLoadTimeChecks:
    @pytest.mark.parametrize("edit,kind,message", LOAD_FINDINGS.values(), ids=LOAD_FINDINGS)
    def test_load_raises_the_first_finding(self, edit, kind, message):
        doc = copy.deepcopy(MINI3)
        assert schema.loads(json.dumps(doc)).warnings == []
        if edit is None:
            doc = [doc]
        else:
            edit(doc)
        with pytest.raises(kind) as err:
            schema.loads(json.dumps(doc))
        assert str(err.value) == message

    def test_a_relation_declared_twice_is_a_duplicate(self):
        # Both declarations name x as heading; that is not a heading problem.
        rel = {"name": "A", "heading": "x", "attributes": [{"name": "x"}]}
        with pytest.raises(MalformedDocument) as err:
            schema.loads(json.dumps({"relations": [rel, rel]}))
        assert str(err.value) == "duplicate relation A"

    def test_a_heading_declared_twice_is_a_duplicate_attribute(self):
        # The heading names the first of the two; the second is the finding.
        rel = {"name": "A", "heading": "title", "attributes": [{"name": "title"}, {"name": "TITLE"}]}
        with pytest.raises(MalformedDocument) as err:
            schema.loads(json.dumps({"relations": [rel]}))
        assert str(err.value) == "duplicate attribute A.TITLE"


# MINI3 with a join path and a phrase, each with a template, so that every
# kind of template has a place in the document.
MINI3_TEMPLATED = copy.deepcopy(MINI3)
MINI3_TEMPLATED["joins"].append({"path": ["B", "A", "C"], "template": '"x"'})
MINI3_TEMPLATED["phrases"] = [{"route": ["B", "A"], "text": '"x"'}]

# Each template key, and the label a finding in its template starts with.
TEMPLATE_LABELS = {
    "relation_short": (("relations", 0, "short_template"), "relation A short_template"),
    "relation_long": (("relations", 0, "long_template"), "relation A long_template"),
    "projection": (("relations", 0, "attributes", 1, "template"), "projection A.y"),
    "join": (("joins", 0, "template"), "join B->A template"),
    "join_relative_clause": (("joins", 0, "relative_clause"), "join B->A relative_clause"),
    "join_procedural": (("joins", 0, "procedural_template"), "join B->A procedural_template"),
    "join_path": (("joins", 2, "template"), "join path B-A-C template"),
    "join_path_procedural": (
        ("joins", 2, "procedural_template"), "join path B-A-C procedural_template",
    ),
    "phrase": (("phrases", 0, "text"), "phrase B-A"),
}


class TestFindingLabels:
    @pytest.mark.parametrize("path,label", TEMPLATE_LABELS.values(), ids=TEMPLATE_LABELS)
    def test_a_finding_names_its_template(self, path, label):
        doc = copy.deepcopy(MINI3_TEMPLATED)
        assert schema.loads(json.dumps(doc)).warnings == []
        _set(path, "{Z.y}")(doc)
        with pytest.raises(DanglingReference) as err:
            schema.loads(json.dumps(doc))
        assert str(err.value) == f"{label}: placeholder names unknown relation 'Z'"


# Each optional document key: the item of MINI3_TEMPLATED that holds it,
# the key, how the loaded graph reads its field, what a missing key loads
# as, and another value with what it loads as.
OPTIONAL_KEYS = {
    "relation_aliases": (
        ("relations", 0), "aliases", lambda g: g.relations[0].alt_names, (), ["AA"], ("AA",),
    ),
    "relation_short_template": (
        ("relations", 0), "short_template", lambda g: g.relations[0].short_template,
        None, '"x"', '"x"',
    ),
    "relation_long_template": (
        ("relations", 0), "long_template", lambda g: g.relations[0].long_template,
        None, '"x"', '"x"',
    ),
    "attribute_temporal": (
        ("relations", 0, "attributes", 1), "temporal", lambda g: g.attributes[1].temporal,
        False, True, True,
    ),
    "attribute_template": (
        ("relations", 0, "attributes", 1), "template", lambda g: g.attributes[1].template,
        None, '"x"', '"x"',
    ),
    "join_template": (
        ("joins", 0), "template", lambda g: g.joins[0].template, None, '"x"', '"x"',
    ),
    "join_relative_clause": (
        ("joins", 0), "relative_clause", lambda g: g.joins[0].relative_clause_template,
        None, '"x"', '"x"',
    ),
    "join_procedural_template": (
        ("joins", 0), "procedural_template", lambda g: g.joins[0].procedural_template,
        None, '"x"', '"x"',
    ),
    "join_path_template": (
        ("joins", 2), "template", lambda g: g.join_paths[0].template, "", '"y"', '"y"',
    ),
    "join_path_procedural_template": (
        ("joins", 2), "procedural_template", lambda g: g.join_paths[0].procedural_template,
        None, '"x"', '"x"',
    ),
}


def _item(doc, where):
    for step in where:
        doc = doc[step]
    return doc


# The record each OPTIONAL_KEYS item of MINI3_TEMPLATED loads as.
RECORD_AT = {
    ("relations", 0): schema.RelationNode,
    ("relations", 0, "attributes", 1): schema.AttributeNode,
    ("joins", 0): schema.JoinEdge,
    ("joins", 2): schema.JoinPathTemplate,
}


def _optional_key_doc(where, key, state, missing, other):
    """MINI3_TEMPLATED with `key` of the item at `where` absent, given at
    its missing value, or given another value."""
    doc = copy.deepcopy(MINI3_TEMPLATED)
    item = _item(doc, where)
    item.pop(key, None)
    if state == "missing":
        item[key] = list(missing) if isinstance(missing, tuple) else missing
    elif state == "other":
        item[key] = other
    return doc


class TestRoundTrip:
    def test_serialize_then_load_is_identity(
        self, movie_graph, split_graph, emp_graph
    ):
        for graph in (movie_graph, split_graph, emp_graph):
            again = schema.loads(schema.serialize(graph))
            assert again == graph

    @pytest.mark.parametrize("path,read", [
        (("relations", 0, "attributes", 1, "template"), lambda g: g.attribute("A", "y").template),
        (("relations", 0, "short_template"), lambda g: g.relation("A").short_template),
        (("joins", 0, "template"), lambda g: g.joins[0].template),
        (("joins", 2, "procedural_template"), lambda g: g.join_paths[0].procedural_template),
    ], ids=["attribute", "relation_short", "join", "join_path_procedural"])
    def test_an_empty_template_round_trips(self, path, read):
        doc = copy.deepcopy(MINI3)
        doc["joins"].append({"path": ["B", "A", "C"], "template": '"x"'})
        _set(path, "")(doc)
        graph = schema.loads(json.dumps(doc))
        assert read(graph) == ""
        again = schema.loads(schema.serialize(graph))
        assert read(again) == ""
        assert again == graph

    def test_every_optional_key_and_its_missing_value_is_tested(self):
        tested = {(RECORD_AT[where], key, missing)
                  for where, key, _, missing, *_ in OPTIONAL_KEYS.values()}
        declared = {(cls, key, missing)
                    for cls, entries in schema._OPTIONAL.items() for key, _, missing in entries}
        assert tested == declared

    def test_the_documented_optional_keys_are_the_declared_ones(self):
        records = {"relation": schema.RelationNode, "attribute": schema.AttributeNode,
                   "join edge": schema.JoinEdge, "join path": schema.JoinPathTemplate}
        values = {"`()`": (), "`None`": None, "`false`": False, '`""`': ""}
        text = (FIXTURES.parent / "docs" / "annotations.md").read_text()
        table = text.split("## Optional keys")[1].split("\n\n")[2].splitlines()[2:]
        documented = set()
        for line in table:
            on, key, name, missing = (cell.strip() for cell in line.strip("|").split("|"))
            name = name.split()[0]
            documented.add((records[on], key.strip("`"), name.strip("`"), values[missing]))
        declared = {(cls, *entry) for cls, entries in schema._OPTIONAL.items() for entry in entries}
        assert documented == declared

    @pytest.mark.parametrize("state", ["absent", "missing", "other"])
    @pytest.mark.parametrize(
        "where,key,read,missing,other,loaded", OPTIONAL_KEYS.values(), ids=OPTIONAL_KEYS,
    )
    def test_an_optional_key_round_trips(self, where, key, read, missing, other, loaded, state):
        doc = _optional_key_doc(where, key, state, missing, other)
        graph = schema.loads(json.dumps(doc))
        assert read(graph) == (loaded if state == "other" else missing)
        text = schema.serialize(graph)
        again = schema.loads(text)
        assert again == graph
        assert schema.serialize(again) == text

    @pytest.mark.parametrize(
        "where,key,read,missing,other,loaded", OPTIONAL_KEYS.values(), ids=OPTIONAL_KEYS,
    )
    def test_a_key_at_its_missing_value_is_not_written(
        self, where, key, read, missing, other, loaded,
    ):
        doc = _optional_key_doc(where, key, "missing", missing, other)
        written = json.loads(schema.serialize(schema.loads(json.dumps(doc))))
        assert key not in _item(written, where)

    @pytest.mark.parametrize("name", ["movies", "split", "emp"])
    def test_only_given_templates_are_compiled(self, name):
        doc = json.loads((FIXTURES / f"{name}.schema.json").read_text())
        given = set()
        for rel in doc["relations"]:
            given.update(rel.get(k) for k in ("short_template", "long_template"))
            given.update(attr.get("template") for attr in rel.get("attributes", []))
        for entry in doc.get("joins", []) + doc.get("phrases", []):
            given.update(entry.get(k) for k in ("template", "relative_clause",
                                                 "procedural_template", "text"))
        graph = schema.load_schema(FIXTURES / f"{name}.schema.json")
        assert set(graph.compiled) <= given - {None}


class TestDot:
    def test_movie_fixture_counts(self, movie_graph):
        dot = emit_dot(movie_graph)
        assert dot.count("[label=") == 6 + 5  # 6 nodes, 5 join edges
        assert dot.count("->") == 5

    def test_empty_graph_is_header_and_footer(self):
        dot = emit_dot(schema.SchemaGraph())
        assert dot.startswith("digraph schema {")
        assert dot.rstrip().endswith("}")
        assert "->" not in dot

    def test_deterministic(self, movie_graph):
        assert emit_dot(movie_graph) == emit_dot(movie_graph)

    def test_distinct_fixtures_render_distinct_graphs(
        self, movie_graph, split_graph, emp_graph
    ):
        outputs = {
            emit_dot(movie_graph),
            emit_dot(split_graph),
            emit_dot(emp_graph),
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

    def test_a_heading_in_another_case_names_the_declared_attribute(self):
        doc = copy.deepcopy(MINI)
        doc["relations"][0]["heading"] = "X"
        graph = schema.loads(json.dumps(doc))
        assert graph.relation("A").heading_attribute == "x"
        assert json.loads(schema.serialize(graph))["relations"][0]["heading"] == "x"

    def test_a_template_compiles_to_declared_spellings(self):
        doc = copy.deepcopy(MINI3_TEMPLATED)
        doc["relations"][0]["attributes"][1]["template"] = '{a.Y} + " of " + {A.X}'
        doc["phrases"][0]["text"] = '{Subject} + " of " + {b.Z} + " " + {a}'
        graph = schema.loads(json.dumps(doc))
        projection = graph.compiled[graph.attribute("A", "y").template]
        assert [(r.alias, r.attribute) for r in projection.references()] == [
            ("A", "y"), ("A", "x"),
        ]
        phrase = graph.compiled[graph.phrases[0].text]
        assert [(r.alias, r.attribute) for r in phrase.references()] == [
            ("SUBJECT", None), ("B", "z"), ("A", None),
        ]

    def test_serialize_prints_declared_spelling(self):
        doc = _respelled_movies("lower-case join endpoint")
        graph = schema.loads(json.dumps(doc))
        assert '"from": "DIRECTED"' in schema.serialize(graph)
        assert '"DIRECTED" -> "DIRECTOR"' in emit_dot(graph)

    def test_validate_reports_a_template_edited_after_load(self, movie_graph):
        base = schema.loads(schema.serialize(movie_graph))
        base.attribute("MOVIE", "year").template = "{MOVIE.ghost}"
        assert any("unknown attribute" in d for d in schema.validate(base))
