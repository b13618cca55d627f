"""Annotated schema graph: relations, attributes, join edges, templates.

The graph is loaded once from a JSON annotation file and treated as
immutable afterwards; it is the knowledge base both for narrating table
contents and for wording query translations.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field, replace
from typing import Optional

from . import templates
from .errors import (
    BadTemplate,
    DanglingReference,
    MalformedDocument,
    MissingHeading,
    TemplateError,
)

SUBJECT_SLOT = "SUBJECT"


@dataclass
class RelationNode:
    name: str
    noun_singular: str
    noun_plural: str
    heading_attribute: str
    weight: float = 1.0
    short_template: Optional[str] = None
    long_template: Optional[str] = None
    alt_names: tuple[str, ...] = ()


@dataclass
class AttributeNode:
    relation: str
    name: str
    is_heading: bool = False
    weight: float = 1.0
    noun_singular: str = ""
    noun_plural: str = ""
    temporal: bool = False


@dataclass
class ProjectionEdge:
    relation: str
    attribute: str
    template: str
    is_default: bool = False


@dataclass
class JoinEdge:
    from_relation: str
    to_relation: str
    from_key: str
    to_key: str
    template: Optional[str] = None
    relative_clause_template: Optional[str] = None
    procedural_template: Optional[str] = None


@dataclass
class JoinPathTemplate:
    path: list[str]
    template: str
    procedural_template: Optional[str] = None


@dataclass
class PhraseEntry:
    """Translation wording for a join route (see docs/templates.md)."""

    route: list[str]
    text: str


@dataclass
class SchemaGraph:
    relations: list[RelationNode] = field(default_factory=list)
    attributes: list[AttributeNode] = field(default_factory=list)
    projections: list[ProjectionEdge] = field(default_factory=list)
    joins: list[JoinEdge] = field(default_factory=list)
    join_paths: list[JoinPathTemplate] = field(default_factory=list)
    phrases: list[PhraseEntry] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    # Template text -> expression compiled at load, names resolved.
    compiled: dict = field(default_factory=dict, repr=False, compare=False)
    _names: Optional["_Names"] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- lookups: fold the argument once, then read a dict ----------------

    def _index(self) -> "_Names":
        """Built on first lookup; lists edited after that are not seen here,
        while validate() reads the lists as they are."""
        if self._names is None:
            self._names = _Names(self)
        return self._names

    def relation(self, name: str) -> RelationNode:
        rel = self.find_relation(name)
        if rel is None:
            raise DanglingReference(f"unknown relation {name!r}")
        return rel

    def find_relation(self, name: str) -> Optional[RelationNode]:
        return self._index().relations.get(name.upper())

    def attributes_of(self, relation: str) -> list[AttributeNode]:
        return list(self._index().by_relation.get(self.relation(relation).name, ()))

    def find_attribute(self, relation: str, name: str) -> Optional[AttributeNode]:
        rel = self.find_relation(relation)
        if rel is None:
            return None
        return self._index().attributes.get((rel.name, name.upper()))

    def attribute(self, relation: str, name: str) -> AttributeNode:
        attr = self.find_attribute(relation, name)
        if attr is None:
            raise DanglingReference(f"unknown attribute {relation}.{name}")
        return attr

    def projection(self, relation: str, attribute: str) -> Optional[ProjectionEdge]:
        rel = self.relation(relation).name
        return self._index().projections.get((rel, attribute.upper()))

    def key_attributes(self, relation: str) -> set[str]:
        """Attributes that serve as a key on either side of a join edge."""
        rel = self.relation(relation).name
        keys = set()
        for edge in self.joins:
            if edge.from_relation == rel:
                keys.add(edge.from_key)
            if edge.to_relation == rel:
                keys.add(edge.to_key)
        return keys

    def joins_between(self, a: str, b: str) -> list[JoinEdge]:
        a = self.relation(a).name
        b = self.relation(b).name
        return [
            e
            for e in self.joins
            if {e.from_relation, e.to_relation} == {a, b}
            or (a == b and e.from_relation == e.to_relation == a)
        ]

    def fk_backed(self, rel_a: str, attr_a: str, rel_b: str, attr_b: str) -> bool:
        """True when the attribute pair matches a declared join edge."""
        a = self.find_attribute(rel_a, attr_a)
        b = self.find_attribute(rel_b, attr_b)
        if a is None or b is None:
            return False
        pair = (a.relation, a.name, b.relation, b.name)
        return any(
            pair == (e.from_relation, e.from_key, e.to_relation, e.to_key)
            or pair == (e.to_relation, e.to_key, e.from_relation, e.from_key)
            for e in self.joins
        )


class _Names:
    """Declared nodes keyed by case-folded name (relations also by alias);
    the first declaration of a name wins."""

    def __init__(self, graph: SchemaGraph):
        self.relations: dict[str, RelationNode] = {}
        for rel in graph.relations:
            for name in (rel.name, *rel.alt_names):
                self.relations.setdefault(name.upper(), rel)
        self.attributes: dict[tuple, AttributeNode] = {}
        self.by_relation: dict[str, list[AttributeNode]] = {}
        for attr in graph.attributes:
            self.attributes.setdefault((attr.relation, attr.name.upper()), attr)
            self.by_relation.setdefault(attr.relation, []).append(attr)
        self.projections: dict[tuple, ProjectionEdge] = {}
        for proj in graph.projections:
            self.projections.setdefault((proj.relation, proj.attribute.upper()), proj)


# --- loading -----------------------------------------------------------

def load_schema(source) -> SchemaGraph:
    """Load and validate an annotation document (path, bytes, or stream).

    Every name the document uses is resolved to its declared spelling
    here, and every template is compiled once.
    """
    graph = _build_graph(_read_document(source))
    findings, graph.compiled = _check(graph)
    if findings:
        kind, message = findings[0]
        raise kind(message)
    if len(graph.relations) == 0:
        graph.warnings.append("annotation document declares no relations")
    else:
        graph.warnings.extend(_connectivity_warnings(graph))
    return graph


def _read_document(source) -> dict:
    if hasattr(source, "read"):
        raw = source.read()
    elif isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        raw = source
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
    if isinstance(raw, (bytes, bytearray)):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be a JSON object")
    return doc


def _build_graph(doc: dict) -> SchemaGraph:
    """Build the graph, storing each reference in its declared spelling;
    names that resolve to nothing are kept as given for _check to report."""
    graph = SchemaGraph()
    for rel_doc in doc.get("relations", []):
        rel, attrs, projections = _build_relation(rel_doc)
        graph.relations.append(rel)
        graph.attributes.extend(attrs)
        graph.projections.extend(projections)

    def declared(name, relation=None):
        node = (
            graph.find_relation(name)
            if relation is None
            else graph.find_attribute(relation, name)
        )
        return name if node is None else node.name

    for join_doc in doc.get("joins", []):
        if "path" in join_doc:
            graph.join_paths.append(
                JoinPathTemplate(
                    path=[declared(r) for r in join_doc["path"]],
                    template=join_doc.get("template", ""),
                    procedural_template=join_doc.get("procedural_template"),
                )
            )
        else:
            frm = declared(_require(join_doc, "from"))
            to = declared(_require(join_doc, "to"))
            graph.joins.append(
                JoinEdge(
                    from_relation=frm,
                    to_relation=to,
                    from_key=declared(_require(join_doc, "from_key"), frm),
                    to_key=declared(_require(join_doc, "to_key"), to),
                    template=join_doc.get("template"),
                    relative_clause_template=join_doc.get("relative_clause"),
                    procedural_template=join_doc.get("procedural_template"),
                )
            )
    for phrase_doc in doc.get("phrases", []):
        graph.phrases.append(
            PhraseEntry(
                route=[declared(r) for r in _require(phrase_doc, "route")],
                text=_require(phrase_doc, "text"),
            )
        )
    return graph


def _require(doc: dict, key: str):
    if key not in doc:
        raise MalformedDocument(f"missing required key {key!r} in {doc!r}")
    return doc[key]


def _build_relation(doc: dict):
    name = _require(doc, "name")
    noun = doc.get("noun", {})
    singular = noun.get("singular", name.lower())
    plural = noun.get("plural", singular + "s")
    heading = doc.get("heading") or ""
    attrs = []
    projections = []
    for attr_doc in doc.get("attributes", []):
        attr_name = _require(attr_doc, "name")
        attr_noun = attr_doc.get("noun", {})
        attrs.append(
            AttributeNode(
                relation=name,
                name=attr_name,
                is_heading=attr_name.upper() == heading.upper(),
                weight=attr_doc.get("weight", 1),
                noun_singular=attr_noun.get("singular", attr_name.lower()),
                noun_plural=attr_noun.get(
                    "plural", attr_noun.get("singular", attr_name.lower()) + "s"
                ),
                temporal=attr_doc.get("temporal", False),
            )
        )
        template = attr_doc.get("template")
        if template is None:
            template = f'"the {attrs[-1].noun_singular} of a {singular}"'
            projections.append(ProjectionEdge(name, attr_name, template, True))
        else:
            projections.append(ProjectionEdge(name, attr_name, template, False))
    rel = RelationNode(
        name=name,
        noun_singular=singular,
        noun_plural=plural,
        heading_attribute=next((a.name for a in attrs if a.is_heading), heading),
        weight=doc.get("weight", 1),
        short_template=doc.get("short_template"),
        long_template=doc.get("long_template"),
        alt_names=tuple(doc.get("aliases", ())),
    )
    return rel, attrs, projections


# --- the one checker ---------------------------------------------------

def _check(graph: SchemaGraph):
    """Every structural finding, in document order, with the exception type
    load_schema raises for it, plus every template compiled with its names
    resolved.  References must name declared nodes in declared spelling."""
    findings: list[tuple[type, str]] = []

    def report(kind, message):
        findings.append((kind, message))

    relations = {rel.name for rel in graph.relations}
    seen = set()
    for rel in graph.relations:
        if rel.name.upper() in seen:
            report(MalformedDocument, f"duplicate relation {rel.name}")
        seen.add(rel.name.upper())
        if rel.weight < 0:
            report(MalformedDocument, f"relation {rel.name}: negative weight")
        flagged = [a.name for a in graph.attributes if a.relation == rel.name and a.is_heading]
        if flagged != [rel.heading_attribute]:
            report(
                MissingHeading,
                f"relation {rel.name}: heading {rel.heading_attribute!r} must be the "
                f"one attribute flagged as heading, found {flagged}",
            )

    attributes, seen = set(), set()
    for attr in graph.attributes:
        where = f"attribute {attr.relation}.{attr.name}"
        if (attr.relation.upper(), attr.name.upper()) in seen:
            report(MalformedDocument, f"duplicate {where}")
        seen.add((attr.relation.upper(), attr.name.upper()))
        attributes.add((attr.relation, attr.name))
        if attr.relation not in relations:
            report(DanglingReference, f"{where} names unknown relation")
        if attr.weight < 0:
            report(MalformedDocument, f"{where}: negative weight")
    projected = set()
    for proj in graph.projections:
        key = (proj.relation, proj.attribute)
        where = f"projection edge {proj.relation}.{proj.attribute}"
        if key in projected:
            report(MalformedDocument, f"duplicate {where}")
        projected.add(key)
        if key not in attributes:
            report(DanglingReference, f"{where} names unknown attribute")
    for rel_name, attr_name in sorted(attributes - projected):
        report(MalformedDocument, f"attribute {rel_name}.{attr_name} has no projection edge")

    for edge in graph.joins:
        for end in ((edge.from_relation, edge.from_key), (edge.to_relation, edge.to_key)):
            if end[0] not in relations:
                report(DanglingReference, f"join edge names unknown relation {end[0]!r}")
            elif end not in attributes:
                report(DanglingReference, f"join edge names unknown attribute {'.'.join(end)}")
    joined = {frozenset((e.from_relation, e.to_relation)) for e in graph.joins}
    routes = [("join path", path.path, 3) for path in graph.join_paths]
    routes += [("phrase route", phrase.route, 2) for phrase in graph.phrases]
    for what, route, shortest in routes:
        if len(route) < shortest:
            report(MalformedDocument, f"{what} {route} shorter than {shortest} relations")
        for name in route:
            if name not in relations:
                report(DanglingReference, f"{what} names unknown relation {name!r}")
        for a, b in zip(route, route[1:]):
            if frozenset((a, b)) not in joined:
                report(MalformedDocument, f"{what} {route}: no join edge between {a} and {b}")

    compiled = {}
    for where, text, route in _iter_templates(graph):
        try:
            expr = templates.parse_template(text)
        except TemplateError as exc:
            report(BadTemplate, f"{where}: {exc}")
            continue
        for ref in expr.references():
            problem = _resolve_reference(graph, ref, route)
            if problem:
                report(DanglingReference, f"{where}: {problem}")
        compiled[text] = expr
    return findings, compiled


def _resolve_reference(graph: SchemaGraph, ref, route) -> Optional[str]:
    """Point a placeholder or loop at declared names, or say why it cannot."""
    if ref.alias.upper() == SUBJECT_SLOT:
        ref.alias = SUBJECT_SLOT
        return None
    rel = graph.find_relation(ref.alias)
    if rel is None:
        return f"placeholder names unknown relation {ref.alias!r}"
    if route is not None and rel.name not in route:
        return f"placeholder alias {ref.alias!r} is not on the route"
    ref.alias = rel.name
    if ref.attribute is not None:
        attr = graph.find_attribute(rel.name, ref.attribute)
        if attr is None:
            return f"placeholder names unknown attribute {rel.name}.{ref.attribute}"
        ref.attribute = attr.name
    return None


def _iter_templates(graph: SchemaGraph):
    for rel in graph.relations:
        if rel.short_template:
            yield f"relation {rel.name} short_template", rel.short_template, None
        if rel.long_template:
            yield f"relation {rel.name} long_template", rel.long_template, None
    for proj in graph.projections:
        yield f"projection {proj.relation}.{proj.attribute}", proj.template, None
    for edge in graph.joins:
        where = f"join {edge.from_relation}->{edge.to_relation}"
        for label, text in (
            ("template", edge.template),
            ("relative_clause", edge.relative_clause_template),
            ("procedural_template", edge.procedural_template),
        ):
            if text:
                yield f"{where} {label}", text, None
    for path in graph.join_paths:
        where = f"join path {'-'.join(path.path)}"
        if path.template:
            yield f"{where} template", path.template, None
        if path.procedural_template:
            yield f"{where} procedural_template", path.procedural_template, None
    for phrase in graph.phrases:
        yield f"phrase {'-'.join(phrase.route)}", phrase.text, phrase.route


def _connectivity_warnings(graph: SchemaGraph) -> list[str]:
    if not graph.relations:
        return []
    adjacency = {rel.name: set() for rel in graph.relations}
    for edge in graph.joins:
        a, b = edge.from_relation, edge.to_relation
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    start = graph.relations[0].name
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    unreachable = sorted(set(adjacency) - seen)
    if unreachable:
        return [
            "join-edge graph is not connected; unreachable from "
            f"{start}: {', '.join(unreachable)}"
        ]
    return []


def validate(graph: SchemaGraph) -> list[str]:
    """Re-check an already-built graph (it may have been edited since load):
    one diagnostic per finding of the load-time checker, then the
    connectivity warnings."""
    findings, _ = _check(replace(graph))  # shares the lists, indexes them anew
    return [message for _, message in findings] + _connectivity_warnings(graph)


# --- output ------------------------------------------------------------

def emit_dot(graph: SchemaGraph) -> str:
    """Render relations and join edges as a deterministic DOT digraph."""
    lines = ["digraph schema {", "  rankdir=LR;", '  node [shape=box];']
    for rel in sorted(graph.relations, key=lambda r: r.name):
        label = f"{rel.name}|{rel.heading_attribute}"
        lines.append(f'  "{rel.name}" [label="{label}"];')
    edges = sorted(
        graph.joins,
        key=lambda e: (e.from_relation, e.to_relation, e.from_key, e.to_key),
    )
    for edge in edges:
        lines.append(
            f'  "{edge.from_relation}" -> "{edge.to_relation}" '
            f'[label="{edge.from_key}={edge.to_key}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize(graph: SchemaGraph) -> str:
    """Inverse of load_schema for validated graphs (round-trip identity)."""
    doc = {"relations": [], "joins": [], "phrases": []}
    for rel in graph.relations:
        rel_doc = {
            "name": rel.name,
            "noun": {"singular": rel.noun_singular, "plural": rel.noun_plural},
            "heading": rel.heading_attribute,
            "weight": rel.weight,
            "attributes": [],
        }
        if rel.alt_names:
            rel_doc["aliases"] = list(rel.alt_names)
        if rel.short_template:
            rel_doc["short_template"] = rel.short_template
        if rel.long_template:
            rel_doc["long_template"] = rel.long_template
        for attr in graph.attributes:
            if attr.relation != rel.name:
                continue
            attr_doc = {
                "name": attr.name,
                "weight": attr.weight,
                "noun": {"singular": attr.noun_singular, "plural": attr.noun_plural},
            }
            if attr.temporal:
                attr_doc["temporal"] = True
            proj = graph.projection(rel.name, attr.name)
            if proj is not None and not proj.is_default:
                attr_doc["template"] = proj.template
            rel_doc["attributes"].append(attr_doc)
        doc["relations"].append(rel_doc)
    for edge in graph.joins:
        edge_doc = {
            "from": edge.from_relation,
            "to": edge.to_relation,
            "from_key": edge.from_key,
            "to_key": edge.to_key,
        }
        if edge.template:
            edge_doc["template"] = edge.template
        if edge.relative_clause_template:
            edge_doc["relative_clause"] = edge.relative_clause_template
        if edge.procedural_template:
            edge_doc["procedural_template"] = edge.procedural_template
        doc["joins"].append(edge_doc)
    for path in graph.join_paths:
        path_doc = {"path": list(path.path), "template": path.template}
        if path.procedural_template:
            path_doc["procedural_template"] = path.procedural_template
        doc["joins"].append(path_doc)
    for phrase in graph.phrases:
        doc["phrases"].append({"route": list(phrase.route), "text": phrase.text})
    return json.dumps(doc, indent=2)


def loads(text: str) -> SchemaGraph:
    return load_schema(io.BytesIO(text.encode("utf-8")))
