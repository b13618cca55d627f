"""Annotated schema graph: relations, attributes, join edges, templates.

The graph is loaded once from a JSON annotation file and treated as
immutable afterwards; it is the knowledge base both for narrating table
contents and for wording query translations.  Each annotation is kept
once, on the node it labels: a relation names its heading attribute, and
an attribute carries its projection template (None when none is given).
"""

from __future__ import annotations

import io
import json

from . import templates
from .errors import (
    BadTemplate,
    DanglingReference,
    MalformedDocument,
    MissingHeading,
    TemplateError,
)
from .record import Record, field

SUBJECT_SLOT = "SUBJECT"
BOM = "\ufeff"  # a byte-order mark as text


class RelationNode(Record):
    name: str
    noun_singular: str
    noun_plural: str
    heading_attribute: str
    weight: float = 1.0
    short_template: str | None = None
    long_template: str | None = None
    alt_names: tuple[str, ...] = ()


class AttributeNode(Record):
    relation: str
    name: str
    weight: float = 1.0
    noun_singular: str = ""
    noun_plural: str = ""
    temporal: bool = False
    template: str | None = None  # the projection edge's; "" is a given template


class JoinEdge(Record):
    from_relation: str
    to_relation: str
    from_key: str
    to_key: str
    template: str | None = None
    relative_clause_template: str | None = None
    procedural_template: str | None = None


class JoinPathTemplate(Record):
    path: list[str]
    template: str
    procedural_template: str | None = None


class PhraseEntry(Record):
    """Translation wording for a join route (see docs/templates.md)."""

    route: list[str]
    text: str


# Each record's optional document keys, in the order serialize writes them:
# (key, the field it fills, what a missing key loads as).  A field named
# *template holds a template.
_OPTIONAL = {
    RelationNode: (("aliases", "alt_names", ()),
                   ("short_template", "short_template", None),
                   ("long_template", "long_template", None)),
    AttributeNode: (("temporal", "temporal", False), ("template", "template", None)),
    JoinEdge: (("template", "template", None),
               ("relative_clause", "relative_clause_template", None),
               ("procedural_template", "procedural_template", None)),
    JoinPathTemplate: (("template", "template", ""),
                       ("procedural_template", "procedural_template", None)),
}


class SchemaGraph(Record):
    relations: list[RelationNode] = field(factory=list)
    attributes: list[AttributeNode] = field(factory=list)
    joins: list[JoinEdge] = field(factory=list)
    join_paths: list[JoinPathTemplate] = field(factory=list)
    phrases: list[PhraseEntry] = field(factory=list)
    warnings: list[str] = field(factory=list)
    # Template text -> expression compiled at load, names resolved.
    compiled: dict = field(factory=dict, shown=False)
    _names: _Names | None = field(None, init=False, shown=False)
    # (start, relation filter, rank attribute, descending) -> the recipe the
    # narrator derives on first use; see narrator.py.
    narration: dict = field(factory=dict, init=False, shown=False)

    # -- lookups: a declared name reads one dict; any other is folded once --

    def _index(self) -> "_Names":
        """Built on first lookup; lists edited after that are not seen here,
        while validate() reads the lists as they are."""
        if self._names is None:
            self._names = _Names(self)
        return self._names

    def relation(self, name: str) -> RelationNode:
        rel = self._index().relations.get(name) or self.find_relation(name)
        if rel is None:
            raise DanglingReference(f"unknown relation {name!r}")
        return rel

    def find_relation(self, name: str) -> RelationNode | None:
        return self._index().relations.get(name.upper())

    def attributes_of(self, relation: str) -> list[AttributeNode]:
        return list(self._index().by_relation.get(self.relation(relation).name, ()))

    def find_attribute(self, relation: str, name: str) -> AttributeNode | None:
        rel = self.find_relation(relation)
        if rel is None:
            return None
        return self._index().attributes[rel.name].get(name.upper())

    def attribute(self, relation: str, name: str) -> AttributeNode:
        declared = self._index().attributes.get(relation, {}).get(name)
        attr = declared or self.find_attribute(relation, name)
        if attr is None:
            raise DanglingReference(f"unknown attribute {relation}.{name}")
        return attr

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
        return [e for e in self.joins if {e.from_relation, e.to_relation} == {a, b}]

    def fk_backed(self, rel_a: str, attr_a: str, rel_b: str, attr_b: str) -> bool:
        """True when the pair of declared attributes, in either order, is the
        two keys of a declared join edge."""
        return (rel_a, attr_a, rel_b, attr_b) in self._index().key_pairs


class _Names:
    """Declared nodes keyed by declared and by case-folded name (relations
    also by alias; attributes per declared relation); the first declaration
    of a name wins.  Also every attribute name folded, whatever its
    relation, and every join edge's key pair, both ways round.  A relation's
    heading and an attribute's template are fields of their node, read
    without an index."""

    def __init__(self, graph: SchemaGraph):
        self.relations: dict[str, RelationNode] = {}
        self.attributes: dict[str, dict[str, AttributeNode]] = {}
        for rel in graph.relations:
            for name in (rel.name, *rel.alt_names):
                self.relations.setdefault(name.upper(), rel)
            self.relations.setdefault(rel.name, rel)
            self.attributes.setdefault(rel.name, {})
        self.by_relation: dict[str, list[AttributeNode]] = {}
        self.folded_attributes = {attr.name.upper() for attr in graph.attributes}
        for attr in graph.attributes:
            named = self.attributes.setdefault(attr.relation, {})
            named.setdefault(attr.name.upper(), attr)
            named.setdefault(attr.name, attr)
            self.by_relation.setdefault(attr.relation, []).append(attr)
        self.key_pairs = _key_pairs(graph.joins)
        self.layouts = {rel.name: {} for rel in graph.relations}  # CSV layouts; see data.py


def _key_pairs(joins) -> set[tuple[str, str, str, str]]:
    """Each join edge's (relation, key, relation, key), both ways round."""
    pairs = set()
    for e in joins:
        pairs.add((e.from_relation, e.from_key, e.to_relation, e.to_key))
        pairs.add((e.to_relation, e.to_key, e.from_relation, e.from_key))
    return pairs


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


def decode_utf8(raw: bytes, name, error: type) -> str:
    """`raw` read as UTF-8 after an optional byte-order mark; a byte that
    is not UTF-8 raises `error`, naming `name` and the byte's offset."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # The codec strips a byte-order mark before decoding the rest.
        offset = exc.start + len(raw) - len(exc.object)
        raise error(f"{name}: not UTF-8 at byte offset {offset} ({exc.reason})") from None


def _read_document(source) -> dict:
    name = getattr(source, "name", "annotation document")
    if hasattr(source, "read"):
        raw = source.read()
    elif isinstance(source, (bytes, bytearray)):
        raw = bytes(source)
    elif isinstance(source, str) and source.removeprefix(BOM).lstrip().startswith("{"):
        raw = source
    else:
        name = source
        with open(source, "rb") as fh:
            raw = fh.read()
    if isinstance(raw, (bytes, bytearray)):
        raw = decode_utf8(raw, name, MalformedDocument)
    raw = raw.removeprefix(BOM)  # as decode_utf8 drops it from bytes
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
        rel, attrs = _build_relation(rel_doc)
        graph.relations.append(rel)
        graph.attributes.extend(attrs)

    def declared(name, of=None):  # the name of a relation, or of an attribute of `of`
        node = graph.find_relation(name) if of is None else graph.find_attribute(of, name)
        return name if node is None else node.name

    for join_doc in doc.get("joins", []):
        if "path" in join_doc:
            path = [declared(r) for r in join_doc["path"]]
            graph.join_paths.append(_node(JoinPathTemplate, join_doc, {"path": path}))
        else:
            frm = declared(_require(join_doc, "from"))
            to = declared(_require(join_doc, "to"))
            graph.joins.append(_node(JoinEdge, join_doc, {
                "from_relation": frm, "to_relation": to,
                "from_key": declared(_require(join_doc, "from_key"), frm),
                "to_key": declared(_require(join_doc, "to_key"), to),
            }))
    for phrase_doc in doc.get("phrases", []):
        route = [declared(r) for r in _require(phrase_doc, "route")]
        graph.phrases.append(PhraseEntry(route=route, text=_require(phrase_doc, "text")))
    # `declared` indexed the graph before its joins: index their keys now.
    graph._index().key_pairs = _key_pairs(graph.joins)
    return graph


def _require(doc: dict, key: str):
    if key not in doc:
        raise MalformedDocument(f"missing required key {key!r} in {doc!r}")
    return doc[key]


def _node(cls, doc: dict, fields: dict):
    """A `cls` record of `fields` and of `doc`'s optional keys."""
    for key, name, missing in _OPTIONAL[cls]:
        value = doc.get(key, missing)
        fields[name] = tuple(value) if isinstance(missing, tuple) else value
    return cls(**fields)


def _noun(doc: dict, name: str) -> tuple[str, str]:
    """The noun's singular and plural: as given, else the name lower-cased, plural in -s."""
    noun = doc.get("noun", {})
    singular = noun.get("singular", name.lower())
    return singular, noun.get("plural", singular + "s")


def _build_relation(doc: dict):
    name = _require(doc, "name")
    attrs = []
    for attr_doc in doc.get("attributes", []):
        attr_name = _require(attr_doc, "name")
        singular, plural = _noun(attr_doc, attr_name)
        attrs.append(_node(AttributeNode, attr_doc, {
            "relation": name, "name": attr_name, "weight": attr_doc.get("weight", 1),
            "noun_singular": singular, "noun_plural": plural,
        }))
    heading = doc.get("heading") or ""
    heading = next((a.name for a in attrs if a.name.upper() == heading.upper()), heading)
    singular, plural = _noun(doc, name)
    return _node(RelationNode, doc, {
        "name": name, "noun_singular": singular, "noun_plural": plural,
        "heading_attribute": heading, "weight": doc.get("weight", 1),
    }), attrs


# --- the one checker ---------------------------------------------------

def _check(graph: SchemaGraph):
    """Every structural finding, in document order, with the exception type
    load_schema raises for it, plus every template compiled with its names
    resolved.  References must name declared nodes in declared spelling."""
    findings: list[tuple[type, str]] = []

    def report(kind, message):
        findings.append((kind, message))

    relations = {rel.name for rel in graph.relations}
    attributes = {(attr.relation, attr.name) for attr in graph.attributes}
    seen = set()
    for rel in graph.relations:
        if rel.name.upper() in seen:
            report(MalformedDocument, f"duplicate relation {rel.name}")
        seen.add(rel.name.upper())
        if rel.weight < 0:
            report(MalformedDocument, f"relation {rel.name}: negative weight")
        if (rel.name, rel.heading_attribute) not in attributes:
            report(
                MissingHeading,
                f"relation {rel.name}: heading {rel.heading_attribute!r} names no attribute",
            )

    seen = set()
    for attr in graph.attributes:
        where = f"attribute {attr.relation}.{attr.name}"
        if (attr.relation.upper(), attr.name.upper()) in seen:
            report(MalformedDocument, f"duplicate {where}")
        seen.add((attr.relation.upper(), attr.name.upper()))
        if attr.relation not in relations:
            report(DanglingReference, f"{where} names unknown relation")
        if attr.weight < 0:
            report(MalformedDocument, f"{where}: negative weight")

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
            finding = _resolve_reference(graph, ref, route)
            if finding:
                kind, problem = finding
                report(kind, f"{where}: {problem}")
        compiled[text] = expr
    return findings, compiled


def _resolve_reference(graph: SchemaGraph, ref, route):
    """Point a placeholder or loop at declared names, or say why it cannot:
    the exception to raise and its message.  A slot ({REL} or {SUBJECT})
    stands only in a translation phrase (the one kind with a route), and a
    phrase takes no loop and no variant.  {SUBJECT} takes no attribute."""
    if route is None:
        if ref.attribute is None or ref.alias.upper() == SUBJECT_SLOT:
            return BadTemplate, f"slot {{{ref.alias}}} stands only in a translation phrase"
    elif isinstance(ref, templates.ListLoop):
        return BadTemplate, "a translation phrase takes no loop"
    elif ref.variant not in ("value", "ref"):
        return BadTemplate, f"a translation phrase takes no variant (:{ref.variant})"
    if ref.alias.upper() == SUBJECT_SLOT:
        if ref.attribute is not None:
            written = f"{{{ref.alias}.{ref.attribute}}}"
            return BadTemplate, f"slot {{{ref.alias}}} takes no attribute: {written}"
        ref.alias = SUBJECT_SLOT
        return None
    rel = graph.find_relation(ref.alias)
    if rel is None:
        return DanglingReference, f"placeholder names unknown relation {ref.alias!r}"
    if route is not None and rel.name not in route:
        return DanglingReference, f"placeholder alias {ref.alias!r} is not on the route"
    ref.alias = rel.name
    if ref.attribute is not None:
        attr = graph.find_attribute(rel.name, ref.attribute)
        if attr is None:
            return DanglingReference, (
                f"placeholder names unknown attribute {rel.name}.{ref.attribute}"
            )
        ref.attribute = attr.name
    return None


def _iter_templates(graph: SchemaGraph):
    """Every template that is not None, with the label its findings carry
    and its route (a translation phrase's; None for every other kind)."""
    for cls, nodes, label in (
        (RelationNode, graph.relations, lambda r, key: f"relation {r.name} {key}"),
        # A projection's one template is labelled by its attribute alone.
        (AttributeNode, graph.attributes, lambda a, _: f"projection {a.relation}.{a.name}"),
        (JoinEdge, graph.joins, lambda e, key: f"join {e.from_relation}->{e.to_relation} {key}"),
        (JoinPathTemplate, graph.join_paths, lambda p, key: f"join path {'-'.join(p.path)} {key}"),
    ):
        keys = [(key, name) for key, name, _ in _OPTIONAL[cls] if name.endswith("template")]
        for node in nodes:
            for key, name in keys:
                text = getattr(node, name)
                if text is not None:
                    yield label(node, key), text, None
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
    unindexed = SchemaGraph(  # shares the lists; its lookups index them anew
        graph.relations, graph.attributes, graph.joins,
        graph.join_paths, graph.phrases, graph.warnings, graph.compiled,
    )
    findings, _ = _check(unindexed)
    return [message for _, message in findings] + _connectivity_warnings(graph)


# --- output ------------------------------------------------------------

def serialize(graph: SchemaGraph) -> str:
    """Inverse of load_schema for validated graphs (round-trip identity)."""
    relations = [
        {
            "name": rel.name, "noun": _noun_doc(rel), "heading": rel.heading_attribute,
            "weight": rel.weight,
            "attributes": [
                {"name": attr.name, "weight": attr.weight, "noun": _noun_doc(attr)}
                | _given(attr)
                for attr in graph.attributes if attr.relation == rel.name
            ],
        } | _given(rel)
        for rel in graph.relations
    ]
    joins = [
        {"from": edge.from_relation, "to": edge.to_relation,
         "from_key": edge.from_key, "to_key": edge.to_key} | _given(edge)
        for edge in graph.joins
    ] + [{"path": list(path.path)} | _given(path) for path in graph.join_paths]
    phrases = [{"route": list(phrase.route), "text": phrase.text} for phrase in graph.phrases]
    return json.dumps({"relations": relations, "joins": joins, "phrases": phrases}, indent=2)


def _noun_doc(node) -> dict:
    return {"singular": node.noun_singular, "plural": node.noun_plural}


def _given(node) -> dict:
    """The node's optional keys whose field differs from what a missing key loads as."""
    return {
        key: getattr(node, name)
        for key, name, missing in _OPTIONAL[type(node)]
        if getattr(node, name) != missing
    }


def loads(text: str) -> SchemaGraph:
    return load_schema(io.BytesIO(text.encode("utf-8")))
