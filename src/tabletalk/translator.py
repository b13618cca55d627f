"""Renders classified query graphs into English.

Two declarative pipelines share the traversal machinery: single-instance
queries build one root noun phrase and hang branch phrases off it; when a
relation appears under several tuple variables the output itemizes each
projection with instance-aware references ("an actor", "another actor",
"the first actor").  Aggregates and general nesting fall back to numbered
procedural steps, so every parseable query yields text.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Optional

from . import query_graph as qgraph
from . import rewriter, templates
from .ast_nodes import (
    ColumnRef,
    Compare,
    CompareAll,
    Constant,
    CountDistinct,
    CountStar,
    ScalarSubquery,
    SelectItem,
    Star,
)
from .classifier import QueryClass, classify
from .errors import MalformedDocument
from .query_graph import QueryGraph, QueryNode
from .schema import SUBJECT_SLOT, SchemaGraph
from .templates import Placeholder

LEXICON = {
    "=": "is",
    "!=": "is not",
    "<": "is less than",
    "<=": "is at most",
    ">": "is larger than",
    ">=": "is at least",
}

HIGHER_ORDER_NOTE = (
    "higher-order query: the rendering rests on heuristic motifs, not on "
    "the query graph alone"
)

_ORDINALS = (
    "first", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
)

_SUFFIXES = {1: "st", 2: "nd", 3: "rd"}

_VOWELS = "aeiou"


@dataclass
class TranslationResult:
    text: str
    style: str  # declarative | procedural
    class_used: Optional[QueryClass]
    notes: list[str] = field(default_factory=list)


def _indefinite(noun: str) -> str:
    article = "an" if noun[:1].lower() in _VOWELS else "a"
    return f"{article} {noun}"


def _ordinal(i: int) -> str:
    if i <= len(_ORDINALS):
        return _ORDINALS[i - 1]
    if i % 100 in (11, 12, 13):
        return f"{i}th"
    return f"{i}{_SUFFIXES.get(i % 10, 'th')}"


def _listed(parts: list[str], conj: str = "and") -> str:
    if not parts:
        return ""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return f"{parts[0]} {conj} {parts[1]}"
    return ", ".join(parts[:-1]) + f", {conj} {parts[-1]}"


class _References:
    """Referring expressions with instance counts and mention history."""

    def __init__(self, qg: QueryGraph, graph: SchemaGraph):
        self.qg = qg
        self.graph = graph
        counts: dict[str, int] = {}
        self.index: dict[str, int] = {}
        for node in qg.nodes:
            counts[node.relation] = counts.get(node.relation, 0) + 1
            self.index[node.alias] = counts[node.relation]
        self.counts = counts
        self.mentioned: set[str] = set()
        self.consumed_preds: set[int] = set()

    def noun(self, alias: str) -> str:
        node = self.qg.node(alias)
        return self.graph.relation(node.relation).noun_singular

    def instances(self, alias: str) -> int:
        node = self.qg.node(alias)
        return self.counts.get(node.relation, 1)

    def heading_constant(self, alias: str) -> Optional[Compare]:
        node = self.qg.node(alias)
        if node is None:
            return None
        heading = self.graph.relation(node.relation).heading_attribute
        for pred in node.where_part:
            if (
                isinstance(pred, Compare)
                and pred.op == "="
                and isinstance(pred.lhs, ColumnRef)
                and isinstance(pred.rhs, Constant)
                and pred.lhs.attribute == heading
            ):
                return pred
        return None

    def mention(self, alias: str) -> str:
        """Narrative-flow reference: a movie / another actor / the movie."""
        pred = self.heading_constant(alias)
        if pred is not None:
            self.consumed_preds.add(id(pred))
            self.mentioned.add(alias)
            return f"the {self.noun(alias)} {pred.rhs.value}"
        noun = self.noun(alias)
        first_time = alias not in self.mentioned
        self.mentioned.add(alias)
        if first_time:
            if self.instances(alias) > 1 and self.index[alias] > 1:
                return f"another {noun}"
            return _indefinite(noun)
        if self.instances(alias) > 1:
            return f"the {_ordinal(self.index[alias])} {noun}"
        return f"the {noun}"

    def in_predicate(self, alias: str) -> str:
        """Reference inside a comparison: ordinals whenever ambiguous."""
        self.mentioned.add(alias)
        noun = self.noun(alias)
        if self.instances(alias) > 1:
            return f"the {_ordinal(self.index[alias])} {noun}"
        return f"the {noun}"


def _plain_refs(graph: SchemaGraph, pred) -> _References:
    """Reference state for standalone predicate lexicalization."""
    qg = QueryGraph()
    for ref in _pred_columns(pred):
        if ref.alias and qg.node(ref.alias) is None and ref.relation:
            qg.nodes.append(QueryNode(ref.alias, ref.relation))
    return _References(qg, graph)


def _pred_columns(pred):
    if isinstance(pred, Compare):
        for side in (pred.lhs, pred.rhs):
            if isinstance(side, ColumnRef):
                yield side
            elif isinstance(side, CountDistinct):
                yield side.column
    elif isinstance(pred, CompareAll) and isinstance(pred.lhs, ColumnRef):
        yield pred.lhs


# --- predicate lexicalization -------------------------------------------

def lexicalize_predicate(
    pred, graph: SchemaGraph, refs: Optional[_References] = None, heading=True
) -> str:
    """Word one comparison predicate.

    With `heading` set, an equality between a relation's heading attribute
    and a constant collapses to "the <noun> <value>" (the actor Brad
    Pitt); otherwise the comparison is spelled out via the lexicon.
    """
    if refs is None:
        refs = _plain_refs(graph, pred)
    if isinstance(pred, Compare):
        if heading and isinstance(pred.lhs, ColumnRef) and isinstance(pred.rhs, Constant):
            node = refs.qg.node(pred.lhs.alias)
            if node is not None:
                rel = graph.relation(node.relation)
                if pred.lhs.attribute == rel.heading_attribute and pred.op == "=":
                    return f"the {rel.noun_singular} {pred.rhs.value}"
        lhs = _operand_phrase(pred.lhs, graph, refs)
        rhs = _operand_phrase(pred.rhs, graph, refs)
        return f"{lhs} {LEXICON[pred.op]} {rhs}"
    raise ValueError(f"cannot lexicalize {pred!r}")


def _operand_phrase(expr, graph, refs) -> str:
    if isinstance(expr, Constant):
        return str(expr.value)
    if isinstance(expr, ColumnRef):
        attr = graph.attribute(expr.relation, expr.column)
        return f"the {attr.noun_singular} of {refs.in_predicate(expr.alias)}"
    if isinstance(expr, CountStar):
        return "the number of rows in each group"
    if isinstance(expr, CountDistinct):
        col = expr.column
        attr = graph.attribute(col.relation, col.column)
        return (
            f"the number of distinct {attr.noun_plural} of "
            f"{refs.in_predicate(col.alias)}"
        )
    raise ValueError(f"cannot word operand {expr!r}")


# --- branch discovery ----------------------------------------------------

@dataclass
class _Branch:
    chain: list[str]  # aliases, starting at the branch root
    edges: list  # fk edges along the chain


def _fk_adjacency(qg: QueryGraph):
    adj: dict[str, list] = {n.alias: [] for n in qg.nodes}
    for edge in qg.joins:
        if edge.crosses_nesting or not edge.fk_backed:
            continue
        a, b = edge.from_ref[0], edge.to_ref[0]
        if a in adj and b in adj:
            adj[a].append((edge, b))
            adj[b].append((edge, a))
    return adj


def _is_relay(qg: QueryGraph, alias: str) -> bool:
    node = qg.node(alias)
    if node.where_part or node.select_part or node.having_part:
        return False
    for edge in qg.joins:
        if edge.crosses_nesting or edge.fk_backed:
            continue
        if alias in (edge.from_ref[0], edge.to_ref[0]):
            return False
    return True


def _at_route_end(qg, graph, chain) -> bool:
    relations = [qg.node(a).relation for a in chain]
    return any(phrase.route == relations for phrase in graph.phrases)


def _branches_from(qg, graph, adj, root: str, visited: set) -> list[_Branch]:
    """Depth-first branch chains: each chain runs through relay nodes and
    stops at a declared phrase route, an informative node, or a fan-out."""
    branches = []
    queue = [root]
    while queue:
        current = queue.pop(0)
        for edge, nxt in adj[current]:
            if nxt in visited:
                continue
            visited.add(nxt)
            chain = [current, nxt]
            edges = [edge]
            tail = nxt
            while _is_relay(qg, tail) and not _at_route_end(qg, graph, chain):
                onward = [(e, n) for e, n in adj[tail] if n not in visited]
                if len(onward) != 1:
                    break
                edge2, nxt2 = onward[0]
                visited.add(nxt2)
                chain.append(nxt2)
                edges.append(edge2)
                tail = nxt2
            branches.append(_Branch(chain, edges))
            queue.append(tail)
    return branches


def _chains_from(qg, graph, adj, start: str, consumed: set) -> list[_Branch]:
    """Single-level chains from one node over unconsumed fk edges; used by
    the itemized pipeline so each projection claims its own branch."""
    chains = []
    for edge, nxt in adj[start]:
        if id(edge) in consumed:
            continue
        consumed.add(id(edge))
        chain = [start, nxt]
        edges = [edge]
        tail = nxt
        while _is_relay(qg, tail) and not _at_route_end(qg, graph, chain):
            onward = [
                (e, n) for e, n in adj[tail] if id(e) not in consumed
            ]
            if len(onward) != 1:
                break
            edge2, nxt2 = onward[0]
            consumed.add(id(edge2))
            chain.append(nxt2)
            edges.append(edge2)
            tail = nxt2
        chains.append(_Branch(chain, edges))
    return chains


def _match_phrase(graph: SchemaGraph, qg: QueryGraph, branch: _Branch):
    """Longest declared phrase route prefixing this branch's relations."""
    relations = [qg.node(a).relation for a in branch.chain]
    best = None
    for phrase in graph.phrases:
        route = phrase.route
        if len(route) <= len(relations) and relations[: len(route)] == route:
            if best is None or len(route) > len(best[0]):
                best = (route, phrase)
    if best is None:
        return None, None
    route, phrase = best
    target_alias = branch.chain[len(route) - 1]
    return phrase, target_alias


def _branch_informative(qg: QueryGraph, branch: _Branch) -> bool:
    """A branch earns a phrase only if it constrains the result."""
    return any(qg.node(a).where_part for a in branch.chain[1:])


def _render_phrase(phrase, graph, qg, refs, branch: _Branch):
    """Instantiate a translation phrase; returns (text, is_premodifier)."""
    by_relation = {}
    for alias in branch.chain:
        by_relation.setdefault(qg.node(alias).relation, alias)
    premod = False
    out = []
    for part in graph.compiled[phrase.text].parts:
        if isinstance(part, templates.Literal):
            out.append(part.text)
        elif isinstance(part, Placeholder):
            if part.alias == SUBJECT_SLOT:
                premod = True
                continue
            alias = by_relation.get(part.alias)
            if alias is None:
                continue
            if part.attribute is None:
                out.append(refs.mention(alias))
            else:
                out.append(_attribute_slot(graph, qg, refs, alias, part.attribute))
    text = "".join(out).strip()
    return text, premod


def _attribute_slot(graph, qg, refs, alias, attribute) -> str:
    """A {REL.attr} slot: the constant bound to it if any, else a phrase."""
    node = qg.node(alias)
    for pred in node.where_part:
        if (
            isinstance(pred, Compare)
            and pred.op == "="
            and isinstance(pred.lhs, ColumnRef)
            and isinstance(pred.rhs, Constant)
            and pred.lhs.attribute == attribute
        ):
            refs.consumed_preds.add(id(pred))
            return str(pred.rhs.value)
    attr = graph.attribute(node.relation, attribute)
    return f"the {attr.noun_singular} of {refs.in_predicate(alias)}"


# --- declarative pipelines ------------------------------------------------

def _projection_refs(qg: QueryGraph) -> list[ColumnRef]:
    return [
        item.expr for item in qg.projections if isinstance(item.expr, ColumnRef)
    ]


def _pick_root(qg: QueryGraph, graph: SchemaGraph) -> str:
    owners = []
    for ref in _projection_refs(qg):
        if ref.alias not in owners:
            owners.append(ref.alias)
    if not owners:
        return qg.nodes[0].alias
    return max(owners, key=lambda a: graph.relation(qg.node(a).relation).weight)


def _translate_root_np(qg, graph, cls, notes) -> TranslationResult:
    refs = _References(qg, graph)
    root = _pick_root(qg, graph)
    root_node = qg.node(root)
    root_rel = graph.relation(root_node.relation)

    proj_phrases = []
    for ref in _projection_refs(qg):
        owner = qg.node(ref.alias)
        attr = graph.attribute(owner.relation, ref.column)
        if ref.alias == root:
            proj_phrases.append(attr.noun_plural)
        elif ref.attribute == graph.relation(owner.relation).heading_attribute:
            proj_phrases.append(graph.relation(owner.relation).noun_plural)
        else:
            owner_rel = graph.relation(owner.relation)
            proj_phrases.append(f"{attr.noun_plural} of {owner_rel.noun_plural}")

    premods: list[str] = []
    postmods: list[str] = []
    visited = {root}
    adj = _fk_adjacency(qg)
    for branch in _branches_from(qg, graph, adj, root, visited):
        if not _branch_informative(qg, branch):
            continue
        phrase, _ = _match_phrase(graph, qg, branch)
        if phrase is None:
            continue
        text, premod = _render_phrase(phrase, graph, qg, refs, branch)
        (premods if premod else postmods).append(text)

    head_pred = refs.heading_constant(root)
    if head_pred is not None:
        refs.consumed_preds.add(id(head_pred))
        core = " ".join(premods + [root_rel.noun_singular])
        np = f"the {core} {head_pred.rhs.value}"
    else:
        np = " ".join(premods + [root_rel.noun_plural])
    refs.mentioned.add(root)

    conditions = _leftover_conditions(qg, graph, refs)
    opening = "Find"
    if proj_phrases:
        opening += f" the {_listed(proj_phrases)} of {np}"
    else:
        opening += f" {np}"
    pieces = [opening] + postmods
    if conditions:
        connector = "and" if postmods else "where"
        pieces.append(f"{connector} {_listed(conditions, conj='and')}")
    sort = _sort_phrase(qg, graph, refs)
    if sort:
        pieces.append(sort)
    return TranslationResult(" ".join(pieces), "declarative", cls, notes)


def _sort_phrase(qg, graph, refs) -> str:
    if not qg.order_note:
        return ""
    cols = [
        f"the {graph.attribute(qg.node(a).relation, c).noun_singular} of "
        f"{refs.in_predicate(a)}"
        + (" in descending order" if d == "desc" else "")
        for a, c, d in qg.order_note
    ]
    return f"sorted by {_listed(cols)}"


def _leftover_conditions(qg, graph, refs) -> list[str]:
    out = []
    for edge in qg.joins:
        if edge.crosses_nesting or edge.fk_backed:
            continue
        pred = Compare(
            ColumnRef(edge.from_ref[0], edge.from_ref[1],
                      qg.node(edge.from_ref[0]).relation),
            edge.op,
            ColumnRef(edge.to_ref[0], edge.to_ref[1],
                      qg.node(edge.to_ref[0]).relation),
        )
        out.append(lexicalize_predicate(pred, graph, refs, heading=False))
    for node in qg.nodes:
        for pred in node.where_part:
            if id(pred) in refs.consumed_preds:
                continue
            out.append(lexicalize_predicate(pred, graph, refs))
    return out


def _translate_itemized(qg, graph, cls, notes, patterns=None) -> TranslationResult:
    refs = _References(qg, graph)
    motif_text = _match_user_pattern(qg, graph, patterns) if patterns else None
    items: list[str] = []
    if motif_text is not None:
        items.append(motif_text)
        notes = notes + ["user motif pattern applied"]
    else:
        consumed: set[int] = set()
        adj = _fk_adjacency(qg)
        for ref in _projection_refs(qg):
            owner = qg.node(ref.alias)
            attr = graph.attribute(owner.relation, ref.column)
            item = f"the {attr.noun_singular} of {refs.mention(ref.alias)}"
            for branch in _chains_from(qg, graph, adj, ref.alias, consumed):
                phrase, _ = _match_phrase(graph, qg, branch)
                if phrase is None:
                    continue
                text, premod = _render_phrase(phrase, graph, qg, refs, branch)
                if not premod:
                    item += f" {text}"
            items.append(item)
    items.extend(_leftover_conditions(qg, graph, refs))
    text = "Find " + ", and ".join(items)
    sort = _sort_phrase(qg, graph, refs)
    if sort:
        text += f", {sort}"
    return TranslationResult(text, "declarative", cls, notes)


# --- motif frames ---------------------------------------------------------

def _division_frame(qg, graph, motif) -> Optional[str]:
    """Full-sentence frame when the division covers the whole query."""
    if len(qg.nodes) != 1 or qg.joins or len(qg.nested) != 1:
        return None
    node = qg.nodes[0]
    if node.where_part or node.having_part or qg.order_note:
        return None
    heading = graph.relation(node.relation).heading_attribute
    for ref in _projection_refs(qg):
        # The frame speaks of whole entities; only heading projections fit.
        if ref.alias != node.alias or ref.attribute != heading:
            return None
    range_plural = graph.relation(motif.params["range"]).noun_plural
    divisor_plural = graph.relation(motif.params["divisor"]).noun_plural
    return f"Find {range_plural} that have all {divisor_plural}"


def _same_value_frame(qg, graph, motif) -> Optional[str]:
    """Find <group plural> whose <counted plural> are all in the same <attr>."""
    if qg.group_note is None:
        return None
    group_aliases = {alias for alias, _ in qg.group_note}
    if len(group_aliases) != 1:
        return None
    group_alias = next(iter(group_aliases))
    for ref in _projection_refs(qg):
        if ref.alias != group_alias:
            return None
    if any(n.where_part for n in qg.nodes) or qg.nested or qg.having_misc:
        return None
    if any(not e.fk_backed for e in qg.joins if not e.crosses_nesting):
        return None
    group_rel = graph.relation(qg.node(group_alias).relation)
    counted_rel = graph.relation(motif.params["relation"])
    attr = graph.attribute(motif.params["relation"], motif.params["attribute"])
    return (
        f"Find {group_rel.noun_plural} whose {counted_rel.noun_plural} "
        f"are all in the same {attr.noun_singular}"
    )


def superlative_word(graph: SchemaGraph, motif) -> str:
    attr = graph.attribute(motif.params["relation"], motif.params["attribute"])
    if attr.temporal:
        return "earliest" if motif.params["direction"] == "min" else "latest"
    return "smallest" if motif.params["direction"] == "min" else "largest"


# --- user-supplied motif patterns ----------------------------------------

def load_motif_patterns(source) -> list[dict]:
    """Optional pattern file: JSON list of {shape, phrase} entries."""
    if hasattr(source, "read"):
        doc = json.load(source)
    elif isinstance(source, str) and source.lstrip().startswith("["):
        doc = json.loads(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, list):
        raise MalformedDocument("motif pattern file must be a JSON list")
    for entry in doc:
        if "shape" not in entry or "phrase" not in entry:
            raise MalformedDocument("pattern entries need shape and phrase keys")
    return doc


def _match_user_pattern(qg, graph, patterns) -> Optional[str]:
    """Match {relation, count, via} shapes: N instances of one relation all
    reaching a shared instance of another, with heading projections."""
    for entry in patterns:
        shape_spec = entry["shape"]
        relation = graph.relation(shape_spec["relation"]).name
        count = shape_spec.get("count", 2)
        via = graph.relation(shape_spec["via"]).name
        instances = [n.alias for n in qg.nodes if n.relation == relation]
        hubs = [n.alias for n in qg.nodes if n.relation == via]
        if len(instances) != count or len(hubs) != 1:
            continue
        adj = _fk_adjacency(qg)
        hub = hubs[0]
        if not all(_reaches(adj, a, hub) for a in instances):
            continue
        heading = graph.relation(relation).heading_attribute
        proj = _projection_refs(qg)
        if len(proj) == count and all(
            r.attribute == heading and r.alias in instances for r in proj
        ):
            return entry["phrase"]
    return None


def _reaches(adj, start, goal) -> bool:
    seen = {start}
    stack = [start]
    while stack:
        for _, nxt in adj[stack.pop()]:
            if nxt == goal:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# --- procedural fallback ---------------------------------------------------

def translate_procedural(
    qg: QueryGraph, graph: SchemaGraph, cls: Optional[QueryClass] = None
) -> TranslationResult:
    """Numbered imperative steps; total on every buildable query graph."""
    refs = _References(qg, graph)
    steps: list[str] = []
    consumed_edges: set[int] = set()

    placed: list[str] = []
    pending: list[str] = []  # follow-phrases accumulated for one step

    def flush_follow():
        if pending:
            steps.append("For each " + ", and for each ".join(pending) + ".")
            pending.clear()

    for node in qg.nodes:
        link = _fk_link(qg, node.alias, placed, consumed_edges)
        if link is None:
            flush_follow()
            steps.append(
                f"Consider each {refs.noun(node.alias)} ({node.alias})."
            )
        else:
            edge, prev = link
            consumed_edges.add(id(edge))
            prev_noun = refs.noun(prev)
            rel = graph.relation(qg.node(node.alias).relation)
            if pending:
                pending.append(
                    f"{prev_noun}, its {rel.noun_plural} ({node.alias})"
                )
            else:
                pending.append(
                    f"{prev_noun}, bring in its {rel.noun_plural} ({node.alias})"
                )
        placed.append(node.alias)
    flush_follow()

    for edge in qg.joins:
        if edge.crosses_nesting or id(edge) in consumed_edges:
            continue
        pred = Compare(
            ColumnRef(edge.from_ref[0], edge.from_ref[1],
                      qg.node(edge.from_ref[0]).relation),
            edge.op,
            ColumnRef(edge.to_ref[0], edge.to_ref[1],
                      qg.node(edge.to_ref[0]).relation),
        )
        steps.append(
            f"Keep combinations where "
            f"{lexicalize_predicate(pred, graph, refs, heading=False)}."
        )

    for node in qg.nodes:
        for pred in node.where_part:
            steps.append(
                f"Keep combinations where "
                f"{lexicalize_predicate(pred, graph, refs, heading=False)}."
            )
    for entry in qg.nested:
        if entry.site == "where":
            steps.append(
                f"Keep combinations where "
                f"{_nested_phrase(entry, qg, graph, refs)}."
            )

    if qg.group_note:
        cols = [
            f"the {graph.attribute(qg.node(a).relation, c).noun_singular} "
            f"of {refs.in_predicate(a)}"
            for a, c in qg.group_note
        ]
        steps.append(f"Group the combinations by {_listed(cols)}.")
    for node in qg.nodes:
        for pred in node.having_part:
            steps.append(
                f"Keep groups where "
                f"{lexicalize_predicate(pred, graph, refs, heading=False)}."
            )
    for pred in qg.having_misc:
        steps.append(
            f"Keep groups where "
            f"{lexicalize_predicate(pred, graph, refs, heading=False)}."
        )
    for entry in qg.nested:
        if entry.site == "having":
            steps.append(
                f"Keep groups where {_nested_phrase(entry, qg, graph, refs)}."
            )

    if qg.order_note:
        cols = [
            f"the {graph.attribute(qg.node(a).relation, c).noun_singular} "
            f"of {refs.in_predicate(a)} ({'descending' if d == 'desc' else 'ascending'})"
            for a, c, d in qg.order_note
        ]
        steps.append(f"Sort the results by {_listed(cols)}.")

    report = [_report_phrase(item, graph, refs, qg) for item in qg.projections]
    steps.append(f"Report {_listed(report)}.")

    text = "\n".join(f"{i}. {s}" for i, s in enumerate(steps, start=1))
    return TranslationResult(text, "procedural", cls or classify(qg), [])


def _fk_link(qg, alias, placed, consumed):
    for edge in qg.joins:
        if edge.crosses_nesting or not edge.fk_backed or id(edge) in consumed:
            continue
        a, b = edge.from_ref[0], edge.to_ref[0]
        if alias == a and b in placed:
            return edge, b
        if alias == b and a in placed:
            return edge, a
    return None


def _report_phrase(item: SelectItem, graph, refs, qg) -> str:
    expr = item.expr
    if isinstance(expr, ColumnRef):
        attr = graph.attribute(expr.relation, expr.column)
        return f"the {attr.noun_singular} of {refs.in_predicate(expr.alias)}"
    if isinstance(expr, CountStar):
        return "the number of rows in each group"
    if isinstance(expr, CountDistinct):
        return _operand_phrase(expr, graph, refs)
    if isinstance(expr, Star):
        return "every column"
    if isinstance(expr, Constant):
        return str(expr.value)
    return expr.render()


def _nested_phrase(entry, qg, graph, refs) -> str:
    """Word a nested predicate, inlining the child query."""
    pred = entry.predicate
    child = entry.child
    motifs = rewriter.detect_motifs(qg)
    if entry.connector == "compare_all":
        for motif in motifs:
            if motif.kind == "SuperlativeAll" and isinstance(pred, CompareAll):
                lhs = _operand_phrase(pred.lhs, graph, refs)
                word = superlative_word(graph, motif)
                attr = graph.attribute(
                    motif.params["relation"], motif.params["attribute"]
                )
                return f"{lhs} is the {word} such {attr.noun_singular}"
        lhs = _operand_phrase(pred.lhs, graph, refs)
        return (
            f"{lhs} {LEXICON[pred.op]} every value from "
            f"{_inline_child(child, graph)}"
        )
    if entry.connector == "in":
        needle = _operand_phrase(pred.column, graph, refs)
        return f"{needle} is among {_inline_child(child, graph)}"
    if entry.connector == "exists":
        return f"at least one row exists in {_inline_child(child, graph)}"
    if entry.connector == "not_exists":
        return f"no row exists in {_inline_child(child, graph)}"
    if entry.connector == "compare_scalar":
        lhs = pred.lhs
        rhs = pred.rhs
        if isinstance(rhs, ScalarSubquery):
            left = _operand_phrase(lhs, graph, refs)
            return f"{left} {LEXICON[pred.op]} {_scalar_child(rhs.query, child, graph, refs)}"
        left = _scalar_child(lhs.query, child, graph, refs)
        return f"{left} {LEXICON[pred.op]} {_operand_phrase(rhs, graph, refs)}"
    return f"a nested condition holds over {_inline_child(child, graph)}"


def _scalar_child(query, child: QueryGraph, graph, outer_refs) -> str:
    """Correlated count(*) scalars read as "the number of X for which ..."."""
    if (
        len(child.nodes) == 1
        and len(query.select_items) == 1
        and isinstance(query.select_items[0].expr, CountStar)
    ):
        node = child.nodes[0]
        rel = graph.relation(node.relation)
        refs = _child_refs(child, graph, outer_refs)
        conditions = []
        for edge in child.joins:
            pred = Compare(
                ColumnRef(edge.from_ref[0], edge.from_ref[1], node.relation),
                edge.op,
                ColumnRef(
                    edge.to_ref[0],
                    edge.to_ref[1],
                    _target_relation(child, outer_refs.qg, edge.to_ref[0]),
                ),
            )
            conditions.append(lexicalize_predicate(pred, graph, refs, heading=False))
        for pred in node.where_part:
            conditions.append(lexicalize_predicate(pred, graph, refs, heading=False))
        if conditions:
            return f"the number of {rel.noun_plural} for which {_listed(conditions, 'and')}"
        return f"the number of {rel.noun_plural}"
    return f"the single value produced by {_inline_child(child, graph)}"


def _child_refs(child, graph, outer_refs) -> _References:
    merged = QueryGraph()
    merged.nodes = list(child.nodes) + list(outer_refs.qg.nodes)
    refs = _References(merged, graph)
    refs.mentioned |= outer_refs.mentioned
    return refs


def _target_relation(child, outer_qg, alias):
    node = child.node(alias) or outer_qg.node(alias)
    return node.relation if node else None


def _inline_child(child: QueryGraph, graph) -> str:
    inner = translate_procedural(child, graph)
    steps = []
    for line in inner.text.split("\n"):
        step = line.split(". ", 1)[1] if ". " in line else line
        step = step.rstrip(".")
        steps.append(step[:1].lower() + step[1:])
    return "(" + "; ".join(steps) + ")"


# --- top-level dispatch -----------------------------------------------------

def translate(
    qg: QueryGraph,
    graph: SchemaGraph,
    cls: Optional[QueryClass] = None,
    motif_patterns: Optional[list] = None,
) -> TranslationResult:
    """Dispatch on the taxonomy class; never returns empty text."""
    if cls is None:
        cls = classify(qg)
    label = cls.label
    notes: list[str] = []

    if label == "NestedFlattenable":
        flat_ast = rewriter.flatten(copy.deepcopy(qg.query))
        flat_qg = qgraph.build(flat_ast, graph)
        notes.append("uncorrelated IN nesting flattened before translation")
        inner = translate(flat_qg, graph, motif_patterns=motif_patterns)
        return TranslationResult(inner.text, inner.style, cls, notes + inner.notes)

    if label in ("Path", "Subgraph", "GraphCyclic", "GraphMultiInstance"):
        report = qgraph.shape(qg)
        if report.multi_instance:
            return _translate_itemized(qg, graph, cls, notes, motif_patterns)
        return _translate_root_np(qg, graph, cls, notes)

    motifs = rewriter.detect_motifs(qg)
    if label == "NestedGeneral":
        for motif in motifs:
            if motif.kind == "Division":
                text = _division_frame(qg, graph, motif)
                if text is not None:
                    notes.append("relational division (for-all) pattern")
                    return TranslationResult(text, "declarative", cls, notes)
        result = translate_procedural(qg, graph, cls)
        return TranslationResult(result.text, "procedural", cls, notes)

    if label == "HigherOrder":
        notes.append(HIGHER_ORDER_NOTE)
        for motif in motifs:
            if motif.kind == "SameValue":
                text = _same_value_frame(qg, graph, motif)
                if text is not None:
                    notes.append('count(distinct ...) = 1 read as "all in the same"')
                    return TranslationResult(text, "declarative", cls, notes)
            if motif.kind == "SuperlativeAll":
                word = superlative_word(graph, motif)
                notes.append(f'comparison with ALL read as "{word}"')
        result = translate_procedural(qg, graph, cls)
        return TranslationResult(result.text, "procedural", cls, notes)

    # Aggregate and anything unforeseen: procedural is total.
    result = translate_procedural(qg, graph, cls)
    if label == "Aggregate":
        notes.append("aggregate query rendered procedurally")
    return TranslationResult(result.text, "procedural", cls, notes)
