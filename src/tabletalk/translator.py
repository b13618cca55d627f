"""Renders classified query graphs into English.

Two declarative pipelines share the traversal machinery: single-instance
queries build one root noun phrase and hang branch phrases off it; when a
relation appears under several tuple variables the output itemizes each
projection with instance-aware references ("an actor", "another actor",
"the first actor").  Aggregates and general nesting fall back to numbered
procedural steps, so every parseable query yields text.
"""

from __future__ import annotations

import re

from . import query_graph as qgraph
from . import rewriter, templates
from .ast_nodes import (
    ColumnRef,
    Compare,
    Constant,
    CountDistinct,
    CountStar,
    FromItem,
    Star,
    expr_ref,
    pred_refs,
)
from .classifier import QueryClass, classify
from .query_graph import QueryGraph
from .record import Record, field
from .schema import SUBJECT_SLOT, SchemaGraph
from .templates import Placeholder, listed

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

# The article follows the first sound, not the first letter: a vowel letter
# read /ju/ or /w/ ("a user", "a one") and a silent h ("an hour").
_VOWEL_SOUND = re.compile(
    r"(?!uni([^nmd]|mo)|u[bcfghjkqrst][aeiou]|e[uw]|onc?e\b)[aeiou]"
    r"|hour|heir|honest|hono"
)


class TranslationResult(Record):
    text: str
    style: str  # declarative | procedural
    class_used: QueryClass | None
    notes: list[str] = field(factory=list)


def _indefinite(noun: str) -> str:
    article = "an" if _VOWEL_SOUND.match(noun.lower()) else "a"
    return f"{article} {noun}"


def _ordinal(i: int) -> str:
    if i <= len(_ORDINALS):
        return _ORDINALS[i - 1]
    if i % 100 in (11, 12, 13):
        return f"{i}th"
    return f"{i}{_SUFFIXES.get(i % 10, 'th')}"


class _References:
    """Referring expressions with instance counts and mention history.

    A tuple variable is named by its alias and the number of query blocks
    out it is bound, a column reference's `level`.  `outer` is the state of
    the enclosing block.  Ordinals ("the second movie") number one
    relation's tuple variables in this block and the enclosing ones
    together, as one FROM list with this block's first.
    """

    def __init__(self, qg: QueryGraph, graph: SchemaGraph, outer: _References | None = None):
        self.qg = qg
        self.graph = graph
        self.outer = outer
        counts: dict[str, int] = {}
        self.index: dict[tuple, tuple] = {}  # (level, alias) -> (relation, ordinal)
        level, refs = 0, self
        while refs is not None:
            for item in refs.qg.query.from_items:
                counts[item.canonical] = counts.get(item.canonical, 0) + 1
                self.index[level, item.alias] = item.canonical, counts[item.canonical]
            level, refs = level + 1, refs.outer
        self.counts = counts
        self.mentioned: set[str] = set()
        self.said: set[int] = set()  # the `qg.conjuncts` indices the text has said

    def noun(self, alias: str) -> str:
        return self.graph.relation(self.index[0, alias][0]).noun_singular

    def bound_value(self, alias: str, attribute: str | None = None) -> str | None:
        """The constant that the first WHERE conjunct binding `alias`'s
        `attribute` (by default its heading) names, marking it said."""
        if attribute is None:
            attribute = self.graph.relation(self.index[0, alias][0]).heading_attribute
        for i, entry in enumerate(self.qg.conjuncts):
            if entry.owner == alias and entry.site == "where" and _binds(entry.pred, attribute):
                self.said.add(i)
                return str(entry.pred.rhs.value)
        return None

    def mention(self, alias: str) -> str:
        """Narrative-flow reference: a movie / another actor / the movie."""
        value = self.bound_value(alias)
        if value is not None:
            self.mentioned.add(alias)
            return f"the {self.noun(alias)} {value}"
        if alias in self.mentioned:
            return self.in_predicate(alias)
        self.mentioned.add(alias)
        relation, ordinal = self.index[0, alias]
        noun = self.graph.relation(relation).noun_singular
        if self.counts[relation] > 1 and ordinal > 1:
            return f"another {noun}"
        return _indefinite(noun)

    def in_predicate(self, alias: str, level: int = 0) -> str:
        """Reference inside a comparison: ordinals whenever ambiguous."""
        self.mentioned.add(alias)
        relation, ordinal = self.index[level, alias]
        noun = self.graph.relation(relation).noun_singular
        if self.counts[relation] > 1:
            return f"the {_ordinal(ordinal)} {noun}"
        return f"the {noun}"


def _plain_refs(graph: SchemaGraph, pred) -> _References:
    """Reference state for standalone predicate lexicalization: one block
    state for each level the predicate's references are bound at."""
    blocks: dict[int, QueryGraph] = {}
    for ref in pred_refs(pred):
        qg = blocks.setdefault(ref.level, QueryGraph())
        if ref.alias and qg.node(ref.alias) is None and ref.relation:
            qg.query.from_items.append(FromItem(ref.relation, ref.alias, ref.relation))
    refs = None
    for level in range(max(blocks, default=0), -1, -1):
        refs = _References(blocks.get(level, QueryGraph()), graph, refs)
    return refs


def _binds(pred, attribute: str) -> bool:
    """`pred` is `column = constant` with its column on `attribute`."""
    return (
        isinstance(pred, Compare)
        and pred.op == "="
        and isinstance(pred.lhs, ColumnRef)
        and isinstance(pred.rhs, Constant)
        and pred.lhs.attribute == attribute
    )


# --- predicate lexicalization -------------------------------------------

def lexicalize_predicate(
    pred, graph: SchemaGraph, refs: _References | None = None, heading=True
) -> str:
    """Word one comparison predicate.

    With `heading` set, an equality between a relation's heading attribute
    and a constant collapses to "the <noun> <value>" (the actor Brad
    Pitt); otherwise the comparison is spelled out via the lexicon.
    """
    if refs is None:
        refs = _plain_refs(graph, pred)
    if isinstance(pred, Compare):
        if heading and isinstance(pred.lhs, ColumnRef):
            node = refs.qg.node(pred.lhs.alias)
            if node is not None:
                rel = graph.relation(node.canonical)
                if _binds(pred, rel.heading_attribute):
                    return f"the {rel.noun_singular} {pred.rhs.value}"
        lhs = _operand_phrase(pred.lhs, graph, refs)
        rhs = _operand_phrase(pred.rhs, graph, refs)
        return f"{lhs} {LEXICON[pred.op]} {rhs}"
    raise ValueError(f"cannot lexicalize {pred!r}")


def _operand_phrase(expr, graph, refs) -> str:
    if isinstance(expr, Constant):
        return str(expr.value)
    if isinstance(expr, ColumnRef):
        return _attribute_phrase(
            graph, refs, expr.alias, expr.relation, expr.column, expr.level
        )
    if isinstance(expr, CountStar):
        if refs.qg.query.group_by:
            return "the number of rows in each group"
        return "the number of combinations"
    if isinstance(expr, CountDistinct):
        col = expr.column
        attr = graph.attribute(col.relation, col.column)
        return (
            f"the number of distinct {attr.noun_plural} of "
            f"{refs.in_predicate(col.alias, col.level)}"
        )
    raise ValueError(f"cannot word operand {expr!r}")


def _attribute_phrase(graph, refs, alias, relation, column, level=0) -> str:
    """"the <attribute> of <tuple variable>", as in "the title of the movie"."""
    attr = graph.attribute(relation, column)
    return f"the {attr.noun_singular} of {refs.in_predicate(alias, level)}"


# --- branch discovery ----------------------------------------------------

def _fk_adjacency(qg: QueryGraph):
    """Each alias's FK-backed joins, as (conjunct index, other alias)."""
    adj: dict[str, list] = {item.alias: [] for item in qg.query.from_items}
    for i, entry in enumerate(qg.conjuncts):
        if entry.kind == "join" and entry.fk_backed:
            a, b = entry.ends
            adj[a].append((i, b))
            adj[b].append((i, a))
    return adj


def _is_relay(qg: QueryGraph, alias: str) -> bool:
    for entry in qg.conjuncts:
        own_condition = entry.kind == "join" and not entry.fk_backed  # no FK phrase says it
        if entry.owner == alias or own_condition and alias in entry.ends:
            return False
    for item in qg.query.select_items:
        ref = expr_ref(item.expr)
        if ref and ref.alias == alias and not ref.level:
            return False
    return True


def _at_route_end(qg, graph, chain) -> bool:
    relations = [qg.node(a).canonical for a in chain]
    return any(phrase.route == relations for phrase in graph.phrases)


def _chains(qg, graph, adj, start: str, claimed: set, claim) -> list[list[str]]:
    """Alias chains from one node: each runs through relay nodes and stops
    at a declared phrase route, an informative node, or a fan-out.

    A step over (edge, node) is taken only if `claim(edge, node)` is not in
    `claimed` yet, and taking it adds that key: the root-NP pipeline claims
    nodes, the itemized one edges, so each projection keeps its own branch.
    """
    chains = []
    for edge, nxt in adj[start]:
        if claim(edge, nxt) in claimed:
            continue
        claimed.add(claim(edge, nxt))
        chain = [start, nxt]
        tail = nxt
        while _is_relay(qg, tail) and not _at_route_end(qg, graph, chain):
            onward = [(e, n) for e, n in adj[tail] if claim(e, n) not in claimed]
            if len(onward) != 1:
                break
            edge2, nxt2 = onward[0]
            claimed.add(claim(edge2, nxt2))
            chain.append(nxt2)
            tail = nxt2
        chains.append(chain)
    return chains


def _match_phrase(graph: SchemaGraph, qg: QueryGraph, chain: list[str]):
    """Longest declared phrase whose route prefixes this chain's relations."""
    relations = [qg.node(a).canonical for a in chain]
    matches = [p for p in graph.phrases if relations[: len(p.route)] == p.route]
    return max(matches, key=lambda p: len(p.route), default=None)  # first longest


def _branch_informative(qg: QueryGraph, chain: list[str]) -> bool:
    """A branch earns a phrase only if it constrains the result."""
    tail = chain[1:]
    for entry in qg.conjuncts:
        if entry.owner in tail and entry.site == "where":
            return True
    return False


def _render_phrase(phrase, graph, qg, refs, chain: list[str]):
    """Instantiate a translation phrase; returns (text, is_premodifier)."""
    by_relation = {}
    for alias in chain:
        by_relation.setdefault(qg.node(alias).canonical, alias)
    premod = False
    out = []
    for part in graph.compiled[phrase.text].parts:
        if isinstance(part, templates.Literal):
            out.append(part.text)
        elif isinstance(part, Placeholder):
            if part.alias == SUBJECT_SLOT:
                premod = True
                continue
            alias = by_relation[part.alias]  # load puts it on the route
            if part.attribute is None:
                out.append(refs.mention(alias))
            else:
                out.append(_attribute_slot(graph, refs, alias, part.attribute))
    text = "".join(out).strip()
    return text, premod


def _attribute_slot(graph, refs, alias, attribute) -> str:
    """A {REL.attr} slot: the constant bound to it if any, else a phrase."""
    value = refs.bound_value(alias, attribute)
    if value is None:
        return _attribute_phrase(graph, refs, alias, refs.qg.node(alias).canonical, attribute)
    return value


# --- declarative pipelines ------------------------------------------------

def _selected_columns(qg: QueryGraph) -> list[ColumnRef]:
    return [
        item.expr for item in qg.query.select_items if isinstance(item.expr, ColumnRef)
    ]


def _pick_root(qg: QueryGraph, graph: SchemaGraph) -> str:
    owners = [ref.alias for ref in _selected_columns(qg)]
    if not owners:
        return qg.query.from_items[0].alias
    return max(owners, key=lambda a: graph.relation(qg.node(a).canonical).weight)


def _translate_root_np(qg, graph, cls, notes) -> TranslationResult:
    refs = _References(qg, graph)
    root = _pick_root(qg, graph)
    root_rel = graph.relation(qg.node(root).canonical)

    proj_phrases = []
    for ref in _selected_columns(qg):
        attr = graph.attribute(ref.relation, ref.attribute)
        if ref.alias == root:
            proj_phrases.append(attr.noun_plural)
        elif ref.attribute == (owner_rel := graph.relation(ref.relation)).heading_attribute:
            proj_phrases.append(owner_rel.noun_plural)
        else:
            proj_phrases.append(f"{attr.noun_plural} of {owner_rel.noun_plural}")

    premods: list[str] = []
    postmods: list[str] = []
    visited = {root}
    adj = _fk_adjacency(qg)
    queue = [root]  # breadth-first: each chain's last node is expanded in turn
    while queue:
        for chain in _chains(qg, graph, adj, queue.pop(0), visited, lambda e, n: n):
            queue.append(chain[-1])
            if not _branch_informative(qg, chain):
                continue
            phrase = _match_phrase(graph, qg, chain)
            if phrase is None:
                continue
            text, premod = _render_phrase(phrase, graph, qg, refs, chain)
            (premods if premod else postmods).append(text)

    head = refs.bound_value(root)
    if head is not None:
        core = " ".join(premods + [root_rel.noun_singular])
        np = f"the {core} {head}"
    else:
        np = " ".join(premods + [root_rel.noun_plural])
    refs.mentioned.add(root)

    refs.said.update(i for links in adj.values() for i, _ in links)  # the noun phrase implies them
    conditions = _conditions(qg, graph, refs, heading=True)
    opening = "Find"
    if proj_phrases:
        opening += f" the {listed(proj_phrases)} of {np}"
    else:
        opening += f" {np}"
    pieces = [opening] + postmods
    if conditions:
        connector = "and" if postmods else "where"
        pieces.append(f"{connector} {listed(conditions)}")
    sort = _sort_phrase(qg, graph, refs)
    if sort:
        pieces.append(sort)
    return TranslationResult(" ".join(pieces), "declarative", cls, notes)


def _sort_phrase(qg, graph, refs) -> str:
    if not qg.query.order_by:
        return ""
    cols = [
        _operand_phrase(ref, graph, refs) + (" in descending order" if d == "desc" else "")
        for ref, d in qg.query.order_by
    ]
    return f"sorted by {listed(cols)}"


# The order in which a block's conjuncts are read out, by kind.
_READING = {"crossing": 0, "join": 1, "node": 2, "ownerless": 3, "outer": 4, "nested": 5}


def _conditions(qg, graph, refs, site="where", motifs=(), heading=False) -> list[str]:
    """Word each conjunct of `qg` at `site` that `refs.said` does not hold
    yet, and mark it said.  They are read by kind in `_READING` order, node
    ones in FROM order; a nested one is worded with the block's `motifs`."""
    entries = qg.conjuncts
    todo = [i for i, entry in enumerate(entries) if entry.site == site and i not in refs.said]
    if len(todo) > 1:
        place = {item.alias: k for k, item in enumerate(qg.query.from_items)}
        todo.sort(key=lambda i: (_READING.get(entries[i].kind, 0), place.get(entries[i].owner, 0)))
    phrases = []
    for i in todo:
        entry = entries[i]
        if entry.kind == "nested":
            phrases.append(_nested_phrase(entry, motifs, graph, refs))
        elif entry.kind in _READING:
            phrases.append(lexicalize_predicate(entry.pred, graph, refs, heading))
        else:
            raise ValueError(f"unknown conjunct kind {entry.kind!r}")
        refs.said.add(i)
    return phrases


def _translate_itemized(qg, graph, cls, notes) -> TranslationResult:
    refs = _References(qg, graph)
    items: list[str] = []
    claimed: set[int] = set()
    adj = _fk_adjacency(qg)
    for ref in _selected_columns(qg):
        attr = graph.attribute(ref.relation, ref.attribute)
        item = f"the {attr.noun_singular} of {refs.mention(ref.alias)}"
        for chain in _chains(qg, graph, adj, ref.alias, claimed, lambda e, n: e):
            phrase = _match_phrase(graph, qg, chain)
            if phrase is None:
                continue
            text, premod = _render_phrase(phrase, graph, qg, refs, chain)
            if not premod:
                item += f" {text}"
        items.append(item)
    refs.said.update(i for links in adj.values() for i, _ in links)  # the noun phrase implies them
    items.extend(_conditions(qg, graph, refs, heading=True))
    text = "Find " + ", and ".join(items)
    sort = _sort_phrase(qg, graph, refs)
    if sort:
        text += f", {sort}"
    return TranslationResult(text, "declarative", cls, notes)


# --- motif frames ---------------------------------------------------------

def _division_frame(qg, graph, motif) -> str | None:
    """Full-sentence frame when the division covers the whole query."""
    nodes = qg.query.from_items
    if len(nodes) != 1 or [e.kind for e in qg.conjuncts] != ["nested"] or qg.query.order_by:
        return None
    node = nodes[0]
    heading = graph.relation(node.canonical).heading_attribute
    for ref in _selected_columns(qg):
        # The frame speaks of whole entities; only the heading may be selected.
        if ref.alias != node.alias or ref.attribute != heading:
            return None
    range_plural = graph.relation(motif.params["range"]).noun_plural
    divisor_plural = graph.relation(motif.params["divisor"]).noun_plural
    return f"Find {range_plural} that have all {divisor_plural}"


def _same_value_frame(qg, graph, motif) -> str | None:
    """Find <group plural> whose <counted plural> are all in the same <attr>."""
    groups = {(ref.alias, ref.relation) for ref in qg.query.group_by}
    if len(groups) != 1:
        return None
    [(group_alias, group_relation)] = groups
    for ref in _selected_columns(qg):
        if ref.alias != group_alias:
            return None
    others = [e for e in qg.conjuncts if not (e.kind == "join" and e.fk_backed)]
    if [(e.kind, e.site) for e in others] != [("node", "having")]:  # the motif's own only
        return None
    group_rel = graph.relation(group_relation)
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


# --- procedural fallback ---------------------------------------------------

def translate_procedural(
    qg: QueryGraph, graph: SchemaGraph, cls: QueryClass | None = None
) -> TranslationResult:
    """Numbered imperative steps; total on every buildable query graph.

    A given `cls` must come from `classify(qg)`: its motifs are reused.
    """
    steps = _procedural_steps(qg, graph, cls)
    text = "\n".join(f"{i}. {s}." for i, s in enumerate(steps, start=1))
    return TranslationResult(text, "procedural", cls, [])


def _procedural_steps(qg, graph, cls=None, outer=None) -> list[str]:
    """The imperative steps, in order, each without its final period;
    `outer` is the enclosing block's reference state for a nested block."""
    motifs = cls.motifs if cls is not None else rewriter.detect_motifs(qg)
    refs = _References(qg, graph, outer)
    steps: list[str] = []

    placed: list[str] = []
    pending: list[str] = []  # follow-phrases accumulated for one step

    def flush_follow():
        if pending:
            steps.append("For each " + ", and for each ".join(pending))
            pending.clear()

    adj = _fk_adjacency(qg)
    for node in qg.query.from_items:
        links = [(i, a) for i, a in adj[node.alias] if i not in refs.said and a in placed]
        if not links:
            flush_follow()
            steps.append(f"Consider each {refs.noun(node.alias)} ({node.alias})")
        else:
            i, prev = links[0]
            refs.said.add(i)
            rel = graph.relation(node.canonical)
            verb = "" if pending else "bring in "
            pending.append(f"{refs.noun(prev)}, {verb}its {rel.noun_plural} ({node.alias})")
        placed.append(node.alias)
    flush_follow()

    for c in _conditions(qg, graph, refs, "where", motifs):
        steps.append(f"Keep combinations where {c}")
    if qg.query.group_by:  # HAVING comes with GROUP BY only
        cols = [_operand_phrase(ref, graph, refs) for ref in qg.query.group_by]
        steps.append(f"Group the combinations by {listed(cols)}")
        for c in _conditions(qg, graph, refs, "having", motifs):
            steps.append(f"Keep groups where {c}")

    if qg.query.order_by:
        cols = [
            _operand_phrase(ref, graph, refs)
            + f" ({'descending' if d == 'desc' else 'ascending'})"
            for ref, d in qg.query.order_by
        ]
        steps.append(f"Sort the results by {listed(cols)}")

    report = [
        "every column" if isinstance(item.expr, Star)
        else _operand_phrase(item.expr, graph, refs)
        for item in qg.query.select_items
    ]
    steps.append(f"Report {listed(report)}")
    return steps


def _nested_phrase(entry, motifs, graph, refs) -> str:
    """Word a nested predicate, inlining the child query."""
    pred, child = entry.pred, entry.child
    if entry.connector == "compare_all":
        lhs = _operand_phrase(pred.lhs, graph, refs)
        for motif in motifs:
            if motif.kind == "SuperlativeAll" and motif.entry is entry:
                word = superlative_word(graph, motif)
                attr = graph.attribute(
                    motif.params["relation"], motif.params["attribute"]
                )
                return f"{lhs} is the {word} such {attr.noun_singular}"
        return (
            f"{lhs} {LEXICON[pred.op]} every value from "
            f"{_inline_child(child, graph, refs)}"
        )
    if entry.connector == "in":
        needle = _operand_phrase(pred.column, graph, refs)
        return f"{needle} is among {_inline_child(child, graph, refs)}"
    if entry.connector == "exists":
        return f"at least one row exists in {_inline_child(child, graph, refs)}"
    if entry.connector == "not_exists":
        return f"no row exists in {_inline_child(child, graph, refs)}"
    if entry.connector == "compare_scalar":  # the parser puts the subquery on the right
        left, right = _operand_phrase(pred.lhs, graph, refs), _scalar_child(child, graph, refs)
        return f"{left} {LEXICON[pred.op]} {right}"
    raise ValueError(f"unknown nesting connector {entry.connector!r}")


def _scalar_child(child: QueryGraph, graph, outer_refs) -> str:
    """A count(*) over one relation that does not group reads "the number
    of X for which ..."; any other scalar child is inlined."""
    query = child.query
    if (
        len(query.from_items) == 1
        and not query.group_by
        and len(query.select_items) == 1
        and isinstance(query.select_items[0].expr, CountStar)
    ):
        rel = graph.relation(query.from_items[0].canonical)
        refs = _References(child, graph, outer_refs)
        conditions = _conditions(child, graph, refs, "where", rewriter.detect_motifs(child))
        if conditions:
            return f"the number of {rel.noun_plural} for which {listed(conditions)}"
        return f"the number of {rel.noun_plural}"
    return f"the single value produced by {_inline_child(child, graph, outer_refs)}"


def _inline_child(child: QueryGraph, graph, outer_refs) -> str:
    steps = _procedural_steps(child, graph, outer=outer_refs)
    return "(" + "; ".join(s[:1].lower() + s[1:] for s in steps) + ")"


# --- top-level dispatch -----------------------------------------------------

def translate(
    qg: QueryGraph, graph: SchemaGraph, cls: QueryClass | None = None
) -> TranslationResult:
    """Dispatch on the taxonomy class; never returns empty text.

    A given `cls` must come from `classify(qg)`: its motifs are reused, and
    the join-graph pipelines read the shape it carries (`cls.shape`)
    rather than work it out again.
    """
    if cls is None:
        cls = classify(qg)
    label = cls.label
    notes: list[str] = []

    if label == "NestedFlattenable":
        flat_ast = rewriter.flatten(qg.query)
        flat_qg = qgraph.build(flat_ast, graph)
        notes.append("uncorrelated IN nesting flattened before translation")
        inner = translate(flat_qg, graph)
        return TranslationResult(inner.text, inner.style, cls, notes + inner.notes)

    if label in ("Path", "Subgraph", "GraphCyclic", "GraphMultiInstance"):
        if cls.shape.multi_instance:
            return _translate_itemized(qg, graph, cls, notes)
        return _translate_root_np(qg, graph, cls, notes)

    if label == "NestedGeneral":
        for motif in cls.motifs:
            if motif.kind == "Division":
                text = _division_frame(qg, graph, motif)
                if text is not None:
                    notes.append("relational division (for-all) pattern")
                    return TranslationResult(text, "declarative", cls, notes)
    elif label == "HigherOrder":
        notes.append(HIGHER_ORDER_NOTE)
        for motif in cls.motifs:
            if motif.kind == "SameValue":
                text = _same_value_frame(qg, graph, motif)
                if text is not None:
                    notes.append('count(distinct ...) = 1 read as "all in the same"')
                    return TranslationResult(text, "declarative", cls, notes)
            if motif.kind == "SuperlativeAll":
                word = superlative_word(graph, motif)
                notes.append(f'comparison with ALL read as "{word}"')
    elif label == "Aggregate":
        notes.append("aggregate query rendered procedurally")
    # Every class without a declarative frame ends here: procedural is total.
    result = translate_procedural(qg, graph, cls)
    return TranslationResult(result.text, "procedural", cls, notes)
