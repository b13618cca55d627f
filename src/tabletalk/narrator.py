"""Turns schema-graph traversals over loaded data into English paragraphs.

The narrator starts from a central relation, follows join annotations
(edge templates, and relay paths whose interior relations contribute no
text), and realizes each step either declaratively (one fused clause per
step, list loops inline) or procedurally (a simple sentence per
tuple-attribute fact).  The entity narrated is the top-ranked tuple of
the start relation; joined relations are capped by the tuple budget,
and a negative budget counts as 0.

One breadth-first traversal feeds pattern detection, the mode choice
and the walk.  The walk follows single steps from the start; a split
realizes its branches and ends the walk, so relations beyond it are not
narrated, though they count in `detect_patterns` and `fallback_mode`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple, Optional

from . import templates
from .data import Database, RankSpec, Row, follow_join, rank_rows, select_tuples
from .errors import UnknownStart
from .schema import SchemaGraph
from .templates import Clause, common_prefix, listed, tokenize, trim_articles

TERMINALS = (".", "!", "?")


@dataclass
class NarrationPlan:
    start_relation: Optional[str] = None  # default: heaviest relation
    mode: str = "auto"  # declarative | procedural | auto
    tuple_budget: int = 3
    rank: Optional[RankSpec] = None
    relation_filter: Optional[frozenset] = None


@dataclass
class PatternInstance:
    kind: str  # unary | join | split
    relations: list[str]
    relay: Optional[str] = None
    relays: list[str] = field(default_factory=list)


@dataclass
class Narrative:
    sentences: list[str]
    mode_used: str
    diagnostics: list[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


@dataclass
class _Step:
    """One narratable traversal hop: source relation to target relation."""

    source: str
    target: str
    hops: list  # [(JoinEdge, next_relation), ...] in traversal order
    template: Optional[str]
    procedural_template: Optional[str] = None
    relative_clause: Optional[str] = None

    @property
    def relays(self) -> list[str]:
        return [rel for _, rel in self.hops[:-1]]


class _Visit(NamedTuple):
    """A traversal node; fresh steps reach new relations, back steps old ones."""

    node: str
    fresh: list
    back: list


@dataclass
class _Plan:
    """A NarrationPlan with every name resolved to its declared spelling."""

    start: str
    tuple_budget: int
    allowed: Optional[frozenset]  # None: every relation
    ranks: dict  # relation -> RankSpec; relations lacking the attribute absent


def _resolve(graph: SchemaGraph, plan: NarrationPlan) -> _Plan:
    if plan.start_relation is not None:
        rel = graph.find_relation(plan.start_relation)
        if rel is None:
            raise UnknownStart(f"unknown start relation {plan.start_relation!r}")
        start = rel.name
    elif not graph.relations:
        raise UnknownStart("schema graph has no relations")
    else:
        start = max(graph.relations, key=lambda r: r.weight).name
    allowed = None
    if plan.relation_filter is not None:
        found = map(graph.find_relation, plan.relation_filter)
        allowed = frozenset(rel.name for rel in found if rel is not None)
    # Plan-level ranking skips relations that lack the rank attribute.
    ranks = {}
    rank = plan.rank
    if rank is not None and rank.attribute is not None:
        found = (graph.find_attribute(r.name, rank.attribute) for r in graph.relations)
        ranks = {a.relation: RankSpec(a.name, rank.descending) for a in found if a}
    return _Plan(start, plan.tuple_budget, allowed, ranks)


def _steps_from(graph: SchemaGraph, relation: str) -> list[_Step]:
    """Narration steps leaving `relation`: templated edges and relay paths."""
    steps = []
    for edge in graph.joins:
        if edge.from_relation == relation and edge.template:
            steps.append(
                _Step(
                    source=relation,
                    target=edge.to_relation,
                    hops=[(edge, edge.to_relation)],
                    template=edge.template,
                    procedural_template=edge.procedural_template,
                    relative_clause=edge.relative_clause_template,
                )
            )
    for path in graph.join_paths:
        if path.path and path.path[0] == relation and path.template:
            hops = []
            for a, b in zip(path.path, path.path[1:]):
                hops.append((graph.joins_between(a, b)[0], b))
            steps.append(
                _Step(
                    source=relation,
                    target=path.path[-1],
                    hops=hops,
                    template=path.template,
                    procedural_template=path.procedural_template,
                )
            )
    return steps


def _traversal(graph: SchemaGraph, plan: _Plan) -> list[_Visit]:
    """Breadth-first over the narration steps from the start, in visit order."""
    out = []
    visited = {plan.start}
    frontier = [plan.start]
    while frontier:
        node = frontier.pop(0)
        fresh, back = [], []
        for step in _steps_from(graph, node):
            if plan.allowed is None or step.target in plan.allowed:
                (back if step.target in visited else fresh).append(step)
                # Claimed at once: a second step into it, even from this node, is back.
                visited.add(step.target)
        out.append(_Visit(node, fresh, back))
        frontier.extend(step.target for step in fresh)
    return out


def detect_patterns(graph: SchemaGraph, plan: NarrationPlan) -> list[PatternInstance]:
    """Walk narration steps from the start; report unary/split/join shapes."""
    out: list[PatternInstance] = []
    for node, fresh, back in _traversal(graph, _resolve(graph, plan)):
        for step in back:
            out.append(PatternInstance("join", [node, step.target], None, step.relays))
        if len(fresh) >= 2:
            out.append(
                PatternInstance(
                    "split",
                    [node] + [s.target for s in fresh],
                    None,
                    [r for s in fresh for r in s.relays],
                )
            )
        elif len(fresh) == 1:
            step = fresh[0]
            out.append(
                PatternInstance(
                    "unary",
                    [node, step.target],
                    step.relays[0] if step.relays else None,
                    step.relays,
                )
            )
    return out


def fallback_mode(graph: SchemaGraph, plan: NarrationPlan) -> str:
    """Heuristic mode choice: declarative unless a relation on the traversal
    needs more than two attribute clauses (and has no long template), or a
    split hub fuses more than two branches."""
    return _fallback_mode(graph, _traversal(graph, _resolve(graph, plan)))


def _fallback_mode(graph: SchemaGraph, traversal: list[_Visit]) -> str:
    if any(len(visit.fresh) > 2 for visit in traversal):
        return "procedural"
    for name, _, _ in traversal:
        rel = graph.relation(name)
        keys = graph.key_attributes(name)
        clause_attrs = [
            a
            for a in graph.attributes_of(name)
            if not a.is_heading and a.name not in keys
        ]
        if len(clause_attrs) > 2 and not rel.long_template:
            return "procedural"
    return "declarative"


def narrate(graph: SchemaGraph, db: Database, plan: NarrationPlan) -> Narrative:
    rplan = _resolve(graph, plan)
    traversal = _traversal(graph, rplan)
    mode = plan.mode if plan.mode != "auto" else _fallback_mode(graph, traversal)
    start = rplan.start
    diagnostics: list[str] = []
    sentences: list[str] = []
    rows = select_tuples(db, start, 1, rplan.ranks.get(start))
    if not rows:
        return Narrative([], mode, [f"relation {start} has no rows to narrate"])
    entity = rows[0]

    for clause in _relation_clauses(graph, start, entity, mode):
        sentences.append(_finish(clause))

    _walk(graph, db, rplan, mode, traversal, [entity], sentences, diagnostics)
    return Narrative(sentences, mode, diagnostics)


def _fill(graph: SchemaGraph, text: str, bindings: dict) -> str:
    """Instantiate a schema template from its load-time compilation."""
    return templates.instantiate(graph.compiled[text], bindings, graph)


def _relation_clauses(graph, relation, row, mode) -> list[str]:
    """Clauses describing one tuple of a relation, merged on shared prefixes."""
    rel = graph.relation(relation)
    if mode == "declarative" and rel.long_template:
        return [_fill(graph, rel.long_template, {rel.name: [row]})]
    clause_texts = _attribute_clauses(graph, relation, row)
    if not clause_texts:
        if rel.short_template:
            return [_fill(graph, rel.short_template, {rel.name: [row]})]
        return []
    subject = row.cell(rel.heading_attribute)
    subject_text = "" if subject is None else str(subject)
    clauses = [Clause.from_text(t, subject_text) for t in clause_texts]
    return [c.text for c in templates.merge_common(clauses)]


def _attribute_clauses(graph, relation, row) -> list[str]:
    """Instantiated non-heading attribute templates, heaviest first."""
    ordered = sorted(
        enumerate(graph.attributes_of(relation)), key=lambda p: (-p[1].weight, p[0])
    )
    out = []
    for _, attr in ordered:
        if attr.is_heading:
            continue
        proj = graph.projection(relation, attr.name)
        if proj is None or proj.is_default:
            continue
        out.append(_fill(graph, proj.template, {relation: [row]}))
    return out


def _walk(graph, db, plan, mode, traversal, rows, sentences, diagnostics):
    for relation, steps, _ in traversal:
        if len(steps) > 1:
            _split(graph, db, plan, mode, relation, steps, rows, sentences, diagnostics)
        if len(steps) != 1:
            return
        step = steps[0]
        target_rows, bindings = _follow(db, plan, step, rows)
        if not target_rows:
            diagnostics.append(
                f"no {step.target} tuples reachable from {relation}; step skipped"
            )
            return
        text = _step_template(step, mode)
        if text:
            sentences.append(_finish(_fill(graph, text, bindings)))
        if mode == "procedural":
            for row in target_rows:
                for clause in _attribute_clauses(graph, step.target, row):
                    sentences.append(_finish(clause))
        rows = target_rows


def _split(graph, db, plan, mode, relation, steps, rows, sentences, diagnostics):
    """Realize every branch of a split and fuse them on the shared hub prefix."""
    branch_texts = []
    deferred = []
    hub = graph.relation(relation)
    subject = rows[0].cell(hub.heading_attribute) if rows else None
    for step in steps:
        target_rows, bindings = _follow(db, plan, step, rows)
        if not target_rows:
            diagnostics.append(
                f"no {step.target} tuples reachable from {relation}; branch skipped"
            )
            continue
        text = _step_template(step, mode)
        if not text:
            continue
        clause = _fill(graph, text, bindings)
        # Declarative mode folds branch content into a relative clause;
        # procedural mode spells it out as separate simple sentences.
        covered = False
        if step.relative_clause and mode == "declarative":
            clause += " " + _fill(graph, step.relative_clause, bindings)
            covered = True
        branch_texts.append(clause)
        if not covered:
            for row in target_rows:
                deferred.extend(_attribute_clauses(graph, step.target, row))
    fused = fuse_split(branch_texts, "" if subject is None else str(subject))
    if fused is not None:
        sentences.append(_finish(fused))
    else:
        sentences.extend(_finish(t) for t in branch_texts)
    sentences.extend(_finish(t) for t in deferred)


def _step_template(step: _Step, mode: str) -> Optional[str]:
    if mode == "procedural" and step.procedural_template:
        return step.procedural_template
    return step.template


def _follow(db, plan: _Plan, step: _Step, rows) -> tuple[list[Row], dict]:
    """The step's target tuples (ranked, within budget) and its bindings."""
    bindings = {step.source: rows}
    current = rows
    for edge, rel_name in step.hops:
        found = []
        seen = set()
        for row in current:
            for match in follow_join(db, edge, row):
                if id(match) not in seen:
                    seen.add(id(match))
                    found.append(match)
        # Relay relations are bound too in case a template mentions them.
        bindings.setdefault(rel_name, found)
        current = found
    target_rows = rank_rows(current, plan.ranks.get(step.target), plan.tuple_budget)
    bindings[step.target] = target_rows
    return target_rows, bindings


def fuse_split(texts: list[str], subject: str) -> Optional[str]:
    """Fuse split-branch clauses on their common hub prefix.

    Branches join with "and" (two) or an Oxford-comma list (three or
    more); the prefix never ends in a stranded article.  Returns None
    when the clauses share no prefix covering the hub subject.
    """
    if not texts:
        return None
    if len(texts) == 1:
        return texts[0]
    token_lists = [tokenize(t) for t in texts]
    prefix = trim_articles(reduce(common_prefix, token_lists))
    if not prefix:
        return None
    subject_tokens = tokenize(subject)
    if subject_tokens and not _contains(prefix, subject_tokens):
        return None
    remainders = [" ".join(toks[len(prefix):]) for toks in token_lists]
    if any(not r for r in remainders):
        return None
    return f"{' '.join(prefix)} {listed(remainders)}"


def _contains(haystack: list[str], needle: list[str]) -> bool:
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i : i + len(needle)] == needle:
            return True
    return False


def _finish(text: str) -> str:
    text = text.strip()
    if text and not text.endswith(TERMINALS):
        text += "."
    return text
