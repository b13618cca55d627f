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

What narration reads of a relation's schema (its steps with their relay
hops resolved, its clause templates in weight order, whether it is wide)
is derived once per graph, on the relation's first narration, and kept
on the graph.  So is a start's recipe for each relation filter and rank:
the names resolved, each relation's rank attribute, the traversal and
its mode verdict.  A call then only picks the entity, follows joins,
fills templates and merges clauses; its mode and tuple budget are read
per call.  As with the graph's lookup index, a graph edited after that
is not seen; load a new one instead.  An unknown start raises on every
call.  A narration left with no sentence and no other diagnostic says
that its start has nothing to narrate.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce

from . import templates
from .data import Database, RankSpec, Row, follow_join, rank_rows, select_tuples
from .errors import UnknownStart
from .record import Record, field
from .schema import SchemaGraph
from .templates import listed

TERMINALS = (".", "!", "?")
_ARTICLES = {"a", "an", "the"}


class NarrationPlan(Record):
    start_relation: str | None = None  # default: heaviest relation
    mode: str = "auto"  # declarative | procedural | auto
    tuple_budget: int = 3
    rank: RankSpec | None = None
    relation_filter: frozenset | None = None


class PatternInstance(Record):
    kind: str  # unary | join | split
    relations: list[str]
    relay: str | None = None
    relays: list[str] = field(factory=list)


class Narrative(Record):
    sentences: list[str]
    mode_used: str
    diagnostics: list[str] = field(factory=list)

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


class _Step(Record):
    """One narratable traversal hop: source relation to target relation."""

    source: str
    target: str
    hops: list  # [(JoinEdge, next_relation), ...] in traversal order
    template: str | None
    procedural_template: str | None = None
    relative_clause: str | None = None

    @property
    def relays(self) -> list[str]:
        return [rel for _, rel in self.hops[:-1]]


class _Facts(Record):
    """What narration reads of one relation's schema."""

    steps: list  # [_Step, ...] leaving the relation
    clauses: list  # compiled given templates of non-heading attributes, heaviest first
    wide: bool  # over two clause attributes and no long template
    # (filter, folded rank attribute, descending) -> _Recipe starting here.
    recipes: dict = field(factory=dict, init=False, shown=False)


# A traversal node; fresh steps reach new relations, back steps old ones.
_Visit = namedtuple("_Visit", "node fresh back")


class _Recipe(Record):
    """What narration from one start reads of the schema for one relation
    filter and rank, whatever the mode, budget and data."""

    start: str  # declared spelling
    ranks: dict  # relation -> RankSpec; relations lacking the attribute absent
    traversal: list  # [_Visit, ...] in visit order
    mode: str  # the verdict of fallback_mode


def _recipe(graph: SchemaGraph, plan: NarrationPlan) -> _Recipe:
    """The plan's recipe, derived on first use and kept in its start's facts
    under the plan's names resolved, so spellings of one name share it."""
    if plan.start_relation is not None:
        rel = graph.find_relation(plan.start_relation)
        if rel is None:
            raise UnknownStart(f"unknown start relation {plan.start_relation!r}")
    elif not graph.relations:
        raise UnknownStart("schema graph has no relations")
    else:
        rel = max(graph.relations, key=lambda r: r.weight)
    allowed = None
    if plan.relation_filter is not None:
        found = map(graph.find_relation, plan.relation_filter)
        allowed = frozenset(r.name for r in found if r is not None)
    rank, key = plan.rank, (allowed, None, False)
    if rank is not None and rank.attribute is not None:
        folded = rank.attribute.upper()
        if folded in graph._index().folded_attributes:  # else nothing ranks: load order
            key = (allowed, folded, rank.descending)
    recipes = _facts(graph, rel.name).recipes
    recipe = recipes.get(key)
    if recipe is None:
        recipe = recipes[key] = _derive_recipe(graph, rel.name, *key)
    return recipe


def _derive_recipe(graph, start, allowed, attribute, descending) -> _Recipe:
    # Plan-level ranking skips relations that lack the rank attribute.
    ranks = {}
    if attribute is not None:
        found = (graph.find_attribute(r.name, attribute) for r in graph.relations)
        ranks = {a.relation: RankSpec(a.name, descending) for a in found if a}
    traversal = _traversal(graph, start, allowed)
    wide = any(len(fresh) > 2 or _facts(graph, node).wide for node, fresh, _ in traversal)
    return _Recipe(start, ranks, traversal, "procedural" if wide else "declarative")


def _facts(graph: SchemaGraph, relation: str) -> _Facts:
    """The relation's facts, derived on its first narration and kept on the
    graph; like `SchemaGraph._index()`, later edits to the graph are not seen."""
    facts = graph.narration.get(relation)
    if facts is None:
        facts = graph.narration[relation] = _derive(graph, relation)
    return facts


def _derive(graph: SchemaGraph, relation: str) -> _Facts:
    rel = graph.relation(relation)
    attrs = graph.attributes_of(relation)
    clauses = []
    for attr in sorted(attrs, key=lambda a: -a.weight):  # stable: ties keep order
        if attr.name != rel.heading_attribute and attr.template is not None:
            clauses.append(graph.compiled[attr.template])
    keys = graph.key_attributes(relation)
    clause_attrs = [a for a in attrs if a.name != rel.heading_attribute and a.name not in keys]
    wide = len(clause_attrs) > 2 and not rel.long_template
    return _Facts(_derive_steps(graph, relation), clauses, wide)


def _derive_steps(graph: SchemaGraph, relation: str) -> list[_Step]:
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


def _steps_from(graph: SchemaGraph, relation: str) -> list[_Step]:
    return _facts(graph, relation).steps


def _traversal(graph: SchemaGraph, start: str, allowed: frozenset | None) -> list[_Visit]:
    """Breadth-first over the narration steps from the start, in visit order."""
    out = []
    visited = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop(0)
        fresh, back = [], []
        for step in _steps_from(graph, node):
            if allowed is None or step.target in allowed:
                (back if step.target in visited else fresh).append(step)
                # Claimed at once: a second step into it, even from this node, is back.
                visited.add(step.target)
        out.append(_Visit(node, fresh, back))
        frontier.extend(step.target for step in fresh)
    return out


def detect_patterns(graph: SchemaGraph, plan: NarrationPlan) -> list[PatternInstance]:
    """Walk narration steps from the start; report unary/split/join shapes."""
    out: list[PatternInstance] = []
    for node, fresh, back in _recipe(graph, plan).traversal:
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
    return _recipe(graph, plan).mode


def narrate(graph: SchemaGraph, db: Database, plan: NarrationPlan) -> Narrative:
    recipe = _recipe(graph, plan)
    mode = plan.mode if plan.mode != "auto" else recipe.mode
    start, ranks, budget = recipe.start, recipe.ranks, max(plan.tuple_budget, 0)
    diagnostics: list[str] = []
    sentences: list[str] = []
    rows = select_tuples(db, start, 1, ranks.get(start))
    if not rows:
        return Narrative([], mode, [f"relation {start} has no rows to narrate"])
    entity = rows[0]

    for clause in _relation_clauses(graph, start, entity, mode):
        sentences.append(_finish(clause))

    _walk(graph, db, ranks, budget, mode, recipe.traversal, [entity], sentences, diagnostics)
    if not sentences and not diagnostics:
        if _facts(graph, start).steps:  # every one outside the relation filter
            note = "no clause or template to narrate, and the filter excludes its steps"
        else:
            note = "no clause, template or templated step to narrate"
        diagnostics.append(f"relation {start} has {note}")
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
    return [c.text for c in merge_common(clauses)]


def _attribute_clauses(graph, relation, row) -> list[str]:
    """Instantiated non-heading attribute templates, heaviest first."""
    bindings = {relation: [row]}
    return [
        templates.instantiate(expr, bindings, graph)
        for expr in _facts(graph, relation).clauses
    ]


def _walk(graph, db, ranks, budget, mode, traversal, rows, sentences, diagnostics):
    for relation, steps, _ in traversal:
        if len(steps) > 1:
            _split(graph, db, ranks, budget, mode, relation, steps, rows, sentences, diagnostics)
        if len(steps) != 1:
            return
        step = steps[0]
        reached, target_rows, bindings = _follow(db, ranks, budget, step, rows)
        if not target_rows:
            diagnostics.append(_skipped(budget, relation, step, reached, "step"))
            return
        sentences.append(_finish(_fill(graph, _step_template(step, mode), bindings)))
        if mode == "procedural":
            for row in target_rows:
                for clause in _attribute_clauses(graph, step.target, row):
                    sentences.append(_finish(clause))
        rows = target_rows


def _split(graph, db, ranks, budget, mode, relation, steps, rows, sentences, diagnostics):
    """Realize every branch of a split and fuse them on the shared hub prefix."""
    branch_texts = []
    deferred = []
    hub = graph.relation(relation)
    subject = rows[0].cell(hub.heading_attribute) if rows else None
    for step in steps:
        reached, target_rows, bindings = _follow(db, ranks, budget, step, rows)
        if not target_rows:
            diagnostics.append(_skipped(budget, relation, step, reached, "branch"))
            continue
        clause = _fill(graph, _step_template(step, mode), bindings)
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


def _step_template(step: _Step, mode: str) -> str:
    if mode == "procedural" and step.procedural_template:
        return step.procedural_template
    return step.template


def _skipped(budget: int, relation: str, step: _Step, reached, what: str) -> str:
    """Why a step or branch narrates no tuple: none reached, or a zero budget."""
    if reached:
        return (
            f"tuple budget {budget} admits no {step.target} tuples "
            f"from {relation}; {what} skipped"
        )
    return f"no {step.target} tuples reachable from {relation}; {what} skipped"


def _follow(db, ranks: dict, budget: int, step: _Step, rows) -> tuple[list[Row], list[Row], dict]:
    """The step's reached tuples, those narrated (ranked, within budget)
    and its bindings."""
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
    target_rows = rank_rows(current, ranks.get(step.target), budget)
    bindings[step.target] = target_rows
    return current, target_rows, bindings


def fuse_split(texts: list[str], subject: str) -> str | None:
    """Fuse split-branch clauses on their common hub prefix.

    Branches join with "and" (two) or an Oxford-comma list (three or
    more); the prefix never ends in a stranded article.  Returns None
    when the clauses share no prefix covering the hub subject.
    """
    if not texts:
        return None
    if len(texts) == 1:
        return texts[0]
    token_lists = [t.split() for t in texts]
    prefix = trim_articles(reduce(common_prefix, token_lists))
    if not prefix:
        return None
    subject_tokens = subject.split()
    if subject_tokens and not _contains(prefix, subject_tokens):
        return None
    remainders = [" ".join(toks[len(prefix):]) for toks in token_lists]
    if any(not r for r in remainders):
        return None
    return f"{' '.join(prefix)} {listed(remainders)}"


def _contains(haystack: list[str], needle: list[str]) -> bool:
    return any(haystack[i : i + len(needle)] == needle
               for i in range(len(haystack) - len(needle) + 1))


def _finish(text: str) -> str:
    text = text.strip()
    if text and not text.endswith(TERMINALS):
        text += "."
    return text


# --- clause merging ----------------------------------------------------

class Clause(Record):
    tokens: list[str]
    subject_len: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    @classmethod
    def from_text(cls, text: str, subject: str = "") -> "Clause":
        tokens = text.split()
        subj = subject.split()
        if subj and tokens[: len(subj)] == subj:
            return cls(tokens, len(subj))
        # Unknown or mismatched subject: treat the whole clause as subject
        # so it never fuses on an accidental prefix.
        return cls(tokens, len(tokens) if subject else 0)


def common_prefix(a: list[str], b: list[str]) -> list[str]:
    size = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return a[:size]


def trim_articles(prefix: list[str]) -> list[str]:
    """Never strand an article at a fusion point."""
    while prefix and prefix[-1].lower() in _ARTICLES:
        prefix = prefix[:-1]
    return prefix


def _fusable_prefix(a: Clause, b: Clause):
    if a.tokens[: a.subject_len] != b.tokens[: b.subject_len]:
        return None
    prefix = trim_articles(common_prefix(a.tokens, b.tokens))
    return prefix if len(prefix) >= max(a.subject_len, 1) else None


def merge_common(clauses: list[Clause]) -> list[Clause]:
    """Fuse adjacent clauses sharing a subject-covering common prefix.

    The fused clause is the shared prefix followed by each clause's
    remainder in input order.  A single left-to-right pass reaches a
    fixed point, so the operation is idempotent.
    """
    out: list[Clause] = []
    for clause in clauses:
        prefix = _fusable_prefix(out[-1], clause) if out else None
        if prefix is None:
            out.append(clause)
        else:
            prev = out[-1]
            fused = prefix + prev.tokens[len(prefix):] + clause.tokens[len(prefix):]
            out[-1] = Clause(fused, prev.subject_len)
    return out
