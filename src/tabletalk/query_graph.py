"""Query graph: the tuple variables of one block, and one list of conjuncts.

A `QueryGraph` keeps its resolved block (`query`) and `conjuncts`.  The
nodes are the block's FROM items (`query.from_items`), read by their
`canonical` relation; what the block says itself, its select list,
GROUP BY and ORDER BY, is read from the block too.  `build` files each
WHERE and HAVING conjunct once, in source order, as one `Conjunct`: its
`pred`, `site`, `kind` and `correlated`, and, by kind, its `owner`, its
`fk_backed` or its `connector` and `child`.  The kind follows from the
`level` that `resolve_names` recorded on each column reference (0: bound
in this block, k: k blocks out):

- node: it names one local tuple variable, its `owner` (in HAVING, the
  one it counts distinct values of, or else the first one it names);
- join: a WHERE comparison of two local tuple variables, `fk_backed`
  when the schema declares its two columns a key pair;
- crossing: a WHERE comparison of a local and an enclosing column,
  mirrored so that its local side comes first;
- ownerless: a WHERE comparison of constants alone, or a HAVING one with
  no local node to sit on (`count(*) > 1`);
- outer: a WHERE comparison naming only enclosing columns;
- nested: a subquery `connector` with the `child` graph of its block.

A conjunct whose own columns (outside its subquery) name an enclosing
alias is `correlated`; it makes its block correlated, as a correlated
child does.
"""

from __future__ import annotations

from .ast_nodes import (
    ColumnRef,
    Compare,
    CountDistinct,
    CountStar,
    FromItem,
    Query,
    pred_refs,
    pred_subqueries,
)
from .record import Record, field
from .schema import SchemaGraph


class Conjunct(Record):
    pred: object  # a crossing comparison with its local side first
    site: str  # where | having
    kind: str  # node | join | crossing | ownerless | outer | nested
    owner: str | None = None  # node: the alias it sits on
    correlated: bool = False
    fk_backed: bool = False  # join: the schema declares its columns a key pair
    connector: str | None = None  # nested: in | exists | not_exists | compare_all | compare_scalar
    child: QueryGraph | None = None  # nested: the graph of its subquery

    @property
    def ends(self) -> tuple[str, str]:
        """A join's two aliases."""
        return self.pred.lhs.alias, self.pred.rhs.alias


class QueryGraph(Record):
    query: Query = field(factory=Query)  # the resolved block; its FROM items are the nodes
    conjuncts: list[Conjunct] = field(factory=list)  # every WHERE and HAVING conjunct, once

    def node(self, alias: str) -> FromItem | None:
        for item in self.query.from_items:
            if item.alias == alias:
                return item
        return None

    def all_connectors(self) -> list[str]:
        return [
            c for e in self.conjuncts if e.kind == "nested"
            for c in (e.connector, *e.child.all_connectors())
        ]

    def is_correlated(self) -> bool:
        """True when this block or one nested in it, at any depth, names an
        alias of a block that encloses it."""
        for entry in self.conjuncts:
            if entry.correlated or entry.kind == "nested" and entry.child.is_correlated():
                return True
        return False


def build(ast: Query, graph: SchemaGraph) -> QueryGraph:
    """Build the graph for a resolved AST, recursing into subqueries."""
    qg = QueryGraph(ast)
    for pred in ast.where:
        qg.conjuncts.append(_filed(qg, graph, pred, "where"))
    for pred in ast.having:
        qg.conjuncts.append(_filed(qg, graph, pred, "having"))
    return qg


def _filed(qg, graph, pred, site):
    """The one entry for one conjunct.  It is `correlated` when one of its
    `pred_refs` binds in an enclosing block; of a WHERE comparison the kind
    tells (every crossing and outer one is, no other is)."""
    for _, connector, query in pred_subqueries(pred, site):
        correlated = any(ref.level for ref in pred_refs(pred))
        child = build(query, graph)
        return Conjunct(pred, site, "nested", None, correlated, connector=connector, child=child)
    refs = [s for s in (pred.lhs, pred.rhs) if isinstance(s, ColumnRef)]
    if site == "having":
        counted = next((s for s in (pred.lhs, pred.rhs) if isinstance(s, CountDistinct)), None)
        named = counted.column if counted is not None else next(iter(refs), None)
        owner = named and qg.node(named.alias)
        correlated = any(ref.level for ref in pred_refs(pred))
        if owner:
            return Conjunct(pred, site, "node", owner.alias, correlated)
        return Conjunct(pred, site, "ownerless", correlated=correlated)
    if not refs:  # resolve_names keeps aggregates out of WHERE
        return Conjunct(pred, site, "ownerless")
    if all(ref.level for ref in refs):
        return Conjunct(pred, site, "outer", correlated=True)
    if len(refs) == 1 or refs[0].alias == refs[1].alias:
        return Conjunct(pred, site, "node", refs[0].alias)
    lhs, rhs = refs
    if lhs.level:  # keep the local side first
        return Conjunct(Compare(rhs, _MIRROR[pred.op], lhs), site, "crossing", correlated=True)
    if rhs.level:
        return Conjunct(pred, site, "crossing", correlated=True)
    fk = pred.op == "=" and graph.fk_backed(
        lhs.relation, lhs.attribute, rhs.relation, rhs.attribute
    )
    return Conjunct(pred, site, "join", fk_backed=fk)


_MIRROR = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


# --- shape report -------------------------------------------------------

class ShapeReport(Record):
    degrees: dict
    repeated: list[str]  # each relation named by more than one FROM item, once
    cyclic: bool
    connectors: list[str]
    has_aggregate: bool
    correlated: bool

    @property
    def max_degree(self) -> int:
        return max(self.degrees.values(), default=0)

    @property
    def multi_instance(self) -> bool:
        return bool(self.repeated)


def shape(qg: QueryGraph) -> ShapeReport:
    """Structural facts about one query level.

    The cycle check runs on the local join multigraph, excluding edges
    between two instances of the same relation: a self-join edge is
    multi-instance evidence (the schema-graph picture would need a copied
    node), not a cycle through the schema.
    """
    query = qg.query
    joins = [e for e in qg.conjuncts if e.kind == "join"]
    degrees = {item.alias: 0 for item in query.from_items}
    for edge in joins:
        for alias in edge.ends:
            degrees[alias] += 1
    seen, repeated = set(), []
    for item in query.from_items:
        if item.canonical in seen and item.canonical not in repeated:
            repeated.append(item.canonical)
        seen.add(item.canonical)
    has_aggregate = bool(query.group_by) or any(
        isinstance(item.expr, (CountStar, CountDistinct)) for item in query.select_items
    )
    return ShapeReport(
        degrees=degrees,
        repeated=repeated,
        cyclic=_has_cycle(qg, joins),
        connectors=qg.all_connectors(),
        has_aggregate=has_aggregate,
        correlated=qg.is_correlated(),
    )


def _has_cycle(qg: QueryGraph, joins: list[Conjunct]) -> bool:
    relation = {item.alias: item.canonical for item in qg.query.from_items}
    parent = {alias: alias for alias in relation}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in joins:
        a, b = edge.ends
        if relation[a] == relation[b]:
            continue  # self-join edge: multi-instance evidence, not a cycle
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[ra] = rb
    return False
