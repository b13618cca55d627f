"""Query graph: one node per tuple variable, and one list of conjuncts.

What the block says itself, its select list, GROUP BY and ORDER BY, is
read from the resolved block the graph keeps (`QueryGraph.query`).
`build` files each WHERE and HAVING conjunct once, in source order, as
one entry of `QueryGraph.conjuncts` with its `pred`, `site` and `kind`.
The kind follows from the `level` that `resolve_names` recorded on each
column reference (0: bound in this block, k: k blocks out):

- node: it names one local tuple variable, its `owner` (in HAVING, the
  one it counts distinct values of, or else the first one it names);
- join: a WHERE comparison of two local tuple variables, a QueryJoinEdge;
- crossing: a WHERE comparison of a local and an enclosing column,
  mirrored so that its local side comes first;
- ownerless: a WHERE comparison of constants alone, or a HAVING one with
  no local node to sit on (`count(*) > 1`);
- outer: a WHERE comparison naming only enclosing columns;
- nested: a subquery connector with its child graph, a NestedQuery.

A comparison naming an enclosing alias (every crossing and outer entry,
and some HAVING ones) is `correlated`; it makes its block correlated, as
a correlated child does.  `joins` and `nested` list the join and nested
entries again, for the readers that index them.
"""

from __future__ import annotations

from .ast_nodes import (
    ColumnRef,
    Compare,
    CountDistinct,
    CountStar,
    Query,
    pred_subqueries,
)
from .record import Record, field
from .schema import SchemaGraph


class QueryNode(Record):
    alias: str
    relation: str


class Conjunct(Record):
    pred: object  # a crossing comparison with its local side first
    site: str  # where | having
    kind: str  # node | crossing | ownerless | outer
    owner: str | None = None  # node: the alias it sits on
    correlated: bool = False


class QueryJoinEdge(Record):
    pred: Compare  # resolved comparison of two local columns
    fk_backed: bool = False
    site, kind, owner, correlated = "where", "join", None, False

    @property
    def ends(self) -> tuple[str, str]:
        return self.pred.lhs.alias, self.pred.rhs.alias


class NestedQuery(Record):
    connector: str  # in | exists | not_exists | compare_all | compare_scalar
    site: str  # where | having
    pred: object
    child: "QueryGraph"
    kind, owner, correlated = "nested", None, False


class QueryGraph(Record):
    nodes: list[QueryNode] = field(factory=list)
    conjuncts: list = field(factory=list)  # every WHERE and HAVING conjunct, once
    joins: list[QueryJoinEdge] = field(factory=list)  # the join entries of `conjuncts`
    nested: list[NestedQuery] = field(factory=list)  # its nested entries
    query: Query = field(factory=Query)  # the resolved block

    def node(self, alias: str) -> QueryNode | None:
        for node in self.nodes:
            if node.alias == alias:
                return node
        return None

    def all_connectors(self) -> list[str]:
        return [c for e in self.nested for c in (e.connector, *e.child.all_connectors())]

    def is_correlated(self) -> bool:
        """True when this block or one nested in it, at any depth, names an
        alias of a block that encloses it."""
        for entry in self.conjuncts:
            if entry.correlated or entry.kind == "nested" and entry.child.is_correlated():
                return True
        return False


def build(ast: Query, graph: SchemaGraph) -> QueryGraph:
    """Build the graph for a resolved AST, recursing into subqueries."""
    qg = QueryGraph(query=ast)
    for item in ast.from_items:
        qg.nodes.append(QueryNode(item.alias, item.canonical or item.relation))
    for pred in ast.where:
        qg.conjuncts.append(_filed(qg, graph, pred, "where"))
    for pred in ast.having:
        qg.conjuncts.append(_filed(qg, graph, pred, "having"))
    return qg


def _filed(qg, graph, pred, site):
    """The entry for one conjunct; join and nested ones also go to their view."""
    # A Compare with a scalar subquery on both sides nests only its left one.
    for _, connector, query in pred_subqueries(pred, site):
        entry = NestedQuery(connector, site, pred, build(query, graph))
        qg.nested.append(entry)
        return entry
    refs = [s for s in (pred.lhs, pred.rhs) if isinstance(s, ColumnRef)]
    if site == "having":
        counted = pred.lhs if isinstance(pred.lhs, (CountStar, CountDistinct)) else pred.rhs
        named = counted.column if isinstance(counted, CountDistinct) else next(iter(refs), None)
        owner = named and qg.node(named.alias)
        correlated = any(ref.level for ref in refs)
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
    edge = QueryJoinEdge(pred, fk_backed=fk)
    qg.joins.append(edge)
    return edge


_MIRROR = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


# --- shape report -------------------------------------------------------

class ShapeReport(Record):
    degrees: dict
    multi_instance: bool
    cyclic: bool
    connectors: list[str]
    has_aggregate: bool
    correlated: bool

    @property
    def max_degree(self) -> int:
        return max(self.degrees.values(), default=0)


def shape(qg: QueryGraph) -> ShapeReport:
    """Structural facts about one query level.

    The cycle check runs on the local join multigraph, excluding edges
    between two instances of the same relation: a self-join edge is
    multi-instance evidence (the schema-graph picture would need a copied
    node), not a cycle through the schema.
    """
    degrees = {n.alias: 0 for n in qg.nodes}
    for edge in qg.joins:
        for alias in edge.ends:
            degrees[alias] += 1
    relations = [n.relation for n in qg.nodes]
    multi = len(set(relations)) < len(relations)
    cyclic = _has_cycle(qg)
    query = qg.query
    has_aggregate = bool(query.group_by) or any(
        isinstance(item.expr, (CountStar, CountDistinct)) for item in query.select_items
    )
    return ShapeReport(
        degrees=degrees,
        multi_instance=multi,
        cyclic=cyclic,
        connectors=qg.all_connectors(),
        has_aggregate=has_aggregate,
        correlated=qg.is_correlated(),
    )


def _has_cycle(qg: QueryGraph) -> bool:
    parent = {n.alias: n.alias for n in qg.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    by_alias = {n.alias: n for n in qg.nodes}
    for edge in qg.joins:
        a, b = edge.ends
        if by_alias[a].relation == by_alias[b].relation:
            continue  # self-join edge: multi-instance evidence, not a cycle
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[ra] = rb
    return False

