"""Query graph: one node per tuple variable, join edges, nested children.

The graph holds what the resolved block does not say directly: how its
predicates fall into node parts, join edges and the rest.  What the block
says itself, its select list, GROUP BY and ORDER BY, is read from the
block the graph keeps (`QueryGraph.query`), each column reference with
the binding `resolve_names` gave it.

Predicates are partitioned exactly once, by the `level` that
`resolve_names` recorded on each column reference (0: bound in this
block, k: k blocks out).  A WHERE comparison of local references goes to
its node's WHERE part (one alias) or becomes a join edge (two), so
`joins` holds this block's joins alone; one of constants alone goes to
`where_misc`; one naming a local and an enclosing alias is a *crossing*
comparison (`crossing`), mirrored so that its local side comes first;
one naming only enclosing aliases is an *outer condition* (`outer`).
Either makes the block correlated.  HAVING comparisons go to the HAVING
part of the node they count or name, others to `having_misc`; one that
also names an enclosing alias is listed in `having_outer` too, and makes
the block correlated.  Subquery connectors become nested child graphs.
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
    where_part: list = field(factory=list)  # local Compare predicates
    having_part: list = field(factory=list)


class QueryJoinEdge(Record):
    pred: Compare  # resolved comparison of two local columns
    fk_backed: bool = False

    @property
    def ends(self) -> tuple[str, str]:
        return self.pred.lhs.alias, self.pred.rhs.alias


class NestedQuery(Record):
    connector: str  # in | exists | not_exists | compare_all | compare_scalar
    site: str  # where | having
    predicate: object
    child: "QueryGraph"


class QueryGraph(Record):
    nodes: list[QueryNode] = field(factory=list)
    joins: list[QueryJoinEdge] = field(factory=list)  # this block's own
    crossing: list = field(factory=list)  # WHERE Compares of a local and an enclosing column
    nested: list[NestedQuery] = field(factory=list)
    where_misc: list = field(factory=list)  # constant-only WHERE preds
    outer: list = field(factory=list)  # WHERE preds naming only enclosing aliases
    having_misc: list = field(factory=list)  # ownerless HAVING preds
    having_outer: list = field(factory=list)  # HAVING preds also naming an enclosing alias
    query: Query = field(factory=Query)  # the resolved block

    def node(self, alias: str) -> QueryNode | None:
        for node in self.nodes:
            if node.alias == alias:
                return node
        return None

    def all_connectors(self) -> list[str]:
        out = []
        for entry in self.nested:
            out.append(entry.connector)
            out.extend(entry.child.all_connectors())
        return out

    def is_correlated(self) -> bool:
        """True when this block or one nested in it, at any depth, names an
        alias of a block that encloses it."""
        return bool(self.crossing or self.outer or self.having_outer) or any(
            entry.child.is_correlated() for entry in self.nested
        )


def build(ast: Query, graph: SchemaGraph) -> QueryGraph:
    """Build the graph for a resolved AST, recursing into subqueries."""
    qg = QueryGraph(query=ast)
    for item in ast.from_items:
        qg.nodes.append(QueryNode(item.alias, item.canonical or item.relation))
    for pred in ast.where:
        _place(qg, graph, pred, "where")
    for pred in ast.having:
        _place(qg, graph, pred, "having")
    return qg


def _place(qg, graph, pred, site):
    # A Compare with a scalar subquery on both sides nests only its left one.
    for _, connector, query in pred_subqueries(pred, site):
        child = build(query, graph)
        qg.nested.append(NestedQuery(connector, site, pred, child))
        return
    _place_compare(qg, graph, pred, site)


def _place_compare(qg, graph, pred: Compare, site):
    refs = [s for s in (pred.lhs, pred.rhs) if isinstance(s, ColumnRef)]
    if site == "having":
        aggregates = [s for s in (pred.lhs, pred.rhs) if isinstance(s, (CountStar, CountDistinct))]
        owner = None
        if aggregates and isinstance(aggregates[0], CountDistinct):
            owner = qg.node(aggregates[0].column.alias)
        elif refs:
            owner = qg.node(refs[0].alias)
        if owner is not None:
            owner.having_part.append(pred)
        else:
            qg.having_misc.append(pred)
        if any(ref.level for ref in refs):
            qg.having_outer.append(pred)
        return
    if not refs:  # resolve_names keeps aggregates out of WHERE
        qg.where_misc.append(pred)
    elif all(ref.level for ref in refs):
        qg.outer.append(pred)
    elif len(refs) == 1 or refs[0].alias == refs[1].alias:
        qg.node(refs[0].alias).where_part.append(pred)
    else:
        lhs, rhs = refs
        if lhs.level:  # keep the local side first
            qg.crossing.append(Compare(rhs, _MIRROR[pred.op], lhs))
        elif rhs.level:
            qg.crossing.append(pred)
        else:
            fk = pred.op == "=" and graph.fk_backed(
                lhs.relation, lhs.attribute, rhs.relation, rhs.attribute
            )
            qg.joins.append(QueryJoinEdge(pred, fk_backed=fk))


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

