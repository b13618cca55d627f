"""Query graph: one node per tuple variable, join edges, nested children.

Predicates are partitioned exactly once: alias-local constant comparisons
go to their node's WHERE part, two-alias comparisons become join edges,
aggregate comparisons go to HAVING parts, and subquery connectors become
nested child graphs.  A predicate in a child that references an enclosing
alias becomes a join edge flagged as crossing the nesting boundary.
"""

from __future__ import annotations


from .ast_nodes import (
    ColumnRef,
    Compare,
    CountDistinct,
    CountStar,
    Query,
    SelectItem,
    pred_subqueries,
)
from .record import Record, field
from .schema import SchemaGraph


class QueryNode(Record):
    alias: str
    relation: str
    select_part: list = field(factory=list)  # (attribute, output alias)
    where_part: list = field(factory=list)  # local Compare predicates
    having_part: list = field(factory=list)


class QueryJoinEdge(Record):
    from_ref: tuple  # (alias, attribute)
    to_ref: tuple
    op: str
    fk_backed: bool = False
    crosses_nesting: bool = False


class NestedQuery(Record):
    connector: str  # in | exists | not_exists | compare_all | compare_scalar
    site: str  # where | having
    predicate: object
    child: "QueryGraph"


class QueryGraph(Record):
    nodes: list[QueryNode] = field(factory=list)
    joins: list[QueryJoinEdge] = field(factory=list)
    group_note: list | None = None  # [(alias, attribute)]
    order_note: list | None = None  # [(alias, attribute, direction)]
    nested: list[NestedQuery] = field(factory=list)
    projections: list = field(factory=list)
    having_misc: list = field(factory=list)  # ownerless having preds
    query: Query | None = None

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
        """True when any descendant references an enclosing alias."""
        for entry in self.nested:
            child = entry.child
            if any(e.crosses_nesting for e in child.joins):
                return True
            if child.is_correlated():
                return True
        return False


def build(ast: Query, graph: SchemaGraph) -> QueryGraph:
    """Build the graph for a resolved AST, recursing into subqueries."""
    qg = QueryGraph(query=ast)
    for item in ast.from_items:
        qg.nodes.append(QueryNode(item.alias, item.canonical or item.relation))
    local = tuple(n.alias for n in qg.nodes)

    for item in ast.select_items:
        qg.projections.append(item)
        _note_projection(qg, item)

    for pred in ast.where:
        _place(qg, graph, pred, "where", local)
    for pred in ast.having:
        _place(qg, graph, pred, "having", local)

    if ast.group_by:
        qg.group_note = [(c.alias, c.column) for c in ast.group_by]
    if ast.order_by:
        qg.order_note = [(c.alias, c.column, d) for c, d in ast.order_by]
    return qg


def _note_projection(qg: QueryGraph, item: SelectItem):
    expr = item.expr
    if isinstance(expr, ColumnRef):
        node = qg.node(expr.alias)
        if node is not None:
            node.select_part.append((expr.column, item.alias))
    elif isinstance(expr, CountDistinct):
        node = qg.node(expr.column.alias)
        if node is not None:
            node.select_part.append((f"count(distinct {expr.column.column})", item.alias))


def _place(qg, graph, pred, site, local):
    # A Compare with a scalar subquery on both sides nests only its left one.
    for _, connector, query in pred_subqueries(pred, site):
        child = build(query, graph)
        qg.nested.append(NestedQuery(connector, site, pred, child))
        return
    _place_compare(qg, graph, pred, site, local)


def _place_compare(qg, graph, pred: Compare, site, local):
    refs = [s for s in (pred.lhs, pred.rhs) if isinstance(s, ColumnRef)]
    aggregates = [s for s in (pred.lhs, pred.rhs) if isinstance(s, (CountStar, CountDistinct))]
    if site == "having":
        owner = None
        if aggregates and isinstance(aggregates[0], CountDistinct):
            owner = qg.node(aggregates[0].column.alias)
        elif refs:
            owner = qg.node(refs[0].alias)
        if owner is not None:
            owner.having_part.append(pred)
        else:
            qg.having_misc.append(pred)
        return
    if len(refs) == 2 and refs[0].alias != refs[1].alias:
        lhs, rhs = refs
        op = pred.op
        crossing = not (lhs.alias in local and rhs.alias in local)
        if crossing and lhs.alias not in local and rhs.alias in local:
            # Keep the child-local side first on crossing edges.
            lhs, rhs = rhs, lhs
            op = _MIRROR[op]
        fk = (
            op == "="
            and not crossing
            and graph.fk_backed(lhs.relation, lhs.column, rhs.relation, rhs.column)
        )
        qg.joins.append(
            QueryJoinEdge(
                (lhs.alias, lhs.column),
                (rhs.alias, rhs.column),
                op,
                fk_backed=fk,
                crosses_nesting=crossing,
            )
        )
        return
    # Alias-local: constant comparison or same-alias attribute comparison.
    node = qg.node(refs[0].alias) if refs else None
    if node is not None:
        node.where_part.append(pred)
    else:
        qg.having_misc.append(pred)


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
        if edge.crosses_nesting:
            continue
        for alias, _ in (edge.from_ref, edge.to_ref):
            degrees[alias] += 1
    relations = [n.relation for n in qg.nodes]
    multi = len(set(relations)) < len(relations)
    cyclic = _has_cycle(qg)
    has_aggregate = bool(qg.group_note) or _mentions_aggregate(qg)
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
        if edge.crosses_nesting:
            continue
        a, b = edge.from_ref[0], edge.to_ref[0]
        if by_alias[a].relation == by_alias[b].relation:
            continue  # self-join edge: multi-instance evidence, not a cycle
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[ra] = rb
    return False


def _mentions_aggregate(qg: QueryGraph) -> bool:
    for item in qg.projections:
        if isinstance(item.expr, (CountStar, CountDistinct)):
            return True
    for node in qg.nodes:
        for pred in node.having_part:
            if _pred_has_aggregate(pred):
                return True
    return any(_pred_has_aggregate(p) for p in qg.having_misc)


def _pred_has_aggregate(pred) -> bool:
    if isinstance(pred, Compare):
        return any(
            isinstance(s, (CountStar, CountDistinct)) for s in (pred.lhs, pred.rhs)
        )
    return False


# --- DOT output ---------------------------------------------------------

def emit_dot(qg: QueryGraph) -> str:
    """Record-shaped node per tuple variable; dashed edges into nested
    children, each child in its own NQ<i> cluster."""
    lines = ["digraph query {", "  rankdir=LR;", "  node [shape=record];"]
    counter = [0]
    _emit_level(qg, lines, "", counter, {})
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_level(qg: QueryGraph, lines, prefix, counter, outer_ids):
    def node_id(alias):
        return f"{prefix}{alias}"

    # Aliases visible here: this level's nodes shadow enclosing ones.
    ids = dict(outer_ids)
    ids.update({n.alias: node_id(n.alias) for n in qg.nodes})

    for node in qg.nodes:
        parts = [f"<<FROM>> {node.relation} {node.alias}"]
        if node.select_part:
            cols = ", ".join(c for c, _ in node.select_part)
            parts.append(f"<<SELECT>> {cols}")
        if node.where_part:
            preds = " and ".join(p.render() for p in node.where_part)
            parts.append(f"<<WHERE>> {preds}")
        if node.having_part:
            preds = " and ".join(p.render() for p in node.having_part)
            parts.append(f"<<HAVING>> {preds}")
        label = _escape("|".join(parts))
        lines.append(f'  "{node_id(node.alias)}" [label="{label}"];')
    if qg.group_note:
        cols = ", ".join(f"{a}.{c}" for a, c in qg.group_note)
        lines.append(
            f'  "{prefix}groupby" [shape=note, label="{_escape("<<GROUP BY>> " + cols)}"];'
        )
    if qg.order_note:
        cols = ", ".join(f"{a}.{c} {d}" for a, c, d in qg.order_note)
        lines.append(
            f'  "{prefix}orderby" [shape=note, label="{_escape("<<ORDER BY>> " + cols)}"];'
        )
    for edge in qg.joins:
        if edge.crosses_nesting:
            continue
        style = "solid" if edge.fk_backed else "bold"
        lines.append(
            f'  "{node_id(edge.from_ref[0])}" -> "{node_id(edge.to_ref[0])}" '
            f'[label="{_escape(_edge_label(edge))}", style={style}];'
        )
    for entry in qg.nested:
        counter[0] += 1
        name = f"NQ{counter[0]}"
        child_prefix = f"{name}."
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append(f'    label="{name} ({entry.connector})";')
        _emit_level(entry.child, lines, child_prefix, counter, ids)
        lines.append("  }")
        if qg.nodes and entry.child.nodes:
            lines.append(
                f'  "{node_id(qg.nodes[0].alias)}" -> '
                f'"{child_prefix}{entry.child.nodes[0].alias}" '
                f'[style=dashed, label="{entry.connector}"];'
            )
        for edge in entry.child.joins:
            if not edge.crosses_nesting:
                continue
            src = f"{child_prefix}{edge.from_ref[0]}"
            dst_id = ids.get(edge.to_ref[0], node_id(edge.to_ref[0]))
            lines.append(
                f'  "{src}" -> "{dst_id}" '
                f'[style=dotted, label="{_escape(_edge_label(edge))}"];'
            )


def _edge_label(edge: QueryJoinEdge) -> str:
    a = ".".join(edge.from_ref)
    b = ".".join(edge.to_ref)
    return f"{a} {edge.op} {b}"


def _escape(text: str) -> str:
    for ch in "{}|<>":
        text = text.replace(ch, "\\" + ch)
    return text.replace('"', '\\"')
