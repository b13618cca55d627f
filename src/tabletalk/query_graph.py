"""Query graph: one node per tuple variable, join edges, nested children.

Predicates are partitioned exactly once, by the `level` that
`resolve_names` recorded on each column reference (0: bound in this
block, k: k blocks out).  A WHERE comparison of local references goes to
its node's WHERE part (one alias) or becomes a join edge (two); one of
constants alone goes to `where_misc`; one naming a local and an
enclosing alias is a join edge crossing the nesting boundary, local side
first; one naming only enclosing aliases is an *outer condition*
(`outer`), which makes the block correlated as a crossing edge does.
HAVING comparisons go to the HAVING part of the node they count or name,
others to `having_misc`; subquery connectors become nested child graphs.
"""

from __future__ import annotations


from .ast_nodes import (
    ColumnRef,
    Compare,
    CountDistinct,
    CountStar,
    Query,
    SelectItem,
    pred_refs,
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
    pred: Compare  # resolved column-to-column comparison; crossing: child side first
    fk_backed: bool = False
    crosses_nesting: bool = False

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
    joins: list[QueryJoinEdge] = field(factory=list)
    group_note: list | None = None  # [(alias, attribute)]
    order_note: list | None = None  # [(alias, attribute, direction)]
    nested: list[NestedQuery] = field(factory=list)
    projections: list = field(factory=list)
    where_misc: list = field(factory=list)  # constant-only WHERE preds
    outer: list = field(factory=list)  # WHERE preds naming only enclosing aliases
    having_misc: list = field(factory=list)  # ownerless HAVING preds
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
        """True when this block or one nested in it, at any depth, names an
        alias of a block that encloses it."""
        return (
            bool(self.outer)
            or any(e.crosses_nesting for e in self.joins)
            or any(entry.child.is_correlated() for entry in self.nested)
        )


def build(ast: Query, graph: SchemaGraph) -> QueryGraph:
    """Build the graph for a resolved AST, recursing into subqueries."""
    qg = QueryGraph(query=ast)
    for item in ast.from_items:
        qg.nodes.append(QueryNode(item.alias, item.canonical or item.relation))

    for item in ast.select_items:
        qg.projections.append(item)
        _note_projection(qg, item)

    for pred in ast.where:
        _place(qg, graph, pred, "where")
    for pred in ast.having:
        _place(qg, graph, pred, "having")

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
        return
    if not refs:  # resolve_names keeps aggregates out of WHERE
        qg.where_misc.append(pred)
    elif all(ref.level for ref in refs):
        qg.outer.append(pred)
    elif len(refs) == 1 or refs[0].alias == refs[1].alias:
        qg.node(refs[0].alias).where_part.append(pred)
    else:
        lhs, rhs = refs
        crossing = bool(lhs.level or rhs.level)
        if lhs.level:  # keep the child-local side first on crossing edges
            pred = Compare(rhs, _MIRROR[pred.op], lhs)
        fk = (
            pred.op == "="
            and not crossing
            and graph.fk_backed(lhs.relation, lhs.attribute, rhs.relation, rhs.attribute)
        )
        qg.joins.append(QueryJoinEdge(pred, fk_backed=fk, crosses_nesting=crossing))


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
        for alias in edge.ends:
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
        a, b = edge.ends
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
    children, each child in its own NQ<i> cluster.  Dotted edges show
    correlation: a crossing edge from its child node to the enclosing one,
    and an outer condition from the child's first node to each enclosing
    node it names."""
    lines = ["digraph query {", "  rankdir=LR;", "  node [shape=record];"]
    counter = [0]
    _emit_level(qg, lines, ("",), counter)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_level(qg: QueryGraph, lines, prefixes, counter):
    """`prefixes[k]` is the node id prefix of the block k levels out."""
    prefix = prefixes[0]

    def node_id(alias):
        return f"{prefix}{alias}"

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
        src, dst = edge.ends
        lines.append(
            f'  "{node_id(src)}" -> "{node_id(dst)}" '
            f'[label="{_escape(edge.pred.render())}", style={style}];'
        )
    for entry in qg.nested:
        counter[0] += 1
        name = f"NQ{counter[0]}"
        child_prefix = f"{name}."
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append(f'    label="{name} ({entry.connector})";')
        _emit_level(entry.child, lines, (child_prefix, *prefixes), counter)
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
            src, dst = edge.pred.lhs, edge.pred.rhs  # dst.level blocks out of the child
            lines.append(
                f'  "{child_prefix}{src.alias}" -> "{prefixes[dst.level - 1]}{dst.alias}" '
                f'[style=dotted, label="{_escape(edge.pred.render())}"];'
            )
        for pred in entry.child.outer:
            anchor = f"{child_prefix}{entry.child.nodes[0].alias}"
            label = _escape(pred.render())
            ends = dict.fromkeys(f"{prefixes[ref.level - 1]}{ref.alias}" for ref in pred_refs(pred))
            for end in ends:
                lines.append(f'  "{anchor}" -> "{end}" [style=dotted, label="{label}"];')


def _escape(text: str) -> str:
    for ch in "{}|<>":
        text = text.replace(ch, "\\" + ch)
    return text.replace('"', '\\"')
