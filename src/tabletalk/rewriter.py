"""Semantics-preserving IN-flattening and translation-motif detection."""

from __future__ import annotations

from .ast_nodes import (
    ColumnRef,
    Compare,
    CompareAll,
    Constant,
    CountDistinct,
    FromItem,
    InSubquery,
    Query,
)
from .errors import NotFlattenable
from .query_graph import Conjunct, QueryGraph
from .record import Record, field


class Motif(Record):
    kind: str  # Division | SameValue | SuperlativeAll
    anchor: str  # predicate site description
    params: dict = field(factory=dict)
    # SuperlativeAll: the nested ALL comparison the motif was found on.
    entry: Conjunct | None = field(None, shown=False)


HIGHER_ORDER_KINDS = ("SameValue", "SuperlativeAll")


# --- flattening ---------------------------------------------------------

def flattenable(query: Query) -> str | None:
    """None when `flatten` can unnest every subquery of `query`, else why not.

    Every subquery, at any depth, must be an IN in WHERE whose child
    selects one plain column, has no GROUP BY, HAVING or ORDER BY, and
    names no alias outside its own FROM list, that is, has no reference
    whose `level` is above 0 (Kim's type-N nesting).
    """
    for site, connector, child in query.subqueries():
        if connector != "in":
            return f"{connector} nesting is not flattenable"
        if site != "where":
            return "IN nesting in HAVING is not flattenable"
        reason = flattenable(child)
        if reason is not None:
            return reason
        if child.group_by or child.having or child.order_by:
            return "subquery with grouping or ordering"
        select = child.select_items
        if len(select) != 1 or not isinstance(select[0].expr, ColumnRef):
            return "IN-subquery must select exactly one plain column"
        for ref in child.column_refs():
            if ref.level:
                return f"correlated reference {ref.render()} blocks flattening"
    return None


def flatten(ast: Query) -> Query:
    """Unnest every IN-subquery into an equality join.

    Applied innermost-first; the result contains no subqueries.  The
    input must be name-resolved and is left untouched: the result has
    lists of its own, builds anew each FROM item it renames and each
    conjunct or column that names one, and shares every other node.
    Every reference of a flattenable query binds in its own block, so each
    keeps its `level` of 0 where it lands.  Raises NotFlattenable with the
    reason from `flattenable`.
    """
    reason = flattenable(ast)
    if reason is not None:
        raise NotFlattenable(reason)
    return _flattened(ast)


def _flattened(query: Query) -> Query:
    from_items = list(query.from_items)
    where = []
    for pred in query.where:
        if not isinstance(pred, InSubquery):
            where.append(pred)
            continue
        child = _flattened(pred.query)
        taken = {item.alias.upper() for item in from_items}
        renames = {}
        for item in child.from_items:
            if item.alias.upper() in taken:
                renames[item.alias] = fresh = _fresh_alias(item.alias, taken)
                item = FromItem(item.relation, fresh, item.canonical)
            taken.add(item.alias.upper())
            from_items.append(item)
        select_expr = _renamed(child.select_items[0].expr, renames)
        where.append(Compare(pred.column, "=", select_expr))
        where.extend(_renamed(p, renames) for p in child.where)
    return Query(
        list(query.select_items), from_items, where,
        list(query.group_by), list(query.having), list(query.order_by),
    )


def _renamed(node, renames: dict):
    """`node` (a flattened child's select column or WHERE conjunct) with
    every alias in `renames` replaced; a node with none is returned as is."""
    if isinstance(node, Compare):
        lhs, rhs = _renamed(node.lhs, renames), _renamed(node.rhs, renames)
        if lhs is node.lhs and rhs is node.rhs:
            return node
        return Compare(lhs, node.op, rhs)
    if isinstance(node, ColumnRef) and node.alias in renames:
        return ColumnRef(renames[node.alias], node.column, node.relation, node.attribute)
    return node


def _fresh_alias(base: str, taken: set) -> str:
    n = 2
    while f"{base}_{n}".upper() in taken:
        n += 1
    return f"{base}_{n}"


# --- motif detection ----------------------------------------------------

def detect_motifs(qg: QueryGraph) -> list[Motif]:
    """Recognize the three translation motifs on a built query graph."""
    motifs = []
    motifs.extend(_detect_division(qg))
    motifs.extend(_detect_same_value(qg))
    motifs.extend(_detect_superlative_all(qg))
    return motifs


def _detect_division(qg: QueryGraph) -> list[Motif]:
    """Double NOT EXISTS whose innermost query is correlated to both the
    outer query and the middle query's range."""
    out = []
    for entry in qg.conjuncts:
        if entry.connector != "not_exists":  # None on every entry but a nested one
            continue
        middle = entry.child
        for inner in middle.conjuncts:
            if inner.connector != "not_exists":
                continue
            # The outer side of a crossing comparison binds 1 (middle) or 2 blocks out.
            levels = {e.pred.rhs.level for e in inner.child.conjuncts if e.kind == "crossing"}
            ranges, divisors = qg.query.from_items, middle.query.from_items
            if {1, 2} <= levels and ranges and divisors:
                out.append(
                    Motif(
                        "Division",
                        anchor=f"{entry.site} not exists",
                        params={
                            "range": ranges[0].canonical,
                            "range_alias": ranges[0].alias,
                            "divisor": divisors[0].canonical,
                        },
                    )
                )
    return out


def _detect_same_value(qg: QueryGraph) -> list[Motif]:
    """HAVING count(distinct X) = 1: every X in the group is the same."""
    out = []
    for entry in qg.conjuncts:
        pred = entry.pred
        if entry.site != "having" or entry.kind == "nested" or pred.op != "=":
            continue
        sides = (pred.lhs, pred.rhs)
        count = next((s for s in sides if isinstance(s, CountDistinct)), None)
        one = next(
            (s for s in sides if isinstance(s, Constant) and s.value == 1), None
        )
        if count is not None and one is not None:
            out.append(
                Motif(
                    "SameValue",
                    anchor="having count(distinct ...) = 1",
                    params={
                        "alias": count.column.alias,
                        "attribute": count.column.column,
                        "relation": count.column.relation,
                    },
                )
            )
    return out


_MIN_OPS = ("<=", "<")
_MAX_OPS = (">=", ">")


def _detect_superlative_all(qg: QueryGraph) -> list[Motif]:
    """<op> ALL against a correlated subquery over the same attribute."""
    out = []
    for entry in qg.conjuncts:
        if entry.connector != "compare_all":
            continue
        pred = entry.pred
        if not isinstance(pred, CompareAll) or not isinstance(pred.lhs, ColumnRef):
            continue
        if pred.op in _MIN_OPS:
            direction = "min"
        elif pred.op in _MAX_OPS:
            direction = "max"
        else:
            continue
        query = entry.child.query
        if query.group_by or query.having or not entry.child.is_correlated():
            continue  # the frame has no room for a child's grouping
        select = query.select_items
        if len(select) != 1 or not isinstance(select[0].expr, ColumnRef):
            continue
        inner_col = select[0].expr
        if (
            inner_col.attribute == pred.lhs.attribute
            and inner_col.relation == pred.lhs.relation
        ):
            out.append(
                Motif(
                    "SuperlativeAll",
                    anchor=f"{entry.site} {pred.op} all",
                    params={
                        "alias": pred.lhs.alias,
                        "attribute": pred.lhs.column,
                        "relation": pred.lhs.relation,
                        "direction": direction,
                    },
                    entry=entry,
                )
            )
    return out
