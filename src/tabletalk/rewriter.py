"""Semantics-preserving IN-flattening and translation-motif detection."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .ast_nodes import (
    ColumnRef,
    Compare,
    CompareAll,
    Constant,
    CountDistinct,
    InSubquery,
    Query,
)
from .errors import NotFlattenable
from .query_graph import QueryGraph


@dataclass
class Motif:
    kind: str  # Division | SameValue | SuperlativeAll
    anchor: str  # predicate site description
    params: dict = field(default_factory=dict)


HIGHER_ORDER_KINDS = ("SameValue", "SuperlativeAll")


# --- flattening ---------------------------------------------------------

def flatten(ast: Query) -> Query:
    """Unnest every uncorrelated IN-subquery into an equality join.

    Applied innermost-first; the result contains no subqueries.  The
    input must be name-resolved and is left untouched (a rewritten copy
    is returned).  Raises NotFlattenable when any nesting other than an
    uncorrelated single-column IN is present.
    """
    out = copy.deepcopy(ast)
    _flatten_level(out)
    return out


def _flatten_level(query: Query):
    new_where = []
    for pred in query.where:
        if not isinstance(pred, InSubquery):
            _reject_nested(pred)
            new_where.append(pred)
            continue
        child = pred.query
        _flatten_level(child)
        _check_flattenable_child(child)
        taken = {item.alias.upper() for item in query.from_items}
        renames = {}
        for item in child.from_items:
            if item.alias.upper() in taken:
                fresh = _fresh_alias(item.alias, taken)
                renames[item.alias.upper()] = fresh
                item.alias = fresh
            taken.add(item.alias.upper())
        if renames:
            for ref in child.column_refs():
                if ref.alias and ref.alias.upper() in renames:
                    ref.alias = renames[ref.alias.upper()]
        query.from_items.extend(child.from_items)
        select_expr = child.select_items[0].expr
        new_where.append(Compare(pred.column, "=", select_expr))
        new_where.extend(child.where)
    query.where = new_where
    for pred in query.having:
        _reject_nested(pred)


def _reject_nested(pred):
    for _, connector, _child in _pred_children(pred):
        raise NotFlattenable(f"{connector} nesting is not flattenable")


def _pred_children(pred):
    from .ast_nodes import _pred_subqueries

    yield from _pred_subqueries(pred, "where")


def _check_flattenable_child(child: Query):
    if child.group_by or child.having or child.order_by:
        raise NotFlattenable("subquery with grouping or ordering")
    if len(child.select_items) != 1:
        raise NotFlattenable("IN-subquery must select exactly one column")
    expr = child.select_items[0].expr
    if not isinstance(expr, ColumnRef):
        raise NotFlattenable("IN-subquery must select a plain column")
    local = {item.alias.upper() for item in child.from_items}
    for ref in child.column_refs():
        if ref.alias and ref.alias.upper() not in local:
            raise NotFlattenable(
                f"correlated reference {ref.render()} blocks flattening"
            )


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
    outer_aliases = {n.alias.upper() for n in qg.nodes}
    for entry in qg.nested:
        if entry.connector != "not_exists":
            continue
        middle = entry.child
        middle_aliases = {n.alias.upper() for n in middle.nodes}
        for inner_entry in middle.nested:
            if inner_entry.connector != "not_exists":
                continue
            inner = inner_entry.child
            hit_outer = hit_middle = False
            for edge in inner.joins:
                if not edge.crosses_nesting:
                    continue
                target = edge.to_ref[0].upper()
                if target in outer_aliases:
                    hit_outer = True
                if target in middle_aliases:
                    hit_middle = True
            if hit_outer and hit_middle and qg.nodes and middle.nodes:
                out.append(
                    Motif(
                        "Division",
                        anchor=f"{entry.site} not exists",
                        params={
                            "range": qg.nodes[0].relation,
                            "range_alias": qg.nodes[0].alias,
                            "divisor": middle.nodes[0].relation,
                        },
                    )
                )
    return out


def _detect_same_value(qg: QueryGraph) -> list[Motif]:
    """HAVING count(distinct X) = 1: every X in the group is the same."""
    out = []
    preds = [p for n in qg.nodes for p in n.having_part] + qg.having_misc
    for pred in preds:
        if not isinstance(pred, Compare) or pred.op != "=":
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
    for entry in qg.nested:
        if entry.connector != "compare_all":
            continue
        pred = entry.predicate
        if not isinstance(pred, CompareAll) or not isinstance(pred.lhs, ColumnRef):
            continue
        if pred.op in _MIN_OPS:
            direction = "min"
        elif pred.op in _MAX_OPS:
            direction = "max"
        else:
            continue
        child = entry.child
        correlated = any(e.crosses_nesting for e in child.joins) or child.is_correlated()
        if not correlated:
            continue
        select = child.query.select_items if child.query else []
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
                )
            )
    return out
