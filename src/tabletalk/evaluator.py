"""Naive nested-loop evaluator: the oracle the rewriter is checked against.

No optimization on purpose.  Cross products are materialized, subqueries
re-evaluated per binding, comparisons are null-rejecting (a null cell
satisfies no predicate, mirroring SQL's treatment closely enough for the
supported subset).  Desk-scale inputs keep this tractable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .ast_nodes import (
    ColumnRef,
    Compare,
    CompareAll,
    Constant,
    CountDistinct,
    CountStar,
    Exists,
    InSubquery,
    Query,
    ScalarSubquery,
    SelectItem,
    Star,
)
from .data import Database, Row
from .errors import SqlError
from .schema import SchemaGraph


@dataclass
class ResultSet:
    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)  # multiset semantics


def evaluate(ast: Query, db: Database) -> ResultSet:
    """Evaluate a name-resolved query against loaded tables."""
    return _eval_query(ast, db, {})


def _eval_query(query: Query, db: Database, outer_env: dict) -> ResultSet:
    envs = []
    tables = [db.table(item.canonical) for item in query.from_items]
    for combo in product(*tables):
        env = dict(outer_env)
        for item, row in zip(query.from_items, combo):
            env[item.alias.upper()] = row
        if all(_eval_pred(p, env, db) for p in query.where):
            envs.append(env)

    grouped = bool(query.group_by) or _has_aggregate(query)
    if grouped:
        return _eval_grouped(query, db, envs, outer_env)

    columns = _output_columns(query)
    keyed = []
    for env in envs:
        out_row = tuple(_project(item, env, None) for item in _expand_star(query))
        keyed.append((_order_key(query, env), out_row))
    return ResultSet(columns, _ordered(query, keyed))


def _eval_grouped(query, db, envs, outer_env) -> ResultSet:
    groups: dict[tuple, list] = {}
    for env in envs:
        key = tuple(_value(col, env) for col in query.group_by)
        groups.setdefault(key, []).append(env)
    if not query.group_by and not groups:
        groups[()] = []  # aggregate over an empty input still yields one row
    columns = _output_columns(query)
    keyed = []
    for key in groups:
        members = groups[key]
        rep = dict(members[0]) if members else dict(outer_env)
        if all(_eval_pred(p, rep, db, group=members) for p in query.having):
            out_row = tuple(
                _project(item, rep, members) for item in query.select_items
            )
            keyed.append((_order_key(query, rep), out_row))
    return ResultSet(columns, _ordered(query, keyed))


def _ordered(query, keyed):
    if query.order_by:
        for index, (_, direction) in reversed(list(enumerate(query.order_by))):
            keyed.sort(
                key=lambda pair: _sort_token(pair[0][index]),
                reverse=(direction == "desc"),
            )
    return [row for _, row in keyed]


def _sort_token(value):
    # None sorts last regardless of direction; mixed types sort by type name.
    return (value is None, type(value).__name__, value)


def _order_key(query, env):
    return tuple(_value(col, env) for col, _ in query.order_by)


def _has_aggregate(query: Query) -> bool:
    for item in query.select_items:
        if isinstance(item.expr, (CountStar, CountDistinct)):
            return True
    return bool(query.having)


def _expand_star(query: Query):
    items = []
    for item in query.select_items:
        if isinstance(item.expr, Star):
            for from_item in query.from_items:
                items.append(SelectItem(ColumnRef(from_item.alias, "*")))
        else:
            items.append(item)
    return items


def _output_columns(query: Query) -> list[str]:
    cols = []
    for item in query.select_items:
        if item.alias:
            cols.append(item.alias)
        elif isinstance(item.expr, ColumnRef):
            cols.append(item.expr.column)
        elif isinstance(item.expr, Star):
            cols.append("*")
        else:
            cols.append(item.expr.render())
    return cols


def _project(item: SelectItem, env, group):
    expr = item.expr
    if isinstance(expr, ColumnRef):
        if expr.column == "*":
            row = env[expr.alias.upper()]
            return tuple(row.values.values())
        return _value(expr, env)
    if isinstance(expr, CountStar):
        if group is None:
            raise SqlError("count(*) outside a grouped query")
        return len(group)
    if isinstance(expr, CountDistinct):
        if group is None:
            raise SqlError("count(distinct ...) outside a grouped query")
        return _count_distinct(expr, group)
    if isinstance(expr, Constant):
        return expr.value
    raise SqlError(f"cannot project {expr!r}")


def _count_distinct(expr: CountDistinct, group) -> int:
    values = {
        _value(expr.column, env)
        for env in group
        if _value(expr.column, env) is not None
    }
    return len(values)


def _value(ref: ColumnRef, env):
    row = env.get(ref.alias.upper())
    if row is None:
        raise SqlError(f"alias {ref.alias!r} not bound during evaluation")
    return row.cell(ref.attribute)


def _operand(expr, env, db, group=None):
    if isinstance(expr, ColumnRef):
        return _value(expr, env)
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, CountStar):
        if group is None:
            raise SqlError("count(*) outside HAVING")
        return len(group)
    if isinstance(expr, CountDistinct):
        if group is None:
            raise SqlError("count(distinct ...) outside HAVING")
        return _count_distinct(expr, group)
    if isinstance(expr, ScalarSubquery):
        result = _eval_query(expr.query, db, env)
        if not result.rows:
            return None
        if len(result.rows) > 1 or len(result.rows[0]) != 1:
            raise SqlError("scalar subquery returned more than one value")
        return result.rows[0][0]
    raise SqlError(f"cannot evaluate operand {expr!r}")


def _eval_pred(pred, env, db, group=None) -> bool:
    if isinstance(pred, Compare):
        lhs = _operand(pred.lhs, env, db, group)
        rhs = _operand(pred.rhs, env, db, group)
        return _compare(lhs, pred.op, rhs)
    if isinstance(pred, InSubquery):
        needle = _value(pred.column, env)
        if needle is None:
            return False
        result = _eval_query(pred.query, db, env)
        return any(row[0] == needle for row in result.rows)
    if isinstance(pred, Exists):
        result = _eval_query(pred.query, db, env)
        return (not result.rows) if pred.negated else bool(result.rows)
    if isinstance(pred, CompareAll):
        lhs = _operand(pred.lhs, env, db, group)
        result = _eval_query(pred.query, db, env)
        # ALL over an empty result is vacuously true (SQL semantics).
        return all(_compare(lhs, pred.op, row[0]) for row in result.rows)
    raise SqlError(f"cannot evaluate predicate {pred!r}")


def _compare(lhs, op, rhs) -> bool:
    if lhs is None or rhs is None:
        return False
    if isinstance(lhs, int) != isinstance(rhs, int):
        return False  # mismatched types never compare
    if op == "=":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    raise SqlError(f"unknown operator {op!r}")


# --- random databases for property tests --------------------------------

SYMBOLS = ("v0", "v1", "v2", "v3")
DANGLING_CHANCE = 0.2


def random_database(graph: SchemaGraph, seed: int, max_rows: int) -> Database:
    """Deterministic random tables respecting declared key attributes.

    Primary-key cells are unique integers; foreign-key cells reference an
    existing key with probability 0.8 (else dangle); every other cell is
    drawn from a four-symbol domain.
    """
    rng = random.Random(seed)
    pk_attrs: dict[str, set] = {r.name: set() for r in graph.relations}
    fk_targets: dict[tuple, tuple] = {}
    for edge in graph.joins:
        pk_attrs[edge.to_relation].add(edge.to_key)
        fk_targets[(edge.from_relation, edge.from_key)] = (edge.to_relation, edge.to_key)

    db = Database()
    for rel in _topological(graph):
        n = rng.randint(0, max_rows) if max_rows > 0 else 0
        pk_pool = rng.sample(range(1, max(10 * max_rows, 10) + 1), n) if n else []
        rows = []
        for i in range(n):
            values = {}
            for attr in graph.attributes_of(rel.name):
                key = (rel.name, attr.name)
                if attr.name in pk_attrs[rel.name]:
                    values[attr.name] = pk_pool[i]
                elif key in fk_targets:
                    values[attr.name] = _fk_value(rng, db, fk_targets[key])
                else:
                    values[attr.name] = rng.choice(SYMBOLS)
            rows.append(Row(rel.name, values))
        db.tables[rel.name] = rows
    return db


def _fk_value(rng, db, target):
    rel, key = target
    pool = [
        row.cell(key)
        for row in db.tables.get(rel, [])
        if row.cell(key) is not None
    ]
    if pool and rng.random() >= DANGLING_CHANCE:
        return rng.choice(pool)
    return rng.randint(1000, 9999)  # dangling


def _topological(graph: SchemaGraph):
    """Referenced (PK-side) relations first so FK pools exist when drawn."""
    names = [r.name for r in graph.relations]
    deps = {name: set() for name in names}
    for edge in graph.joins:
        if edge.from_relation != edge.to_relation:
            deps[edge.from_relation].add(edge.to_relation)
    ordered = []
    remaining = dict(deps)
    while remaining:
        ready = sorted(n for n, d in remaining.items() if not (d & remaining.keys()))
        if not ready:
            ready = sorted(remaining)  # FK cycle: fall back to name order
        for name in ready:
            ordered.append(name)
            del remaining[name]
    return [graph.relation(n) for n in ordered]
