"""Nested-loop evaluator: the oracle the rewriter is checked against.

FROM items are bound depth-first in their declared order, and each WHERE
conjunct is checked at the first level where every alias of the query it
names is bound; conjuncts holding a subquery wait for the last level.
Rows therefore come out in the lexicographic order of the full cross
product.  Comparisons are null-rejecting (a null cell satisfies no
predicate, mirroring SQL's treatment closely enough for the supported
subset).

Within one `evaluate` call each query block is planned once, and two
shortcuts save repeated work without changing any result or its row
order.  A level with a conjunct `x.a = <constant>`, or `x.a = y.b` with y
bound at an earlier level or outside the query, reads only the rows the
Database's join index holds for that value, in load order, instead of
the whole table; every conjunct of the level is still checked.  A
subquery's result is kept under the values of its free column references
(those naming an alias that no FROM list inside it binds), so it runs
once per distinct outer value.  Nothing outlives the call, since ASTs
are mutable.  The tests and the benchmark check results against sqlite3,
independently of this module.
"""

from __future__ import annotations

import random

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
from .record import Record, field
from .schema import SchemaGraph


class ResultSet(Record):
    columns: list[str] = field(factory=list)
    rows: list[tuple] = field(factory=list)  # multiset semantics


def evaluate(ast: Query, db: Database) -> ResultSet:
    """Evaluate a name-resolved query against loaded tables."""
    return _Evaluation(db).query(ast, {})


class _Plan(Record):
    """What evaluating one query block needs, derived once per call."""

    aliases: list[str]  # in FROM order
    levels: list[tuple]  # per FROM item, see _Evaluation._level
    checks: list[list]  # WHERE conjuncts by level, see _placed
    items: list[SelectItem]  # select items with stars expanded
    columns: list[str]
    grouped: bool


class _Evaluation:
    """One evaluate call: a plan per query block, and each subquery's
    result per distinct value of its free column references."""

    def __init__(self, db: Database):
        self.db = db
        # Both by id(): the AST being evaluated keeps every block alive.
        self.plans: dict[int, _Plan] = {}
        self.memo: dict[int, tuple[list[ColumnRef], dict]] = {}

    def plan(self, query: Query) -> _Plan:
        plan = self.plans.get(id(query))
        if plan is None:
            aliases = [item.alias for item in query.from_items]
            checks = _placed(query.where, aliases)
            levels = [
                self._level(item, alias, checks[i])
                for i, (item, alias) in enumerate(zip(query.from_items, aliases))
            ]
            plan = self.plans[id(query)] = _Plan(
                aliases,
                levels,
                checks,
                _expand_star(query),
                _output_columns(query),
                bool(query.group_by) or _has_aggregate(query),
            )
        return plan

    def _level(self, item, alias: str, checks: list) -> tuple:
        """(rows, index, other) for one FROM level.

        Without an index the level reads `rows`.  A conjunct
        `alias.a = <constant>` narrows `rows` to the constant's index
        entry; a conjunct `alias.a = other` keeps the index of `a`, looked
        up per binding with the value of the column reference `other`.
        """
        table = self.db.table(item.canonical)
        for pred in checks:
            probe = _probe(pred, alias)
            if probe is None:
                continue
            attribute, other = probe
            index = self.db._index(item.canonical, attribute)
            if isinstance(other, Constant):
                return index.get(other.value, ()), None, None
            return table, index, other
        return table, None, None

    def query(self, query: Query, outer_env: dict) -> ResultSet:
        plan = self.plan(query)
        envs = self._bindings(plan, outer_env)
        if plan.grouped:
            return self._grouped(query, plan, envs, outer_env)
        keyed = []
        for env in envs:
            out_row = tuple(_project(item, env, None) for item in plan.items)
            keyed.append((_order_key(query, env), out_row))
        return ResultSet(plan.columns, _ordered(query, keyed))

    def _bindings(self, plan: _Plan, outer_env: dict) -> list[dict]:
        """The FROM bindings that satisfy WHERE, in cross-product order."""
        envs, env = [], dict(outer_env)
        last = len(plan.levels) - 1

        def bind(level):
            alias, checks = plan.aliases[level], plan.checks[level]
            for row in _rows(plan.levels[level], env):
                env[alias] = row
                if not all(self._pred(p, env) for p in checks):
                    continue
                if level < last:
                    bind(level + 1)
                else:
                    envs.append(dict(env))

        bind(0)
        return envs

    def _grouped(self, query, plan, envs, outer_env) -> ResultSet:
        groups: dict[tuple, list] = {}
        for env in envs:
            key = tuple(_value(col, env) for col in query.group_by)
            groups.setdefault(key, []).append(env)
        if not query.group_by and not groups:
            groups[()] = []  # aggregate over an empty input still yields one row
        keyed = []
        for key in groups:
            members = groups[key]
            rep = dict(members[0]) if members else dict(outer_env)
            if all(self._pred(p, rep, group=members) for p in query.having):
                out_row = tuple(
                    _project(item, rep, members) for item in query.select_items
                )
                keyed.append((_order_key(query, rep), out_row))
        return ResultSet(plan.columns, _ordered(query, keyed))

    def _subquery(self, query: Query, env: dict) -> ResultSet:
        """A nested block's result, computed once per call for each
        distinct value of its free column references in `env`."""
        entry = self.memo.get(id(query))
        if entry is None:
            entry = self.memo[id(query)] = (_free_refs(query), {})
        refs, results = entry
        key = tuple(_value(ref, env) for ref in refs)
        result = results.get(key)
        if result is None:
            result = results[key] = self.query(query, env)
        return result

    def _operand(self, expr, env, group=None):
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
            result = self._subquery(expr.query, env)
            if not result.rows:
                return None
            if len(result.rows) > 1 or len(result.rows[0]) != 1:
                raise SqlError("scalar subquery returned more than one value")
            return result.rows[0][0]
        raise SqlError(f"cannot evaluate operand {expr!r}")

    def _pred(self, pred, env, group=None) -> bool:
        if isinstance(pred, Compare):
            lhs = self._operand(pred.lhs, env, group)
            rhs = self._operand(pred.rhs, env, group)
            return _compare(lhs, pred.op, rhs)
        if isinstance(pred, InSubquery):
            needle = _value(pred.column, env)
            if needle is None:
                return False
            result = self._subquery(pred.query, env)
            return any(row[0] == needle for row in result.rows)
        if isinstance(pred, Exists):
            result = self._subquery(pred.query, env)
            return (not result.rows) if pred.negated else bool(result.rows)
        if isinstance(pred, CompareAll):
            lhs = self._operand(pred.lhs, env, group)
            result = self._subquery(pred.query, env)
            # ALL over an empty result is vacuously true (SQL semantics).
            return all(_compare(lhs, pred.op, row[0]) for row in result.rows)
        raise SqlError(f"cannot evaluate predicate {pred!r}")


def _rows(level: tuple, env: dict):
    rows, index, other = level
    return rows if index is None else index.get(_value(other, env), ())


def _probe(pred, alias: str):
    """(attribute, other side) when `pred` is `alias.attribute = other`,
    other a constant or a column of another alias; else None.

    The index leaves null cells out and a dict never matches an int with
    a str, so the rows it holds for a value are exactly those `_compare`
    lets through.
    """
    if not isinstance(pred, Compare) or pred.op != "=":
        return None
    for own, other in ((pred.lhs, pred.rhs), (pred.rhs, pred.lhs)):
        if not (isinstance(own, ColumnRef) and own.alias == alias):
            continue
        if isinstance(other, Constant) or (
            isinstance(other, ColumnRef) and other.alias != alias
        ):
            return own.attribute, other
    return None


def _free_refs(query: Query) -> list[ColumnRef]:
    """One reference per column `query` reads, at any depth, through an
    alias that no FROM list inside it binds."""
    refs = list(query.column_refs())
    for _, _, child in query.subqueries():
        refs += _free_refs(child)
    own = {item.alias for item in query.from_items}
    free = {(ref.alias, ref.attribute): ref for ref in refs}
    return [ref for (alias, _), ref in free.items() if alias not in own]


def _placed(where: list, aliases: list[str]) -> list[list]:
    """WHERE conjuncts by the FROM level after which each is checked.

    A comparison waits for the deepest alias of this query it names (outer
    aliases and constants are ready at level 0); a conjunct holding a
    subquery waits for the last level.  Declared order is kept per level.
    """
    depth = {alias: i for i, alias in enumerate(aliases)}
    checks = [[] for _ in aliases]
    for pred in where:
        sides = (pred.lhs, pred.rhs) if isinstance(pred, Compare) else ()
        if sides and not any(isinstance(side, ScalarSubquery) for side in sides):
            levels = [depth.get(side.alias, 0)
                      for side in sides if isinstance(side, ColumnRef)]
            checks[max(levels, default=0)].append(pred)
        else:
            checks[-1].append(pred)
    return checks


def _ordered(query, keyed):
    # One stable sort per key, last key first.  The second sort moves nulls
    # last whatever the direction, keeping the order among the rest.
    for index, (_, direction) in reversed(list(enumerate(query.order_by))):
        keyed.sort(
            key=lambda pair: _sort_token(pair[0][index]),
            reverse=(direction == "desc"),
        )
        keyed.sort(key=lambda pair: pair[0][index] is None)
    return [row for _, row in keyed]


def _sort_token(value):
    # Mixed types sort by type name.
    return (type(value).__name__, value)


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
            row = env[expr.alias]
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
    row = env.get(ref.alias)
    if row is None:
        raise SqlError(f"alias {ref.alias!r} not bound during evaluation")
    return row.cell(ref.attribute)


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
