"""Nested-loop evaluator: the oracle the rewriter is checked against.

FROM items are bound depth-first in their declared order, and each WHERE
conjunct is checked at the first level where every alias of the query it
names is bound; conjuncts holding a subquery wait for the last level.
Rows therefore come out in the lexicographic order of the full cross
product.  Comparisons are null-rejecting (a null cell satisfies no
predicate, mirroring SQL's treatment closely enough for the supported
subset).

One bottom-up walk per `evaluate` call plans every query block and finds
its free column references (those naming an alias that no FROM list
inside it binds).  Shortcuts then save repeated work without changing
any result or its row order.  A level with a conjunct `x.a = <constant>`,
or `x.a = y.b` with y bound at an earlier level or outside the query,
reads only the rows the Database's join index holds for that value, in
load order; every conjunct of the level is still checked.  A subquery's
answer is kept per distinct value of its free column references, in the
form its connector needs: EXISTS keeps a bool, found by binding the
child only up to the first binding that passes WHERE (a semi-join,
unless the child groups or aggregates); IN keeps the set of the child's
one column; a scalar or ALL comparison keeps the child's rows.  So
EXISTS never raises an SqlError that only a binding after its witness
would (a two-value scalar subquery); SQL engines short-circuit it too.
Nothing outlives the call, since ASTs are mutable.  The tests and the
benchmark check results against sqlite3, independently of this module.
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
    run = _Evaluation(db)
    run.plan(ast)
    return run.query(ast, {})


class _Plan(Record):
    """What evaluating one query block needs, derived once per call."""

    aliases: list[str]  # in FROM order
    levels: list[tuple]  # per FROM item, see _Evaluation._level
    checks: list[list]  # WHERE conjuncts by level, see _placed
    items: list[SelectItem]  # select items with stars expanded
    columns: list[str]
    grouped: bool
    free: list[ColumnRef]  # one per column read from enclosing queries


class _Evaluation:
    """One evaluate call: a plan per query block, and each subquery's
    answer per connector and distinct value of its free column references."""

    def __init__(self, db: Database):
        self.db = db
        # By id(): the AST being evaluated keeps every block alive.
        self.plans: dict[int, _Plan] = {}
        self.memo: dict[tuple[int, str], dict] = {}

    def plan(self, query: Query) -> _Plan:
        """Plan `query` and every block nested in it, children first, so a
        block's free references are its own plus its children's."""
        plan = self.plans.get(id(query))
        if plan is not None:  # a hand-built AST may share one block
            return plan
        refs = list(query.column_refs())
        for _, _, child in query.subqueries():
            refs += self.plan(child).free
        aliases = [item.alias for item in query.from_items]
        free = {(ref.alias, ref.attribute): ref
                for ref in refs if ref.alias not in aliases}
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
            list(free.values()),
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
        plan = self.plans[id(query)]
        envs = self._bindings(plan, outer_env)
        if plan.grouped:
            return self._grouped(query, plan, envs, outer_env)
        keyed = []
        for env in envs:
            out_row = tuple(_project(item, env, None) for item in plan.items)
            keyed.append((_order_key(query, env), out_row))
        return ResultSet(plan.columns, _ordered(query, keyed))

    def _bindings(self, plan: _Plan, outer_env: dict, first=False) -> list[dict]:
        """The FROM bindings that satisfy WHERE, in cross-product order;
        with `first`, only the first of them."""
        envs, env = [], dict(outer_env)
        last = len(plan.levels) - 1

        def bind(level):  # True once `first` has its binding
            alias, checks = plan.aliases[level], plan.checks[level]
            for row in _rows(plan.levels[level], env):
                env[alias] = row
                for pred in checks:
                    if not self._pred(pred, env):
                        break
                else:
                    if level < last:
                        if bind(level + 1):
                            return True
                    else:
                        envs.append(dict(env))
                        if first:
                            return True
            return False

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

    def _subquery(self, query: Query, connector: str, env: dict):
        """A nested block's answer under `connector`, computed once per
        call for each distinct value of its free column references in
        `env`: a bool for "exists" (negated or not), a set of values for
        "in", else the block's ResultSet.  Keyed by connector too, so a
        block shared by two connectors never mixes the forms."""
        plan = self.plans[id(query)]
        answers = self.memo.get((id(query), connector))
        if answers is None:
            answers = self.memo[id(query), connector] = {}
        key = tuple(_value(ref, env) for ref in plan.free)
        answer = answers.get(key)
        if answer is None:
            if connector == "in":  # resolve_names allows one column only
                answer = {row[0] for row in self.query(query, env).rows}
            elif connector != "exists":
                answer = self.query(query, env)
            elif plan.grouped:
                answer = bool(self.query(query, env).rows)
            else:
                answer = bool(self._bindings(plan, env, first=True))
            answers[key] = answer
        return answer

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
            result = self._subquery(expr.query, "compare_scalar", env)
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
            return needle in self._subquery(pred.query, "in", env)
        if isinstance(pred, Exists):
            return self._subquery(pred.query, "exists", env) != pred.negated
        if isinstance(pred, CompareAll):
            lhs = self._operand(pred.lhs, env, group)
            result = self._subquery(pred.query, "compare_all", env)
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


def _placed(where: list, aliases: list[str]) -> list[list]:
    """WHERE conjuncts by the FROM level after which each is checked.

    A comparison waits for the deepest alias of this query it names (outer
    aliases and constants are ready at level 0); a conjunct holding a
    subquery waits for the last level.  Declared order is kept per level.
    """
    depth = {alias: i for i, alias in enumerate(aliases)}
    checks = [[] for _ in aliases]
    last = len(aliases) - 1
    for pred in where:
        level = last
        if isinstance(pred, Compare) and not (
            isinstance(pred.lhs, ScalarSubquery) or isinstance(pred.rhs, ScalarSubquery)
        ):
            level = 0
            for side in (pred.lhs, pred.rhs):
                if isinstance(side, ColumnRef):
                    level = max(level, depth.get(side.alias, 0))
        checks[level].append(pred)
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
            return env[expr.alias].cells
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
