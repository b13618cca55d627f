"""Nested-loop evaluator: the oracle the rewriter is checked against.

FROM items are bound depth-first in their declared order, and each WHERE
conjunct is checked at the first level where every alias of the query it
names is bound; conjuncts holding a subquery wait for the last level.
Rows therefore come out in the lexicographic order of the full cross
product.  Comparisons are null-rejecting (a null cell satisfies no
predicate, mirroring SQL's treatment closely enough for the supported
subset), and an int never compares with a str.

The first evaluation of a name-resolved query plans every block in one
bottom-up pass and keeps each plan on its block (`Query.plan`), so later
calls reuse it against any database: a block edited after its first
evaluation is not seen.  A block that resolve_names has not annotated
raises SqlError and keeps no plan.  A plan holds nothing tied to a
database: the block's free column references (those naming an alias
that no FROM list inside it binds), and each plain comparison, one of
columns and constants only, decoded into a flat check: an alias and
attribute or a constant per side, and an operator function, which the
binding loop applies directly.  Only conjuncts holding a subquery go
through the general predicate code.  So a hand-built AST with an
unknown operator, or with an alias that no block binds, raises SqlError
before any row is read.  Shortcuts then save repeated work without
changing any result or its row order.  A level with a check `x.a =
<constant>`, or `x.a = y.b` with y bound at an earlier level or outside
the query, reads only the rows the Database's join index holds for that
value, in load order, and skips that check, which each of them passes;
each call ties the levels to its database's tables and indexes first.
A subquery's answer is kept for the call, per distinct value of its
free column references, in the form its connector needs: EXISTS keeps a
bool, found by binding the child only up to the first binding that
passes WHERE (a semi-join, unless the child groups or aggregates); IN
keeps the set of the child's one column; a scalar or ALL comparison
keeps the child's rows.  So EXISTS never raises an SqlError that only a
binding after its witness would (a two-value scalar subquery); SQL
engines short-circuit it too.  The tests and the benchmark check
results against sqlite3, independently of this module.
"""

from __future__ import annotations

import operator

from .ast_nodes import (
    ColumnRef,
    Compare,
    CompareAll,
    Constant,
    CountDistinct,
    CountStar,
    Exists,
    FromItem,
    InSubquery,
    Query,
    ScalarSubquery,
    Star,
)
from .data import Database
from .errors import SqlError
from .record import Record, field


class ResultSet(Record):
    columns: list[str] = field(factory=list)
    rows: list[tuple] = field(factory=list)  # multiset semantics


def evaluate(ast: Query, db: Database) -> ResultSet:
    """Evaluate a name-resolved query against loaded tables."""
    for ref in (ast.plan or _plan(ast)).free:
        _value(ref, {})  # raises: no block encloses the outermost one
    return _Evaluation(db, ast).query(ast, {})


class _Plan(Record):
    """What evaluating one query block needs, whatever the database."""

    levels: list[tuple]  # per FROM item, in order; see _level
    nested: list  # WHERE conjuncts holding a subquery, for the last level
    items: list  # select expressions, each star as the columns it stands for
    columns: list[str]
    grouped: bool
    free: list[ColumnRef]  # one per column read from enclosing queries
    blocks: list[Query]  # every block nested in this one, at any depth


def _plan(query: Query) -> _Plan:
    """Plan `query` and every block nested in it that has no plan yet,
    children first, in one pass over the block's select items, conjuncts
    and keys, and keep each plan on its block.

    A WHERE comparison of columns and constants becomes a flat check
    (alias, attribute, operator, alias, attribute), where a constant
    side has alias None and its value for attribute.  It is filed at
    the level of the deepest alias of this block it names (outer
    aliases and constants are ready at level 0), in declared order.
    Any other conjunct waits for the last level, after its checks.  A
    block's free references are its own plus its children's.  A block
    that resolve_names has not annotated raises before its plan is kept.
    """
    depth = {item.alias: i for i, item in enumerate(query.from_items)}
    checks, nested, refs, blocks = [[] for _ in query.from_items], [], [], []
    items, columns = [], []
    grouped = bool(query.group_by or query.having)
    for item in query.select_items:
        expr = item.expr
        if isinstance(expr, Star):  # its columns are this block's own
            items += expr.columns or ()
            columns += [ref.column for ref in expr.columns or ()]
            continue
        _read(expr, refs, blocks)
        items.append(expr)
        grouped = grouped or isinstance(expr, (CountStar, CountDistinct))
        columns.append(item.alias or (
            expr.column if isinstance(expr, ColumnRef) else expr.render()
        ))
    for pred in query.where:
        sides = [_read(expr, refs, blocks) for expr in _operands(pred)]
        if isinstance(pred, Compare) and None not in sides:
            (a, x), (b, y) = sides
            level = max(depth.get(a, 0), depth.get(b, 0))
            checks[level].append((a, x, _operator(pred.op), b, y))
        else:
            nested.append(pred)
    for pred in query.having:
        for expr in _operands(pred):
            _read(expr, refs, blocks)
    refs += query.group_by
    refs += [col for col, _ in query.order_by]
    free = {(ref.alias, ref.attribute): ref for ref in refs if ref.alias not in depth}
    levels = list(map(_level, query.from_items, checks))
    query.plan = plan = _Plan(
        levels, nested, items, columns, grouped, list(free.values()), blocks
    )
    return plan


def _read(expr, refs: list, blocks: list):
    """Add the column references `expr` reads to `refs`, with the free
    ones of a subquery, and its blocks to `blocks`; return its flat side,
    (alias, attribute) or (None, value), or None if it is not a column or
    a constant."""
    if isinstance(expr, ColumnRef):
        refs.append(expr)
        return expr.alias, expr.attribute
    if isinstance(expr, Constant):
        return None, expr.value
    if isinstance(expr, CountDistinct):
        refs.append(expr.column)
    elif isinstance(expr, (ScalarSubquery, Query)):
        child = expr.query if isinstance(expr, ScalarSubquery) else expr
        plan = child.plan or _plan(child)
        refs += plan.free
        blocks += [child, *plan.blocks]
    return None


def _level(item: FromItem, checks: list) -> tuple:
    """(alias, relation, checks, attribute, other, value) for one FROM item.

    The first check `alias.a = <constant>` or `alias.a = other.b`, other
    another alias, is the level's index probe on attribute `a`: the
    level reads the rows the index holds for the constant (other None,
    value the constant) or, per binding, for the cell `other.b` (value
    b).  The index leaves null cells out and a dict never matches an int
    with a str, so it holds exactly the rows that `_compare` lets
    through, and that check is left out of `checks`.  Without a probe,
    attribute is None and the level reads the whole table.
    """
    if item.canonical is None:
        raise SqlError("query is not name-resolved: call resolve_names first")
    for check in checks:
        a, x, op, b, y = check
        if op is not operator.eq:
            continue
        for own, attribute, other, value in ((a, x, b, y), (b, y, a, x)):
            if own == item.alias != other:
                rest = [c for c in checks if c is not check]
                return item.alias, item.canonical, rest, attribute, other, value
    return item.alias, item.canonical, checks, None, None, None


class _Evaluation:
    """One evaluate call: every block's levels bound to this database, and
    each subquery's answer per connector and distinct value of its free
    column references."""

    def __init__(self, db: Database, ast: Query):
        self.db = db
        # By id(): the AST being evaluated keeps every block alive.
        self.levels: dict[int, list[tuple]] = {}
        for block in (ast, *ast.plan.blocks):
            self.levels[id(block)] = self._bound(block.plan.levels)
        self.memo: dict[tuple[int, str], dict] = {}

    def _bound(self, levels: list[tuple]) -> list[tuple]:
        """Each planned level as (alias, checks, rows, index, other,
        attribute), tied to this database's table, its index entry for a
        constant probe, or its index for a probe on another alias's cell."""
        bound, db = [], self.db
        for alias, relation, checks, attribute, other, value in levels:
            if attribute is None:
                bound.append((alias, checks, db.table(relation), None, None, None))
                continue
            index = db._index(relation, attribute)
            if other is None:
                bound.append((alias, checks, index.get(value, ()), None, None, None))
            else:
                bound.append((alias, checks, None, index, other, value))
        return bound

    def query(self, query: Query, outer_env: dict) -> ResultSet:
        plan = query.plan
        envs = self._bindings(query, outer_env)
        if plan.grouped:
            return self._grouped(query, plan, envs, outer_env)
        keyed = []
        for env in envs:
            out_row = tuple(self._operand(expr, env) for expr in plan.items)
            keyed.append((_order_key(query, env), out_row))
        return ResultSet(plan.columns, _ordered(query, keyed))

    def _bindings(self, query: Query, outer_env: dict, first=False) -> list[dict]:
        """The FROM bindings that satisfy WHERE, in cross-product order;
        with `first`, only the first of them."""
        envs = []
        self._bind(self.levels[id(query)], 0, dict(outer_env), envs, query.plan.nested, first)
        return envs

    def _bind(self, levels, level, env, envs, nested, first) -> bool:
        """Bind `levels[level:]` depth-first in `env`, adding a copy of each
        whole binding that passes WHERE to `envs`; True once `first` has
        its binding."""
        alias, checks, rows, index, other, attribute = levels[level]
        if index is not None:
            rows = index.get(env[other].cell(attribute), ())
        last = level == len(levels) - 1
        for row in rows:
            env[alias] = row
            for a, x, op, b, y in checks:
                lhs = x if a is None else env[a].cell(x)
                if not _compare(lhs, op, y if b is None else env[b].cell(y)):
                    break
            else:
                if not last:
                    if self._bind(levels, level + 1, env, envs, nested, first):
                        return True
                elif not nested or all(self._pred(pred, env) for pred in nested):
                    envs.append(dict(env))
                    if first:
                        return True
        return False

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
                out_row = tuple(self._operand(expr, rep, members) for expr in plan.items)
                keyed.append((_order_key(query, rep), out_row))
        return ResultSet(plan.columns, _ordered(query, keyed))

    def _subquery(self, query: Query, connector: str, env: dict):
        """A nested block's answer under `connector`, computed once per
        call for each distinct value of its free column references in
        `env`: a bool for "exists" (negated or not), a set of values for
        "in", else the block's ResultSet.  Keyed by connector too, so a
        block shared by two connectors never mixes the forms."""
        plan = query.plan
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
                answer = bool(self._bindings(query, env, first=True))
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
            return _compare(lhs, _operator(pred.op), rhs)
        if isinstance(pred, InSubquery):
            needle = _value(pred.column, env)
            if needle is None:
                return False
            return needle in self._subquery(pred.query, "in", env)
        if isinstance(pred, Exists):
            return self._subquery(pred.query, "exists", env) != pred.negated
        if isinstance(pred, CompareAll):
            lhs = self._operand(pred.lhs, env, group)
            op = _operator(pred.op)
            result = self._subquery(pred.query, "compare_all", env)
            # ALL over an empty result is vacuously true (SQL semantics).
            return all(_compare(lhs, op, row[0]) for row in result.rows)
        raise SqlError(f"cannot evaluate predicate {pred!r}")


def _operands(pred) -> tuple:
    """A predicate's operands, the block of a subquery connector included."""
    if isinstance(pred, Compare):
        return pred.lhs, pred.rhs
    if isinstance(pred, CompareAll):
        return pred.lhs, pred.query
    if isinstance(pred, InSubquery):
        return pred.column, pred.query
    if isinstance(pred, Exists):
        return (pred.query,)
    return ()


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


_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _operator(op: str):
    try:
        return _OPERATORS[op]
    except KeyError:
        raise SqlError(f"unknown operator {op!r}") from None


def _compare(lhs, op, rhs) -> bool:
    """`op(lhs, rhs)` under the null rule and the int-vs-str rule."""
    if lhs is None or rhs is None:
        return False
    if isinstance(lhs, int) != isinstance(rhs, int):
        return False  # mismatched types never compare
    return op(lhs, rhs)
