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
raises SqlError and keeps no plan.  A plan is its block decoded once into
closures over aliases, attributes, constants and child blocks, never a
database: one per FROM level, fixed to its row source and its flat checks
(comparisons of columns and constants); one per HAVING conjunct and per
WHERE conjunct holding a subquery; and readers of (alias, attribute)
pairs for the select list, the GROUP BY key and the memo key.  The binding loop only calls them, and
a block that does not group projects each passing binding where it is
found.  Cells are read through `Row.cell`, looked up at each read.  So a
hand-built AST with an unknown operator in a flat check, or with an alias
that no block binds, raises SqlError before any row is read.  Shortcuts
then save repeated work without changing any result or its row order.  A
level with a check `x.a = <constant>`, or `x.a = y.b` with y bound at an
earlier level or outside the query, reads only the rows the Database's
join index holds for that value, in load order, and skips that check,
which each of them passes; each call first ties every block's levels
to its database's tables and indexes, one comprehension per block, so a
missing table raises UnknownRelation even when no row would reach it.
A subquery's answer is kept for the call, per distinct value of its
free column references, in the form its connector needs: EXISTS keeps a
bool, found by binding the child only up to the first binding that
passes WHERE (a semi-join, unless the child groups or aggregates); IN
keeps the set of the child's one column; a scalar or ALL comparison
keeps the child's rows.  So EXISTS never raises an SqlError
that only a binding after its witness would (a two-value scalar
subquery); SQL engines short-circuit it too.  The tests and the benchmark
check results against sqlite3, independently of this module.
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
    operands,
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

    levels: list[tuple]  # per FROM item, (relation, attribute, other, value); see _level
    bind: object  # the closure binding the first level; see _stage
    having: list  # per HAVING conjunct, its closure; see _test
    items: list  # select expressions, each star as the columns it stands for
    group: object  # reads a binding's GROUP BY key, or None if not grouped
    project: object  # reads a binding's output row, or None if grouped
    columns: list[str]
    free: list[ColumnRef]  # one per column read from enclosing queries
    key: object  # reads the cells of free: the block's memo key
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
    Any other conjunct becomes a closure (see _test) that waits for the
    last level, after its checks.  A block's free references are its
    own plus its children's.  A block that resolve_names has not
    annotated raises before its plan is kept.
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
        sides = [_read(expr, refs, blocks) for expr in operands(pred)]
        if isinstance(pred, Compare) and None not in sides:
            (a, x), (b, y) = sides
            level = max(depth.get(a, 0), depth.get(b, 0))
            checks[level].append((a, x, _operator(pred.op), b, y))
        else:
            nested.append(_test(pred))
    for pred in query.having:
        for expr in operands(pred):
            _read(expr, refs, blocks)
    refs += query.group_by
    refs += [col for col, _ in query.order_by]
    free = list({(r.alias, r.attribute): r for r in refs if r.alias not in depth}.values())
    levels, bind = [], _leaf(nested)
    for i in reversed(range(len(query.from_items))):
        level, bind = _level(i, query.from_items[i], checks[i], bind)
        levels.insert(0, level)
    query.plan = plan = _Plan(
        levels, bind, list(map(_test, query.having)), items,
        _reader(query.group_by) if grouped else None, None if grouped else _reader(items),
        columns, free, _reader(free), blocks,
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


def _level(i: int, item: FromItem, checks: list, inner) -> tuple:
    """(relation, attribute, other, value) for FROM item i, and its closure.

    The first check `alias.a = <constant>` or `alias.a = other.b`, other
    another alias, is the level's index probe on attribute `a`: the
    level reads the rows the index holds for the constant (other None,
    value the constant) or, per binding, for the cell `other.b` (value
    b).  The index leaves null cells out and a dict never matches an int
    with a str, so it holds exactly the rows that `_compare` lets
    through, and that check is left out of the level's checks.  Without
    a probe, attribute is None and the level reads the whole table.
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
                level = item.canonical, attribute, other, value
                return level, _stage(i, item.alias, rest, other, value, inner)
    return (item.canonical, None, None, None), _stage(i, item.alias, checks, None, None, inner)


def _stage(i: int, alias: str, checks: list, other, attribute, inner):
    """The closure (evaluation, sources, env, emit) -> bool binding level i:
    alias to each row of `sources[i]` (or, for a join probe, of its entry
    for the cell `other.attribute`) that passes `checks`, then `inner`."""
    def stage(ev, sources, env, emit):
        rows = sources[i] if other is None else sources[i].get(env[other].cell(attribute), ())
        for row in rows:
            env[alias] = row
            for a, x, op, b, y in checks:
                if not _compare(x if a is None else env[a].cell(x), op,
                                y if b is None else env[b].cell(y)):
                    break
            else:
                if inner(ev, sources, env, emit):
                    return True
        return False
    return stage


def _leaf(nested: list):
    """The closure after the last level: emit each binding that passes
    `nested`; emit returns True to stop."""
    def leaf(ev, sources, env, emit):
        for test in nested:
            if not test(ev, env, None):
                return False
        return emit(env)
    return leaf


def _test(pred):
    """A conjunct as a closure (evaluation, env, group) -> bool: IN and
    EXISTS call _subquery themselves, a scalar or ALL comparison _pred."""
    if isinstance(pred, InSubquery):
        column, child = pred.column, pred.query
        return lambda ev, env, group: (needle := _value(column, env)) is not None and (
            needle in ev._subquery(child, "in", env))
    if isinstance(pred, Exists):
        child, negated = pred.query, pred.negated
        return lambda ev, env, group: ev._subquery(child, "exists", env) != negated
    return lambda ev, env, group: ev._pred(pred, env, group)


def _reader(exprs: list):
    """A closure (evaluation, env) -> the values of `exprs`: cells read by
    (alias, attribute) pairs if all are columns, else through _operand."""
    if not exprs:
        return lambda ev, env: ()
    pairs = [(e.alias, e.attribute) for e in exprs if isinstance(e, ColumnRef)]
    if len(pairs) < len(exprs):
        return lambda ev, env: tuple([ev._operand(expr, env) for expr in exprs])
    if len(pairs) == 1:
        [(alias, attribute)] = pairs
        return lambda ev, env: (env[alias].cell(attribute),)
    return lambda ev, env: tuple([env[a].cell(x) for a, x in pairs])


class _Evaluation:
    """One evaluate call: every block's levels tied to this database, and
    each subquery's answer per connector and distinct value of its free
    column references."""

    def __init__(self, db: Database, ast: Query):
        # Each planned level's rows in this database: its table, its index
        # for a join probe, or its index entry for a constant probe.  By
        # id(): the AST being evaluated keeps every block alive.
        table, index = db.table, db._index
        self.sources = {
            id(block): [
                table(relation) if attribute is None
                else index(relation, attribute) if other is not None
                else index(relation, attribute).get(value, ())
                for relation, attribute, other, value in block.plan.levels
            ]
            for block in (ast, *ast.plan.blocks)
        }
        self.memo: dict[tuple[int, str, tuple], object] = {}

    def query(self, query: Query, outer_env: dict) -> ResultSet:
        plan, rows = query.plan, []
        sources, env, project = self.sources[id(query)], dict(outer_env), plan.project
        if plan.group is not None:
            plan.bind(self, sources, env, lambda bound: rows.append(dict(bound)))
            return self._grouped(query, plan, rows, outer_env)
        if not query.order_by:
            plan.bind(self, sources, env, lambda bound: rows.append(project(self, bound)))
            return ResultSet(plan.columns, rows)
        plan.bind(self, sources, env, lambda bound: rows.append(
            (_order_key(query, bound), project(self, bound))))
        return ResultSet(plan.columns, _ordered(query, rows))

    def _grouped(self, query, plan, envs, outer_env) -> ResultSet:
        groups: dict[tuple, list] = {}
        for env in envs:
            groups.setdefault(plan.group(self, env), []).append(env)
        if not query.group_by and not groups:
            # An aggregate over an empty input still yields one row, in
            # which the block's own columns read NULL.
            groups[()] = []
            outer_env = {**outer_env, **{item.alias: _NULL_ROW for item in query.from_items}}
        rows = []
        for members in groups.values():
            rep = members[0] if members else outer_env
            for test in plan.having:
                if not test(self, rep, members):
                    break
            else:
                row = tuple([self._operand(expr, rep, members) for expr in plan.items])
                rows.append((_order_key(query, rep), row) if query.order_by else row)
        return ResultSet(plan.columns, _ordered(query, rows) if query.order_by else rows)

    def _subquery(self, query: Query, connector: str, env: dict):
        """A nested block's answer under `connector`, computed once per
        call for each distinct value of its free column references in
        `env`: a bool for "exists" (negated or not), a set of values for
        "in", else the block's ResultSet.  Keyed by connector too, so a
        block shared by two connectors never mixes the forms."""
        plan = query.plan
        slot = id(query), connector, plan.key(self, env)
        answer = self.memo.get(slot)
        if answer is None:
            if connector == "in":  # resolve_names allows one column only
                answer = {row[0] for row in self.query(query, env).rows}
            elif connector != "exists":
                answer = self.query(query, env)
            elif plan.group is not None:
                answer = bool(self.query(query, env).rows)
            else:  # stop at the first binding that passes WHERE
                answer = plan.bind(self, self.sources[id(query)], dict(env), lambda bound: True)
            self.memo[slot] = answer
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
        if isinstance(pred, CompareAll):
            lhs = self._operand(pred.lhs, env, group)
            op = _operator(pred.op)
            result = self._subquery(pred.query, "compare_all", env)
            # ALL over an empty result is vacuously true (SQL semantics).
            return all(_compare(lhs, op, row[0]) for row in result.rows)
        raise SqlError(f"cannot evaluate predicate {pred!r}")


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
    return len({_value(expr.column, env) for env in group} - {None})


class _NullRow:
    """A FROM item's row in the one group of an aggregate over an empty
    input: every cell reads NULL."""

    def cell(self, attribute):
        return None


_NULL_ROW = _NullRow()


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
