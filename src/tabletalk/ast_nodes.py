"""AST for the supported SQL subset, plus re-rendering to text.

WHERE and HAVING are conjunct lists (the subset has no OR), so an
implicit AND wraps them.  Predicates are Compare, CompareAll, InSubquery,
and Exists; a Compare may hold a scalar subquery on its right-hand side,
which is how `having 1 < (select count(*) ...)` is represented.
"""

from __future__ import annotations

from .record import Record, field


class ColumnRef(Record):
    alias: str | None
    column: str  # as written in the query
    relation: str | None = None  # canonical relation, set by resolve_names
    attribute: str | None = None  # canonical column, set by resolve_names

    def render(self) -> str:
        return f"{self.alias}.{self.column}" if self.alias else self.column


class Constant(Record):
    value: int | str

    def render(self) -> str:
        if isinstance(self.value, int):
            return str(self.value)
        escaped = str(self.value).replace("'", "''")
        return f"'{escaped}'"


class CountStar(Record):
    def render(self) -> str:
        return "count(*)"


class CountDistinct(Record):
    column: ColumnRef

    def render(self) -> str:
        return f"count(distinct {self.column.render()})"


class Star(Record):
    def render(self) -> str:
        return "*"


class SelectItem(Record):
    expr: object
    alias: str | None = None

    def render(self) -> str:
        text = self.expr.render()
        return f"{text} as {self.alias}" if self.alias else text


class FromItem(Record):
    relation: str
    alias: str
    canonical: str | None = None  # canonical relation, set by resolve_names

    def render(self) -> str:
        if self.alias.upper() == self.relation.upper():
            return self.relation
        return f"{self.relation} {self.alias}"


class ScalarSubquery(Record):
    query: "Query"

    def render(self) -> str:
        return f"({self.query.render()})"


class Compare(Record):
    lhs: object
    op: str  # = != < <= > >=
    rhs: object

    def render(self) -> str:
        return f"{self.lhs.render()} {self.op} {self.rhs.render()}"


class CompareAll(Record):
    lhs: object
    op: str
    query: "Query"

    def render(self) -> str:
        return f"{self.lhs.render()} {self.op} all ({self.query.render()})"


class InSubquery(Record):
    column: ColumnRef
    query: "Query"

    def render(self) -> str:
        return f"{self.column.render()} in ({self.query.render()})"


class Exists(Record):
    query: "Query"
    negated: bool = False

    def render(self) -> str:
        keyword = "not exists" if self.negated else "exists"
        return f"{keyword} ({self.query.render()})"


Predicate = Compare | CompareAll | InSubquery | Exists


class Query(Record):
    select_items: list[SelectItem] = field(factory=list)
    from_items: list[FromItem] = field(factory=list)
    where: list = field(factory=list)
    group_by: list[ColumnRef] = field(factory=list)
    having: list = field(factory=list)
    order_by: list = field(factory=list)  # (ColumnRef, "asc"|"desc")

    def render(self) -> str:
        parts = [
            "select " + ", ".join(item.render() for item in self.select_items),
            "from " + ", ".join(item.render() for item in self.from_items),
        ]
        if self.where:
            parts.append("where " + " and ".join(p.render() for p in self.where))
        if self.group_by:
            parts.append("group by " + ", ".join(c.render() for c in self.group_by))
        if self.having:
            parts.append("having " + " and ".join(p.render() for p in self.having))
        if self.order_by:
            parts.append(
                "order by "
                + ", ".join(f"{c.render()} {d}" for c, d in self.order_by)
            )
        return " ".join(parts)

    def subqueries(self):
        """Yield (site, connector, child) for every directly nested query."""
        for pred in self.where:
            yield from pred_subqueries(pred, "where")
        for pred in self.having:
            yield from pred_subqueries(pred, "having")

    def column_refs(self):
        """Every column reference in this query level (not in subqueries)."""
        for item in self.select_items:
            yield from _expr_refs(item.expr)
        for pred in self.where + self.having:
            yield from pred_refs(pred)
        yield from self.group_by
        for col, _ in self.order_by:
            yield col


def pred_subqueries(pred, site):
    """Yield (site, connector, child) for each subquery `pred` holds."""
    if isinstance(pred, InSubquery):
        yield site, "in", pred.query
    elif isinstance(pred, Exists):
        yield site, ("not_exists" if pred.negated else "exists"), pred.query
    elif isinstance(pred, CompareAll):
        yield site, "compare_all", pred.query
    elif isinstance(pred, Compare):
        for side in (pred.lhs, pred.rhs):
            if isinstance(side, ScalarSubquery):
                yield site, "compare_scalar", side.query


def _expr_refs(expr):
    if isinstance(expr, ColumnRef):
        yield expr
    elif isinstance(expr, CountDistinct):
        yield expr.column


def pred_refs(pred):
    """Yield the column references of one predicate, outside subqueries."""
    if isinstance(pred, Compare):
        for side in (pred.lhs, pred.rhs):
            yield from _expr_refs(side)
    elif isinstance(pred, CompareAll):
        yield from _expr_refs(pred.lhs)
    elif isinstance(pred, InSubquery):
        yield pred.column
