"""AST for the supported SQL subset, plus re-rendering to text.

WHERE and HAVING are conjunct lists (the subset has no OR), so an
implicit AND wraps them.  Predicates are Compare, CompareAll, InSubquery,
and Exists; a Compare may hold a scalar subquery on its right-hand side,
which is how `having 1 < (select count(*) ...)` is represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass
class ColumnRef:
    alias: Optional[str]
    column: str  # as written in the query
    relation: Optional[str] = None  # canonical relation, set by resolve_names
    attribute: Optional[str] = None  # canonical column, set by resolve_names

    def render(self) -> str:
        return f"{self.alias}.{self.column}" if self.alias else self.column


@dataclass
class Constant:
    value: Union[int, str]

    def render(self) -> str:
        if isinstance(self.value, int):
            return str(self.value)
        escaped = str(self.value).replace("'", "''")
        return f"'{escaped}'"


@dataclass
class CountStar:
    def render(self) -> str:
        return "count(*)"


@dataclass
class CountDistinct:
    column: ColumnRef

    def render(self) -> str:
        return f"count(distinct {self.column.render()})"


@dataclass
class Star:
    def render(self) -> str:
        return "*"


@dataclass
class SelectItem:
    expr: object
    alias: Optional[str] = None

    def render(self) -> str:
        text = self.expr.render()
        return f"{text} as {self.alias}" if self.alias else text


@dataclass
class FromItem:
    relation: str
    alias: str
    canonical: Optional[str] = None  # canonical relation, set by resolve_names

    def render(self) -> str:
        if self.alias.upper() == self.relation.upper():
            return self.relation
        return f"{self.relation} {self.alias}"


@dataclass
class ScalarSubquery:
    query: "Query"

    def render(self) -> str:
        return f"({self.query.render()})"


@dataclass
class Compare:
    lhs: object
    op: str  # = != < <= > >=
    rhs: object

    def render(self) -> str:
        return f"{self.lhs.render()} {self.op} {self.rhs.render()}"


@dataclass
class CompareAll:
    lhs: object
    op: str
    query: "Query"

    def render(self) -> str:
        return f"{self.lhs.render()} {self.op} all ({self.query.render()})"


@dataclass
class InSubquery:
    column: ColumnRef
    query: "Query"

    def render(self) -> str:
        return f"{self.column.render()} in ({self.query.render()})"


@dataclass
class Exists:
    query: "Query"
    negated: bool = False

    def render(self) -> str:
        keyword = "not exists" if self.negated else "exists"
        return f"{keyword} ({self.query.render()})"


Predicate = Union[Compare, CompareAll, InSubquery, Exists]


@dataclass
class Query:
    select_items: list[SelectItem] = field(default_factory=list)
    from_items: list[FromItem] = field(default_factory=list)
    where: list = field(default_factory=list)
    group_by: list[ColumnRef] = field(default_factory=list)
    having: list = field(default_factory=list)
    order_by: list = field(default_factory=list)  # (ColumnRef, "asc"|"desc")

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
            yield from _pred_subqueries(pred, "where")
        for pred in self.having:
            yield from _pred_subqueries(pred, "having")

    def column_refs(self):
        """Every column reference in this query level (not in subqueries)."""
        for item in self.select_items:
            yield from _expr_refs(item.expr)
        for pred in self.where + self.having:
            yield from _pred_refs(pred)
        yield from self.group_by
        for col, _ in self.order_by:
            yield col


def _pred_subqueries(pred, site):
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


def _pred_refs(pred):
    if isinstance(pred, Compare):
        for side in (pred.lhs, pred.rhs):
            yield from _expr_refs(side)
    elif isinstance(pred, CompareAll):
        yield from _expr_refs(pred.lhs)
    elif isinstance(pred, InSubquery):
        yield pred.column
