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
    # Blocks out to the FROM item it binds, 0 for its own; set by resolve_names.
    # It follows from where the reference sits: not in repr or equality.
    level: int = field(0, shown=False)

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
    # Every column of the FROM list, item by item in declared attribute
    # order, as resolved ColumnRefs; set by resolve_names.  A query whose
    # FROM list has items these columns do not cover (a flattened one)
    # renders them in place of `*`.
    columns: list | None = field(None, init=False, shown=False)

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


class Query(Record):
    select_items: list[SelectItem] = field(factory=list)
    from_items: list[FromItem] = field(factory=list)
    where: list = field(factory=list)
    group_by: list[ColumnRef] = field(factory=list)
    having: list = field(factory=list)
    order_by: list = field(factory=list)  # (ColumnRef, "asc"|"desc")
    # The evaluator's plan of this block, made on its first evaluation and
    # kept; see evaluator.py.
    plan: object = field(None, init=False, shown=False)

    def render(self) -> str:
        parts = [
            "select " + ", ".join(map(self._render_item, self.select_items)),
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

    def _render_item(self, item: SelectItem) -> str:
        star = item.expr
        if isinstance(star, Star) and star.columns is not None and (
            {ref.alias for ref in star.columns} != {f.alias for f in self.from_items}
        ):
            return ", ".join(ref.render() for ref in star.columns)
        return item.render()

    def subqueries(self):
        """Yield (site, connector, child) for every directly nested query."""
        for pred in self.where:
            yield from pred_subqueries(pred, "where")
        for pred in self.having:
            yield from pred_subqueries(pred, "having")

    def column_refs(self) -> list[ColumnRef]:
        """Every column reference in this query level (not in subqueries)."""
        refs = [ref for item in self.select_items if (ref := expr_ref(item.expr))]
        for pred in self.where:
            refs += pred_refs(pred)
        for pred in self.having:
            refs += pred_refs(pred)
        refs += self.group_by
        refs += [col for col, _ in self.order_by]
        return refs


def pred_subqueries(pred, site):
    """Yield (site, connector, child) for each subquery `pred` holds."""
    if isinstance(pred, InSubquery):
        yield site, "in", pred.query
    elif isinstance(pred, Exists):
        yield site, ("not_exists" if pred.negated else "exists"), pred.query
    elif isinstance(pred, CompareAll):
        yield site, "compare_all", pred.query
    elif isinstance(pred, Compare) and isinstance(pred.rhs, ScalarSubquery):
        yield site, "compare_scalar", pred.rhs.query


def expr_ref(expr) -> ColumnRef | None:
    """The column a select item or operand reads, counted or not, if any."""
    if isinstance(expr, ColumnRef):
        return expr
    if isinstance(expr, CountDistinct):
        return expr.column
    return None


def operands(pred) -> tuple:
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


def pred_refs(pred) -> list[ColumnRef]:
    """The column references of one predicate, outside subqueries."""
    return [ref for expr in operands(pred) if (ref := expr_ref(expr))]
