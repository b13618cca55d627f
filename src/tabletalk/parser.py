"""Recursive-descent parser for the SQL subset, plus name resolution.

The subset covers conjunctive SELECT queries: qualified/unqualified
column references, count(*) and count(distinct col) aggregates, IN /
EXISTS / NOT EXISTS / <op> ALL nesting, scalar-subquery comparison,
GROUP BY / HAVING, and ORDER BY.  Anything else in the SQL standard is
rejected with Unsupported so translations never silently drop meaning.
Grammar in docs/sql-subset.md.

Aliases are matched case-insensitively, as in SQL, and only here:
`resolve_names` gives every column reference the alias spelling of the
FROM item it binds, so later stages compare aliases as plain strings.
It also decides scope, once: each reference's `level` says how many
query blocks out that FROM item is (0: its own block, k: k blocks out).
Nothing else writes `level`; the query graph, the rewriter and the
translator read it instead of looking the alias up again.
"""

from __future__ import annotations

import re

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
    SelectItem,
    Star,
    operands,
)
from .errors import (
    AmbiguousColumn,
    SqlError,
    SyntaxError_,
    UnknownColumn,
    UnknownRelation,
    Unsupported,
)

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "GROUP", "ORDER", "BY", "HAVING",
    "IN", "EXISTS", "NOT", "ALL", "ANY", "SOME", "COUNT", "DISTINCT", "AS",
    "ASC", "DESC", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "ON",
    "UNION", "INTERSECT", "EXCEPT", "LIKE", "BETWEEN", "IS", "NULL",
    "SUM", "AVG", "MIN", "MAX", "LIMIT", "OFFSET",
}

UNSUPPORTED_AGGREGATES = {"SUM", "AVG", "MIN", "MAX"}

# Connectors whose child must select one column, as errors name them.
ONE_COLUMN_CONNECTORS = {"in": "IN", "compare_all": "ALL", "compare_scalar": "scalar"}

MAX_NESTING = 64

_TOKEN_RE = re.compile(
    r"""
    (\s*)
    ( [A-Za-z_][A-Za-z0-9_]*        # ident or keyword
    | [(),.*]                       # punct
    | <=|>=|<>|!=|=|<|>             # op
    | \d+                           # number
    | '(?:[^']|'')*'                # string
    | [+\-/%]                       # arith
    )
    """,
    re.VERBOSE,
)

# A token's kind by its first character.  Only a number starts with a
# character not listed: a digit, which `\d` also matches outside ASCII.
_KINDS = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "ident")
_KINDS |= dict.fromkeys("(),.*", "punct") | dict.fromkeys("<>=!", "op")
_KINDS |= dict.fromkeys("+-/%", "arith") | {"'": "string"}


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """Lex `text` in one pass into (kind, value, pos) tuples.

    kind is ident, keyword (value upper-cased), number, string (quotes
    kept), op, punct or arith; pos is a character offset.  The list ends
    with ("eof", "", len(text)).  Offsets are summed from the lengths of
    spaces and tokens; `findall` skips a character that starts no token, so
    then the sum falls short, and only then is it found, to raise at it.
    """
    tokens = []
    end = 0
    for space, value in _TOKEN_RE.findall(text):
        start = end + len(space)
        end = start + len(value)
        kind = _KINDS.get(value[0], "number")
        if kind == "ident" and (upper := value.upper()) in KEYWORDS:
            kind, value = "keyword", upper
        tokens.append((kind, value, start))
    if end != len(text.rstrip()):
        pos = 0
        while (match := _TOKEN_RE.match(text, pos)) is not None:
            pos = match.end()
        rest = text[pos:]
        pos += len(rest) - len(rest.lstrip())
        raise SyntaxError_(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens


class Parser:
    """Recursive descent over `tokenize` output, read by index.

    A keyword or punctuation value is never the value of another kind of
    token (an identifier that spells a keyword lexes as that keyword), so
    `take` and `expect` compare values alone.  No rule asks for the eof
    value "", so the parser never moves past eof.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    def value(self) -> str:
        return self.tokens[self.pos][1]

    def offset(self) -> int:
        return self.tokens[self.pos][2]

    def take(self, value: str) -> bool:
        if self.tokens[self.pos][1] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str):
        if self.tokens[self.pos][1] != value:
            what = value if value.isalpha() else repr(value)  # FROM, but '('
            self.fail(what, (value,))
        self.pos += 1

    def fail(self, what: str, expected: tuple):
        _, value, pos = self.tokens[self.pos]
        raise SyntaxError_(f"expected {what}, found {value!r}", pos, expected)

    def ident(self, what: str) -> str:
        kind, value, _ = self.tokens[self.pos]
        if kind != "ident":
            self.fail(what, (what,))
        self.pos += 1
        return value

    # -- grammar ----------------------------------------------------------

    def parse_query(self) -> Query:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxError_("query nesting too deep", self.offset())
        self.expect("SELECT")
        if self.take("DISTINCT"):
            raise Unsupported("SELECT DISTINCT", self.offset())
        query = Query()
        query.select_items = self.select_list()
        self.expect("FROM")
        query.from_items = self.from_list()
        if self.take("WHERE"):
            query.where = self.conjunction()
        if self.take("GROUP"):
            self.expect("BY")
            query.group_by = self.column_list()
            if self.take("HAVING"):
                query.having = self.conjunction()
        elif self.value() == "HAVING":
            raise Unsupported("HAVING without GROUP BY", self.offset())
        if self.take("ORDER"):
            self.expect("BY")
            query.order_by = self.order_list()
        if (word := self.value()) in ("UNION", "INTERSECT", "EXCEPT", "LIMIT"):
            raise Unsupported(word, self.offset())
        self.depth -= 1
        return query

    def select_list(self) -> list[SelectItem]:
        if self.take("*"):
            return [SelectItem(Star())]
        items = [self.select_item()]
        while self.take(","):
            items.append(self.select_item())
        return items

    def select_item(self) -> SelectItem:
        expr = self.simple_expr()
        alias = self.ident("select alias") if self.take("AS") else None
        return SelectItem(expr, alias)

    def simple_expr(self):
        """Column reference, constant, or count aggregate; no arithmetic."""
        kind, value, pos = self.tokens[self.pos]
        if kind == "ident":
            expr = self.column_ref()
        elif kind == "number":
            self.pos += 1
            try:
                expr = Constant(int(value))
            except ValueError:  # more digits than int() converts (4300 by default)
                raise SyntaxError_("integer constant too long", pos) from None
        elif kind == "string":
            self.pos += 1
            expr = Constant(value[1:-1].replace("''", "'"))
        elif value == "COUNT":
            self.pos += 1
            self.expect("(")
            if self.take("*"):
                expr = CountStar()
            elif self.take("DISTINCT"):
                expr = CountDistinct(self.column_ref())
            else:
                raise Unsupported("count over a plain expression", self.offset())
            self.expect(")")
        elif value in UNSUPPORTED_AGGREGATES:
            raise Unsupported(f"aggregate {value}", pos)
        else:
            self.fail("expression", ("expression",))
        kind, value, pos = self.tokens[self.pos]
        if kind == "arith" or value == "*":
            raise Unsupported("arithmetic expressions", pos)
        return expr

    def column_ref(self) -> ColumnRef:
        first = self.ident("column reference")
        if self.take("."):
            return ColumnRef(first, self.ident("column name"))
        return ColumnRef(None, first)

    def column_list(self) -> list[ColumnRef]:
        cols = [self.column_ref()]
        while self.take(","):
            cols.append(self.column_ref())
        return cols

    def from_list(self) -> list[FromItem]:
        items = [self.from_item()]
        while self.take(","):
            items.append(self.from_item())
        if self.value() in ("JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER"):
            raise Unsupported("explicit JOIN syntax", self.offset())
        return items

    def from_item(self) -> FromItem:
        relation = self.ident("relation name")
        kind, alias, _ = self.tokens[self.pos]
        if kind != "ident":
            return FromItem(relation, relation)
        self.pos += 1
        return FromItem(relation, alias)

    def conjunction(self) -> list:
        preds = [self.predicate()]
        while self.take("AND"):
            preds.append(self.predicate())
        if self.value() == "OR":
            raise Unsupported("OR", self.offset())
        return preds

    def predicate(self):
        if self.take("NOT"):
            if self.take("EXISTS"):
                return Exists(self.parenthesized_query(), negated=True)
            if self.value() == "IN":
                raise Unsupported("NOT IN", self.offset())
            raise Unsupported("NOT over a general predicate", self.offset())
        if self.take("EXISTS"):
            return Exists(self.parenthesized_query())
        lhs = self.simple_expr()
        kind, value, pos = self.tokens[self.pos]
        if value == "NOT":
            raise Unsupported("NOT IN", pos)
        if value == "IN":
            self.pos += 1
            if not isinstance(lhs, ColumnRef):
                raise SyntaxError_(
                    "IN requires a column reference on its left", self.offset()
                )
            return InSubquery(lhs, self.parenthesized_query())
        if value in ("LIKE", "BETWEEN", "IS"):
            raise Unsupported(value, pos)
        if kind != "op":
            self.fail("comparison operator", ("=", "!=", "<", "<=", ">", ">="))
        self.pos += 1
        op = "!=" if value == "<>" else value
        if self.take("ALL"):
            return CompareAll(lhs, op, self.parenthesized_query())
        _, value, pos = self.tokens[self.pos]
        if value in ("ANY", "SOME"):
            raise Unsupported(f"{value} quantifier", pos)
        if value == "(":
            return Compare(lhs, op, ScalarSubquery(self.parenthesized_query()))
        return Compare(lhs, op, self.simple_expr())

    def parenthesized_query(self) -> Query:
        self.expect("(")
        query = self.parse_query()
        self.expect(")")
        return query

    def order_list(self) -> list:
        items = []
        while True:
            col = self.column_ref()
            if self.take("DESC"):
                items.append((col, "desc"))
            else:
                self.take("ASC")
                items.append((col, "asc"))
            if not self.take(","):
                return items


def parse_sql(text: str) -> Query:
    """Parse one SELECT statement; raises SyntaxError_ or Unsupported."""
    parser = Parser(tokenize(text))
    query = parser.parse_query()
    kind, value, pos = parser.tokens[parser.pos]
    if kind != "eof":
        raise SyntaxError_(
            f"unexpected trailing input {value!r}", pos, ("end of input",)
        )
    return query


# --- name resolution ---------------------------------------------------

def resolve_names(query: Query, graph) -> Query:
    """Qualify and check every column reference against the schema, and
    record where it binds.

    Correlated references resolve through enclosing query scopes, inner
    scope first; aliases and column names match case-insensitively.  The
    query is annotated in place and returned: each FromItem gets its
    relation's declared name (`canonical`), and each ColumnRef its declared
    relation and attribute names, the alias as its FROM item spells it (so
    a resolved query renders `M.title` as `m.title` over `FROM MOVIE m`)
    and its `level`: 0 when that FROM item is in the reference's own query
    block, k when it is k blocks out.  This is the only place `level` is
    written.  A `*` in the select list gets the columns it stands for
    (`Star.columns`).  The relation and column names the query used stay for
    rendering.  A count(*) or count(distinct ...) compared in a WHERE
    conjunct, at any level, raises SqlError: it belongs in HAVING.  So does
    an IN, ALL or scalar subquery whose select list is not exactly one
    column (`*` included).
    """
    _resolve_query(query, graph._index(), ())
    return query


def _resolve_query(query: Query, names, outer_scopes):
    # A scope maps each folded alias to its FROM item and the item's
    # attributes by folded name, read from the schema's name index.
    scope = {}
    for item in query.from_items:
        rel = names.relations.get(item.relation.upper())
        if rel is None:
            raise UnknownRelation(f"unknown relation {item.relation!r}")
        item.canonical = rel.name
        key = item.alias.upper()
        if key in scope:
            raise SqlError(f"duplicate alias {item.alias!r} in FROM")
        scope[key] = (item, names.attributes[rel.name])
    scopes = (scope,) + outer_scopes
    for ref in query.column_refs():
        _resolve_ref(ref, scopes)
    for select in query.select_items:
        if isinstance(select.expr, Star):  # every column of the FROM list
            select.expr.columns = [
                ColumnRef(item.alias, attr.name, item.canonical, attr.name)
                for item in query.from_items for attr in names.by_relation.get(item.canonical, ())
            ]
    for pred in query.where:  # a count is of a group's rows, so HAVING only
        for side in operands(pred):
            if isinstance(side, (CountStar, CountDistinct)):
                raise SqlError(f"aggregate {side.render()} in WHERE; use HAVING")
    for _, connector, child in query.subqueries():
        label = ONE_COLUMN_CONNECTORS.get(connector)
        items = child.select_items
        if label and (len(items) != 1 or isinstance(items[0].expr, Star)):
            what = "*" if isinstance(items[0].expr, Star) else f"{len(items)} columns"
            raise SqlError(f"{label} subquery must select one column, not {what}")
        _resolve_query(child, names, scopes)


def _resolve_ref(ref: ColumnRef, scopes):
    column = ref.column.upper()
    alias = ref.alias.upper() if ref.alias is not None else None
    for level, scope in enumerate(scopes):
        if alias is None:
            owners = [(item, attrs[column]) for item, attrs in scope.values() if column in attrs]
            if len(owners) > 1:
                raise AmbiguousColumn(
                    f"column {ref.column!r} matches aliases "
                    f"{sorted(item.alias for item, _ in owners)}"
                )
        elif alias in scope:
            item, attrs = scope[alias]
            if column not in attrs:
                raise UnknownColumn(f"relation {item.relation} has no column {ref.column!r}")
            owners = [(item, attrs[column])]
        else:
            continue
        if owners:
            [(item, attr)] = owners
            ref.alias, ref.relation, ref.attribute = item.alias, item.canonical, attr.name
            ref.level = level
            return
    if alias is not None:
        raise UnknownRelation(f"unknown alias {ref.alias!r}")
    raise UnknownColumn(f"column {ref.column!r} matches no relation in scope")
