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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

MAX_NESTING = 64

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),.*])
  | (?P<arith>[+\-/%])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # ident | keyword | number | string | op | punct | arith | eof
    value: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SyntaxError_(f"unexpected character {text[pos]!r}", pos)
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        value = match.group()
        if kind == "ident" and value.upper() in KEYWORDS:
            tokens.append(Token("keyword", value.upper(), match.start()))
        else:
            tokens.append(Token(kind, value, match.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    # -- token plumbing ---------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "keyword" and token.value in words

    def take_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise SyntaxError_(
                f"expected {word}, found {self.peek().value!r}",
                self.peek().pos,
                (word,),
            )
        return self.advance()

    def take_punct(self, value: str) -> bool:
        token = self.peek()
        if token.kind == "punct" and token.value == value:
            self.advance()
            return True
        return False

    def expect_punct(self, value: str):
        if not self.take_punct(value):
            raise SyntaxError_(
                f"expected {value!r}, found {self.peek().value!r}",
                self.peek().pos,
                (value,),
            )

    def ident(self, what: str) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise SyntaxError_(
                f"expected {what}, found {token.value!r}", token.pos, (what,)
            )
        return self.advance().value

    # -- grammar ----------------------------------------------------------

    def parse_query(self) -> Query:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise SyntaxError_("query nesting too deep", self.peek().pos)
        self.expect_keyword("SELECT")
        if self.take_keyword("DISTINCT"):
            raise Unsupported("SELECT DISTINCT", self.peek().pos)
        query = Query()
        query.select_items = self.select_list()
        self.expect_keyword("FROM")
        query.from_items = self.from_list()
        if self.take_keyword("WHERE"):
            query.where = self.conjunction()
        if self.take_keyword("GROUP"):
            self.expect_keyword("BY")
            query.group_by = self.column_list()
            if self.take_keyword("HAVING"):
                query.having = self.conjunction()
        elif self.at_keyword("HAVING"):
            raise Unsupported("HAVING without GROUP BY", self.peek().pos)
        if self.take_keyword("ORDER"):
            self.expect_keyword("BY")
            query.order_by = self.order_list()
        for word in ("UNION", "INTERSECT", "EXCEPT", "LIMIT"):
            if self.at_keyword(word):
                raise Unsupported(word, self.peek().pos)
        self.depth -= 1
        return query

    def select_list(self) -> list[SelectItem]:
        if self.take_punct("*"):
            return [SelectItem(Star())]
        items = [self.select_item()]
        while self.take_punct(","):
            items.append(self.select_item())
        return items

    def select_item(self) -> SelectItem:
        expr = self.simple_expr()
        alias = None
        if self.take_keyword("AS"):
            alias = self.ident("select alias")
        return SelectItem(expr, alias)

    def simple_expr(self):
        """Column reference, constant, or count aggregate; no arithmetic."""
        token = self.peek()
        if token.kind == "keyword" and token.value in UNSUPPORTED_AGGREGATES:
            raise Unsupported(f"aggregate {token.value}", token.pos)
        if self.take_keyword("COUNT"):
            self.expect_punct("(")
            if self.take_punct("*"):
                expr = CountStar()
            elif self.take_keyword("DISTINCT"):
                expr = CountDistinct(self.column_ref())
            else:
                raise Unsupported("count over a plain expression", self.peek().pos)
            self.expect_punct(")")
            return self.no_arithmetic(expr)
        if token.kind == "number":
            self.advance()
            return self.no_arithmetic(Constant(int(token.value)))
        if token.kind == "string":
            self.advance()
            return self.no_arithmetic(Constant(token.value[1:-1].replace("''", "'")))
        if token.kind == "ident":
            return self.no_arithmetic(self.column_ref())
        raise SyntaxError_(
            f"expected expression, found {token.value!r}", token.pos, ("expression",)
        )

    def no_arithmetic(self, expr):
        token = self.peek()
        if token.kind == "arith" or (token.kind == "punct" and token.value == "*"):
            raise Unsupported("arithmetic expressions", token.pos)
        return expr

    def column_ref(self) -> ColumnRef:
        first = self.ident("column reference")
        if self.take_punct("."):
            return ColumnRef(first, self.ident("column name"))
        return ColumnRef(None, first)

    def column_list(self) -> list[ColumnRef]:
        cols = [self.column_ref()]
        while self.take_punct(","):
            cols.append(self.column_ref())
        return cols

    def from_list(self) -> list[FromItem]:
        items = [self.from_item()]
        while self.take_punct(","):
            items.append(self.from_item())
        if self.at_keyword("JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER"):
            raise Unsupported("explicit JOIN syntax", self.peek().pos)
        return items

    def from_item(self) -> FromItem:
        relation = self.ident("relation name")
        alias = relation
        if self.peek().kind == "ident":
            alias = self.advance().value
        return FromItem(relation, alias)

    def conjunction(self) -> list:
        preds = [self.predicate()]
        while True:
            if self.take_keyword("AND"):
                preds.append(self.predicate())
            elif self.at_keyword("OR"):
                raise Unsupported("OR", self.peek().pos)
            else:
                return preds

    def predicate(self):
        if self.take_keyword("NOT"):
            if self.take_keyword("EXISTS"):
                return Exists(self.parenthesized_query(), negated=True)
            if self.at_keyword("IN"):
                raise Unsupported("NOT IN", self.peek().pos)
            raise Unsupported("NOT over a general predicate", self.peek().pos)
        if self.take_keyword("EXISTS"):
            return Exists(self.parenthesized_query())
        lhs = self.simple_expr()
        if self.at_keyword("NOT"):
            raise Unsupported("NOT IN", self.peek().pos)
        if self.take_keyword("IN"):
            if not isinstance(lhs, ColumnRef):
                raise SyntaxError_(
                    "IN requires a column reference on its left",
                    self.peek().pos,
                )
            return InSubquery(lhs, self.parenthesized_query())
        for word in ("LIKE", "BETWEEN", "IS"):
            if self.at_keyword(word):
                raise Unsupported(word, self.peek().pos)
        token = self.peek()
        if token.kind != "op":
            raise SyntaxError_(
                f"expected comparison operator, found {token.value!r}",
                token.pos,
                ("=", "!=", "<", "<=", ">", ">="),
            )
        op = self.advance().value
        if op == "<>":
            op = "!="
        if self.take_keyword("ALL"):
            return CompareAll(lhs, op, self.parenthesized_query())
        if self.at_keyword("ANY", "SOME"):
            raise Unsupported(f"{self.peek().value} quantifier", self.peek().pos)
        if self.peek().kind == "punct" and self.peek().value == "(":
            return Compare(lhs, op, ScalarSubquery(self.parenthesized_query()))
        rhs = self.simple_expr()
        return Compare(lhs, op, rhs)

    def parenthesized_query(self) -> Query:
        self.expect_punct("(")
        query = self.parse_query()
        self.expect_punct(")")
        return query

    def order_list(self) -> list:
        items = []
        while True:
            col = self.column_ref()
            direction = "asc"
            if self.take_keyword("DESC"):
                direction = "desc"
            elif self.take_keyword("ASC"):
                direction = "asc"
            items.append((col, direction))
            if not self.take_punct(","):
                return items


def parse_sql(text: str) -> Query:
    """Parse one SELECT statement; raises SyntaxError_ or Unsupported."""
    tokens = tokenize(text)
    parser = Parser(tokens)
    query = parser.parse_query()
    end = parser.peek()
    if end.kind != "eof":
        raise SyntaxError_(
            f"unexpected trailing input {end.value!r}", end.pos, ("end of input",)
        )
    return query


def render_sql(query: Query) -> str:
    return query.render()


# --- name resolution ---------------------------------------------------

def resolve_names(query: Query, graph) -> Query:
    """Qualify and check every column reference against the schema.

    Correlated references resolve through enclosing query scopes, inner
    scope first; aliases match case-insensitively.  The query is annotated
    in place and returned: each FromItem gets its relation's declared name
    (`canonical`), and each ColumnRef its declared relation and attribute
    names plus the alias as its FROM item spells it, so a resolved query
    renders `M.title` as `m.title` over `FROM MOVIE m`.  The relation and
    column names the query used stay for rendering.
    """
    _resolve_query(query, graph, ())
    return query


def _resolve_query(query: Query, graph, outer_scopes):
    scope = {}
    for item in query.from_items:
        rel = graph.find_relation(item.relation)
        if rel is None:
            raise UnknownRelation(f"unknown relation {item.relation!r}")
        item.canonical = rel.name
        key = item.alias.upper()
        if key in scope:
            raise SqlError(f"duplicate alias {item.alias!r} in FROM")
        scope[key] = item
    scopes = (scope,) + outer_scopes
    for ref in query.column_refs():
        _resolve_ref(ref, graph, scopes)
    for _, _, child in query.subqueries():
        _resolve_query(child, graph, scopes)


def _resolve_ref(ref: ColumnRef, graph, scopes):
    if ref.alias is not None:
        for scope in scopes:
            item = scope.get(ref.alias.upper())
            if item is not None:
                attr = graph.find_attribute(item.canonical, ref.column)
                if attr is None:
                    raise UnknownColumn(
                        f"relation {item.relation} has no column {ref.column!r}"
                    )
                ref.alias, ref.relation, ref.attribute = item.alias, item.canonical, attr.name
                return
        raise UnknownRelation(f"unknown alias {ref.alias!r}")
    for scope in scopes:
        owners = [
            (item, attr)
            for item in scope.values()
            if (attr := graph.find_attribute(item.canonical, ref.column)) is not None
        ]
        if len(owners) > 1:
            raise AmbiguousColumn(
                f"column {ref.column!r} matches aliases "
                f"{sorted(item.alias for item, _ in owners)}"
            )
        if owners:
            item, attr = owners[0]
            ref.alias, ref.relation, ref.attribute = item.alias, item.canonical, attr.name
            return
    raise UnknownColumn(f"column {ref.column!r} matches no relation in scope")
