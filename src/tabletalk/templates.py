"""Template mini-language: parsing and instantiation.

A template is a '+'-concatenation of parts:

    "literal text" + {ALIAS.attr} + DEFINE NAME AS
        [i < arityOf(ALIAS.attr)] ", " + { body }
        [i = arityOf(ALIAS.attr)] ", and " + { body }

Parts are double-quoted literals, brace placeholders, and guarded list
loops.  The text is lexed by one token pattern into string literals,
identifiers and single characters, and parsed by recursive descent over
the tokens.  A variant suffix follows an attribute: {m.title} renders the
cell value, {m.title:noun} the relation's noun, {m.title:heading} the
value of the relation's heading attribute.  A bare {ALIAS} placeholder
takes no variant; it is a node reference slot filled in by callers that
manage their own referring expressions (the query translator).  Which
template kinds take slots, loops and variants is checked at schema load.

A loop iterates the tuple list bound to its alias; both arms name the
same arityOf(ALIAS.attr).  The less-than arm renders for positions
1..n-1, the equals arm for position n; with a single tuple only the
equals arm fires.  The optional literal before each arm's braced body is
a joiner, emitted only between iterations, which is why a one-element
list comes out without a leading separator.

See docs/templates.md for the grammar and worked examples.
"""

from __future__ import annotations

import re

from .errors import (
    EmptyLoopBody,
    MissingAttribute,
    TemplateError,
    UnbalancedBraces,
    UnboundAlias,
    UnknownAttribute,
    UnknownGuard,
)
from .record import Record, field

VARIANTS = ("value", "noun", "heading", "ref")


class Literal(Record):
    text: str


class Placeholder(Record):
    alias: str
    attribute: str | None = None  # None = bare node-reference slot
    variant: str = "value"


class LoopArm(Record):
    guard: str  # "<" or "="
    body: "TemplateExpr"
    joiner: str = ""


class ListLoop(Record):
    name: str
    alias: str
    attribute: str
    arms: list[LoopArm] = field(factory=list)


class TemplateExpr(Record):
    parts: list = field(factory=list)

    def references(self):
        """Yield every placeholder and loop (each names an alias and an
        attribute), recursing into loop bodies."""
        for part in self.parts:
            if isinstance(part, Placeholder):
                yield part
            elif isinstance(part, ListLoop):
                yield part
                for arm in part.arms:
                    yield from arm.body.references()


# --- parsing -----------------------------------------------------------

# One token after optional space: a string literal (its closing quote in
# group 2, empty when the literal runs to the end of the text unclosed), an
# identifier, any other single character, or the end of the text.
_TOKEN = re.compile(r'\s*("(?:\\.|[^"])*("?)|[A-Za-z_][A-Za-z0-9_]*|\S|\Z)', re.DOTALL)

MAX_LOOP_DEPTH = 16


def parse_template(text: str) -> TemplateExpr:
    """Parse template text; empty input yields an empty expression."""
    toks = _Tokens(text)
    expr = _parse_concat(toks, stop="", depth=0)
    if toks.peek():
        raise toks.unexpected()
    return expr


class _Tokens:
    """A template's tokens, read by index.  Each is (value, closing quote);
    lexing never fails, and the last token is the empty one at the end of
    the text."""

    def __init__(self, text: str):
        self.text = text
        self.items = _TOKEN.findall(text)
        self.i = 0

    def peek(self) -> str:
        return self.items[self.i][0]

    def pos(self) -> int:
        """The current token's position, found again for an error message."""
        return [m.start(1) for m in _TOKEN.finditer(self.text)][self.i]

    def take(self, value: str) -> bool:
        if self.items[self.i][0] != value:
            return False
        self.i += 1
        return True

    def expect(self, value: str):
        if not self.take(value):
            raise TemplateError(f"expected {value!r} at position {self.pos()} in template")

    def ident(self) -> str:
        value = self.peek()
        if not (value.isidentifier() and value.isascii()):
            raise TemplateError(f"expected identifier at position {self.pos()}")
        self.i += 1
        return value

    def string(self) -> str:
        value, closed = self.items[self.i]
        if not closed:
            raise TemplateError("unterminated string literal")
        self.i += 1
        body = value[1:-1]
        return re.sub(r"\\(.)", r"\1", body, flags=re.DOTALL) if "\\" in body else body

    def unexpected(self) -> UnbalancedBraces:
        return UnbalancedBraces(f"unexpected {self.peek()[0]!r} at position {self.pos()}")


def _parse_concat(toks: _Tokens, stop: str, depth: int) -> TemplateExpr:
    if depth > MAX_LOOP_DEPTH:
        raise UnbalancedBraces("loop nesting too deep")
    parts = []
    while toks.peek() not in ("", stop):
        parts.append(_parse_part(toks, depth))
        if not toks.take("+"):
            break
    return TemplateExpr(parts)


def _parse_part(toks: _Tokens, depth: int):
    if toks.peek()[0] == '"':
        return Literal(toks.string())
    if toks.take("{"):
        return _parse_placeholder(toks)
    if toks.take("DEFINE"):
        return _parse_loop(toks, depth)
    raise toks.unexpected()


def _parse_placeholder(toks: _Tokens) -> Placeholder:
    alias = toks.ident()
    attribute = toks.ident() if toks.take(".") else None
    variant = toks.ident().lower() if toks.take(":") else None
    if variant not in (None, *VARIANTS):
        raise TemplateError(f"unknown placeholder variant {variant!r}")
    if not toks.take("}"):
        raise UnbalancedBraces(f"missing '}}' at position {toks.pos()}")
    if variant == "ref":
        raise TemplateError("variant 'ref' is not written: a bare {ALIAS} is the reference slot")
    if attribute is None and variant is not None:
        raise TemplateError(f"variant {variant!r} follows an attribute; {{{alias}}} has none")
    return Placeholder(alias, attribute, "ref" if attribute is None else variant or "value")


def _parse_loop(toks: _Tokens, depth: int) -> ListLoop:
    name = toks.ident()
    if not toks.take("AS"):
        raise TemplateError(f"expected AS after DEFINE {name}")
    first, alias, attr = _parse_arm(toks, depth)
    second, alias2, attr2 = _parse_arm(toks, depth)
    if first.guard != "<" or second.guard != "=":
        raise UnknownGuard(
            "loop arms must be [i < arityOf(..)] then [i = arityOf(..)]"
        )
    if alias2 != alias:
        raise UnknownGuard(f"loop arms bind different aliases: {alias}, {alias2}")
    if attr2 != attr:
        raise UnknownGuard(f"loop arms bind different attributes: {alias}.{attr}, {alias}.{attr2}")
    return ListLoop(name, alias, attr, [first, second])


def _parse_arm(toks: _Tokens, depth: int) -> tuple[LoopArm, str, str]:
    """One guarded arm, with the alias and attribute its arityOf binds."""
    toks.expect("[")
    if not toks.take("i"):
        raise UnknownGuard(f"expected loop variable 'i' at position {toks.pos()}")
    guard = toks.peek()
    if not (toks.take("<") or toks.take("=")):
        raise UnknownGuard(f"expected '<' or '=' at position {toks.pos()}")
    if not toks.take("arityOf"):
        raise UnknownGuard(f"expected arityOf at position {toks.pos()}")
    toks.expect("(")
    alias = toks.ident()
    toks.expect(".")
    attr = toks.ident()
    toks.expect(")")
    toks.expect("]")
    joiner = ""
    if toks.peek().startswith('"'):
        joiner = toks.string()
        toks.expect("+")
    toks.expect("{")
    body = _parse_concat(toks, stop="}", depth=depth + 1)
    toks.expect("}")
    if not body.parts:
        raise EmptyLoopBody("loop arm body is empty")
    return LoopArm(guard, body, joiner), alias, attr


# --- instantiation -----------------------------------------------------

def instantiate(expr: TemplateExpr, bindings, graph=None) -> str:
    """Fill a template from alias -> tuple-list bindings.

    Aliases and attributes match exactly: a compiled schema template and
    the rows it reads both use declared spellings.  Outside a loop a
    placeholder reads the first bound tuple; inside a loop over alias X,
    {X.attr} reads the current tuple.  The noun and heading variants need
    `graph` (a SchemaGraph) to look up relation metadata.
    """
    return _instantiate(expr, bindings, graph, {})


def _instantiate(expr, bindings, graph, loop_ctx) -> str:
    out = []
    for part in expr.parts:
        if isinstance(part, Literal):
            out.append(part.text)
        elif isinstance(part, Placeholder):
            out.append(_fill(part, bindings, graph, loop_ctx))
        elif isinstance(part, ListLoop):
            rows = _bound_rows(part.alias, bindings)
            n = len(rows)
            for i, row in enumerate(rows, start=1):
                arm = part.arms[0] if i < n else part.arms[1]
                if i > 1:
                    out.append(arm.joiner)
                ctx = {**loop_ctx, part.alias: row}
                out.append(_instantiate(arm.body, bindings, graph, ctx))
    return "".join(out)


def _bound_rows(alias, bindings):
    try:
        return bindings[alias]
    except KeyError:
        raise UnboundAlias(f"alias {alias!r} is not bound") from None


def _fill(ph: Placeholder, bindings, graph, loop_ctx) -> str:
    if ph.variant == "ref":
        raise UnboundAlias(
            f"bare reference {{{ph.alias}}} cannot be instantiated directly"
        )
    row = loop_ctx.get(ph.alias)
    if row is None:
        rows = _bound_rows(ph.alias, bindings)
        if not rows:
            raise UnboundAlias(f"alias {ph.alias!r} is bound to an empty tuple list")
        row = rows[0]
    if ph.variant == "noun":
        if graph is None:
            raise MissingAttribute("noun variant needs a schema graph")
        return graph.relation(row.relation).noun_singular
    attr = ph.attribute
    if ph.variant == "heading":
        if graph is None:
            raise MissingAttribute("heading variant needs a schema graph")
        attr = graph.relation(row.relation).heading_attribute
    try:
        value = row.cell(attr)
    except UnknownAttribute:
        raise MissingAttribute(
            f"tuple of {row.relation} has no attribute {attr!r}"
        ) from None
    return "" if value is None else str(value)


# --- lists ---------------------------------------------------------------

def listed(parts: list[str]) -> str:
    """English list: "A", "A and B", "A, B, and C"."""
    if len(parts) < 3:
        return " and ".join(parts)
    return ", ".join(parts[:-1]) + f", and {parts[-1]}"
