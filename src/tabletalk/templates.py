"""Template mini-language: parsing, instantiation, and clause merging.

A template is a '+'-concatenation of parts:

    "literal text" + {ALIAS.attr} + DEFINE NAME AS
        [i < arityOf(ALIAS.attr)] ", " + { body }
        [i = arityOf(ALIAS.attr)] ", and " + { body }

Parts are double-quoted literals, brace placeholders, and guarded list
loops.  A placeholder may carry a variant suffix: {m.title} renders the
cell value, {m.title:noun} the relation's noun, {m.title:heading} the
value of the relation's heading attribute.  A bare {ALIAS} placeholder is
a node reference slot filled in by callers that manage their own
referring expressions (the query translator).

A loop iterates the tuple list bound to its alias.  The less-than arm
renders for positions 1..n-1, the equals arm for position n; with a
single tuple only the equals arm fires.  The optional literal before each
arm's braced body is a joiner, emitted only between iterations, which is
why a one-element list comes out without a leading separator.

See docs/templates.md for the grammar and worked examples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    EmptyLoopBody,
    MissingAttribute,
    TemplateError,
    UnbalancedBraces,
    UnboundAlias,
    UnknownAttribute,
    UnknownGuard,
)

VARIANTS = ("value", "noun", "heading", "ref")

_ARTICLES = {"a", "an", "the"}


@dataclass
class Literal:
    text: str


@dataclass
class Placeholder:
    alias: str
    attribute: Optional[str] = None  # None = bare node-reference slot
    variant: str = "value"


@dataclass
class LoopArm:
    guard: str  # "<" or "="
    body: "TemplateExpr"
    joiner: str = ""


@dataclass
class ListLoop:
    name: str
    alias: str
    attribute: str
    arms: list[LoopArm] = field(default_factory=list)

    @property
    def guards(self):
        return [(arm.guard, arm.body) for arm in self.arms]


@dataclass
class TemplateExpr:
    parts: list = field(default_factory=list)

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

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            raise TemplateError(
                f"expected {literal!r} at position {self.pos} in template"
            )

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            raise TemplateError(f"expected identifier at position {self.pos}")
        self.pos = m.end()
        return m.group()

    def keyword(self, word: str) -> bool:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if m and m.group() == word:
            self.pos = m.end()
            return True
        return False

    def string(self) -> str:
        self.skip_ws()
        if self.peek() != '"':
            raise TemplateError(f"expected string literal at position {self.pos}")
        self.pos += 1
        out = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "\\" and self.pos + 1 < len(self.text):
                out.append(self.text[self.pos + 1])
                self.pos += 2
                continue
            if ch == '"':
                self.pos += 1
                return "".join(out)
            out.append(ch)
            self.pos += 1
        raise TemplateError("unterminated string literal")


MAX_LOOP_DEPTH = 16


def parse_template(text: str) -> TemplateExpr:
    """Parse template text; empty input yields an empty expression."""
    cur = _Cursor(text)
    expr = _parse_concat(cur, stop="", depth=0)
    if not cur.eof():
        raise UnbalancedBraces(f"unexpected {cur.peek()!r} at position {cur.pos}")
    return expr


def _parse_concat(cur: _Cursor, stop: str, depth: int) -> TemplateExpr:
    if depth > MAX_LOOP_DEPTH:
        raise UnbalancedBraces("loop nesting too deep")
    parts = []
    while True:
        if cur.eof() or (stop and cur.peek() == stop):
            break
        parts.append(_parse_part(cur, depth))
        if not cur.take("+"):
            break
    return TemplateExpr(parts)


def _parse_part(cur: _Cursor, depth: int):
    ch = cur.peek()
    if ch == '"':
        return Literal(cur.string())
    if ch == "{":
        return _parse_placeholder(cur)
    if cur.keyword("DEFINE"):
        return _parse_loop(cur, depth)
    raise UnbalancedBraces(f"unexpected {ch!r} at position {cur.pos}")


def _parse_placeholder(cur: _Cursor) -> Placeholder:
    cur.expect("{")
    alias = cur.ident()
    attribute = None
    variant = "value"
    if cur.take("."):
        attribute = cur.ident()
    if cur.take(":"):
        variant = cur.ident().lower()
        if variant not in VARIANTS:
            raise TemplateError(f"unknown placeholder variant {variant!r}")
    if not cur.take("}"):
        raise UnbalancedBraces(f"missing '}}' at position {cur.pos}")
    if attribute is None:
        variant = "ref"
    return Placeholder(alias, attribute, variant)


def _parse_loop(cur: _Cursor, depth: int) -> ListLoop:
    name = cur.ident()
    if not cur.keyword("AS"):
        raise TemplateError(f"expected AS after DEFINE {name}")
    first = _parse_arm(cur, depth)
    second = _parse_arm(cur, depth)
    if first.guard != "<" or second.guard != "=":
        raise UnknownGuard(
            "loop arms must be [i < arityOf(..)] then [i = arityOf(..)]"
        )
    alias, attr = first._bound
    alias2, _ = second._bound
    if alias2 != alias:
        raise UnknownGuard(f"loop arms bind different aliases: {alias}, {alias2}")
    loop = ListLoop(name, alias, attr, [first, second])
    return loop


def _parse_arm(cur: _Cursor, depth: int) -> LoopArm:
    cur.expect("[")
    if not cur.keyword("i"):
        raise UnknownGuard(f"expected loop variable 'i' at position {cur.pos}")
    if cur.take("<"):
        guard = "<"
    elif cur.take("="):
        guard = "="
    else:
        raise UnknownGuard(f"expected '<' or '=' at position {cur.pos}")
    if not cur.keyword("arityOf"):
        raise UnknownGuard(f"expected arityOf at position {cur.pos}")
    cur.expect("(")
    alias = cur.ident()
    cur.expect(".")
    attr = cur.ident()
    cur.expect(")")
    cur.expect("]")
    joiner = ""
    if cur.peek() == '"':
        joiner = cur.string()
        cur.expect("+")
    cur.expect("{")
    body = _parse_concat(cur, stop="}", depth=depth + 1)
    cur.expect("}")
    if not body.parts:
        raise EmptyLoopBody("loop arm body is empty")
    arm = LoopArm(guard, body, joiner)
    arm._bound = (alias, attr)
    return arm


def render_template(expr: TemplateExpr) -> str:
    """Serialize an expression back to template text."""
    return " + ".join(_render_part(p) for p in expr.parts)


def _render_part(part) -> str:
    if isinstance(part, Literal):
        escaped = part.text.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(part, Placeholder):
        inner = part.alias
        if part.attribute:
            inner += f".{part.attribute}"
        if part.variant not in ("value", "ref"):
            inner += f":{part.variant}"
        return "{" + inner + "}"
    if isinstance(part, ListLoop):
        arms = []
        for arm in part.arms:
            joiner = ""
            if arm.joiner:
                escaped = arm.joiner.replace("\\", "\\\\").replace('"', '\\"')
                joiner = f'"{escaped}" + '
            arms.append(
                f"[i {arm.guard} arityOf({part.alias}.{part.attribute})] "
                f"{joiner}{{ {render_template(arm.body)} }}"
            )
        return f"DEFINE {part.name} AS " + " ".join(arms)
    raise TemplateError(f"cannot render part {part!r}")


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


# --- clause merging ----------------------------------------------------

def tokenize(text: str) -> list[str]:
    """Tokens are maximal runs of non-space characters."""
    return text.split()


@dataclass
class Clause:
    tokens: list[str]
    subject_len: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    @classmethod
    def from_text(cls, text: str, subject: str = "") -> "Clause":
        tokens = tokenize(text)
        subj = tokenize(subject)
        if subj and tokens[: len(subj)] == subj:
            return cls(tokens, len(subj))
        # Unknown or mismatched subject: treat the whole clause as subject
        # so it never fuses on an accidental prefix.
        return cls(tokens, len(tokens) if subject else 0)


def common_prefix(a: list[str], b: list[str]) -> list[str]:
    out = []
    for x, y in zip(a, b):
        if x != y:
            break
        out.append(x)
    return out


def trim_articles(prefix: list[str]) -> list[str]:
    """Never strand an article at a fusion point."""
    while prefix and prefix[-1].lower() in _ARTICLES:
        prefix = prefix[:-1]
    return prefix


def _fusable_prefix(a: Clause, b: Clause):
    if a.tokens[: a.subject_len] != b.tokens[: b.subject_len]:
        return None
    prefix = trim_articles(common_prefix(a.tokens, b.tokens))
    if len(prefix) >= max(a.subject_len, 1):
        return prefix
    return None


def merge_common(clauses: list[Clause]) -> list[Clause]:
    """Fuse adjacent clauses sharing a subject-covering common prefix.

    The fused clause is the shared prefix followed by each clause's
    remainder in input order.  A single left-to-right pass reaches a
    fixed point, so the operation is idempotent.
    """
    out: list[Clause] = []
    for clause in clauses:
        if out:
            prefix = _fusable_prefix(out[-1], clause)
            if prefix is not None:
                prev = out[-1]
                fused = (
                    prefix
                    + prev.tokens[len(prefix):]
                    + clause.tokens[len(prefix):]
                )
                out[-1] = Clause(fused, prev.subject_len)
                continue
        out.append(clause)
    return out
