import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabletalk import narrator as N, templates as T
from tabletalk.data import Row
from tabletalk.errors import (
    EmptyLoopBody,
    MissingAttribute,
    UnbalancedBraces,
    UnboundAlias,
    UnknownGuard,
)

MOVIE_LIST = (
    'DEFINE MOVIE_LIST AS '
    '[i < arityOf(MOVIE.title)] ", " + { {MOVIE.title} + " (" + {MOVIE.year} + ")" } '
    '[i = arityOf(MOVIE.title)] ", and " + { {MOVIE.title} + " (" + {MOVIE.year} + ")." }'
)

MOVIES = [
    Row("MOVIE", {"id": 1, "title": "Match Point", "year": 2005}),
    Row("MOVIE", {"id": 2, "title": "Melinda and Melinda", "year": 2004}),
    Row("MOVIE", {"id": 3, "title": "Anything Else", "year": 2003}),
]


class TestParse:
    def test_birth_clause_has_four_parts(self):
        expr = T.parse_template(
            '{DIRECTOR.name} + " was born" + " in " + {DIRECTOR.blocation}'
        )
        assert len(expr.parts) == 4
        assert isinstance(expr.parts[0], T.Placeholder)
        assert isinstance(expr.parts[1], T.Literal)

    def test_empty_template(self):
        expr = T.parse_template("")
        assert expr.parts == []
        assert T.instantiate(expr, {}) == ""

    def test_movie_list_is_a_guarded_loop(self):
        expr = T.parse_template(MOVIE_LIST)
        assert len(expr.parts) == 1
        loop = expr.parts[0]
        assert isinstance(loop, T.ListLoop)
        assert [arm.guard for arm in loop.arms] == ["<", "="]
        assert loop.alias == "MOVIE"

    def test_roundtrip(self):
        for text in (
            MOVIE_LIST,
            '"As a director, " + {DIRECTOR.name} + "\'s work includes "',
            '{m.title:noun} + " x " + {m.title:heading}',
            '"a \\"quoted\\" \\\\ path" + {m}',
        ):
            expr = T.parse_template(text)
            rendered = render(expr)
            assert T.parse_template(rendered) == expr
            assert render(T.parse_template(rendered)) == rendered

    def test_unbalanced_braces(self):
        with pytest.raises(UnbalancedBraces):
            T.parse_template('{MOVIE.title + " x"')

    def test_guard_order_enforced(self):
        swapped = MOVIE_LIST.replace("i <", "i ~", 1)
        with pytest.raises(UnknownGuard):
            T.parse_template(
                MOVIE_LIST.replace("[i < ", "[i = ", 1)
            )
        with pytest.raises(UnknownGuard):
            T.parse_template(swapped)

    def test_empty_loop_body(self):
        with pytest.raises(EmptyLoopBody):
            T.parse_template(
                'DEFINE L AS [i < arityOf(M.t)] {} [i = arityOf(M.t)] { {M.t} }'
            )

    def test_pathological_nesting_gets_a_typed_error(self):
        with pytest.raises(T.TemplateError):
            T.parse_template(_nested(40))

    def test_parse_is_total_over_random_text(self):
        import random

        rng = random.Random(5)
        for _ in range(2000):
            text = "".join(
                chr(rng.randrange(32, 127)) for _ in range(rng.randrange(30))
            )
            try:
                T.parse_template(text)
            except T.TemplateError:
                pass


def _nested(depth):
    """A loop nested `depth` deep inside loop bodies."""
    inner = '"x"'
    for _ in range(depth):
        inner = f'DEFINE L AS [i < arityOf(M.t)] {{ {inner} }} [i = arityOf(M.t)] {{ "y" }}'
    return inner


ARM = 'DEFINE L AS [i < arityOf(M.t)] '
EQ_ARM = ' [i = arityOf(M.t)] { "y" }'

# Every reachable parse error: input, exception type, exact message.
PARSE_ERRORS = {
    "identifier_after_brace": ("{ }", T.TemplateError, "expected identifier at position 2"),
    "identifier_after_dot": ("{MOVIE.}", T.TemplateError, "expected identifier at position 7"),
    "identifier_not_a_digit": ("{1}", T.TemplateError, "expected identifier at position 1"),
    "closing_brace_before_literal": (
        '{MOVIE.title "x"', UnbalancedBraces, "missing '}' at position 13",
    ),
    "closing_brace_at_end": ("{MOVIE.title  ", UnbalancedBraces, "missing '}' at position 14"),
    "open_paren": (
        'DEFINE L AS [i < arityOf{M.t)] { "x" }' + EQ_ARM,
        T.TemplateError, "expected '(' at position 24 in template",
    ),
    "closing_bracket": (
        ARM.replace(")]", ")") + '{ "x" }', T.TemplateError,
        "expected ']' at position 30 in template",
    ),
    "plus_after_joiner": (
        ARM + '"," { "x" }' + EQ_ARM, T.TemplateError, "expected '+' at position 35 in template",
    ),
    "unterminated_literal": ('"abc', T.TemplateError, "unterminated string literal"),
    "unterminated_after_escaped_quote": (
        '"abc\\"', T.TemplateError, "unterminated string literal",
    ),
    "unterminated_joiner": (ARM + '", { x }', T.TemplateError, "unterminated string literal"),
    "unexpected_closing_brace": ('"a" }', UnbalancedBraces, "unexpected '}' at position 4"),
    "unexpected_after_escapes": ('"a\\"{b}" }', UnbalancedBraces, "unexpected '}' at position 9"),
    "missing_brace_after_escapes": (
        '"é\\\\" + {M.t "x"', UnbalancedBraces, "missing '}' at position 13",
    ),
    "unexpected_literal": ('"a" "b"', UnbalancedBraces, "unexpected '\"' at position 4"),
    "unexpected_identifier": ("DEFINEX", UnbalancedBraces, "unexpected 'D' at position 0"),
    "unexpected_in_loop_body": (
        ARM + '{ + }' + EQ_ARM, UnbalancedBraces, "unexpected '+' at position 33",
    ),
    "guard_operator": (
        ARM.replace("<", ">") + '{ "x" }' + EQ_ARM, UnknownGuard,
        "expected '<' or '=' at position 15",
    ),
    "unexpected_after_unicode_space": (
        "\u00a0\u3000}", UnbalancedBraces, "unexpected '}' at position 2",
    ),
    "guard_order": (
        ARM.replace("<", "=") + '{ "x" }' + EQ_ARM, UnknownGuard,
        "loop arms must be [i < arityOf(..)] then [i = arityOf(..)]",
    ),
    "empty_loop_body": (ARM + "{ }" + EQ_ARM, EmptyLoopBody, "loop arm body is empty"),
    "unknown_variant": ("{M.t:bogus}", T.TemplateError, "unknown placeholder variant 'bogus'"),
    "loop_nesting": (_nested(17), UnbalancedBraces, "loop nesting too deep"),
    # What docs/templates.md does not allow.
    "written_ref_variant": (
        "{M.t:ref}", T.TemplateError,
        "variant 'ref' is not written: a bare {ALIAS} is the reference slot",
    ),
    "variant_on_a_bare_slot": (
        "{MOVIE:noun}", T.TemplateError, "variant 'noun' follows an attribute; {MOVIE} has none",
    ),
    "arms_bind_different_attributes": (
        ARM + '{ "x" } [i = arityOf(M.bogus)] { "y" }', UnknownGuard,
        "loop arms bind different attributes: M.t, M.bogus",
    ),
}


class TestParseErrors:
    @pytest.mark.parametrize("text,kind,message", PARSE_ERRORS.values(), ids=PARSE_ERRORS)
    def test_message_and_position(self, text, kind, message):
        with pytest.raises(kind) as err:
            T.parse_template(text)
        assert str(err.value) == message

    def test_sixteen_nested_loops_parse(self):
        assert T.parse_template(_nested(16)).parts

    def test_a_variant_is_case_folded(self):
        assert T.parse_template("{M.t:NOUN}").parts == [T.Placeholder("M", "t", "noun")]

    def test_any_unicode_space_separates_tokens(self):
        spaced = '\u3000{\u00a0M\u2003.\nt\u2028}\u205f+ "\u00a0"\u3000'
        assert T.parse_template(spaced) == T.parse_template('{M.t} + "\u00a0"')


def render(expr):
    """Template text that parses back to `expr`."""
    return " + ".join(map(_render_part, expr.parts))


def _quoted(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_part(part):
    if isinstance(part, T.Literal):
        return _quoted(part.text)
    if isinstance(part, T.Placeholder):
        inner = part.alias + (f".{part.attribute}" if part.attribute else "")
        if part.variant not in ("value", "ref"):
            inner += f":{part.variant}"
        return "{" + inner + "}"
    arms = [
        f"[i {arm.guard} arityOf({part.alias}.{part.attribute})] "
        + (f"{_quoted(arm.joiner)} + " if arm.joiner else "")
        + f"{{ {render(arm.body)} }}"
        for arm in part.arms
    ]
    return f"DEFINE {part.name} AS " + " ".join(arms)


class TestInstantiate:
    def test_movie_list_three_tuples(self):
        expr = T.parse_template(MOVIE_LIST)
        out = T.instantiate(expr, {"MOVIE": MOVIES})
        assert out == (
            "Match Point (2005), Melinda and Melinda (2004), "
            "and Anything Else (2003)."
        )

    def test_movie_list_single_tuple_uses_equals_arm_only(self):
        expr = T.parse_template(MOVIE_LIST)
        assert T.instantiate(expr, {"MOVIE": MOVIES[:1]}) == "Match Point (2005)."

    def test_movie_list_empty_binding(self):
        expr = T.parse_template(MOVIE_LIST)
        assert T.instantiate(expr, {"MOVIE": []}) == ""

    def test_single_literal_is_identity(self):
        expr = T.parse_template('"just this text."')
        assert T.instantiate(expr, {}) == "just this text."

    def test_comma_count_matches_arity(self):
        expr = T.parse_template(MOVIE_LIST)
        for n in (2, 3):
            out = T.instantiate(expr, {"MOVIE": MOVIES[:n]})
            assert out.count(",") == n - 1

    def test_unbound_alias(self):
        expr = T.parse_template("{GHOST.x}")
        with pytest.raises(UnboundAlias):
            T.instantiate(expr, {"MOVIE": MOVIES})

    def test_missing_attribute(self):
        expr = T.parse_template("{MOVIE.box_office}")
        with pytest.raises(MissingAttribute):
            T.instantiate(expr, {"MOVIE": MOVIES})

    def test_null_cell_renders_empty(self):
        expr = T.parse_template('{MOVIE.year} + "!"')
        row = Row("MOVIE", {"id": 9, "title": "X", "year": None})
        assert T.instantiate(expr, {"MOVIE": [row]}) == "!"

    def test_noun_and_heading_variants_need_the_schema(self, movie_graph):
        row = Row("MOVIE", {"id": 1, "title": "Match Point", "year": 2005})
        expr = T.parse_template('{MOVIE.year:noun} + ": " + {MOVIE.year:heading}')
        assert T.instantiate(expr, {"MOVIE": [row]}, movie_graph) == (
            "movie: Match Point"
        )
        with pytest.raises(MissingAttribute):
            T.instantiate(expr, {"MOVIE": [row]})

    @pytest.mark.parametrize("variant", ["noun", "heading"])
    def test_each_schema_variant_names_the_graph_it_needs(self, variant):
        expr = T.parse_template(f"{{MOVIE.year:{variant}}}")
        with pytest.raises(MissingAttribute) as err:
            T.instantiate(expr, {"MOVIE": MOVIES})
        assert str(err.value) == f"{variant} variant needs a schema graph"

    def test_an_alias_bound_to_no_tuple_outside_a_loop(self):
        expr = T.parse_template('"The movie " + {MOVIE.title}')
        with pytest.raises(UnboundAlias) as err:
            T.instantiate(expr, {"MOVIE": []})
        assert str(err.value) == "alias 'MOVIE' is bound to an empty tuple list"


# --- fuzzed delimiter invariant -----------------------------------------

_words = st.text(alphabet=string.ascii_letters + " ,.", min_size=0, max_size=12)


@st.composite
def template_and_bindings(draw):
    n_parts = draw(st.integers(1, 5))
    parts, source = [], []
    for _ in range(n_parts):
        if draw(st.booleans()):
            lit = draw(_words)
            source.append('"' + lit.replace('"', "") + '"')
        else:
            source.append("{MOVIE.title}")
    return " + ".join(source)


@given(template_and_bindings())
@settings(max_examples=300, deadline=None)
def test_instantiate_never_leaks_delimiters(source):
    expr = T.parse_template(source)
    out = T.instantiate(expr, {"MOVIE": MOVIES})
    assert "{" not in out and "}" not in out


# --- merge_common (the narrator's clause merging) -------------------------

def clause(text, subject="S"):
    return N.Clause.from_text(text, subject)


class TestMergeCommon:
    def test_birth_clauses_fuse(self):
        merged = N.merge_common(
            [
                clause("DNAME was born in BLOCATION", "DNAME"),
                clause("DNAME was born on BDATE", "DNAME"),
            ]
        )
        assert [c.text for c in merged] == ["DNAME was born in BLOCATION on BDATE"]

    def test_single_clause_unchanged(self):
        merged = N.merge_common([clause("S alone here")])
        assert [c.text for c in merged] == ["S alone here"]

    def test_distinct_subjects_do_not_fuse(self):
        a = clause("The movie M1 is long", "The movie M1")
        b = clause("The movie M2 is short", "The movie M2")
        merged = N.merge_common([a, b])
        assert [c.text for c in merged] == [a.text, b.text]


_token = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def clause_pairs(draw):
    subject = draw(st.lists(_token, min_size=1, max_size=2))
    shared = draw(st.lists(_token, min_size=0, max_size=3))
    tail_a = draw(st.lists(_token, min_size=0, max_size=4))
    tail_b = draw(st.lists(_token, min_size=0, max_size=4))
    a = N.Clause(subject + shared + tail_a, len(subject))
    b = N.Clause(subject + shared + tail_b, len(subject))
    return a, b


@given(clause_pairs())
@settings(max_examples=1000, deadline=None)
def test_merge_common_idempotent(pair):
    once = N.merge_common(list(pair))
    twice = N.merge_common(once)
    assert [c.tokens for c in twice] == [c.tokens for c in once]


@given(clause_pairs())
@settings(max_examples=1000, deadline=None)
def test_merge_common_conserves_tokens(pair):
    a, b = pair
    merged = N.merge_common([a, b])
    before = sorted(a.tokens + b.tokens)
    if len(merged) == 2:
        assert sorted(merged[0].tokens + merged[1].tokens) == before
    else:
        fused = merged[0].tokens
        # the fused prefix is what both clauses shared
        prefix_len = len(a.tokens) + len(b.tokens) - len(fused)
        prefix = a.tokens[:prefix_len]
        assert b.tokens[:prefix_len] == prefix
        assert sorted(fused + prefix) == before


def test_fuse_split_two_branches():
    from tabletalk.narrator import fuse_split

    out = fuse_split(
        [
            "The movie M1 involves the director D1 who was born in Italy",
            "The movie M1 involves the actor A1 who is Greek",
        ],
        "M1",
    )
    assert out == (
        "The movie M1 involves the director D1 who was born in Italy "
        "and the actor A1 who is Greek"
    )


def test_fuse_split_three_branches_uses_oxford_list():
    from tabletalk.narrator import fuse_split

    out = fuse_split(["X likes a", "X likes b", "X likes c"], "X")
    assert out == "X likes a, b, and c"
