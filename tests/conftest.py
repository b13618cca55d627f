import importlib.util
import re
from pathlib import Path

import pytest

from tabletalk import parser, query_graph, schema
from tabletalk.data import load_data

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
QUERIES = FIXTURES / "queries"


def corpus_sql(name: str) -> str:
    return (QUERIES / f"{name}.sql").read_text()


CORPUS_NAMES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9"]


def generated_sql(seed, count):
    """`count` texts of the benchmark's seeded SqlStream, each also with
    every numbered alias cut to its letter (`m1`, `m2` become `m`), so
    that nested FROM items collide with outer ones and get renamed."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    stream = gen.SqlStream(seed, {name: corpus_sql(name) for name in gen.CORPUS})
    for _ in range(count):
        text = stream.next()[1]
        yield text
        yield re.sub(r"\b([a-z])\d+\b", r"\1", text)


def upper_alias_refs(text: str) -> str:
    """`text` with the alias of every qualified column reference
    upper-cased (`m.title` becomes `M.title`); FROM lists are kept."""
    chars = list(text)
    tokens = parser.tokenize(text)
    for (kind, value, pos), nxt in zip(tokens, tokens[1:]):
        if kind == "ident" and nxt[:2] == ("punct", "."):
            chars[pos:pos + len(value)] = value.upper()
    return "".join(chars)


@pytest.fixture(scope="session")
def movie_graph():
    return schema.load_schema(FIXTURES / "movies.schema.json")


@pytest.fixture(scope="session")
def movie_db(movie_graph):
    return load_data(movie_graph, FIXTURES / "movies")


@pytest.fixture(scope="session")
def emp_graph():
    return schema.load_schema(FIXTURES / "emp.schema.json")


@pytest.fixture(scope="session")
def emp_db(emp_graph):
    return load_data(emp_graph, FIXTURES / "emp")


@pytest.fixture(scope="session")
def split_graph():
    return schema.load_schema(FIXTURES / "split.schema.json")


@pytest.fixture(scope="session")
def split_db(split_graph):
    return load_data(split_graph, FIXTURES / "split")


def resolved(name: str, graph):
    ast = parser.parse_sql(corpus_sql(name))
    parser.resolve_names(ast, graph)
    return ast


def built(name: str, graph):
    return query_graph.build(resolved(name, graph), graph)


@pytest.fixture(scope="session")
def corpus_graphs(movie_graph):
    return {name: built(name, movie_graph) for name in CORPUS_NAMES}
