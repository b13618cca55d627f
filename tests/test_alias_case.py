"""Alias references are matched case-insensitively, as in SQL: a query
whose qualified references spell their aliases in another case reads,
draws, classifies and evaluates exactly like the original."""

import pytest

from conftest import CORPUS_NAMES, corpus_sql, upper_alias_refs
from random_db import random_database

from tabletalk import classifier, dot, evaluator, parser, query_graph, translator


def outputs(text, graph, db):
    ast = parser.resolve_names(parser.parse_sql(text), graph)
    qg = query_graph.build(ast, graph)
    cls = classifier.classify(qg)
    result = translator.translate(qg, graph, cls)
    databases = [db] + [random_database(graph, seed, 6) for seed in (1, 2)]
    return (
        dot.emit_query_dot(qg),
        cls.label,
        cls.evidence,
        result.text,
        result.notes,
        [evaluator.evaluate(ast, d).rows for d in databases],
    )


@pytest.mark.parametrize("name", CORPUS_NAMES + ["emp"])
def test_upper_cased_alias_references_change_nothing(
    name, movie_graph, movie_db, emp_graph, emp_db
):
    graph, db = (emp_graph, emp_db) if name == "emp" else (movie_graph, movie_db)
    text = corpus_sql(name)
    variant = upper_alias_refs(text)
    assert variant != text
    assert outputs(variant, graph, db) == outputs(text, graph, db)
