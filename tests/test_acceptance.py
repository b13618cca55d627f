"""Acceptance gate: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -s` to see the pass lines.
"""

import random
import string
import time
from collections import Counter

from conftest import FIXTURES, resolved
from random_db import random_database

from tabletalk import (
    classifier,
    evaluator,
    narrator,
    parser,
    rewriter,
    templates,
    translator,
)
from tabletalk.data import Row
from tabletalk.errors import SyntaxError_, Unsupported
from tabletalk.narrator import NarrationPlan

WOODY_DECLARATIVE = (
    "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935. "
    "As a director, Woody Allen's work includes Match Point (2005), "
    "Melinda and Melinda (2004), and Anything Else (2003)."
)

WOODY_PROCEDURAL = (
    "Woody Allen was born in Brooklyn, New York, USA on December 1, 1935. "
    "As a director, Woody Allen's work includes Match Point, "
    "Melinda and Melinda, Anything Else. "
    "Match Point was released in 2005. "
    "Melinda and Melinda was released in 2004. "
    "Anything Else was released in 2003."
)

SPLIT_SENTENCE = (
    "The movie M1 involves the director D1 who was born in Italy "
    "and the actor A1 who is Greek."
)


def norm(text: str) -> str:
    return " ".join(text.split())


def report(n: int, description: str):
    print(f"ACCEPTANCE {n} PASS: {description}")


def _cli(*args):
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-m", "tabletalk.cli", *args],
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_criterion_1_golden_narration(movie_graph, movie_db):
    start = time.perf_counter()
    declarative = narrator.narrate(movie_graph, movie_db, NarrationPlan())
    elapsed = time.perf_counter() - start
    assert norm(declarative.text) == norm(WOODY_DECLARATIVE)
    procedural = narrator.narrate(
        movie_graph, movie_db, NarrationPlan(mode="procedural")
    )
    assert norm(procedural.text) == norm(WOODY_PROCEDURAL)
    assert elapsed < 1.0, f"narration took {elapsed:.3f}s"
    schema_path = str(FIXTURES / "movies.schema.json")
    data_path = str(FIXTURES / "movies")
    assert norm(_cli("narrate", "--schema", schema_path, "--data", data_path)) == norm(
        WOODY_DECLARATIVE
    )
    assert norm(
        _cli(
            "narrate", "--schema", schema_path, "--data", data_path,
            "--mode", "procedural",
        )
    ) == norm(WOODY_PROCEDURAL)
    report(1, f"golden narration, both modes, library and CLI, {elapsed * 1000:.0f} ms")


def test_criterion_2_golden_split_fusion(split_graph, split_db):
    narrative = narrator.narrate(split_graph, split_db, NarrationPlan())
    assert narrative.text == SPLIT_SENTENCE
    out = _cli(
        "narrate",
        "--schema", str(FIXTURES / "split.schema.json"),
        "--data", str(FIXTURES / "split"),
    )
    assert norm(out) == norm(SPLIT_SENTENCE)
    report(2, "split fixture fuses into the exact relative-clause sentence")


def test_criterion_3_taxonomy_nine_of_nine(corpus_graphs):
    expected = {
        "q1": "Path",
        "q2": "Subgraph",
        "q3": "GraphMultiInstance",
        "q4": "GraphCyclic",
        "q5": "NestedFlattenable",
        "q6": "NestedGeneral",
        "q7": "Aggregate",
        "q8": "HigherOrder",
        "q9": "HigherOrder",
    }
    got = {name: classifier.classify(qg).label for name, qg in corpus_graphs.items()}
    assert got == expected
    report(3, "taxonomy labels match 9/9")


def test_criterion_4_golden_translations(movie_graph, corpus_graphs):
    golden = {
        "q1": "Find the titles of movies where the actor Brad Pitt plays",
        "q2": "Find the actors and titles of action movies directed by G. Loucas",
        "q3": (
            "Find the name of an actor who has played in a movie, and the "
            "name of another actor who has played in the movie, and the id "
            "of the first actor is larger than the id of the second actor"
        ),
        "q6": "Find movies that have all genres",
        "q8": "Find actors whose movies are all in the same year",
    }
    for name, expected in golden.items():
        result = translator.translate(corpus_graphs[name], movie_graph)
        assert norm(result.text) == norm(expected), name
    q5 = translator.translate(corpus_graphs["q5"], movie_graph)
    q1 = translator.translate(corpus_graphs["q1"], movie_graph)
    assert norm(q5.text) == norm(q1.text)
    q8 = translator.translate(corpus_graphs["q8"], movie_graph)
    assert "all in the same year" in q8.text
    report(4, "golden translations exact, Q5 identical to Q1 via flattening")


def test_criterion_5_flattening_soundness(movie_graph):
    q5 = resolved("q5", movie_graph)
    q1 = resolved("q1", movie_graph)
    flat = rewriter.flatten(q5)
    start = time.perf_counter()
    for seed in range(100):
        db = random_database(movie_graph, seed, 5)
        r5 = Counter(evaluator.evaluate(q5, db).rows)
        rf = Counter(evaluator.evaluate(flat, db).rows)
        r1 = Counter(evaluator.evaluate(q1, db).rows)
        assert r5 == rf == r1, f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
    report(5, f"evaluate(Q5) = evaluate(flatten(Q5)) = evaluate(Q1) on 100 "
              f"seeds, {elapsed:.2f} s")


def test_criterion_6_property_suites(movie_graph, movie_db, corpus_graphs):
    rng = random.Random(2024)

    # merge_common: idempotence and token conservation on 1000 pairs.
    def random_clause_pair():
        token = lambda: "".join(
            rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 5))
        )
        subject = [token() for _ in range(rng.randint(1, 2))]
        shared = [token() for _ in range(rng.randint(0, 3))]
        a = narrator.Clause(
            subject + shared + [token() for _ in range(rng.randint(0, 4))],
            len(subject),
        )
        b = narrator.Clause(
            subject + shared + [token() for _ in range(rng.randint(0, 4))],
            len(subject),
        )
        return a, b

    for _ in range(1000):
        a, b = random_clause_pair()
        merged = narrator.merge_common([a, b])
        again = narrator.merge_common(merged)
        assert [c.tokens for c in again] == [c.tokens for c in merged]
        before = sorted(a.tokens + b.tokens)
        if len(merged) == 1:
            fused = merged[0].tokens
            prefix_len = len(a.tokens) + len(b.tokens) - len(fused)
            assert sorted(fused + a.tokens[:prefix_len]) == before
        else:
            assert sorted(merged[0].tokens + merged[1].tokens) == before

    # instantiate: fuzzed templates never leak placeholder delimiters.
    rows = [Row("MOVIE", {"title": "T", "year": 2000})]
    for _ in range(500):
        parts = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.5:
                lit = "".join(
                    rng.choice(string.ascii_letters + " .,")
                    for _ in range(rng.randint(0, 10))
                )
                parts.append(f'"{lit}"')
            else:
                parts.append("{MOVIE.title}")
        out = templates.instantiate(
            templates.parse_template(" + ".join(parts)), {"MOVIE": rows}
        )
        assert "{" not in out and "}" not in out

    # parser: totality under byte fuzzing, 10^4 inputs.
    for i in range(10_000):
        text = "".join(chr(rng.randrange(256)) for _ in range(rng.randrange(48)))
        try:
            parser.parse_sql(text)
        except (SyntaxError_, Unsupported):
            pass

    # classifier: totality and uniqueness on generated SPJ graphs.
    from tabletalk.ast_nodes import ColumnRef, Compare, FromItem
    from tabletalk.query_graph import Conjunct, QueryGraph

    relations = ["MOVIE", "GENRE", "DIRECTOR", "CAST", "ACTOR"]
    for _ in range(300):
        qg = QueryGraph()
        n = rng.randint(1, 5)
        for i in range(n):
            relation = rng.choice(relations)
            qg.query.from_items.append(FromItem(relation, f"t{i}", relation))
        for _ in range(rng.randint(0, n)):
            if n < 2:
                break
            a, b = rng.sample(range(n), 2)
            pred = Compare(ColumnRef(f"t{a}", "k"), "=", ColumnRef(f"t{b}", "k"))
            qg.conjuncts.append(Conjunct(pred, "where", "join", fk_backed=True))
        label = classifier.classify(qg).label
        assert label in classifier.LABELS

    # narrator: tuple budget bound for k in {1, 2, 3}.
    titles = ["Match Point", "Melinda and Melinda", "Anything Else"]
    for k in (1, 2, 3):
        text = narrator.narrate(
            movie_graph, movie_db, NarrationPlan(tuple_budget=k)
        ).text
        assert sum(t in text for t in titles) == k

    report(6, "property suites: merge, templates, parser fuzz, classifier, budgets")
