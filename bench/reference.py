"""References the benchmark checks the program against.

Nothing here calls tabletalk.  The narration formatter spells out the
movie and split schemas' templates by hand; at start-up it must reproduce
the hand-checked goldens in expected.json on the fixtures, or the run
stops.  The SQL reference is stdlib sqlite3 on the same tables.
"""

from __future__ import annotations

import json
import os
import sqlite3
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- narration ----------------------------------------------------------------

class Table:
    """A CSV table with cells typed as the loader documents: a column is
    integer when every non-empty cell parses as an integer."""

    def __init__(self, rows: list[list]):
        self.header = [str(h).strip() for h in rows[0]]
        body = [list(r) for r in rows[1:] if r]
        for col in range(len(self.header)):
            cells = [r[col] for r in body if r[col] != ""]
            if cells and all(_is_int(c) for c in cells):
                for r in body:
                    if r[col] != "":
                        r[col] = int(r[col])
        self.rows = body

    def col(self, name: str):
        names = [h.upper() for h in self.header]
        return names.index(name.upper()) if name.upper() in names else None

    def get(self, row, name):
        return row[self.col(name)]


def _is_int(cell) -> bool:
    try:
        int(cell)
    except (TypeError, ValueError):
        return False
    return True


def ranked(table: Table, rows, rank):
    """Rank by (attribute, descending); a relation without the attribute,
    or no rank, keeps load order.  Nulls go last; ties keep load order."""
    col = table.col(rank[0]) if rank else None
    if col is None:
        return list(rows)
    present = [r for r in rows if r[col] not in ("", None)]
    missing = [r for r in rows if r[col] in ("", None)]
    return sorted(present, key=lambda r: r[col], reverse=rank[1]) + missing


def _listing(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + ", and " + items[-1]


def narrate_movies(t: dict, start: str, mode: str, budget: int, rank) -> str:
    """Expected narration over the movie schema from `start`."""
    movie = t["MOVIE"]
    if start == "MOVIE":
        m = ranked(movie, movie.rows, rank)[0]
        return f"{movie.get(m, 'title')} was released in {movie.get(m, 'year')}."
    director, directed = t["DIRECTOR"], t["DIRECTED"]
    d = ranked(director, director.rows, rank)[0]
    name = director.get(d, "name")
    text = (f"{name} was born in {director.get(d, 'blocation')} "
            f"on {director.get(d, 'bdate')}.")
    films, seen = [], set()
    for r in directed.rows:
        if directed.get(r, "did") == director.get(d, "id"):
            for i, m in enumerate(movie.rows):
                if movie.get(m, "id") == directed.get(r, "mid") and i not in seen:
                    seen.add(i)
                    films.append(m)
    films = ranked(movie, films, rank)[:budget]
    if not films:
        return text
    titles = [str(movie.get(m, "title")) for m in films]
    years = [movie.get(m, "year") for m in films]
    if mode == "declarative":
        items = [f"{ti} ({y})" for ti, y in zip(titles, years)]
        return f"{text} As a director, {name}'s work includes {_listing(items)}."
    facts = "".join(f" {ti} was released in {y}." for ti, y in zip(titles, years))
    return f"{text} As a director, {name}'s work includes {', '.join(titles)}.{facts}"


def narrate_split(t: dict, mode: str, rank) -> str:
    """Expected narration of the split schema from MOVIE: both branches fused."""
    movie, director, actor = t["MOVIE"], t["DIRECTOR"], t["ACTOR"]
    m = ranked(movie, movie.rows, rank)[0]
    d = next(r for r in ranked(director, director.rows, rank)
             if director.get(r, "id") == movie.get(m, "did"))
    a = next(r for r in ranked(actor, actor.rows, rank)
             if actor.get(r, "id") == movie.get(m, "aid"))
    head = f"The movie {movie.get(m, 'title')} involves"
    if mode == "declarative":
        return (f"{head} the director {director.get(d, 'dname')} who was born in "
                f"{director.get(d, 'blocation')} and the actor {actor.get(a, 'aname')} "
                f"who is {actor.get(a, 'nationality')}.")
    return f"{head} the director {director.get(d, 'dname')} and the actor {actor.get(a, 'aname')}."


def typed_tables(raw: dict[str, list[list]]) -> dict[str, Table]:
    return {name: Table(rows) for name, rows in raw.items()}


def check_formatter(movies_fixture: dict, split_fixture: dict) -> None:
    """Raise unless the formatter reproduces the goldens on the fixtures."""
    gold = load_expected()["narration"]
    mt, st = typed_tables(movies_fixture), typed_tables(split_fixture)
    got = {
        "movies_declarative": narrate_movies(mt, "DIRECTOR", "declarative", 3, None),
        "movies_procedural": narrate_movies(mt, "DIRECTOR", "procedural", 3, None),
        "split_declarative": narrate_split(st, "declarative", None),
    }
    for key, text in got.items():
        if text != gold[key]:
            raise RuntimeError(f"reference formatter disagrees with golden {key}: {text!r}")


# --- SQL ----------------------------------------------------------------------

def sqlite_results(tables: dict[str, list[list]], queries: dict[str, str]) -> dict[str, Counter]:
    """Each query's result as a multiset, from sqlite3 on the same tables.

    MOVIES is a view on MOVIE because the corpus uses the alias.
    """
    con = sqlite3.connect(":memory:")
    try:
        for name, rows in tables.items():
            cols = ", ".join(f'"{c}"' for c in rows[0])
            con.execute(f'create table "{name}" ({cols})')
            marks = ", ".join("?" for _ in rows[0])
            con.executemany(f'insert into "{name}" values ({marks})', rows[1:])
        con.execute("create view MOVIES as select * from MOVIE")
        return {q: Counter(tuple(r) for r in con.execute(sql)) for q, sql in queries.items()}
    finally:
        con.close()
