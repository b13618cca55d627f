"""Seeded input generators owned by the benchmark.

Each generator takes its seed as an argument and never calls into
tabletalk (in particular not `tabletalk.random_database`), so a change to
the program cannot change the inputs it is measured on.

- `SqlStream`: SQL texts over the movie schema, one family per taxonomy
  class in rotation, with the corpus queries mixed in.
- `scaled_movies` / `scaled_split`: the fixtures plus filler rows whose ids
  are fresh, so filler never links to a fixture row.
- `oracle_tables`: a small database with a fixed number of rows per table
  whose values include the corpus constants, so the corpus returns rows.
"""

from __future__ import annotations

import csv
import io
import os
import random

CORPUS = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9"]

# The movie schema as the generators see it: typed columns and FK edges.
COLUMNS = {
    "MOVIE": [("id", "int"), ("title", "str"), ("year", "int")],
    "GENRE": [("mid", "int"), ("genre", "str")],
    "DIRECTOR": [("id", "int"), ("name", "str"), ("bdate", "str"), ("blocation", "str")],
    "DIRECTED": [("mid", "int"), ("did", "int")],
    "CAST": [("mid", "int"), ("aid", "int"), ("role", "str")],
    "ACTOR": [("id", "int"), ("name", "str")],
}
FKS = [
    ("CAST", "mid", "MOVIE", "id"),
    ("CAST", "aid", "ACTOR", "id"),
    ("DIRECTED", "mid", "MOVIE", "id"),
    ("DIRECTED", "did", "DIRECTOR", "id"),
    ("GENRE", "mid", "MOVIE", "id"),
]
TITLES = ["Match Point", "King Kong", "Seven", "Anything Else"]
YEARS = [1933, 1976, 1995, 2003, 2004, 2005]
ACTORS = ["Brad Pitt", "Fay Wray", "Morgan Freeman"]
DIRECTORS = ["G. Loucas", "Woody Allen", "John Guillermin"]
GENRES = ["action", "drama", "comedy"]
ROLES = TITLES[:2] + ["Mills", "Dwan"]
BDATES = ["May 14, 1944", "December 1, 1935", "March 3, 1950"]
PLACES = ["London, England", "Modesto, California, USA", "Rome, Italy"]

CONSTANTS = {
    ("MOVIE", "title"): TITLES,
    ("MOVIE", "year"): YEARS,
    ("GENRE", "genre"): GENRES,
    ("DIRECTOR", "name"): DIRECTORS,
    ("DIRECTOR", "bdate"): BDATES,
    ("DIRECTOR", "blocation"): PLACES,
    ("CAST", "role"): ROLES,
    ("ACTOR", "name"): ACTORS,
}
FROM_NAME = {"MOVIE": "MOVIES"}  # the corpus spells MOVIE by its alias
OPS = ["=", "!=", "<", "<=", ">", ">="]


def sql_literal(value) -> str:
    if isinstance(value, int):
        return str(value)
    return "'" + str(value).replace("'", "''") + "'"


def fk_neighbours(relation: str):
    """(own column, other relation, other column) for each FK edge at relation."""
    out = []
    for frm, fcol, to, tcol in FKS:
        if frm == relation:
            out.append((fcol, to, tcol))
        if to == relation:
            out.append((tcol, frm, fcol))
    return out


# --- SQL ----------------------------------------------------------------------

class _Block:
    """One SELECT block under construction."""

    def __init__(self, gen, outer=()):
        self.gen = gen
        self.outer = list(outer)  # aliases of enclosing blocks: (alias, rel)
        self.items: list[tuple[str, str]] = []
        self.where: list[str] = []
        self.select: list[str] = []
        self.group: list[str] = []
        self.having: list[str] = []
        self.order: list[str] = []

    def add(self, relation: str) -> str:
        return self.gen.alias(self, relation)

    def text(self) -> str:
        parts = ["select " + ", ".join(self.select or ["*"])]
        parts.append(
            "from " + ", ".join(f"{FROM_NAME.get(r, r)} {a}" for a, r in self.items)
        )
        if self.where:
            parts.append("where " + " and ".join(self.where))
        if self.group:
            parts.append("group by " + ", ".join(self.group))
            if self.having:
                parts.append("having " + " and ".join(self.having))
        if self.order:
            parts.append("order by " + ", ".join(self.order))
        return "\n".join(parts)


class SqlStream:
    """Seeded SQL texts; family i % 8 targets taxonomy class i % 8.

    Every 20th text is a corpus query (q1..q9 in turn) so its golden
    translation is checked throughout the run.  Predicates inside a
    subquery draw their columns from every alias in scope, outer ones
    included, as hand-written SQL does; IN-children sometimes group.
    """

    CORPUS_EVERY = 20

    def __init__(self, seed: int, corpus_texts: dict[str, str]):
        self.rng = random.Random(seed)
        self.corpus = corpus_texts
        self.index = 0
        self.n_corpus = 0
        self.n_alias = 0
        self.families = [
            self._path, self._subgraph, self._multi_instance, self._cyclic,
            self._nested_in, self._nested_general, self._aggregate,
            self._higher_order,
        ]

    def next(self) -> tuple[str, str]:
        """(name, text): name is the corpus name or 'gen'."""
        i = self.index
        self.index += 1
        if i % self.CORPUS_EVERY == 0:
            name = CORPUS[self.n_corpus % len(CORPUS)]
            self.n_corpus += 1
            return name, self.corpus[name]
        family = self.families[(i - i // self.CORPUS_EVERY - 1) % len(self.families)]
        self.n_alias = 0
        return "gen", family()

    # helpers ---------------------------------------------------------------

    def alias(self, block: _Block, relation: str) -> str:
        self.n_alias += 1
        name = f"{relation[0].lower()}{self.n_alias}"
        block.items.append((name, relation))
        return name

    def _tree(self, block: _Block, size: int, path: bool) -> None:
        """Grow an FK-joined tree of `size` distinct relations (a path if asked)."""
        rng = self.rng
        start = rng.choice(sorted(COLUMNS))
        block.add(start)
        used = {start}
        while len(block.items) < size:
            ends = [block.items[-1]] if path else list(block.items)
            options = [
                (alias, own, other, col)
                for alias, rel in ends
                for own, other, col in fk_neighbours(rel)
                if other not in used
            ]
            if not options:
                break
            alias, own, other, col = rng.choice(options)
            new = block.add(other)
            used.add(other)
            block.where.append(f"{alias}.{own} = {new}.{col}")

    def _column(self, relation: str, kind=None):
        cols = [c for c, k in COLUMNS[relation] if kind is None or k == kind]
        return self.rng.choice(cols) if cols else None

    def _constant_pred(self, scope) -> str:
        rng = self.rng
        alias, rel = rng.choice(scope)
        options = [c for c, _ in COLUMNS[rel] if (rel, c) in CONSTANTS]
        if not options:
            col = self._column(rel, "int")
            return f"{alias}.{col} {rng.choice(OPS)} {rng.randint(1, 9)}"
        col = rng.choice(options)
        value = rng.choice(CONSTANTS[(rel, col)])
        op = rng.choice(OPS) if isinstance(value, int) else rng.choice(["=", "!="])
        return f"{alias}.{col} {op} {sql_literal(value)}"

    def _column_pred(self, scope) -> str:
        """Compare two same-typed columns drawn from everything in scope."""
        rng = self.rng
        a_alias, a_rel = rng.choice(scope)
        a_col, kind = rng.choice(COLUMNS[a_rel])
        b_alias, b_rel = rng.choice(scope)
        b_col = self._column(b_rel, kind)
        if b_col is None:
            b_alias, b_col = a_alias, a_col
        return f"{a_alias}.{a_col} {rng.choice(OPS)} {b_alias}.{b_col}"

    def _decorate(self, block: _Block, constants: int) -> None:
        rng = self.rng
        for _ in range(constants):
            block.where.append(self._constant_pred(block.items))
        n_select = rng.randint(1, min(3, len(block.items) + 1))
        for _ in range(n_select):
            alias, rel = rng.choice(block.items)
            ref = f"{alias}.{self._column(rel)}"
            if ref not in block.select:
                block.select.append(ref)
        if rng.random() < 0.15:
            alias, rel = rng.choice(block.items)
            block.order.append(
                f"{alias}.{self._column(rel)} {rng.choice(['asc', 'desc'])}"
            )

    def _child(self, outer: _Block, depth: int, correlated: bool) -> _Block:
        rng = self.rng
        child = _Block(self, outer.outer + outer.items)
        self._tree(child, rng.randint(1, 3), path=False)
        scope = child.items + child.outer
        if correlated:
            # Link the child to an outer alias along an FK edge when one exists.
            links = [
                (ca, own, oa, col)
                for ca, crel in child.items
                for oa, orel in child.outer
                for own, other, col in fk_neighbours(crel)
                if other == orel
            ]
            if links:
                ca, own, oa, col = rng.choice(links)
                child.where.append(f"{ca}.{own} = {oa}.{col}")
            else:
                child.where.append(self._column_pred(scope))
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.7:
                child.where.append(self._constant_pred(child.items))
            else:
                child.where.append(self._column_pred(scope))
        if depth < 2 and rng.random() < 0.3:
            self._in_pred(child, depth + 1, correlated=False)
        return child

    def _in_pred(self, block: _Block, depth: int, correlated: bool) -> None:
        """`x.key in (select fk ...)` along an FK edge into a fresh child."""
        rng = self.rng
        alias, rel = rng.choice(block.items)
        links = [(own, other, col) for own, other, col in fk_neighbours(rel)]
        own, other, col = rng.choice(links)
        child = _Block(self, block.outer + block.items)
        inner = child.add(other)
        grow = rng.randint(0, 1)
        if grow:
            options = [n for n in fk_neighbours(other) if n[1] != rel]
            if options:
                o_own, o_other, o_col = rng.choice(options)
                extra = child.add(o_other)
                child.where.append(f"{inner}.{o_own} = {extra}.{o_col}")
        if correlated:
            child.where.append(self._column_pred(child.items + child.outer))
        for _ in range(rng.randint(0, 2)):
            child.where.append(self._constant_pred(child.items))
        if depth < 2 and rng.random() < 0.4:
            self._in_pred(child, depth + 1, correlated=False)
        child.select = [f"{inner}.{col}"]
        if rng.random() < 0.1:
            child.group = [f"{inner}.{col}"]
            child.having = [f"count(*) > {rng.randint(1, 2)}"]
        block.where.append(f"{alias}.{own} in ({child.text()})")

    # families, one per taxonomy class ---------------------------------------

    def _path(self) -> str:
        b = _Block(self)
        self._tree(b, self.rng.randint(1, 5), path=True)
        self._decorate(b, self.rng.randint(0, 2))
        return b.text()

    def _subgraph(self) -> str:
        rng = self.rng
        b = _Block(self)
        m = b.add("MOVIE")
        for own, other, col in rng.sample(fk_neighbours("MOVIE"), 3):
            x = b.add(other)
            b.where.append(f"{m}.{own} = {x}.{col}")
            if rng.random() < 0.5:
                for o2, far, c2 in fk_neighbours(other):
                    if far != "MOVIE":
                        y = b.add(far)
                        b.where.append(f"{x}.{o2} = {y}.{c2}")
        self._decorate(b, rng.randint(0, 2))
        return b.text()

    def _multi_instance(self) -> str:
        rng = self.rng
        b = _Block(self)
        self._tree(b, rng.randint(2, 4), path=False)
        alias, rel = rng.choice(b.items)
        own, other, col = rng.choice(fk_neighbours(rel))
        twin = b.add(other)
        b.where.append(f"{alias}.{own} = {twin}.{col}")
        if rng.random() < 0.5:
            for o2, far, c2 in fk_neighbours(other):
                if far != rel:
                    y = b.add(far)
                    b.where.append(f"{twin}.{o2} = {y}.{c2}")
                    break
        firsts = [a for a, r in b.items if r == b.items[-1][1]]
        if len(firsts) >= 2 and rng.random() < 0.5:
            b.where.append(f"{firsts[0]}.{self._column(b.items[-1][1], 'int')}"
                           f" > {firsts[1]}.{self._column(b.items[-1][1], 'int')}")
        self._decorate(b, rng.randint(0, 2))
        return b.text()

    def _cyclic(self) -> str:
        rng = self.rng
        b = _Block(self)
        self._tree(b, rng.randint(2, 4), path=False)
        (a, ar), (c, cr) = rng.sample(b.items, 2)
        kind = rng.choice(["int", "str"])
        a_col, c_col = self._column(ar, kind), self._column(cr, kind)
        if a_col is None or c_col is None:
            a_col, c_col = self._column(ar, "int"), self._column(cr, "int")
        b.where.append(f"{c}.{c_col} = {a}.{a_col}")
        self._decorate(b, rng.randint(0, 1))
        return b.text()

    def _nested_in(self) -> str:
        b = _Block(self)
        self._tree(b, self.rng.randint(1, 3), path=True)
        self._in_pred(b, 1, correlated=False)
        self._decorate(b, self.rng.randint(0, 1))
        return b.text()

    def _nested_general(self) -> str:
        rng = self.rng
        b = _Block(self)
        self._tree(b, rng.randint(1, 3), path=True)
        kind = rng.choice(["exists", "not exists", "in", "scalar", "division"])
        if kind == "in":
            self._in_pred(b, 1, correlated=True)
        elif kind == "scalar":
            child = self._child(b, 1, correlated=True)
            child.select = ["count(*)"]
            b.where.append(f"{rng.randint(0, 2)} {rng.choice(OPS)} ({child.text()})")
        elif kind == "division":
            alias, rel = rng.choice(b.items)
            own, other, col = rng.choice(fk_neighbours(rel))
            attr = next(c for c, k in COLUMNS[other] if c != col)
            outer_child = _Block(self, b.items)
            x = outer_child.add(other)
            inner = _Block(self, b.items + outer_child.items)
            y = inner.add(other)
            inner.where = [f"{y}.{col} = {alias}.{own}", f"{y}.{attr} = {x}.{attr}"]
            outer_child.where = [f"not exists ({inner.text()})"]
            b.where.append(f"not exists ({outer_child.text()})")
        else:
            child = self._child(b, 1, correlated=True)
            b.where.append(f"{kind} ({child.text()})")
        self._decorate(b, rng.randint(0, 1))
        return b.text()

    def _aggregate(self) -> str:
        rng = self.rng
        b = _Block(self)
        self._tree(b, rng.randint(1, 4), path=False)
        for _ in range(rng.randint(0, 1)):
            b.where.append(self._constant_pred(b.items))
        alias, rel = rng.choice(b.items)
        keys = [f"{alias}.{c}" for c, _ in rng.sample(COLUMNS[rel], rng.randint(1, 2))]
        b.group = keys
        b.select = keys + ["count(*)"]
        if rng.random() < 0.6:
            b.having = [f"count(*) {rng.choice(['>', '>=', '<'])} {rng.randint(1, 3)}"]
        return b.text()

    def _higher_order(self) -> str:
        rng = self.rng
        b = _Block(self)
        self._tree(b, rng.randint(2, 4), path=True)
        if rng.random() < 0.5:
            (ga, gr), (ca, cr) = rng.sample(b.items, 2)
            gkey = f"{ga}.{self._column(gr)}"
            b.group = [gkey]
            b.select = [gkey]
            b.having = [f"count(distinct {ca}.{self._column(cr)}) = 1"]
            return b.text()
        alias, rel = rng.choice(b.items)
        col, kind = rng.choice(COLUMNS[rel])
        child = _Block(self, b.items)
        twin = child.add(rel)
        child.select = [f"{twin}.{col}"]
        if rng.random() < 0.7:
            key = COLUMNS[rel][0][0]
            child.where.append(f"{twin}.{key} != {alias}.{key}")
        for _ in range(rng.randint(0, 1)):
            child.where.append(self._constant_pred(child.items))
        op = rng.choice(["<=", ">=", "<", ">"])
        b.where.append(f"{alias}.{col} {op} all ({child.text()})")
        self._decorate(b, 0)
        return b.text()


# --- tables ---------------------------------------------------------------

def read_csv_dir(path: str) -> dict[str, list[list[str]]]:
    """relation -> [header, *rows] as strings, for every CSV in a directory."""
    tables = {}
    for entry in sorted(os.listdir(path)):
        if entry.lower().endswith(".csv"):
            with open(os.path.join(path, entry), newline="", encoding="utf-8") as fh:
                tables[entry[:-4]] = list(csv.reader(fh))
    return tables


def csv_text(rows: list[list]) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def write_tables(tables: dict[str, list[list]], path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for name, rows in tables.items():
        with open(os.path.join(path, f"{name}.csv"), "w", encoding="utf-8") as fh:
            fh.write(csv_text(rows))


FILLER_ID = 100_000  # above every fixture id, so filler never joins a fixture row
MONTHS = ["January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December"]


def scaled_movies(fixture: dict, seed: int, movies: int, directors: int,
                  cast_per_movie: int = 5) -> dict[str, list[list]]:
    """The movie fixture plus filler up to `movies` movies and `directors` directors.

    Filler directors each direct the same number of filler movies, so a
    narration costs the same whichever seed picked its director; every filler
    movie has `cast_per_movie` cast rows over filler actors and one or two
    genres.  Fixture rows keep their place at the head of each table.
    """
    rng = random.Random(seed)
    t = {name: [list(r) for r in rows] for name, rows in fixture.items()}
    n_movies = movies - (len(t["MOVIE"]) - 1)
    n_directors = directors - (len(t["DIRECTOR"]) - 1)
    n_actors = 2 * n_movies
    dir_ids = [FILLER_ID + i for i in range(n_directors)]
    for i, did in enumerate(dir_ids):
        month = MONTHS[rng.randrange(12)]
        t["DIRECTOR"].append(_ordered(t["DIRECTOR"][0], {
            "id": did,
            "name": f"Director {i:05d}",
            "bdate": f"{month} {rng.randint(1, 28)}, {rng.randint(1900, 1990)}",
            "blocation": rng.choice(PLACES),
        }))
    for i in range(n_actors):
        t["ACTOR"].append(_ordered(t["ACTOR"][0], {"id": FILLER_ID + i, "name": f"Actor {i:06d}"}))
    for i in range(n_movies):
        mid = FILLER_ID + i
        t["MOVIE"].append(_ordered(t["MOVIE"][0], {
            "id": mid, "title": f"Title {i:05d}", "year": rng.randint(1920, 2020)}))
        did = dir_ids[i % n_directors]  # every director directs equally many
        t["DIRECTED"].append(_ordered(t["DIRECTED"][0], {"mid": mid, "did": did}))
        for aid in rng.sample(range(n_actors), cast_per_movie):
            t["CAST"].append(_ordered(t["CAST"][0], {
                "mid": mid, "aid": FILLER_ID + aid, "role": f"Role {aid:06d}"}))
        for genre in rng.sample(GENRES, rng.randint(1, 2)):
            t["GENRE"].append(_ordered(t["GENRE"][0], {"mid": mid, "genre": genre}))
    return t


def scaled_split(fixture: dict, seed: int, movies: int, directors: int) -> dict[str, list[list]]:
    """The split fixture plus filler movies, each linked to one filler
    director and one filler actor."""
    rng = random.Random(seed)
    t = {name: [list(r) for r in rows] for name, rows in fixture.items()}
    n_movies = movies - (len(t["MOVIE"]) - 1)
    n_directors = directors - (len(t["DIRECTOR"]) - 1)
    n_actors = 2 * n_directors
    for i in range(n_directors):
        t["DIRECTOR"].append(_ordered(t["DIRECTOR"][0], {
            "id": FILLER_ID + i, "dname": f"Director {i:05d}",
            "blocation": rng.choice(PLACES)}))
    for i in range(n_actors):
        t["ACTOR"].append(_ordered(t["ACTOR"][0], {
            "id": FILLER_ID + i, "aname": f"Actor {i:05d}",
            "nationality": rng.choice(["Greek", "Italian", "French"])}))
    for i in range(n_movies):
        t["MOVIE"].append(_ordered(t["MOVIE"][0], {
            "title": f"Title {i:05d}",
            "did": FILLER_ID + rng.randrange(n_directors),
            "aid": FILLER_ID + rng.randrange(n_actors)}))
    return t


def _ordered(header: list[str], values: dict) -> list:
    return [values[h] for h in header]


# --- oracle databases -------------------------------------------------------

def oracle_tables(seed: int, rows: int) -> dict[str, list[list]]:
    """`rows` rows in every movie-schema table; keys unique, FKs resolve.

    Non-key cells come from small domains holding the corpus constants
    ('Brad Pitt', 'G. Loucas', 'action', the fixture years), and titles
    repeat, so q1..q9 return rows on many seeds.
    """
    rng = random.Random(seed)
    ids = {rel: rng.sample(range(1, 4 * rows + 1), rows)
           for rel in ("MOVIE", "ACTOR", "DIRECTOR")}
    t = {
        "MOVIE": [["id", "title", "year"]] + [
            [i, rng.choice(TITLES), rng.choice(YEARS)] for i in ids["MOVIE"]],
        "ACTOR": [["id", "name"]] + [[i, rng.choice(ACTORS)] for i in ids["ACTOR"]],
        "DIRECTOR": [["id", "name", "bdate", "blocation"]] + [
            [i, rng.choice(DIRECTORS), rng.choice(BDATES), rng.choice(PLACES)]
            for i in ids["DIRECTOR"]],
        "CAST": [["mid", "aid", "role"]] + [
            [rng.choice(ids["MOVIE"]), rng.choice(ids["ACTOR"]), rng.choice(ROLES)]
            for _ in range(rows)],
        "DIRECTED": [["mid", "did"]] + [
            [rng.choice(ids["MOVIE"]), rng.choice(ids["DIRECTOR"])] for _ in range(rows)],
        "GENRE": [["mid", "genre"]] + [
            [rng.choice(ids["MOVIE"]), rng.choice(GENRES)] for _ in range(rows)],
    }
    return t
