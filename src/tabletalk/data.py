"""Desk-scale table storage: CSV loading, join navigation, ranking.

Whole tables live in memory, which is the point at this scale.  A row
holds its cells in one immutable tuple, in declared attribute order,
read through a {attribute: position} map that every row of a loaded
table shares; `Row.values` is a fresh dict, never the row itself.
A relation's CSV layout, which header column holds each declared
attribute, is decided once per graph and header row and kept in the
graph's name index, with one position map per relation that every load
under that graph shares; a header that does not match the declared
attributes is rejected on every load and never kept.
`load_data` reads each file as UTF-8, after an optional byte-order mark,
with any line end as a newline, and passes each column through a table
of its distinct cells, so equal cells of a column share one str or int
object, typed and converted once.  Typing runs as C-level passes over
the distinct cells: one test of their joined string accepts a column of
plain ASCII digits, only a column it rejects is checked cell by cell
(for signs), and an integer column's cells are converted by one
`map(int, ...)`.  A Database is immutable after load and safe to share:
replace a table, never mutate it in place.  `follow_join` reads a hash
index per (relation, attribute) that the Database builds the first time
the pair is looked up, so a join costs O(matches) once the index exists.
`select_tuples` slices a whole table's rank order, which the Database
sorts once per (relation, attribute, direction) on the first ranked
lookup; `rank_rows` picks the top k of any other list of rows without
sorting it.

`load_data` pauses CPython's cyclic garbage collector while it runs and
then restores the caller's setting.  Everything a load builds is acyclic
(rows, tuples of int, str and None, one shared position map per relation,
lists), and reference counting still frees its temporaries at once, so
the collections that the many new rows would trigger could free nothing:
each walked the whole growing heap to find no cycle.
"""

from __future__ import annotations

import csv
import functools
import gc
import heapq
import io
import os
from operator import itemgetter

from .errors import (
    DuplicateTable,
    HeaderMismatch,
    MalformedCsv,
    NotUtf8,
    RaggedRow,
    UnknownAttribute,
    UnknownRelation,
    WrongRelation,
)
from .record import Record, field
from .schema import JoinEdge, SchemaGraph, decode_utf8


class Row:
    """One tuple: its cells in declared attribute order, read by name.

    `cells` is an immutable tuple and `positions` maps each attribute to
    its index in it; every row of a loaded table shares one `positions`
    map, which is never mutated.  `Row(relation, values)` builds its own
    map from the dict's order, and `values` returns a fresh dict, so
    changing it leaves the row as it was.  Rows compare by relation and
    values, as their repr shows them, and are unhashable.
    """

    __slots__ = ("relation", "cells", "positions")
    __hash__ = None

    def __init__(self, relation: str, values: dict[str, object]):
        self.relation = relation
        self.cells = tuple(values.values())
        self.positions = {attribute: i for i, attribute in enumerate(values)}

    @property
    def values(self) -> dict[str, object]:
        return dict(zip(self.positions, self.cells))

    def cell(self, attribute: str):
        """The value of an attribute, named in its declared spelling."""
        try:
            return self.cells[self.positions[attribute]]
        except KeyError:
            raise UnknownAttribute(f"{self.relation} has no attribute {attribute!r}") from None

    def __eq__(self, other):
        if other.__class__ is not Row:
            return NotImplemented
        return self.relation == other.relation and self.values == other.values

    def __repr__(self):
        return f"Row(relation={self.relation!r}, values={self.values!r})"


class Database(Record):
    """Tables keyed by declared relation name; each a list of rows whose
    cells are immutable, so only replacing a table changes one.

    Two structures are built lazily, never at load: a join index per
    (relation, attribute) looked up, and a rank order per (relation,
    attribute, direction) ranked, which holds one list of row
    references.  Each is tied to the identity of the table list it was
    built from: a table replaced after load gets a new one on its next
    lookup, while a table mutated in place would keep a stale one.
    """

    tables: dict[str, list[Row]] = field(factory=dict)
    _indexes: dict = field(factory=dict, init=False, shown=False)
    _orders: dict = field(factory=dict, init=False, shown=False)

    def table(self, relation: str) -> list[Row]:
        try:
            return self.tables[relation]
        except KeyError:
            raise UnknownRelation(f"no table loaded for relation {relation!r}") from None

    def _index(self, relation: str, attribute: str) -> dict[object, list[Row]]:
        """Rows of `relation` by their `attribute` cell, in load order.

        Null cells are left out, so a null key joins with nothing.
        """
        table = self.table(relation)
        cached = self._indexes.get((relation, attribute))
        if cached is not None and cached[0] is table:
            return cached[1]
        index: dict[object, list[Row]] = {}
        for row in table:
            value = row.cell(attribute)
            if value is not None:
                index.setdefault(value, []).append(row)
        self._indexes[(relation, attribute)] = (table, index)
        return index

    def _order(self, relation: str, rank: RankSpec) -> list[Row]:
        """All rows of `relation` in `rank` order: `rank_rows` over the
        whole table, sorted once per (relation, attribute, direction)."""
        table = self.table(relation)
        key = (relation, rank.attribute, rank.descending)
        cached = self._orders.get(key)
        if cached is not None and cached[0] is table:
            return cached[1]
        order = rank_rows(table, rank, len(table))
        self._orders[key] = (table, order)
        return order


class RankSpec(Record):
    """Order tuples by an attribute, or by load order when attribute is None.

    rank_rows and select_tuples take the attribute in its declared
    spelling; narrate resolves a plan's spelling itself.
    """

    attribute: str | None = None
    descending: bool = False

    @classmethod
    def load_order(cls) -> "RankSpec":
        return cls(None, False)


def _collector_paused(func):
    """Run `func` with the cyclic garbage collector off, then turn it back
    on only if it was on before, so a caller's own pause survives."""

    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def load_data(graph: SchemaGraph, source) -> Database:
    """Load one CSV per relation from a directory or a name->text mapping.

    File names and headers may use any case (and relation aliases); tables
    and rows are keyed by the declared spellings, and two files for one
    relation are an error.  Files and bytes are read as UTF-8, after an
    optional byte-order mark, and any line end reads as a newline.  A
    record that the csv module rejects raises MalformedCsv, naming the
    file or mapping key and the line.  Equal cells of a column share one
    object.
    The cyclic garbage collector is paused for the call, since the rows it
    builds hold no cycles (see the module docstring); the caller's setting,
    on or off, is restored on return and on every error.
    """
    db = Database()
    for rel in graph.relations:
        db.tables[rel.name] = []
    loaded_from = {}
    for name, label, text in _sources(source):
        rel = graph.find_relation(name)
        if rel is None:
            raise UnknownRelation(f"data file for undeclared relation {name!r}")
        if rel.name in loaded_from:
            raise DuplicateTable(
                f"data files {loaded_from[rel.name]!r} and {label!r} "
                f"both hold relation {rel.name}"
            )
        loaded_from[rel.name] = label
        db.tables[rel.name] = _load_table(graph, rel.name, label, text)
    return db


def _sources(source):
    """(relation name, label, text) for each data file: a mapping's items,
    or a directory's CSV files in name order, each read when reached."""
    if isinstance(source, dict):
        for name, raw in source.items():
            yield name, name, _text(raw, name)
        return
    for entry in sorted(os.listdir(source)):
        if entry.lower().endswith(".csv"):
            path = os.path.join(source, entry)
            with open(path, "rb") as fh:
                text = _text(fh.read(), path)
            yield entry[:-4], path, text


def _text(raw, label) -> str:
    """A data file's text: bytes are read as UTF-8 after an optional
    byte-order mark, and every line end reads as "\n", as in text mode."""
    text = decode_utf8(raw, label, NotUtf8) if isinstance(raw, bytes) else raw
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_table(graph: SchemaGraph, relation: str, label: str, text: str) -> list[Row]:
    reader = csv.reader(io.StringIO(text))
    try:
        records = list(reader)
    except csv.Error as exc:  # a field past csv.field_size_limit(), say
        raise MalformedCsv(f"{label}: line {reader.line_num}: {exc}") from None
    del reader  # and the copy of the text its StringIO holds
    if not records:
        return []
    order, positions = _layout(graph, relation, records[0])
    width = len(records[0])
    body = list(filter(None, records[1:]))  # a blank line is an empty record
    if set(map(len, body)) - {width}:
        # Lines are counted in CSV records, blank ones included.
        lineno, cells = next(
            (n, r) for n, r in enumerate(records, start=1) if r and len(r) != width
        )
        raise RaggedRow(
            f"{relation}: row at line {lineno} has {len(cells)} cells, expected {width}"
        )
    if not body:
        return []
    columns = list(zip(*body))
    del records, body  # the columns hold the cells now
    typed = []
    for i in order:  # declared attribute order
        cells, columns[i] = columns[i], None  # a raw column is freed once typed
        values = {"": None}  # each distinct cell once; an empty one is null
        cells = list(map(values.setdefault, cells, cells))
        del values[""]  # the distinct non-empty cells remain
        if _is_int_column(values):
            numbers = dict(zip(values, map(int, values)))
            cells = list(map(numbers.get, cells))  # a null stays None
        typed.append(cells)
    table = []
    new = object.__new__  # Row.__init__ would build a positions map per row
    for cells in zip(*typed):
        row = new(Row)
        row.relation, row.cells, row.positions = relation, cells, positions
        table.append(row)
    return table


def _layout(graph: SchemaGraph, relation: str, row: list[str]) -> tuple[tuple[int, ...], dict]:
    """How a CSV whose header row is `row` holds `relation`: the header
    column of each declared attribute, in declared order, and the position
    map that every row of the relation shares, whatever its header.
    Decided once per graph, relation and header row, and kept in the
    graph's name index; a header that does not match the declared
    attributes raises HeaderMismatch on every load and keeps nothing."""
    names = graph._index()
    known, key = names.layouts[relation], tuple(row)  # header row -> layout
    layout = known.get(key)
    if layout is not None:
        return layout
    header = [h.strip() for h in row]
    declared = [a.name for a in names.by_relation.get(relation, ())]
    named = names.attributes[relation]
    columns = [named.get(h.upper()) for h in header]
    if None in columns or sorted(a.name for a in columns) != sorted(declared):
        raise HeaderMismatch(
            f"{relation}: header {header} does not match declared attributes {declared}"
        )
    at = {attr.name: i for i, attr in enumerate(columns)}
    positions = next(iter(known.values()))[1] if known else {
        name: i for i, name in enumerate(declared)
    }
    layout = known[key] = tuple(at[name] for name in declared), positions
    return layout


def _is_int_column(cells) -> bool:
    """Integer typing: some cell is non-empty, and each non-empty one is an
    optional sign followed by ASCII digits, nothing else.  Decided on the
    joined cells with the signs taken out; only a column that holds a sign
    checks that it leads each cell."""
    joined = "".join(cells)
    digits = joined.replace("-", "").replace("+", "")
    if not (digits.isdigit() and digits.isascii()):
        return False
    return len(digits) == len(joined) or all(
        (cell[1:] if cell[0] in "+-" else cell).isdigit() for cell in cells if cell
    )


def follow_join(db: Database, edge: JoinEdge, row: Row) -> list[Row]:
    """Tuples on the other side of `edge` whose key cell equals row's."""
    if row.relation == edge.from_relation:
        own_key, other_rel, other_key = edge.from_key, edge.to_relation, edge.to_key
    elif row.relation == edge.to_relation:
        own_key, other_rel, other_key = edge.to_key, edge.from_relation, edge.from_key
    else:
        raise WrongRelation(
            f"tuple of {row.relation} does not belong to join "
            f"{edge.from_relation}->{edge.to_relation}"
        )
    return list(db._index(other_rel, other_key).get(row.cell(own_key), ()))


def select_tuples(
    db: Database, relation: str, budget: int, rank: RankSpec | None = None
) -> list[Row]:
    """At most `budget` tuples, ranked; ties and null cells keep load order.

    A ranked call slices the table's cached rank order, so it costs
    O(budget) once that order exists.
    """
    k = max(budget, 0)
    if rank is None or rank.attribute is None:
        return db.table(relation)[:k]
    return db._order(relation, rank)[:k]


def rank_rows(rows: list[Row], rank: RankSpec | None, budget: int) -> list[Row]:
    """The first `budget` rows of the stable sort by the rank attribute,
    null cells last; a negative budget selects nothing.  Each row's rank
    cell is read once."""
    k = max(budget, 0)
    if rank is None or rank.attribute is None:
        return rows[:k]
    keyed = [(row.cell(rank.attribute), row) for row in rows]
    present = [pair for pair in keyed if pair[0] is not None]
    # Both are documented to equal sorted(...)[:k], so ties keep load order.
    top_k = heapq.nlargest if rank.descending else heapq.nsmallest
    top = [row for _, row in top_k(k, present, key=itemgetter(0))]
    if len(top) < k:
        top += [row for value, row in keyed if value is None][: k - len(top)]
    return top
