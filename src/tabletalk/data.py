"""Desk-scale table storage: CSV loading, join navigation, ranking.

Whole tables live in memory, which is the point at this scale.  A
Database is immutable after load and safe to share: replace a table,
never mutate it in place.  `follow_join` reads a hash index per
(relation, attribute) that the Database builds the first time the pair
is looked up, so a join costs O(matches) once the index exists.
`select_tuples` slices a whole table's rank order, which the Database
sorts once per (relation, attribute, direction) on the first ranked
lookup; `rank_rows` picks the top k of any other list of rows without
sorting it.
"""

from __future__ import annotations

import csv
import heapq
import io
import os
from operator import itemgetter

from .errors import (
    HeaderMismatch,
    RaggedRow,
    UnknownAttribute,
    UnknownRelation,
    WrongRelation,
)
from .record import Record, field
from .schema import JoinEdge, SchemaGraph


class Row(Record):
    """One tuple; values keyed by declared attribute name, in order."""

    relation: str
    values: dict[str, object]

    def cell(self, attribute: str):
        """The value of an attribute, named in its declared spelling."""
        try:
            return self.values[attribute]
        except KeyError:
            raise UnknownAttribute(f"{self.relation} has no attribute {attribute!r}") from None


class Database(Record):
    """Tables keyed by declared relation name.

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


def load_data(graph: SchemaGraph, source) -> Database:
    """Load one CSV per relation from a directory or a name->text mapping.

    File names and headers may use any case (and relation aliases); tables
    and rows are keyed by the declared spellings.
    """
    if isinstance(source, dict):
        streams = dict(source)
    else:
        streams = {}
        for entry in sorted(os.listdir(source)):
            if entry.lower().endswith(".csv"):
                with open(os.path.join(source, entry), "r", encoding="utf-8") as fh:
                    streams[entry[:-4]] = fh.read()
    db = Database()
    for rel in graph.relations:
        db.tables[rel.name] = []
    for name, text in streams.items():
        rel = graph.find_relation(name)
        if rel is None:
            raise UnknownRelation(f"data file for undeclared relation {name!r}")
        db.tables[rel.name] = _load_table(graph, rel.name, text)
    return db


def _load_table(graph: SchemaGraph, relation: str, text) -> list[Row]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        return []
    header = [h.strip() for h in rows[0]]
    declared = [a.name for a in graph.attributes_of(relation)]
    columns = [graph.find_attribute(relation, h) for h in header]
    if None in columns or sorted(a.name for a in columns) != sorted(declared):
        raise HeaderMismatch(
            f"{relation}: header {header} does not match declared attributes {declared}"
        )
    position = {attr.name: col for col, attr in enumerate(columns)}
    raw_rows = []
    for lineno, cells in enumerate(rows[1:], start=2):
        if not cells:
            continue  # blank line
        if len(cells) != len(header):
            raise RaggedRow(
                f"{relation}: row at line {lineno} has {len(cells)} cells, "
                f"expected {len(header)}"
            )
        raw_rows.append(cells)
    # Column typing: integer iff every non-empty cell parses as an integer.
    is_int = []
    for col in range(len(header)):
        cells = [r[col] for r in raw_rows if r[col] != ""]
        is_int.append(bool(cells) and all(_is_int(c) for c in cells))
    table = []
    for cells in raw_rows:
        values = {}
        for name in declared:  # declared attribute order
            col = position[name]
            cell = cells[col]
            if cell == "":
                values[name] = None
            elif is_int[col]:
                values[name] = int(cell)
            else:
                values[name] = cell
        table.append(Row(relation, values))
    return table


def _is_int(text: str) -> bool:
    """An optional sign followed by ASCII digits, nothing else."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


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
