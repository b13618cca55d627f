"""Desk-scale table storage: CSV loading, join navigation, ranking.

A Database is immutable after load and safe to share; whole tables live
in memory, which is the point at this scale.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    HeaderMismatch,
    RaggedRow,
    UnknownAttribute,
    UnknownRelation,
    WrongRelation,
)
from .schema import JoinEdge, SchemaGraph


@dataclass
class Row:
    """One tuple; values keyed by declared attribute name, in order."""

    relation: str
    values: dict[str, object]

    def cell(self, attribute: str):
        """The value of an attribute, named in its declared spelling."""
        try:
            return self.values[attribute]
        except KeyError:
            raise UnknownAttribute(f"{self.relation} has no attribute {attribute!r}") from None


@dataclass
class Database:
    """Tables keyed by declared relation name."""

    tables: dict[str, list[Row]] = field(default_factory=dict)

    def table(self, relation: str) -> list[Row]:
        try:
            return self.tables[relation]
        except KeyError:
            raise UnknownRelation(f"no table loaded for relation {relation!r}") from None


@dataclass
class RankSpec:
    """Order tuples by an attribute, or by load order when attribute is None.

    rank_rows and select_tuples take the attribute in its declared
    spelling; narrate resolves a plan's spelling itself.
    """

    attribute: Optional[str] = None
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
    value = row.cell(own_key)
    if value is None:
        return []
    return [r for r in db.table(other_rel) if r.cell(other_key) == value]


def select_tuples(
    db: Database, relation: str, budget: int, rank: Optional[RankSpec] = None
) -> list[Row]:
    """At most `budget` tuples, ranked; ties and null cells keep load order."""
    return rank_rows(db.table(relation), rank)[: max(budget, 0)]


def rank_rows(rows: list[Row], rank: Optional[RankSpec]) -> list[Row]:
    if rank is None or rank.attribute is None:
        return list(rows)
    if rows:
        rows[0].cell(rank.attribute)  # raises UnknownAttribute early
    present = [r for r in rows if r.cell(rank.attribute) is not None]
    missing = [r for r in rows if r.cell(rank.attribute) is None]
    ordered = sorted(
        present, key=lambda r: r.cell(rank.attribute), reverse=rank.descending
    )
    return ordered + missing
