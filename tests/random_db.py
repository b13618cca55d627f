"""Seeded random databases for the property tests.

Relations are filled in foreign-key order over a small value domain, so
joins and dangling references both occur at a handful of rows.
"""

from __future__ import annotations

import random

from tabletalk.data import Database, Row
from tabletalk.schema import SchemaGraph

SYMBOLS = ("v0", "v1", "v2", "v3")
DANGLING_CHANCE = 0.2


def random_database(graph: SchemaGraph, seed: int, max_rows: int) -> Database:
    """Deterministic random tables respecting declared key attributes.

    Primary-key cells are unique integers; foreign-key cells reference an
    existing key with probability 0.8 (else dangle); every other cell is
    drawn from a four-symbol domain.
    """
    rng = random.Random(seed)
    pk_attrs: dict[str, set] = {r.name: set() for r in graph.relations}
    fk_targets: dict[tuple, tuple] = {}
    for edge in graph.joins:
        pk_attrs[edge.to_relation].add(edge.to_key)
        fk_targets[(edge.from_relation, edge.from_key)] = (edge.to_relation, edge.to_key)

    db = Database()
    for rel in _topological(graph):
        n = rng.randint(0, max_rows) if max_rows > 0 else 0
        pk_pool = rng.sample(range(1, max(10 * max_rows, 10) + 1), n) if n else []
        rows = []
        for i in range(n):
            values = {}
            for attr in graph.attributes_of(rel.name):
                key = (rel.name, attr.name)
                if attr.name in pk_attrs[rel.name]:
                    values[attr.name] = pk_pool[i]
                elif key in fk_targets:
                    values[attr.name] = _fk_value(rng, db, fk_targets[key])
                else:
                    values[attr.name] = rng.choice(SYMBOLS)
            rows.append(Row(rel.name, values))
        db.tables[rel.name] = rows
    return db


def _fk_value(rng, db, target):
    rel, key = target
    pool = [
        row.cell(key)
        for row in db.tables.get(rel, [])
        if row.cell(key) is not None
    ]
    if pool and rng.random() >= DANGLING_CHANCE:
        return rng.choice(pool)
    return rng.randint(1000, 9999)  # dangling


def _topological(graph: SchemaGraph):
    """Referenced (PK-side) relations first so FK pools exist when drawn."""
    names = [r.name for r in graph.relations]
    deps = {name: set() for name in names}
    for edge in graph.joins:
        if edge.from_relation != edge.to_relation:
            deps[edge.from_relation].add(edge.to_relation)
    ordered = []
    remaining = dict(deps)
    while remaining:
        ready = sorted(n for n, d in remaining.items() if not (d & remaining.keys()))
        if not ready:
            ready = sorted(remaining)  # FK cycle: fall back to name order
        for name in ready:
            ordered.append(name)
            del remaining[name]
    return [graph.relation(n) for n in ordered]
