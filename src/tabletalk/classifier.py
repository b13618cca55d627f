"""Assigns a query graph to the most specific taxonomy class."""

from __future__ import annotations


from . import rewriter
from .query_graph import QueryGraph, shape
from .record import Record, field

LABELS = (
    "Path",
    "Subgraph",
    "GraphMultiInstance",
    "GraphCyclic",
    "NestedFlattenable",
    "NestedGeneral",
    "Aggregate",
    "HigherOrder",
)


class QueryClass(Record):
    label: str
    evidence: list[str] = field(factory=list)
    motifs: list[rewriter.Motif] = field(factory=list)


def classify(qg: QueryGraph) -> QueryClass:
    """Most specific class first; always returns exactly one label.

    Higher-order motifs are checked before the aggregate test because a
    query like `having count(distinct year) = 1` is an ordinary aggregate
    only syntactically: the count stands for an "all the same" reading.
    The motifs found on this query level ride along for translation.
    """
    motifs = rewriter.detect_motifs(qg)
    label, evidence = _label(qg, motifs)
    return QueryClass(label, evidence, motifs)


def _label(qg: QueryGraph, motifs: list[rewriter.Motif]) -> tuple[str, list[str]]:
    report = shape(qg)
    higher = [m for m in motifs if m.kind in rewriter.HIGHER_ORDER_KINDS]
    if higher:
        evidence = [f"{m.kind} motif at {m.anchor}" for m in higher]
        evidence.append("meaning rests on a higher-order reading of the aggregate"
                        if any(m.kind == "SameValue" for m in higher)
                        else "meaning rests on a higher-order reading of ALL")
        return "HigherOrder", evidence
    if report.has_aggregate:
        evidence = ["count aggregate or group note present"]
        if report.cyclic:
            evidence.append(
                "join core is cyclic; Aggregate chosen by precedence over GraphCyclic"
            )
        return "Aggregate", evidence
    if report.connectors:
        reason = rewriter.flattenable(qg.query)
        if reason is None:
            return "NestedFlattenable", [
                "IN is the only nesting connector and no subquery is correlated"
            ]
        detail = ", ".join(sorted(set(report.connectors)))
        evidence = [f"nesting connectors: {detail}"]
        if report.correlated:
            evidence.append("at least one subquery is correlated")
        elif detail == "in":
            # Neither line above says why: name the rewriter's reason.
            evidence.append(reason)
        return "NestedGeneral", evidence
    if report.cyclic:
        return "GraphCyclic", ["join graph contains an undirected cycle"]
    if report.multi_instance:
        dupes = _duplicated_relations(qg)
        return "GraphMultiInstance", [
            f"multiple tuple variables over: {', '.join(dupes)}"
        ]
    # No cycle and no self-join here, so the join graph is a forest: one
    # simple path exactly when it has n - 1 edges and no degree above two.
    if report.max_degree <= 2 and sum(report.degrees.values()) == 2 * (len(qg.nodes) - 1):
        return "Path", [
            "acyclic, single-instance, at most two joins per relation, "
            "join graph is a simple path"
        ]
    return "Subgraph", ["acyclic single-instance subgraph of the schema graph"]


def _duplicated_relations(qg: QueryGraph) -> list[str]:
    seen, dupes = set(), []
    for node in qg.nodes:
        if node.relation in seen and node.relation not in dupes:
            dupes.append(node.relation)
        seen.add(node.relation)
    return dupes

