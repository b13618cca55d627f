"""Assigns a query graph to the most specific taxonomy class."""

from __future__ import annotations


from . import rewriter
from .query_graph import QueryGraph, ShapeReport, shape
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
    # The graph's shape as classify found it; translate reads it from here.
    shape: ShapeReport | None = field(None, shown=False)


def classify(qg: QueryGraph) -> QueryClass:
    """Most specific class first; always returns exactly one label.

    Higher-order motifs are checked before the aggregate test because a
    query like `having count(distinct year) = 1` is an ordinary aggregate
    only syntactically: the count stands for an "all the same" reading.
    The motifs found on this query level and its shape ride along for
    translation.
    """
    motifs = rewriter.detect_motifs(qg)
    report = shape(qg)
    label, evidence = _label(qg, motifs, report)
    return QueryClass(label, evidence, motifs, report)


def _label(
    qg: QueryGraph, motifs: list[rewriter.Motif], report: ShapeReport
) -> tuple[str, list[str]]:
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
        return "GraphMultiInstance", [
            f"multiple tuple variables over: {', '.join(report.repeated)}"
        ]
    # No cycle and no self-join here, so the join graph is a forest: one
    # simple path exactly when it has n - 1 edges and no degree above two.
    if report.max_degree <= 2 and sum(report.degrees.values()) == 2 * (len(report.degrees) - 1):
        return "Path", [
            "acyclic, single-instance, at most two joins per relation, "
            "join graph is a simple path"
        ]
    return "Subgraph", ["acyclic single-instance subgraph of the schema graph"]

