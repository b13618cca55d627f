"""DOT output: the schema graph, and the graph of one query.

A query's DOT draws every conjunct of every block (`QueryGraph.conjuncts`).
Only the `graph` subcommand draws, so nothing else loads this module.
"""

from operator import attrgetter

_ESCAPES = str.maketrans({ch: "\\" + ch for ch in '{}|<>"'})  # special in record labels


def emit_dot(graph) -> str:
    """A SchemaGraph's relations and join edges as a deterministic DOT digraph."""
    lines = ["digraph schema {", "  rankdir=LR;", '  node [shape=box];']
    for rel in sorted(graph.relations, key=lambda r: r.name):
        lines.append(f'  "{rel.name}" [label="{rel.name}|{rel.heading_attribute}"];')
    key = attrgetter("from_relation", "to_relation", "from_key", "to_key")
    for edge in sorted(graph.joins, key=key):
        lines.append(
            f'  "{edge.from_relation}" -> "{edge.to_relation}" '
            f'[label="{edge.from_key}={edge.to_key}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_query_dot(qg) -> str:
    """A QueryGraph in DOT: a record node per tuple variable with its SELECT
    columns and node conjuncts, an edge per join (solid when FK-backed), a
    dashed edge into each nested child's NQ<i> cluster, notes for what no
    node owns, and dotted edges from a child to each enclosing node that a
    correlated conjunct of it names."""
    lines = ["digraph query {", "  rankdir=LR;", "  node [shape=record];"]
    _emit_level(qg, lines, ("",), [0])
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_level(qg, lines, prefixes, counter) -> list[str]:
    """Draw one block; `prefixes[k]` is the node id prefix of the block k
    levels out.  Returns its dotted edges, drawn after its cluster."""
    from .ast_nodes import CountStar, expr_ref, pred_refs  # loaded with any query graph

    prefix, query = prefixes[0], qg.query
    nodes = query.from_items
    boxes = {item.alias: {"SELECT": [], "WHERE": [], "HAVING": []} for item in nodes}
    loose = {"SELECT": [], "WHERE": [], "HAVING": []}  # what no node owns
    for item in query.select_items:
        ref = expr_ref(item.expr)
        if ref and not ref.level:
            text = ref.column if ref is item.expr else f"count(distinct {ref.column})"
            boxes[ref.alias]["SELECT"].append(text)
        elif isinstance(item.expr, CountStar):
            loose["SELECT"].append("count(*)")
    edges, nested, crossing, outer = [], [], [], []
    for entry in qg.conjuncts:
        kind, text = entry.kind, entry.pred.render()
        label = _escape(text)
        if kind == "node":
            boxes[entry.owner][entry.site.upper()].append(text)
        elif kind == "join":
            (src, dst), style = entry.ends, "solid" if entry.fk_backed else "bold"
            edges.append(f'  "{prefix}{src}" -> "{prefix}{dst}" [label="{label}", style={style}];')
        elif kind == "ownerless":
            if not entry.correlated:  # a correlated one is drawn as its dotted edges
                loose[entry.site.upper()].append(text)
        elif kind == "nested":
            nested.append(entry)
        elif kind not in ("crossing", "outer"):  # those are drawn as dotted edges
            raise ValueError(f"unknown conjunct kind {kind!r}")
        if entry.correlated:  # from its local side or the first node; crossing ones first
            src = entry.pred.lhs.alias if kind == "crossing" else nodes[0].alias
            ends = dict.fromkeys(
                f"{prefixes[ref.level]}{ref.alias}" for ref in pred_refs(entry.pred) if ref.level
            )
            (crossing if kind == "crossing" else outer).extend(
                f'  "{prefix}{src}" -> "{end}" [style=dotted, label="{label}"];' for end in ends
            )
    for item in nodes:
        parts = [f"<<FROM>> {item.canonical} {item.alias}"]
        parts += [_section(title, items) for title, items in boxes[item.alias].items() if items]
        lines.append(f'  "{prefix}{item.alias}" [label="{_escape("|".join(parts))}"];')
    notes = (
        ("select", "SELECT", loose["SELECT"]),
        ("where", "WHERE", loose["WHERE"]),
        ("groupby", "GROUP BY", [f"{ref.alias}.{ref.column}" for ref in query.group_by]),
        ("having", "HAVING", loose["HAVING"]),
        ("orderby", "ORDER BY", [f"{ref.alias}.{ref.column} {d}" for ref, d in query.order_by]),
    )
    for name, title, items in notes:
        if items:
            label = _escape(_section(title, items))
            lines.append(f'  "{prefix}{name}" [shape=note, label="{label}"];')
    lines += edges
    for entry in nested:
        counter[0] += 1
        name = f"NQ{counter[0]}"
        child, child_prefix = entry.child, f"{name}."
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append(f'    label="{name} ({entry.connector})";')
        dotted = _emit_level(child, lines, (child_prefix, *prefixes), counter)
        lines.append("  }")
        child_nodes = child.query.from_items
        if nodes and child_nodes:
            lines.append(
                f'  "{prefix}{nodes[0].alias}" -> "{child_prefix}{child_nodes[0].alias}" '
                f'[style=dashed, label="{entry.connector}"];'
            )
        lines += dotted
    return crossing + outer


def _section(title: str, items: list) -> str:
    sep = " and " if title in ("WHERE", "HAVING") else ", "
    return f"<<{title}>> {sep.join(items)}"


def _escape(text: str) -> str:
    return text.translate(_ESCAPES)
