"""DOT output: the schema graph, and the graph of one query.

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
    """A QueryGraph in DOT: a record-shaped node per tuple variable, and
    dashed edges into nested children, each in its own NQ<i> cluster.
    Dotted edges show correlation, from a child to each enclosing node it
    names: from the local node of a crossing comparison, or from the
    child's first node for an outer condition or a HAVING comparison."""
    lines = ["digraph query {", "  rankdir=LR;", "  node [shape=record];"]
    _emit_level(qg, lines, ("",), [0])
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_level(qg, lines, prefixes, counter):
    """`prefixes[k]` is the node id prefix of the block k levels out."""
    from .ast_nodes import expr_ref, pred_refs  # loaded with any query graph

    prefix, query = prefixes[0], qg.query
    selected = {}  # alias -> its columns in this block's select list, as written
    for item in query.select_items:
        ref = expr_ref(item.expr)
        if ref and not ref.level:
            text = ref.column if ref is item.expr else f"count(distinct {ref.column})"
            selected.setdefault(ref.alias, []).append(text)
    for node in qg.nodes:
        sections = (
            ("SELECT", ", ", selected.get(node.alias, ())),
            ("WHERE", " and ", [pred.render() for pred in node.where_part]),
            ("HAVING", " and ", [pred.render() for pred in node.having_part]),
        )
        parts = [f"<<FROM>> {node.relation} {node.alias}"]
        parts += [f"<<{title}>> {sep.join(items)}" for title, sep, items in sections if items]
        lines.append(f'  "{prefix}{node.alias}" [label="{_escape("|".join(parts))}"];')
    notes = (
        ("groupby", "GROUP BY", [f"{ref.alias}.{ref.column}" for ref in query.group_by]),
        ("orderby", "ORDER BY", [f"{ref.alias}.{ref.column} {d}" for ref, d in query.order_by]),
    )
    for name, title, cols in notes:
        if cols:
            label = _escape(f"<<{title}>> {', '.join(cols)}")
            lines.append(f'  "{prefix}{name}" [shape=note, label="{label}"];')
    for edge in qg.joins:
        src, dst = edge.ends
        style = "solid" if edge.fk_backed else "bold"
        lines.append(
            f'  "{prefix}{src}" -> "{prefix}{dst}" '
            f'[label="{_escape(edge.pred.render())}", style={style}];'
        )
    for entry in qg.nested:
        counter[0] += 1
        name = f"NQ{counter[0]}"
        child, child_prefix = entry.child, f"{name}."
        lines.append(f"  subgraph cluster_{name} {{")
        lines.append(f'    label="{name} ({entry.connector})";')
        _emit_level(child, lines, (child_prefix, *prefixes), counter)
        lines.append("  }")
        if qg.nodes and child.nodes:
            lines.append(
                f'  "{prefix}{qg.nodes[0].alias}" -> "{child_prefix}{child.nodes[0].alias}" '
                f'[style=dashed, label="{entry.connector}"];'
            )
        for pred in child.crossing:
            src, dst = pred.lhs, pred.rhs  # dst.level blocks out of the child
            lines.append(
                f'  "{child_prefix}{src.alias}" -> "{prefixes[dst.level - 1]}{dst.alias}" '
                f'[style=dotted, label="{_escape(pred.render())}"];'
            )
        for pred in child.outer + child.having_outer:
            anchor = f"{child_prefix}{child.nodes[0].alias}"
            label = _escape(pred.render())
            ends = dict.fromkeys(
                f"{prefixes[ref.level - 1]}{ref.alias}" for ref in pred_refs(pred) if ref.level
            )
            for end in ends:
                lines.append(f'  "{anchor}" -> "{end}" [style=dotted, label="{label}"];')


def _escape(text: str) -> str:
    return text.translate(_ESCAPES)
