"""tabletalk: narrate relational data and explain SQL queries in English.

The names below load their submodule on first use (PEP 562), so a caller
pays only for the parts of the package it touches.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names the package exports from it.
_EXPORTS = {
    "classifier": ("QueryClass", "classify"),
    "data": ("Database", "RankSpec", "Row", "follow_join", "load_data", "select_tuples"),
    "dot": ("emit_dot",),
    "evaluator": ("ResultSet", "evaluate"),
    "narrator": ("Clause", "NarrationPlan", "Narrative", "detect_patterns", "fallback_mode",
                 "merge_common", "narrate"),
    "parser": ("parse_sql", "resolve_names"),
    "query_graph": ("QueryGraph", "build", "shape"),
    "rewriter": ("Motif", "detect_motifs", "flatten"),
    "schema": ("SchemaGraph", "load_schema", "serialize", "validate"),
    "templates": ("instantiate", "parse_template"),
    "translator": (
        "TranslationResult", "lexicalize_predicate", "translate", "translate_procedural",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
