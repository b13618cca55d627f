"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tabletalk"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; `from __future__` is exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom re import sub, match\nmatch\n"
    assert unused_imports(source) == ["os (line 2)", "sub (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def self_referring_closures(source: str) -> list[str]:
    """Functions defined inside a function that name themselves.  Each
    such function reaches itself through its closure cell: a reference
    cycle that only the cyclic garbage collector frees."""
    found = []
    _visit(ast.parse(source), "", False, found)
    return found


def _visit(node, path: str, in_function: bool, found: list):
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _visit(child, path, in_function, found)
            continue
        name = f"{path}.{child.name}" if path else child.name
        is_function = not isinstance(child, ast.ClassDef)
        if in_function and is_function and any(
            isinstance(n, ast.Name) and n.id == child.name for n in ast.walk(child)
        ):
            found.append(f"{name} (line {child.lineno})")
        _visit(child, name, in_function or is_function, found)


def test_the_check_sees_a_self_referring_closure():
    source = (
        "def walk(n):\n"
        "    def step(k):\n"
        "        return step(k - 1) if k else walk\n"
        "    def done():\n"
        "        return step\n"
        "    return step(n)\n"
        "class C:\n"
        "    def m(self):\n"
        "        return self.m\n"
    )
    assert self_referring_closures(source) == ["walk.step (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_nested_function_refers_to_itself(path):
    assert self_referring_closures(path.read_text(encoding="utf-8")) == []


def text_to_code_calls(source: str) -> list[str]:
    """Calls of the builtins that turn text into code: exec, eval and
    compile (a method such as re.compile is not one)."""
    return [f"{node.func.id} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("exec", "eval", "compile")]


def test_the_check_sees_an_exec_call():
    source = "import re\nre.compile('x')\ndef f(text):\n    exec(text)\n"
    assert text_to_code_calls(source) == ["exec (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_sql_or_schema_text_becomes_code(path):
    # The one exception writes each record class's __init__ from its
    # field names, which come from the package's own source.
    found = [call.split()[0] for call in text_to_code_calls(path.read_text(encoding="utf-8"))]
    assert found == (["exec"] if path.name == "record.py" else [])
