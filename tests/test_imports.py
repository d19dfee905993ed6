"""Gate: every name a module of the package imports is read in it."""

import ast
from pathlib import Path

import ctrl


def _unread_imports(tree: ast.Module) -> list:
    """The names bound by `tree`'s imports that no other line of it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound if name not in read)


def test_unread_imports_are_found():
    tree = ast.parse("import os\nfrom json import dumps, loads\nloads('1')\n")
    assert _unread_imports(tree) == ["dumps", "os"]


def test_every_imported_name_is_read():
    modules = sorted(Path(ctrl.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    unread = {p.name: _unread_imports(ast.parse(p.read_text(encoding="utf-8")))
              for p in modules}
    assert {name: names for name, names in unread.items() if names} == {}
