"""Every module under src/qtheta and tests/ reads each name it imports.

A stdlib AST scan: a name bound by an import statement must be read
somewhere in its module (a Name load, the root of an attribute chain, or
an `__all__` entry).  Imports for their side effects alone are not used
here, so an unread import is always a leftover.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qtheta").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def _unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(),
                                                            key=lambda kv: kv[1])
            if name not in read]


def test_scan_finds_an_unread_import():
    src = ("import os\nfrom a.b import c as d, e\n"
           "from __future__ import annotations\nprint(e)\n")
    assert _unread_imports(src) == ["line 1: os", "line 2: d"]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 20
    unread = {
        str(path.relative_to(ROOT)): names
        for path in MODULES
        if (names := _unread_imports(path.read_text()))
    }
    assert not unread, unread
