"""Every function and method defined under src/qtheta is named elsewhere.

A stdlib AST scan: each name a `def` binds under src/qtheta (dunders
excepted) must occur as a whole word in src/qtheta, tests/ or the
benchmark's tracer (perfbench/spans.py) more often than it is defined
there.  Names in strings and comments count, since the job table and the
tracer name callables by string.  A definition nothing names is dead code.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "qtheta").glob("*.py"))
CORPUS = SOURCES + sorted((ROOT / "tests").glob("*.py")) + [
    ROOT / "perfbench" / "spans.py"
]


def _defs(source: str) -> list[str]:
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _unnamed(sources: list[str], corpus: list[str]) -> list[str]:
    """The names defined in `sources` that `corpus` (which holds them)
    names no more often than it defines them."""
    defined = {name for src in sources for name in _defs(src)
               if not (name.startswith("__") and name.endswith("__"))}
    words = Counter(w for text in corpus for w in re.findall(r"\w+", text))
    defs = Counter(name for text in corpus for name in _defs(text))
    return sorted(name for name in defined if words[name] <= defs[name])


def test_scan_finds_a_definition_nothing_names():
    a = "def f():\n    return g()\n\ndef g():\n    pass\n\nclass C:\n    def h(self):\n        pass\n"
    b = "def __init__(self):\n    pass\n\ndef k():\n    pass\n\nJOBS = ['k']\n"
    assert _unnamed([a, b], [a, b]) == ["f", "h"]
    # a caller in the corpus, or a second word, saves the name
    assert _unnamed([a], [a, "C().h()\nprint(f)\n"]) == []
    # a definition of the same name elsewhere is not a use of it
    assert _unnamed([a], [a, "def f():\n    pass\n"]) == ["f", "h"]


def test_every_defined_name_is_named_elsewhere():
    assert len(SOURCES) > 8
    unnamed = _unnamed([p.read_text() for p in SOURCES],
                       [p.read_text() for p in CORPUS])
    assert not unnamed, unnamed
