"""Print the number of code lines of the package's sources, src/qtheta:
lines that hold a token other than a comment, with docstrings and blank
lines left out.

    python tools/code_lines.py

A docstring is the string statement that opens a module, class or
function body, as ast reads it; every other string counts on each line
it spans.  Only the standard library is used (ast and tokenize).
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    source = path.read_bytes()
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src" / "qtheta"
    print(sum(code_lines(f) for f in src.rglob("*.py")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
