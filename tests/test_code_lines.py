"""tools/code_lines.py counts the code lines of src/qtheta: lines holding a
token other than a comment, less docstrings and blank lines."""

import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _load_tool():
    # executed from its source text, so nothing is written under tools/
    mod = types.ModuleType("code_lines")
    mod.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), mod.__dict__)
    return mod


SOURCES = {
    # module, class and function docstrings, of one line or several
    "docstrings": ('"""Module,\ntwo lines."""\n'
                   "class A:\n"
                   '    """Class."""\n'
                   "    def f(self):\n"
                   '        """Function,\n        two lines."""\n'
                   "        return 1\n", 3),
    "comments and blank lines": (
        "# a comment\n\nx = 1  # trailing\n\n    \n# another\ny = 2\n", 2),
    # a string that is not a docstring counts on every line it spans
    "multi-line string": ('x = 1\ntext = """not a\ndocstring,\n\nfour lines"""\n', 5),
    # only the first statement of a body can be its docstring
    "later string statement": ('def f():\n    x = 1\n    """not a docstring"""\n', 3),
}


@pytest.mark.parametrize("name", SOURCES)
def test_counts_code_lines(tmp_path, name):
    source, count = SOURCES[name]
    path = tmp_path / "sample.py"
    path.write_text(source)
    assert _load_tool().code_lines(path) == count
