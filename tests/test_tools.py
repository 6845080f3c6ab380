import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 10 code lines: the import, the class line, `size = 1`, the four lines of
# the multi-line `def`, the two lines of the string that is not a docstring,
# and the return; docstrings, comment lines and blank lines count nothing
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves its line a code line

# a comment line


class Box:
    """Class docstring."""

    size = 1


def area(
    width,
    height,
):
    """Function
    docstring."""
    label = """not a
docstring"""
    return width * height
'''


def test_code_lines_counts_what_its_docstring_states():
    assert code_lines.code_lines(SNIPPET) == 10


def test_main_prints_a_total_for_the_package(capsys):
    assert code_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    counts = [int(count) for count, _ in rows]
    assert counts[-1] == sum(counts[:-1]) > 0
    assert "engine.py" in [name for _, name in rows]
