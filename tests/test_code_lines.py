import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    x = """a string that is not a docstring,
    so both of its lines count"""

    def f(self):
        """Function docstring."""
        return (1,
                2)


async def g():
    "one-line docstring"
    "a second string is an expression, not a docstring"
'''


def test_counts_code_lines_only():
    # import, class A, both lines of x, def f, both lines of the return,
    # async def g and its second string
    assert code_lines.code_lines(SOURCE) == 9


def test_counts_each_module(capsys):
    code_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count) for count, name in rows}
    graphio = code_lines.SOURCES / "graphio.py"
    assert counts["graphio.py"] == code_lines.code_lines(graphio.read_text(encoding="utf-8"))
    assert rows[-1][1] == "total" and int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
