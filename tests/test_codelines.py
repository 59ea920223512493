import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

#: 7 code lines: the import, the class line, the two lines of ``x``, the
#: two lines of the string ``y`` (not a docstring) and the def line;
#: docstrings, comments and blank lines do not count
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


class A:
    """Class docstring."""

    # a comment line
    x = (1,
         2)
    y = """a string that is not a docstring,
    over two lines"""

    def f(self):
        """Function docstring."""
'''


def test_counts_the_lines_that_hold_code():
    assert codelines.code_lines(FIXTURE) == 7
    assert codelines.code_lines("") == 0
    assert codelines.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert codelines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["7", "1", "8"]
    assert lines[-1].split()[1] == "total"
