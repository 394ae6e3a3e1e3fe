"""The code-line counter in tools/, on a small source with known counts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment line

import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Method docstring,
        over

        four lines."""
        text = """a string that is
        not a docstring"""
        return text


def one_liner(): """Docstring sharing its line with the def."""


async def waits():
    'single-quoted docstring'
    x = 1
    "a bare string after the first statement is code"
    return x
'''


def test_counts_of_a_known_source():
    # code lines: import, class, def method, the text assignment (2 lines),
    # return text, def one_liner, async def, x = 1, the bare string, return x
    # docstring-only lines: 2 (module) + 1 (class) + 4 (method, blank line
    # included) + 1 (waits)
    assert count_lines.count(SOURCE) == (11, 19)


def test_blank_and_comment_lines_never_count():
    assert count_lines.count("\n# only a comment\n\n") == (0, 0)
    assert count_lines.count("x = 1\n\n\n# c\ny = 2\n") == (2, 2)


def test_main_prints_a_row_per_file_and_a_total(tmp_path, capsys):
    path = tmp_path / "thing.py"
    path.write_text(SOURCE)
    assert count_lines.main([str(path), str(path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["11", "19", str(path)], ["11", "19", str(path)], ["22", "38", "total"]]
