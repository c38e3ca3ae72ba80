"""tools/code_lines.py, the code-line counter the ROADMAP quotes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = (1,
            2)  # two lines of one statement

    def area(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return len(text)
'''


def test_counts_code_outside_docstrings_and_comments():
    # import, class, size (2 lines), def, text (2 lines), return
    assert code_lines.code_lines(SNIPPET) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["8", "a.py", "1", "b.py", "9", "total"]
