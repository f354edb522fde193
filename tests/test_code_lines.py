from code_lines import code_lines, main

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """A class docstring."""

    def f(self):
        """A function
        docstring."""
        text = """not a docstring,

        and over three lines"""
        return os.sep + text
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    """``import``, ``class``, ``def``, the two non-blank lines of the string
    that is not a docstring, and ``return``."""
    assert code_lines(SOURCE) == 6
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0


def test_code_lines_script_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "a.py                         6",
        "b.py                         1",
        "total                        7",
        ""]
