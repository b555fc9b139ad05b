"""``tools/count_code_lines.py``, the code-line count the ROADMAP cites, on a small fixture."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

# each line that counts ends in "# code"; a docstring is the leading string statement of a module, class or function
FIXTURE = '''"""Module docstring,
over two lines."""

import sys  # code

# a comment line


class Spam:  # code
    """Class docstring."""

    size = 2  # code

    def eggs(self):  # code
        """Function docstring,

        over three lines."""
        "a later string statement"  # code
        text = """  # code
a string that is not a docstring
"""
        return (  # code
            text  # code
        )  # code


def bare():  # code
    return sys.argv  # code
'''


def test_the_count_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    # the lines marked "# code", and the two lines inside the string that is not a docstring
    assert sum(line.endswith("# code") for line in FIXTURE.splitlines()) + 2 == 13
    assert count_code_lines.count_code_lines(FIXTURE) == 13
    (tmp_path / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert count_code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     0  {tmp_path / 'empty.py'}",
        f"    13  {tmp_path / 'fixture.py'}",
        "    13  total",
    ]
