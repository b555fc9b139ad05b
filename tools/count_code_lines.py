"""Count the code lines of Python files: non-blank lines outside comments and docstrings.

A line counts when it holds a token other than a comment or a layout
token (NEWLINE, NL, INDENT, DEDENT), and lies outside every docstring. A
docstring is the leading string statement of a module, class or
function. A token that spans lines, such as a triple-quoted string that
is not a docstring, counts on every line it spans.

Usage: ``python tools/count_code_lines.py PATH...``. Each PATH is a
``.py`` file or a directory, whose ``*.py`` files are read, not those of
its subdirectories. Prints one ``count  path`` line per file and a last
``count  total`` line.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code: comments, line layout, and the stream's own markers
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NEWLINE,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines that docstrings occupy."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    code = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(source))


def _files(paths: list[str]) -> list[Path]:
    files = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/count_code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in _files(argv):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
