"""Imports in ``src/qscaling``: each module-level one is used, and all are of the standard library.

Deleting code can strand the imports it needed; this catches that with the
standard library alone. ``__init__.py`` is exempt: its imports are the
package's public names. The package has no runtime dependencies, so an
absolute import of anything outside the standard library fails here even
where that package happens to be installed.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qscaling"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda path: path.name)
def test_absolute_imports_are_of_the_standard_library(path):
    # function-level imports included; relative imports are the package's own modules
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert sorted(imported - sys.stdlib_module_names) == []
