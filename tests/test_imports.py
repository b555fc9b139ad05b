"""Imports in ``src/qscaling``: each module-level one is used, and all are of the standard library.

Deleting code can strand the imports it needed; this catches that with the
standard library alone. ``__init__.py`` is exempt: its imports are the
package's public names. The package has no runtime dependencies, so an
absolute import of anything outside the standard library fails here even
where that package happens to be installed.

The same parse finds every use of ``exec``, ``eval`` and ``compile``: the
one allowed is ``_compile`` in ``matrices.py``, which runs source with
empty builtins. Its only callers are the three kernel builders,
``_laplace_kernel`` and ``_prefix_kernel`` in ``matrices.py`` and
``_pj_kernel`` in ``scaling.py`` (which imports it), whose source is made
only of integers, so no outside input reaches generated code. Each
builder's name appears only in its own definition and in its one caller:
``_int_compounds``, the one walker over the compounds, ``_principal_minors``,
the one walker over the principal-minor tree, and ``symbolic_q_invariants``,
the one expansion of the p_j. All three pass the compiled functions
integers alone; so generated code is reached through those three callers
and nowhere else. ``_principal_minors`` itself, which returns the minors
as plain integers by order, has four readers and no wrapper:
``principal_minor_sums`` and ``classify`` in ``matrix_classes.py``, and
``symbolic_q_invariants`` and ``sample_refute`` in ``scaling.py``, each
passing it the stored q*A.

The same reach tests keep the storage of ``SparsePolynomial`` inside
``polynomial.py``: its integer numerators ``_terms`` over one ``_den`` are
read elsewhere only through ``_numerators``, by ``_form_matrix``, and
``symbolic_q_invariants`` builds every p_j without a Fraction. Likewise
the storage of ``RationalMatrix``, the integers q*A over q in its two
slots ``_q`` and ``_qa`` and nothing else, is read only in
``matrices.py``. ``certify_positive_on_orthant`` takes the reading of a
form (x = d or x = 1/d) from ``_form_matrix``, so the scan
``is_homogeneous`` has one caller, the independent check in
``Certificate.verify``. The sign of a p_j is decided in one place:
``_orthant_witness``, the one reader of the compounds in ``scaling.py``, is
called only by ``certify_positive_on_orthant``, whose verdicts the sampling
shortcut of ``sample_refute`` reads; the Hadamard compounds that shortcut
used to test (``_hadamard``) live on only in the test oracles. Each
evidence kind states its verdict, so no ``assert`` under ``src/`` tests
the kind of a certificate's evidence.

``refute.py`` calls each layer it reaches by its name in its own
namespace, imported under that name and never bound to anything else, so
a wrapper set on ``qscaling.refute`` sees every call:
``evaluate_hypothesis`` calls ``symbolic_q_invariants``,
``certify_positive_on_orthant`` and ``sample_refute`` (given its budget as
a keyword), and ``_report``, which ``verify_refutation`` and ``hunt`` call,
calls ``mat_mul``, ``classify`` and ``is_anti_sign_symmetric``.
"""

import ast
import sys
from pathlib import Path

import pytest

from qscaling import RationalMatrix

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


#: the one place under src/ that runs generated code, with empty builtins
GENERATED_CODE_SITES = [("matrices.py", "_compile", "exec")]


def _builtin_code_runners(node, function=None):
    """(innermost enclosing function, name) for every name exec, eval or compile under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _builtin_code_runners(child, child.name)
        elif isinstance(child, ast.Name) and child.id in ("exec", "eval", "compile"):
            yield function, child.id
        else:
            yield from _builtin_code_runners(child, function)


def test_generated_code_runs_only_in_the_compile_helper():
    # any use of the names, called or not, so an alias is caught too
    found = [
        (path.name, function, name)
        for path in ALL_MODULES
        for function, name in _builtin_code_runners(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == GENERATED_CODE_SITES


def _mentions(node, name, function=None):
    """The innermost enclosing function of every definition, use or import of ``name`` under ``node``.

    A definition counts as a mention inside the function it defines.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if child.name == name:
                yield child.name
            yield from _mentions(child, name, child.name)
            continue
        if (
            (isinstance(child, ast.Name) and child.id == name)
            or (isinstance(child, ast.Attribute) and child.attr == name)
            or (isinstance(child, ast.alias) and name in (child.name, child.asname))
        ):
            yield function
        yield from _mentions(child, name, function)


def _mentioned_in(name):
    """(module, innermost enclosing function) for every mention of ``name`` under src/qscaling."""
    return [
        (path.name, function)
        for path in ALL_MODULES
        for function in _mentions(ast.parse(path.read_text(encoding="utf-8")), name)
    ]


def test_the_laplace_kernel_is_reached_only_through_int_compounds():
    assert _mentioned_in("_laplace_kernel") == [("matrices.py", "_laplace_kernel"), ("matrices.py", "_int_compounds")]


def test_the_compile_helper_serves_only_the_three_kernel_builders():
    assert _mentioned_in("_compile") == [
        ("matrices.py", "_compile"),
        ("matrices.py", "_laplace_kernel"),
        ("matrices.py", "_prefix_kernel"),
        ("scaling.py", None),
        ("scaling.py", "_pj_kernel"),
    ]


def test_the_prefix_kernel_is_reached_only_through_principal_minors():
    assert _mentioned_in("_prefix_kernel") == [("matrices.py", "_prefix_kernel"), ("matrices.py", "_principal_minors")]


def test_the_pj_kernel_is_reached_only_through_q_invariants():
    assert _mentioned_in("_pj_kernel") == [("scaling.py", "_pj_kernel"), ("scaling.py", "symbolic_q_invariants")]


def test_the_principal_minor_walker_has_four_readers_and_no_wrapper():
    assert _mentioned_in("_principal_minors") == [
        ("matrices.py", "_principal_minors"),
        ("matrix_classes.py", None),
        ("matrix_classes.py", "principal_minor_sums"),
        ("matrix_classes.py", "classify"),
        ("scaling.py", None),
        ("scaling.py", "symbolic_q_invariants"),
        ("scaling.py", "sample_refute"),
    ]


def test_only_the_polynomial_module_reads_the_coefficient_storage():
    for name in ("_terms", "_den"):
        assert {module for module, _ in _mentioned_in(name)} == {"polynomial.py"}
    assert _mentioned_in("_numerators") == [("polynomial.py", "_numerators"), ("scaling.py", "_form_matrix")]


def test_only_the_certificate_check_scans_for_homogeneity():
    assert _mentioned_in("is_homogeneous") == [("polynomial.py", "is_homogeneous"), ("scaling.py", "verify")]


def test_the_sign_of_a_pj_is_decided_only_through_the_certificates():
    assert _mentioned_in("_hadamard") == []
    assert [m for m in _mentioned_in("_int_compounds") if m[0] == "scaling.py"] == [
        ("scaling.py", None),
        ("scaling.py", "_orthant_witness"),
    ]
    assert _mentioned_in("_orthant_witness") == [
        ("scaling.py", "_orthant_witness"),
        ("scaling.py", "certify_positive_on_orthant"),
    ]


def test_only_the_matrices_module_reads_the_matrix_storage():
    for name in ("_q", "_qa"):
        assert {module for module, _ in _mentioned_in(name)} == {"matrices.py"}
    assert RationalMatrix.__slots__ == ("_q", "_qa")


def test_no_assert_under_src_tests_an_evidence_type():
    # each evidence kind states its verdict, so a branch on the verdict knows the kind
    asserts = [
        (path.name, node.lineno)
        for path in ALL_MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        and any(isinstance(name, ast.Name) and name.id.endswith("Evidence") for name in ast.walk(node))
    ]
    assert asserts == []


def test_symbolic_q_invariants_makes_no_fraction():
    assert ("scaling.py", "symbolic_q_invariants") not in _mentioned_in("Fraction")


def _reaches(tree, name, module="scaling", function=None, parent=None):
    """(how, innermost enclosing function) for every mention of ``name`` under ``tree``.

    ``how`` is "import" for ``from .module import name``, "call" for a call
    of the bare name and "call, budget=" for one that passes ``budget`` as a
    keyword; anything else is "other", and so is an alias or a parameter.
    """
    for child in ast.iter_child_nodes(tree):
        how = None
        if isinstance(child, ast.ImportFrom) and any(name in (a.name, a.asname) for a in child.names):
            plain = (child.module, child.level) == (module, 1)
            how = "import" if plain and any((a.name, a.asname) == (name, None) for a in child.names) else "other"
        elif isinstance(child, ast.Name) and child.id == name:
            if isinstance(parent, ast.Call) and parent.func is child and isinstance(child.ctx, ast.Load):
                how = "call, budget=" if "budget" in (k.arg for k in parent.keywords) else "call"
            else:
                how = "other"
        elif (
            (isinstance(child, ast.Attribute) and child.attr == name)
            or (isinstance(child, ast.arg) and child.arg == name)
            or (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and child.name == name)
            or (isinstance(child, (ast.Global, ast.Nonlocal)) and name in child.names)
        ):
            how = "other"
        if how:
            yield how, function
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        yield from _reaches(child, name, module, inner, child)


def test_refute_reaches_certify_and_sample_refute_only_by_their_module_names():
    tree = ast.parse((PACKAGE / "refute.py").read_text(encoding="utf-8"))
    assert list(_reaches(tree, "certify_positive_on_orthant")) == [("import", None), ("call", "evaluate_hypothesis")]
    assert list(_reaches(tree, "sample_refute")) == [("import", None), ("call, budget=", "evaluate_hypothesis")]


@pytest.mark.parametrize(
    "name, module, caller",
    [
        ("symbolic_q_invariants", "scaling", "evaluate_hypothesis"),
        ("mat_mul", "matrices", "_report"),
        ("classify", "matrix_classes", "_report"),
        ("is_anti_sign_symmetric", "matrix_classes", "_report"),
    ],
)
def test_refute_reaches_each_layer_once_by_its_module_name(name, module, caller):
    tree = ast.parse((PACKAGE / "refute.py").read_text(encoding="utf-8"))
    assert list(_reaches(tree, name, module)) == [("import", None), ("call", caller)]
