"""Imports in ``src/qscaling``: each module-level one is used, and all are of the standard library.

Deleting code can strand the imports it needed; this catches that with the
standard library alone. ``__init__.py`` is exempt: its imports are the
package's public names. The package has no runtime dependencies, so an
absolute import of anything outside the standard library fails here even
where that package happens to be installed.

The same parse finds every use of ``exec``, ``eval`` and ``compile``: the
one allowed is ``_compile`` in ``matrices.py``, which runs source with
empty builtins. Its only callers are the five kernel builders,
``_product_kernel``, ``_laplace_kernel`` and ``_prefix_kernel`` in
``matrices.py``, and ``_pj_kernel`` and ``_walk_kernel`` in ``scaling.py``
(which imports it), whose source is made only of integers, so no outside
input reaches generated code. The compiled functions are reached through
one walker each: ``_int_product``, the one integer matrix product, which
``mat_mul`` and ``generate_candidates`` call and nothing else,
``_int_compounds``, the one walker over the compounds,
``_principal_minors``, the one walker over the principal-minor tree,
``symbolic_q_invariants``, the one expansion of the p_j, and
``_orthant_witness``, the one decision of a form's sign on the orthant.
``_product_kernel``, ``_laplace_kernel`` and ``_walk_kernel`` are named
only in their definitions and their walkers, and ``_prefix_kernel`` also
in itself, where a kernel binds those of the smaller sizes as its
children. ``_pj_kernel`` is named only in its definition and in the table
cached per n, ``_pj_kernels``, and that table only in its definition and
its walker, which looks up all its kernels at once. Every kernel takes
only its data, ``product(a, b)``, ``row(a, b)``, ``visit(b, d, out,
below)`` with the two sinks of one call, ``pj(m)`` and ``walk(m)``; what
it calls, child kernels or the two witness helpers ``_walk_kernel``
returns through, is bound into its namespace when it is compiled, and
nothing else is there. The compiled walk holds the copositivity half
alone: its source collects no singular block and calls
``average(m)`` once, at its end. The Laplace
expansion is written in one place, ``_laplace_expansion``, named only by
the two builders that write it into their source. So generated code is
reached through those five walkers and nowhere else.
``_principal_minors`` itself, which returns the minors
as plain integers by order, has four readers and no wrapper:
``principal_minor_sums`` and ``classify`` in ``matrix_classes.py``, and
``symbolic_q_invariants`` and ``sample_refute`` in ``scaling.py``, each
passing it the stored q*A.

The same reach tests keep the storage of ``SparsePolynomial`` inside
``polynomial.py``: its integer numerators ``_terms`` over one ``_den`` are
read elsewhere only through ``_numerators``, by ``_form_matrix``, and
``symbolic_q_invariants`` builds every p_j without a Fraction. One
integer sum, ``_value_at``, evaluates a polynomial: ``evaluate`` calls it,
and so does ``_witness_evidence`` for the value at a witness point. Likewise
the storage of ``RationalMatrix``, the integers q*A over q in its two
slots ``_q`` and ``_qa`` and nothing else, is read only in
``matrices.py``. The cached ``_index_set``, through which a class verdict's
witness shares one ``IndexSet`` per set, is named only in
``matrix_classes.py``. ``certify_positive_on_orthant`` takes the reading of a
form (x = d or x = 1/d) from ``_form_matrix``, so the scan
``is_homogeneous`` has one caller, the independent check in
``QuadraticEvidence.holds_for``. The sign of a p_j is decided in one place:
``_orthant_witness`` is called only by ``certify_positive_on_orthant``;
it and its kernel half ``_vertex_average``, which reads a singular
block's adjugate, are the two readers of the compounds in ``scaling.py``,
and they and the kernel ``_walk_kernel`` compiles for small forms are the
three readers of ``_adjugate_table``, the per-size table of where and
with which sign an adjugate entry is read; the sampling shortcut of ``sample_refute`` reads
the verdicts of ``certify_positive_on_orthant`` off the certificates its
caller passes; the Hadamard compounds that shortcut used to test
(``_hadamard``) live on only in the test oracles. No function in ``scaling.py`` calls
``symbolic_q_invariants`` or ``certify_positive_on_orthant``, so a sampled
hypothesis is expanded and certified once, by its caller. Each
evidence kind states its verdict, so no ``assert`` under ``src/`` tests
the kind of a certificate's evidence; each kind also checks itself
(``holds_for``) and describes itself (``describe``), so neither
``Certificate.verify`` nor ``cli.py`` names a kind.

Every random draw under ``src/`` follows the package's own rule,
``_uniform_draws`` in ``scaling.py``: the candidate entries of
``generate_candidates`` and the mantissas and exponents of
``sample_refute``. Nothing calls ``randint``.

The public surface of ``qscaling`` is pinned as one sorted list of names,
so adding or deleting a public name is an explicit edit here. A report's
verdict is a property read off its parts, so no ``derive_verdict`` is
defined under ``src/``.

``refute.py`` calls each layer it reaches by its name in its own
namespace, imported under that name and never bound to anything else, so
a wrapper set on ``qscaling.refute`` sees every call:
``evaluate_hypothesis`` calls ``symbolic_q_invariants``,
``certify_positive_on_orthant`` and ``sample_refute`` (given the
certificates it made, and its budget as a keyword), and ``_report``, which
``verify_refutation`` and ``hunt`` call, calls ``mat_mul``, ``classify``
and ``is_anti_sign_symmetric``.
"""

import ast
import inspect
import sys
import types
import typing
from pathlib import Path
from unittest.mock import patch

import pytest

import qscaling
from qscaling import RationalMatrix, matrices, scaling

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


def test_the_product_kernel_is_reached_only_through_the_int_product():
    # the walker, then the builder, in the order of matrices.py
    assert _mentioned_in("_product_kernel") == [("matrices.py", "_int_product"), ("matrices.py", "_product_kernel")]
    # A^2 and B^T B: the product of two stored matrices, and the spd candidates' draw
    assert _mentioned_in("_int_product") == [
        ("matrices.py", "mat_mul"),
        ("matrices.py", "_int_product"),
        ("refute.py", None),
        ("refute.py", "generate_candidates"),
    ]


def test_the_compile_helper_serves_only_the_five_kernel_builders():
    assert _mentioned_in("_compile") == [
        ("matrices.py", "_compile"),
        ("matrices.py", "_product_kernel"),
        ("matrices.py", "_laplace_kernel"),
        ("matrices.py", "_prefix_kernel"),
        ("scaling.py", None),
        ("scaling.py", "_pj_kernel"),
        ("scaling.py", "_walk_kernel"),
    ]


def test_the_prefix_kernel_is_reached_only_through_principal_minors():
    # builder, then the builder again, binding the kernels of the smaller sizes, then the walker
    assert _mentioned_in("_prefix_kernel") == [
        ("matrices.py", "_prefix_kernel"),
        ("matrices.py", "_prefix_kernel"),
        ("matrices.py", "_principal_minors"),
    ]
    assert _mentioned_in("_prefix_kernels") == []


def test_the_pj_kernel_is_reached_only_through_q_invariants():
    # builder, then its per-n table, then the walker
    assert _mentioned_in("_pj_kernel") == [("scaling.py", "_pj_kernel"), ("scaling.py", "_pj_kernels")]
    assert _mentioned_in("_pj_kernels") == [("scaling.py", "_pj_kernels"), ("scaling.py", "symbolic_q_invariants")]


def test_the_adjugate_table_is_read_only_by_the_orthant_walk():
    # the kernel half, then the copositivity half, compiled and walked
    assert _mentioned_in("_adjugate_table") == [
        ("scaling.py", "_adjugate_table"),
        ("scaling.py", "_vertex_average"),
        ("scaling.py", "_walk_kernel"),
        ("scaling.py", "_orthant_witness"),
    ]


def test_the_walk_kernel_is_reached_only_through_the_orthant_witness():
    # the two halves' helpers are bound into the kernel when it is compiled, and called by the compound walk
    assert _mentioned_in("_walk_kernel") == [("scaling.py", "_walk_kernel"), ("scaling.py", "_orthant_witness")]
    for helper in ("_lifted_witness", "_vertex_average"):
        assert _mentioned_in(helper) == [
            ("scaling.py", helper),
            ("scaling.py", "_walk_kernel"),
            ("scaling.py", "_orthant_witness"),
        ]


def test_the_walk_kernel_holds_only_the_copositivity_half():
    # the kernel half is _vertex_average's alone: the compiled walk collects no singular block and ends in one call of it
    for n in range(1, scaling._WALK_KERNEL_MAX + 1):
        with patch.object(scaling, "_compile", lambda source, name, **bound: source):
            tree = ast.parse(scaling._walk_kernel.__wrapped__(n))
        assert "singular" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        calls = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call) and node.func.id == "average"]
        assert calls == ["average(m)"]
        assert ast.unparse(tree.body[0].body[-1]) == "return average(m)"


def test_the_laplace_expansion_is_written_only_by_its_two_builders():
    assert _mentioned_in("_laplace_expansion") == [
        ("matrices.py", "_laplace_expansion"),
        ("matrices.py", "_laplace_kernel"),
        ("scaling.py", None),
        ("scaling.py", "_walk_kernel"),
    ]


def _kernels():
    """(kernel, its parameters, the functions bound into it) for every compiled kernel of sizes 1..5."""
    for n in range(1, 6):
        yield matrices._product_kernel(n), ("a", "b"), {}
        for k in range(2, n + 1):
            yield matrices._laplace_kernel(n, k), ("a", "b"), {}
        children = {f"k{size}": matrices._prefix_kernel(size) for size in range(1, n)}
        yield matrices._prefix_kernel(n), ("b", "d", "out", "below"), children
        for _, pj in scaling._pj_kernels(n):
            yield pj, ("m",), {}
        if n <= scaling._WALK_KERNEL_MAX:
            yield scaling._walk_kernel(n), ("m",), {"lift": scaling._lifted_witness, "average": scaling._vertex_average}


def test_every_kernel_takes_only_its_data_and_its_sinks():
    # product(a, b), row(a, b), visit(b, d, out, below), pj(m) and walk(m): the data, and for visit the two sinks of one call;
    # every function a kernel calls is bound into its namespace when it is compiled, and nothing else is
    for kernel, parameters, bound in _kernels():
        code = kernel.__code__
        assert code.co_varnames[: code.co_argcount] == parameters
        assert not (code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)) and not kernel.__defaults__
        assert kernel.__globals__ == {"__builtins__": {}, kernel.__name__: kernel, **bound}


def test_the_cached_index_sets_are_named_only_in_matrix_classes():
    assert {module for module, _ in _mentioned_in("_index_set")} == {"matrix_classes.py"}


def test_the_principal_minor_walker_has_four_readers_and_no_wrapper():
    assert _mentioned_in("_principal_minors") == [
        ("matrices.py", "_principal_minors"),
        ("matrix_classes.py", None),
        ("matrix_classes.py", "principal_minor_sums"),
        ("matrix_classes.py", "classify"),
        ("matrix_classes.py", "_p0_plus_holds"),
        ("scaling.py", None),
        ("scaling.py", "symbolic_q_invariants"),
        ("scaling.py", "sample_refute"),
    ]


def test_only_the_polynomial_module_reads_the_coefficient_storage():
    for name in ("_terms", "_den"):
        assert {module for module, _ in _mentioned_in(name)} == {"polynomial.py"}
    assert _mentioned_in("_numerators") == [("polynomial.py", "_numerators"), ("scaling.py", "_form_matrix")]


def test_one_integer_sum_evaluates_a_polynomial():
    # evaluate and the witness values of the certificates share it
    assert _mentioned_in("_value_at") == [
        ("polynomial.py", "evaluate"),
        ("polynomial.py", "_value_at"),
        ("scaling.py", "_witness_evidence"),
    ]


def test_every_draw_follows_the_packages_own_rule():
    # candidate entries, mantissas and exponents; no draw goes through randint, whose rule Python may change
    assert _mentioned_in("randint") == []
    assert set(_mentioned_in("getrandbits")) == {("scaling.py", "_uniform_draws")}
    assert _mentioned_in("_uniform_draws") == [
        ("refute.py", None),
        ("refute.py", "generate_candidates"),
        ("scaling.py", "_uniform_draws"),
        ("scaling.py", "sample_refute"),
        ("scaling.py", "sample_refute"),
    ]


@pytest.mark.parametrize("name", ["symbolic_q_invariants", "certify_positive_on_orthant"])
def test_sampling_reads_the_certificates_it_is_passed(name):
    # sample_refute's shortcut reads its caller's certificates: scaling.py only defines the two layers
    assert [m for m in _mentioned_in(name) if m[0] == "scaling.py"] == [("scaling.py", name)]


def test_only_the_certificate_check_scans_for_homogeneity():
    assert _mentioned_in("is_homogeneous") == [("polynomial.py", "is_homogeneous"), ("scaling.py", "holds_for")]


def test_neither_the_certificate_check_nor_the_cli_names_an_evidence_kind():
    # a new kind then needs its class and its strategy, and no edit to either
    kinds = [kind.__name__ for kind in typing.get_args(scaling.Evidence)]
    assert kinds
    module = ast.parse((PACKAGE / "scaling.py").read_text(encoding="utf-8"))
    (certificate,) = [node for node in module.body if isinstance(node, ast.ClassDef) and node.name == "Certificate"]
    (verify,) = [node for node in certificate.body if isinstance(node, ast.FunctionDef) and node.name == "verify"]
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    places = {"Certificate.verify": verify, "cli.py": cli}
    assert [(kind, where) for kind in kinds for where, tree in places.items() if list(_mentions(tree, kind))] == []


def test_the_sign_of_a_pj_is_decided_only_through_the_certificates():
    assert _mentioned_in("_hadamard") == []
    assert [m for m in _mentioned_in("_int_compounds") if m[0] == "scaling.py"] == [
        ("scaling.py", None),
        ("scaling.py", "_vertex_average"),
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
    "name, module, callers",
    [
        ("symbolic_q_invariants", "scaling", "evaluate_hypothesis"),
        # A^2 is made by the caller of _report: once per report, and once per standing hunt candidate
        ("mat_mul", "matrices", "verify_refutation hunt"),
        ("classify", "matrix_classes", "_report"),
        ("is_anti_sign_symmetric", "matrix_classes", "_report"),
        ("_p0_plus_holds", "matrix_classes", "hunt"),
    ],
)
def test_refute_reaches_each_layer_once_by_its_module_name(name, module, callers):
    tree = ast.parse((PACKAGE / "refute.py").read_text(encoding="utf-8"))
    assert list(_reaches(tree, name, module)) == [("import", None)] + [("call", caller) for caller in callers.split()]


#: every public name ``qscaling`` exports, its submodules aside
PUBLIC_NAMES = [
    "COUNTEREXAMPLE_MATRIX",
    "CauchyBinetExpansion",
    "Certificate",
    "CertificateVerdict",
    "CertifiedForAll",
    "Claim",
    "ClassReport",
    "CoefficientEvidence",
    "CompoundMatrix",
    "DEFAULT_ENUMERATION_GUARD",
    "DEFAULT_SYMBOLIC_GUARD",
    "DiagonalScaling",
    "DimensionGuardError",
    "EvidenceGrade",
    "HuntConfig",
    "HypothesisStatus",
    "IndexSet",
    "MatrixParseError",
    "MinorPairWitness",
    "MinorSumWitness",
    "NoCounterexampleFound",
    "OrderGapWitness",
    "PrincipalMinorWitness",
    "QuadraticEvidence",
    "RationalMatrix",
    "RefutationReport",
    "RefutationVerdict",
    "RefutedAt",
    "ReproductionResult",
    "SparsePolynomial",
    "Verdict",
    "VerdictKind",
    "WitnessEvidence",
    "cauchy_binet_terms",
    "certify_positive_on_orthant",
    "classify",
    "compound",
    "determinant",
    "evaluate_hypothesis",
    "generate_candidates",
    "hunt",
    "index_sets",
    "is_anti_sign_symmetric",
    "mat_mul",
    "matrix_from_dict",
    "matrix_to_dict",
    "minor",
    "parse_matrix",
    "parse_rational",
    "principal_minor_sums",
    "render_matrix",
    "render_rational",
    "run_reproduction",
    "sample_refute",
    "scaled_square_symbolic",
    "symbolic_q_invariants",
    "verify_refutation",
    "zero_rows_outside",
]


def test_the_public_surface_is_pinned():
    exported = sorted(
        name
        for name, value in vars(qscaling).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_no_verdict_is_derived_apart_from_its_report():
    assert _mentioned_in("derive_verdict") == []
