"""Command-line front end.

Subcommands:
  analyze    classify a matrix into the P / P0 / P0+ / Q hierarchy
  q2scaling  certify or refute "(D*A)^2 is a Q-matrix for every positive D"
  reproduce  run the bundled counterexample analysis and self-check it
  hunt       search random integer matrices for counterexamples

Exit codes: 0 = completed with no mismatch, 1 = the queried negative was
found (a refuting scaling, a reproduction mismatch, a counterexample),
2 = usage or parse error. All configuration is via flags; no environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .matrices import (
    DEFAULT_ENUMERATION_GUARD,
    MatrixParseError,
    RationalMatrix,
    matrix_to_dict,
    parse_matrix,
    render_rational,
)
from .matrix_classes import ClassReport, classify
from .refute import (
    HUNT_MODES,
    HuntConfig,
    HypothesisStatus,
    NoCounterexampleFound,
    RefutationReport,
    RefutedAt,
    VerdictKind,
    evaluate_hypothesis,
    hunt,
    invariants_to_dict,
)
from .reproduction import run_reproduction
from .scaling import DEFAULT_SYMBOLIC_GUARD, CertificateVerdict

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2

FORMAT_VERSION = 1


def _structured(command: str, payload: dict) -> str:
    document = {"format_version": FORMAT_VERSION, "command": command}
    document.update(payload)
    return json.dumps(document, indent=2)


def _render_verdict_line(name: str, verdict) -> str:
    if verdict.holds:
        return f"{name}: holds"
    return f"{name}: fails ({verdict.witness.describe()})"


def render_class_report(report: ClassReport) -> str:
    lines = [f"n = {report.n}"]
    lines.append(
        "principal minor sums: " + ", ".join(render_rational(c) for c in report.minor_sums)
    )
    for name, verdict in report.verdicts().items():
        lines.append(_render_verdict_line(name, verdict))
    return "\n".join(lines)


def render_refutation_report(report: RefutationReport) -> str:
    lines = [f"matrix: {_inline(report.matrix)}"]
    lines.append(f"A^2:    {_inline(report.squared)}")
    lines.extend(_render_hypothesis(report.hypothesis))
    lines.append("conclusion (classes of A^2):")
    for name, verdict in report.conclusion.verdicts().items():
        lines.append("  " + _render_verdict_line(name, verdict))
    lines.append(_render_verdict_line("anti-sign symmetry of A", report.anti_sign))
    verdict = report.verdict
    if verdict.kind is VerdictKind.COUNTEREXAMPLE:
        claims = ", ".join(c.value for c in verdict.refuted_claims)
        lines.append(f"verdict: counterexample ({verdict.evidence_grade.value}); refutes: {claims}")
    else:
        lines.append(f"verdict: {verdict.kind.value}")
    return "\n".join(lines)


def _inline(matrix: RationalMatrix) -> str:
    return "[" + "; ".join(" ".join(render_rational(e) for e in row) for row in matrix.rows) + "]"


def _render_hypothesis(hypothesis: HypothesisStatus) -> list[str]:
    """Each p_j with its certificate, then the hypothesis status."""
    lines = []
    for j, cert in enumerate(hypothesis.certificates, start=1):
        lines.append(f"p{j} = {cert.polynomial.to_text()}")
        if cert.verdict is not CertificateVerdict.INCONCLUSIVE:
            lines.append(f"  {cert.evidence.describe()}")
        elif isinstance(hypothesis, NoCounterexampleFound):
            # only NoCounterexampleFound means sampling ran and found no witness; a
            # refutation came from another p_j's certificate or from a draw
            lines.append("  inconclusive (no certificate applies; sampling found no witness)")
        else:
            lines.append("  inconclusive (no certificate applies)")
    lines.append(f"hypothesis: {_describe_hypothesis(hypothesis)}")
    return lines


def _describe_hypothesis(hypothesis) -> str:
    if isinstance(hypothesis, RefutedAt):
        diag = ", ".join(render_rational(d) for d in hypothesis.scaling.diagonal)
        return f"refuted at D = diag({diag})"
    if isinstance(hypothesis, NoCounterexampleFound):
        return f"no counterexample found in {hypothesis.budget} samples (not a proof)"
    return "certified for every positive diagonal scaling"


def _load_matrix(args) -> RationalMatrix:
    if getattr(args, "inline", None) is not None:
        return parse_matrix(args.inline.replace(";", "\n"))
    path = args.matrix
    if path == "-":
        return parse_matrix(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_matrix(text)


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("matrix", nargs="?", help="path to a matrix file ('-' for stdin)")
    group.add_argument(
        "--inline",
        help="matrix text inline; ';' separates lines, e.g. '2; 1 2; -1 5'",
    )


def _add_format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output format: human-readable text or a JSON document (default: %(default)s)",
    )


def _add_max_dim_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-dim",
        type=int,
        help=f"override every dimension bound the command enforces (defaults: {DEFAULT_ENUMERATION_GUARD} for "
        f"minor enumeration and sampling, {DEFAULT_SYMBOLIC_GUARD} for symbolic expansion)",
    )


def cmd_analyze(args) -> int:
    matrix = _load_matrix(args)
    report = classify(matrix, max_dim=args.max_dim)
    if args.format == "structured":
        print(_structured("analyze", {"report": report.to_dict()}))
    else:
        print(render_class_report(report))
    return EXIT_OK


def cmd_q2scaling(args) -> int:
    matrix = _load_matrix(args)
    hypothesis = evaluate_hypothesis(
        matrix,
        budget=args.budget,
        seed=args.seed,
        exponent_range=args.range,
        max_dim=args.max_dim,
    )
    if args.format == "structured":
        payload = {
            "matrix": matrix_to_dict(matrix),
            "invariants": invariants_to_dict(hypothesis.certificates),
            "hypothesis": hypothesis.to_dict(),
        }
        print(_structured("q2scaling", payload))
    else:
        print("\n".join(_render_hypothesis(hypothesis)))
    return EXIT_FOUND if isinstance(hypothesis, RefutedAt) else EXIT_OK


def cmd_reproduce(args) -> int:
    result = run_reproduction()
    if args.format == "structured":
        print(_structured("reproduce", result.to_dict()))
    else:
        for check in result.checks:
            mark = "ok  " if check.ok else "FAIL"
            line = f"{mark} {check.name}: {check.actual}"
            if not check.ok:
                line += f" (expected {check.expected})"
            print(line)
        passed = sum(1 for c in result.checks if c.ok)
        print(f"reproduction: {passed}/{len(result.checks)} checks passed")
    if result.ok:
        return EXIT_OK
    mismatch = result.first_mismatch
    print(
        f"error: reproduction mismatch at {mismatch.name!r}: "
        f"expected {mismatch.expected!r}, got {mismatch.actual!r}",
        file=sys.stderr,
    )
    return EXIT_FOUND


def cmd_hunt(args) -> int:
    cfg = HuntConfig(
        dimension=args.dim,
        entry_range=args.entry_range,
        count=args.count,
        budget=args.budget,
        seed=args.seed,
        mode=args.mode,
    )
    reports = hunt(cfg, max_dim=args.max_dim)
    counterexamples = sum(1 for r in reports if r.verdict.kind is VerdictKind.COUNTEREXAMPLE)
    undetermined = len(reports) - counterexamples
    if args.format == "structured":
        payload = {
            "config": cfg.to_dict(),
            "reports": [r.to_dict() for r in reports],
            "summary": {
                "candidates": cfg.count,
                "counterexamples": counterexamples,
                "undetermined": undetermined,
            },
        }
        print(_structured("hunt", payload))
    else:
        for report in reports:
            print(render_refutation_report(report))
            print("-" * 60)
        print(
            f"examined {cfg.count} candidates: {counterexamples} counterexample(s), "
            f"{undetermined} undetermined"
        )
    return EXIT_FOUND if counterexamples else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscaling",
        description="Exact-arithmetic matrix-class analysis and scaling certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a matrix into the P/P0/P0+/Q hierarchy")
    _add_input_arguments(analyze)
    _add_format_argument(analyze)
    _add_max_dim_argument(analyze)
    analyze.set_defaults(func=cmd_analyze)

    q2 = sub.add_parser(
        "q2scaling",
        help="certify or refute that (D*A)^2 is a Q-matrix for every positive diagonal D",
    )
    _add_input_arguments(q2)
    _add_format_argument(q2)
    q2.add_argument("--budget", type=int, default=10_000, help="sampling budget when certificates are inconclusive (default %(default)s)")
    q2.add_argument("--seed", type=int, default=0, help="sampling seed (default %(default)s)")
    q2.add_argument("--range", type=int, default=3, help="sampling exponent bound E: entries span 10^-E..10^E (default %(default)s)")
    _add_max_dim_argument(q2)
    q2.set_defaults(func=cmd_q2scaling)

    reproduce = sub.add_parser("reproduce", help="run and self-check the bundled counterexample analysis")
    _add_format_argument(reproduce)
    reproduce.set_defaults(func=cmd_reproduce)

    hunt_parser = sub.add_parser("hunt", help="search random integer matrices for counterexamples")
    _add_format_argument(hunt_parser)
    hunt_parser.add_argument("--dim", type=int, required=True, help="candidate dimension")
    hunt_parser.add_argument("--entry-range", type=int, default=5, help="integer entry bound (default %(default)s)")
    hunt_parser.add_argument("--count", type=int, required=True, help="number of candidates to examine")
    hunt_parser.add_argument("--budget", type=int, default=10_000, help="sampling budget per candidate (default %(default)s)")
    hunt_parser.add_argument("--seed", type=int, default=0, help="generator seed (default %(default)s)")
    hunt_parser.add_argument(
        "--mode",
        choices=HUNT_MODES,
        default="all",
        help="candidate family: any integer matrix, nonsingular only, or B^T*B + I (default: %(default)s)",
    )
    _add_max_dim_argument(hunt_parser)
    hunt_parser.set_defaults(func=cmd_hunt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except ValueError as exc:  # MatrixParseError and DimensionGuardError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
