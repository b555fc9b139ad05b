import argparse
import json
import random

import pytest

from qscaling import (
    DEFAULT_ENUMERATION_GUARD,
    DEFAULT_SYMBOLIC_GUARD,
    Certificate,
    PrincipalMinorWitness,
    RationalMatrix,
    refute,
    render_matrix,
    reproduction,
    run_reproduction,
)
from qscaling.cli import build_parser, main

from helpers import random_rational_matrix

A_REF_TEXT = "2\n1 2\n-1 5\n"
A_SQUARED_TEXT = "2\n-1 12\n-6 23\n"
NILPOTENT_TEXT = "2\n0 1\n0 0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- analyze ---------------------------------------------------------------


def test_analyze_reference_matrix(tmp_path, capsys):
    path = write(tmp_path, "a.txt", A_REF_TEXT)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "P: holds" in out
    assert "Q: holds" in out
    assert "principal minor sums: 6, 7" in out


def test_analyze_identity_inline(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--inline", "3; 1 0 0; 0 1 0; 0 0 1")
    assert code == 0
    assert out.count("holds") == 5


def test_analyze_squared_reference(tmp_path, capsys):
    path = write(tmp_path, "a2.txt", A_SQUARED_TEXT)
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "P0: fails (principal minor at {1} is -1)" in out


def test_analyze_structured(tmp_path, capsys):
    path = write(tmp_path, "a.txt", A_REF_TEXT)
    code, out, _ = run_cli(capsys, "analyze", path, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["command"] == "analyze"
    assert doc["report"]["P"]["holds"] is True


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "2\n1 x\n-1 5\n")
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 2
    assert "line 2, column 3" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/matrix.txt")
    assert code == 2
    assert "cannot read" in err


def test_analyze_guard_override(tmp_path, capsys):
    matrix = render_matrix(RationalMatrix.identity(5))
    path = write(tmp_path, "id5.txt", matrix)
    code, _, err = run_cli(capsys, "analyze", path, "--max-dim", "4")
    assert code == 2
    assert "exceeds" in err


def test_round_trip_through_render(tmp_path, capsys):
    rng = random.Random(77)
    m = random_rational_matrix(rng, 3, num_bound=20, den_bound=7)
    path = write(tmp_path, "m.txt", render_matrix(m))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    assert "n = 3" in out


# -- q2scaling ---------------------------------------------------------------


def test_q2scaling_reference(tmp_path, capsys):
    path = write(tmp_path, "a.txt", A_REF_TEXT)
    code, out, _ = run_cli(capsys, "q2scaling", path)
    assert code == 0
    assert "p1 = 1*d1^2 - 4*d1*d2 + 25*d2^2" in out
    assert "completion: (d1 - 2*d2)^2 + 21*d2^2" in out
    assert "p2 = 49*d1^2*d2^2" in out
    assert "all coefficients nonnegative" in out
    assert "certified for every positive diagonal scaling" in out


def test_q2scaling_refuted(tmp_path, capsys):
    path = write(tmp_path, "nil.txt", NILPOTENT_TEXT)
    code, out, _ = run_cli(capsys, "q2scaling", path)
    assert code == 1
    assert "refuted at D = diag(1, 1)" in out


def test_q2scaling_refuted_by_a_certificate_claims_no_sampling(capsys):
    # p1 is inconclusive and p2's certificate refutes the hypothesis, so sampling never runs
    code, out, _ = run_cli(capsys, "q2scaling", "--inline", "3; -3 4 -4; -1 -4 2; 2 2 5")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "  inconclusive (no certificate applies)"
    assert lines[3] == "  not positive: value -2461472240486273280 at d = (828, 301, 249228)"
    assert lines[-1] == "hypothesis: refuted at D = diag(828, 301, 249228)"
    assert "sampling" not in out


def test_q2scaling_identity(capsys):
    code, out, _ = run_cli(capsys, "q2scaling", "--inline", "2; 1 0; 0 1")
    assert code == 0
    assert out.count("all coefficients nonnegative") == 2


def test_q2scaling_rejects_bad_sampling_flags(capsys):
    # certificates decide the first matrix, sampling runs on the second; both reject the flags
    for matrix in ("2; 1 2; -1 5", "3; 3 0 3; -2 4 3; 4 -1 2"):
        for flag, value in (("--budget", "0"), ("--range", "-1")):
            code, out, err = run_cli(capsys, "q2scaling", "--inline", matrix, flag, value)
            assert (code, out) == (2, "")
            assert "must be" in err


def test_q2scaling_structured(tmp_path, capsys):
    path = write(tmp_path, "a.txt", A_REF_TEXT)
    code, out, _ = run_cli(capsys, "q2scaling", path, "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["hypothesis"] == {"status": "certified_for_all"}
    assert doc["invariants"][1]["polynomial"] == "49*d1^2*d2^2"


# -- reproduce ----------------------------------------------------------------


def test_reproduce_exits_zero_and_is_byte_stable(capsys):
    code_one, out_one, _ = run_cli(capsys, "reproduce")
    code_two, out_two, _ = run_cli(capsys, "reproduce")
    assert code_one == code_two == 0
    assert out_one == out_two
    assert "reproduction: 18/18 checks passed" in out_one


def test_reproduce_structured(capsys):
    code_one, out_one, _ = run_cli(capsys, "reproduce", "--format", "structured")
    code_two, out_two, _ = run_cli(capsys, "reproduce", "--format", "structured")
    assert code_one == code_two == 0
    assert out_one == out_two
    doc = json.loads(out_one)
    assert doc["format_version"] == 1
    assert doc["ok"] is True
    assert all(check["ok"] for check in doc["checks"])


def test_reproduction_self_check_catches_tampering(monkeypatch):
    monkeypatch.setattr(reproduction, "COUNTEREXAMPLE_MATRIX", RationalMatrix(((1, 2), (-1, 4))))
    result = run_reproduction()
    assert not result.ok
    assert result.first_mismatch is not None


@pytest.mark.parametrize(
    "cls, method, check",
    [(Certificate, "verify", "p1 certificate"), (PrincipalMinorWitness, "reverify", "A^2 P0 verdict")],
)
def test_reproduction_rechecks_its_evidence(monkeypatch, cls, method, check):
    monkeypatch.setattr(cls, method, lambda *args: False)
    assert run_reproduction().first_mismatch.name == check


def test_reproduce_exits_nonzero_on_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(reproduction, "COUNTEREXAMPLE_MATRIX", RationalMatrix(((1, 2), (-1, 4))))
    code, out, err = run_cli(capsys, "reproduce")
    assert code == 1
    assert "FAIL" in out
    assert "reproduction mismatch" in err


# -- hunt ------------------------------------------------------------------------


def test_hunt_deterministic_output(capsys):
    args = ("hunt", "--dim", "2", "--entry-range", "5", "--count", "40", "--seed", "3", "--budget", "50")
    code_one, out_one, _ = run_cli(capsys, *args)
    code_two, out_two, _ = run_cli(capsys, *args)
    assert code_one == code_two
    assert out_one == out_two
    assert "examined 40 candidates" in out_one


def test_hunt_finds_reference_counterexample(capsys):
    code, out, _ = run_cli(
        capsys,
        "hunt", "--dim", "2", "--entry-range", "5", "--count", "128", "--seed", "52", "--budget", "50",
    )
    assert code == 1
    assert "matrix: [1 2; -1 5]" in out
    assert "refutes: general, two_by_two, anti_sign_symmetric" in out


def test_hunt_exits_zero_when_it_prints_only_undetermined_reports(capsys):
    # an undetermined report is no counterexample, so the queried negative was not found
    code, out, _ = run_cli(
        capsys,
        "hunt", "--dim", "3", "--entry-range", "2", "--count", "3", "--seed", "11", "--budget", "50",
    )
    assert "verdict: undetermined" in out
    assert out.endswith("examined 3 candidates: 0 counterexample(s), 1 undetermined\n")
    assert code == 0


def test_hunt_structured(capsys):
    code, out, _ = run_cli(
        capsys,
        "hunt", "--dim", "2", "--entry-range", "2", "--count", "10", "--seed", "1",
        "--format", "structured",
    )
    doc = json.loads(out)
    assert doc["summary"]["candidates"] == 10
    assert doc["config"]["entry_range"] == 2
    assert code in (0, 1)


def test_hunt_has_no_range_flag(capsys):
    # --range is q2scaling's sampling exponent; hunt's entry bound is --entry-range
    code, _, err = run_cli(capsys, "hunt", "--dim", "2", "--count", "1", "--range", "5")
    assert code == 2
    assert "--range" in err


def test_hunt_max_dim_raises_every_bound(capsys, monkeypatch):
    # classify(A^2) and the anti-sign scan enforce the enumeration bound too
    monkeypatch.setattr("qscaling.matrices.DEFAULT_ENUMERATION_GUARD", 2)
    assert run_cli(capsys, "hunt", "--dim", "3", "--count", "1", "--budget", "50")[0] == 2
    code, _, err = run_cli(capsys, "hunt", "--dim", "3", "--count", "1", "--budget", "50", "--max-dim", "3")
    assert code in (0, 1), err


def test_hunt_guard_error(capsys):
    code, _, err = run_cli(capsys, "hunt", "--dim", "13", "--count", "1")
    assert code == 2
    assert "exceeds" in err


def test_hunt_invalid_count(capsys):
    code, _, err = run_cli(capsys, "hunt", "--dim", "2", "--count", "0")
    assert code == 2
    assert "count" in err


# -- argparse wiring ---------------------------------------------------------------


def test_missing_command_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_max_dim_help_is_shared_and_names_both_bounds():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    helps = {
        name: sub._option_string_actions["--max-dim"].help
        for name, sub in commands.items()
        if "--max-dim" in sub._option_string_actions
    }
    assert set(helps) == {"analyze", "q2scaling", "hunt"}
    assert len(set(helps.values())) == 1
    text = helps["hunt"]
    assert f"{DEFAULT_ENUMERATION_GUARD} for" in text and f"{DEFAULT_SYMBOLIC_GUARD} for" in text


def test_hunt_mode_choices_are_the_configs(capsys):
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert commands["hunt"]._option_string_actions["--mode"].choices is refute.HUNT_MODES
    code, _, err = run_cli(capsys, "hunt", "--dim", "2", "--count", "1", "--mode", "bogus")
    assert code == 2
    assert "--mode" in err and all(mode in err for mode in refute.HUNT_MODES)


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(capsys, "analyze", "--bogus")[0] == 2
