"""Byte-for-byte CLI output against files recorded before the p_j rewrite.

Each file under ``tests/golden/`` is the stdout of one command, recorded
when p_j still came from the polynomial-matrix expansion and sampling
still ran in Fractions. Faster routes must reproduce it exactly, along
with the exit code.
"""

from pathlib import Path

import pytest

from qscaling.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("reproduce.txt", 0, ["reproduce"]),
    ("hunt_d2.txt", 1, ["hunt", "--dim", "2", "--count", "40", "--seed", "3", "--budget", "50"]),
    ("hunt_d3.txt", 1, ["hunt", "--dim", "3", "--count", "20", "--seed", "0", "--budget", "500"]),
    (
        "hunt_d3.json",
        1,
        ["hunt", "--dim", "3", "--count", "20", "--seed", "0", "--budget", "500", "--format", "structured"],
    ),
    ("hunt_spd_d5.txt", 0, ["hunt", "--dim", "5", "--mode", "spd", "--count", "5"]),
    ("q2_ref.txt", 0, ["q2scaling", "--inline", "2; 1 2; -1 5"]),
    ("q2_inconclusive_d3.txt", 0, ["q2scaling", "--inline", "3; 3 0 3; -2 4 3; 4 -1 2"]),
]


@pytest.mark.parametrize("name, exit_code, argv", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_recording(capsys, name, exit_code, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert out.encode() == (GOLDEN / name).read_bytes()
