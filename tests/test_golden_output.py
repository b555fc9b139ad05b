"""Byte-for-byte CLI output against recordings.

Each file under ``tests/golden/`` is the stdout of one command. The
``reproduce``, ``hunt`` and other text ``q2scaling`` files were recorded
when p_j still came from the polynomial-matrix expansion and sampling still
ran in Fractions; the ``analyze`` files and ``q2_ref.json`` were recorded before
the anti-sign scan was merged into one routine and the q2scaling renderers
were shared with the report; ``reproduce.json`` was recorded while
``reproduce`` still ran each stage itself and then ``verify_refutation``
again, and while principal minors were still enumerated in Fractions; the
``analyze_fractional_pair`` files were recorded while the anti-sign pair
scan still evaluated Fraction determinants; ``q2_psd_singular_d3.txt`` was
recorded while only strict copositivity let the sampling skip its draws, so
it still drew for this matrix; ``hunt_d4.txt`` was recorded while a fixed
point search, not copositivity, gave the witnesses of non-positive p_j;
``q2_refuted_d2.txt`` was recorded once a failing two-variable quadratic
took the copositivity witness adj(M) 1; ``analyze_late_pair_d7.txt`` was
recorded while the anti-sign scan still evaluated each minor of a pair
separately; ``analyze_zero_pivots_d6.txt`` was recorded while every principal
minor was still its own kernel call; ``q2_kernel_d2.txt`` and
``q2_kernel_vertices_d3.txt`` were recorded while the vertices of a positive
kernel vector still came from Cramer's rule on bordered systems;
``hunt_nonsingular_d3.txt`` was recorded while each hunt candidate was still
drawn as a Fraction matrix and the nonsingular redraw still took its Fraction
determinant; ``analyze_permuted_upper_d7.txt`` was recorded while each
compound row of the anti-sign scan was still its own Bareiss elimination;
``q2_block4_witness_d5.txt`` was recorded while each row of adj(B) in the
copositivity test was still a branching Bareiss elimination of the rows of
B without one of them; ``hunt_ternary_d4.txt`` was recorded while ``hunt``
still classified A^2 and scanned A for anti-sign symmetry on candidates whose
hypothesis was already refuted. Later routes must reproduce every file exactly, along with the exit code.
"""

from pathlib import Path

import pytest

from qscaling.cli import main

GOLDEN = Path(__file__).parent / "golden"
UPPER_5 = "5; 1 1/2 -2 3 1/3; 0 2 5/4 -1 7; 0 0 3 2/3 -4; 0 0 0 1/5 6; 0 0 0 0 4"
FRACTIONAL_2 = "2; 1/2 1/3; 1/5 1"
ZERO_PIVOTS_6 = "6; 1 2 0 1 -1 0; 2 4 1 0 2 1; 0 1 0 3 1 -1; 1 0 3 -2 0 2; -1 2 1 0 0 1; 0 1 -1 2 1 3"
PERMUTED_UPPER_7 = (
    "7; 1/3 0 5/3 0 5 0 1/3; -5/2 1/3 3 3/2 3 -5 -1; 0 0 1 0 0 0 0; 5 0 -2/3 2 -4 0 2; "
    "0 0 -3 0 2 0 0; -5/3 0 -5/3 -1 -4 5/3 6; 0 0 -1/3 0 -1 0 3/2"
)
BLOCK4_WITNESS_5 = "5; -1 0 0 1 -3; -3 -3 0 2 -3; -3 -3 3 2 2; -2 -2 -2 -3 -1; 0 -2 -2 1 -2"
LATE_PAIR_7 = "7; -3 0 2 0 0 0 1; 0 -1/2 0 0 3/2 -3/2 0; 0 0 -2/3 0 0 2 0; 0 0 0 2/3 0 0 0; 0 0 0 0 -1 0 0; 0 0 0 0 0 3 -1; -1/3 0 0 0 0 0 1"

CASES = [
    ("reproduce.txt", 0, ["reproduce"]),
    ("reproduce.json", 0, ["reproduce", "--format", "structured"]),
    ("hunt_d2.txt", 1, ["hunt", "--dim", "2", "--count", "40", "--seed", "3", "--budget", "50"]),
    ("hunt_d3.txt", 1, ["hunt", "--dim", "3", "--count", "20", "--seed", "0", "--budget", "500"]),
    (
        "hunt_d3.json",
        1,
        ["hunt", "--dim", "3", "--count", "20", "--seed", "0", "--budget", "500", "--format", "structured"],
    ),
    # n = 4: the middle p_2 is left to sampling
    ("hunt_d4.txt", 1, ["hunt", "--dim", "4", "--count", "40", "--seed", "0", "--budget", "2000"]),
    ("hunt_spd_d5.txt", 0, ["hunt", "--dim", "5", "--mode", "spd", "--count", "5"]),
    # entries in {-1, 0, 1}: 1 certified counterexample and 13 undetermined among 274 candidates
    (
        "hunt_ternary_d4.txt",
        1,
        ["hunt", "--dim", "4", "--entry-range", "1", "--count", "274", "--seed", "1", "--budget", "200"],
    ),
    # 6 singular draws are skipped on the way to the 20th candidate; 0 counterexamples and
    # 2 undetermined reports, so the exit code is 0
    (
        "hunt_nonsingular_d3.txt",
        0,
        ["hunt", "--dim", "3", "--mode", "nonsingular", "--entry-range", "1", "--count", "20", "--seed", "0", "--budget", "500"],
    ),
    ("q2_ref.txt", 0, ["q2scaling", "--inline", "2; 1 2; -1 5"]),
    # p_1 = d1^2 - 12*d1*d2 + d2^2 fails at adj(M)*1 = (1, 1), the point copositivity gives
    ("q2_refuted_d2.txt", 1, ["q2scaling", "--inline", "2; 1 2; -3 1"]),
    ("q2_inconclusive_d3.txt", 0, ["q2scaling", "--inline", "3; 3 0 3; -2 4 3; 4 -1 2"]),
    # p_1 = d1^2 + (2*d2 - d3)^2: M_1 is PSD and singular, with no positive kernel vector
    ("q2_psd_singular_d3.txt", 0, ["q2scaling", "--inline", "3; 1 -2 -2; 0 -2 -2; 0 1 -1"]),
    # p_1 = (d1 - d2)^2: the witness d = (1, 1) is the kernel line of M_1
    ("q2_kernel_d2.txt", 1, ["q2scaling", "--inline", "2; 1 1; -1 1"]),
    # p_2 = d1^2 (9 d2 - 4 d3)^2: its form has the kernel vertices e_1 and (0, 9/13, 4/13),
    # whose average gives d = (36, 52, 117)
    ("q2_kernel_vertices_d3.txt", 1, ["q2scaling", "--inline", "3; 3 -2 2; -3 -1 1; 1 -2 2"]),
    # p_1's form first fails Cottle-Habetler-Lemke at a 4x4 principal block: d = (205, 1, 103, 105, 128);
    # p_4's form fails with d = (13, 65, 65, 65, 5)
    ("q2_block4_witness_d5.txt", 1, ["q2scaling", "--inline", BLOCK4_WITNESS_5]),
    ("q2_ref.json", 0, ["q2scaling", "--format", "structured", "--inline", "2; 1 2; -1 5"]),
    # upper triangular: the anti-sign scan finds no violation and visits every pair
    ("analyze_upper5.txt", 0, ["analyze", "--inline", UPPER_5]),
    ("analyze_upper5.json", 0, ["analyze", "--format", "structured", "--inline", UPPER_5]),
    # the first anti-sign violation is at order 3, ({1,2,3}, {2,3,4})
    ("analyze_order3_pair.txt", 0, ["analyze", "--inline", "4; -2 3 0 0; -2 -2 0 -1; 1 -2 -1 0; 2 2 -3 0"]),
    # rational entries: the pair ({1}, {2}) is found on q*A, and its minors 1/3 and 1/5 are divided back
    ("analyze_fractional_pair.txt", 0, ["analyze", "--inline", FRACTIONAL_2]),
    ("analyze_fractional_pair.json", 0, ["analyze", "--format", "structured", "--inline", FRACTIONAL_2]),
    # 7x7 rational: the first violation is the order-3 pair ({1,3,6}, {1,3,7}), rows 7 and 8 of the compound
    ("analyze_late_pair_d7.txt", 0, ["analyze", "--inline", LATE_PAIR_7]),
    # the prefix tree meets zero pivots with descendants at {3}, {5}, {1,2}, {1,3}, {4,5} and {2,3,5}
    ("analyze_zero_pivots_d6.txt", 0, ["analyze", "--inline", ZERO_PIVOTS_6]),
    # P U P^T of a rational upper-triangular U, itself not triangular: the anti-sign
    # scan finds no violation at n = 7 and visits every pair of every order
    ("analyze_permuted_upper_d7.txt", 0, ["analyze", "--inline", PERMUTED_UPPER_7]),
]


@pytest.mark.parametrize("name, exit_code, argv", CASES, ids=[case[0] for case in CASES])
def test_cli_output_matches_recording(capsys, name, exit_code, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert out.encode() == (GOLDEN / name).read_bytes()
