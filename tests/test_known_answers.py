"""Counterexamples known by construction, moved by the symmetries of the question.

The bundled 2x2 counterexample ``ref = [[1, 2], [-1, 5]]`` stays a
counterexample inside a direct sum with any block whose p_j are positive
on the orthant: each p_j of the sum is a sum of positive products of the
blocks' p_j (``tests/test_symmetry.py`` holds that convolution exactly),
and the square of the sum fails P0+ where the square of ``ref`` does.
``I_k``, ``ref`` and the second 2x2 counterexample ``[[3, 2], [-1, 1]]``
are such blocks, so ``ref ⊕ I_k`` (k = 4, 5, 6), ``ref ⊕ ref``,
``ref ⊕ ref ⊕ I_2`` and ``ref ⊕ [[3, 2], [-1, 1]]`` are counterexamples
of n = 4 to 8. A
permutation similarity P A P^T and a +-1 signature similarity S A S keep
every p_j (up to relabelling d), the P0+ verdict of the square and
anti-sign symmetry, so each transform is a counterexample with the same
refuted claims.

``ref ⊕ I_k`` is anti-sign symmetric, as ``ref`` and ``I_k`` are. Two
anti-sign blocks are not: a minor pair that mixes rows of one block with
columns of the other breaks the mirrored-pair condition, so the other
three refute the general claim alone.

Every reading here rests on sampling: no evidence kind certifies the
middle p_j yet, nor a positive form in three or more variables. The
grade CERTIFIED is a strict xfail naming the ROADMAP items that flip it,
as the ROADMAP measured them: items 1 and 24 certify every middle p_j of
``ref ⊕ I_k``, ``ref ⊕ ref`` and ``ref ⊕ ref ⊕ I_2``, and
``ref ⊕ [[3, 2], [-1, 1]]`` needs the walk of item 2 as well as item 1.
"""

import random
from functools import cache

import pytest

from qscaling import (
    COUNTEREXAMPLE_MATRIX,
    Claim,
    EvidenceGrade,
    RationalMatrix,
    VerdictKind,
    verify_refutation,
)

from helpers import permutation_similarity


def _direct_sum(*blocks: RationalMatrix) -> RationalMatrix:
    n = sum(block.n for block in blocks)
    rows, before = [], 0
    for block in blocks:
        rows.extend((0,) * before + row + (0,) * (n - before - block.n) for row in block.rows)
        before += block.n
    return RationalMatrix(tuple(rows))


REF = COUNTEREXAMPLE_MATRIX
SECOND = RationalMatrix(((3, 2), (-1, 1)))

#: name -> (matrix, refuted claims, the items that make its grade CERTIFIED)
CORPUS = {
    **{
        f"ref+I{k}": (
            _direct_sum(REF, RationalMatrix.identity(k)),
            (Claim.GENERAL, Claim.ANTI_SIGN_SYMMETRIC),
            "1 and 24",
        )
        for k in (4, 5, 6)
    },
    "ref+ref": (_direct_sum(REF, REF), (Claim.GENERAL,), "1 and 24"),
    "ref+ref+I2": (_direct_sum(REF, REF, RationalMatrix.identity(2)), (Claim.GENERAL,), "1 and 24"),
    "ref+[[3,2],[-1,1]]": (_direct_sum(REF, SECOND), (Claim.GENERAL,), "1 and 2"),
}

TRANSFORMS = ["as-is", "permutation", "signature"]


def _transformed(name: str, transform: str) -> RationalMatrix:
    """The corpus matrix ``name`` as it is, or under a P A P^T or S A S that moves it, drawn from a fixed seed."""
    matrix = CORPUS[name][0]
    n, rng = matrix.n, random.Random(f"known-answers:{name}:{transform}")
    while transform != "as-is":
        if transform == "permutation":
            moved = permutation_similarity(matrix, rng.sample(range(n), n))
        else:
            s = [rng.choice((-1, 1)) for _ in range(n)]
            rows = matrix.rows
            moved = RationalMatrix(tuple(tuple(s[i] * rows[i][j] * s[j] for j in range(n)) for i in range(n)))
        # a draw that leaves the matrix as it is would read it twice
        if moved != matrix:
            return moved
    return matrix


@cache
def _verdict(name: str, transform: str):
    matrix = _transformed(name, transform)
    return verify_refutation(matrix, budget=200, seed=0, max_dim=matrix.n).verdict


READINGS = [(name, transform) for name in CORPUS for transform in TRANSFORMS]


@pytest.mark.parametrize("name, transform", READINGS)
def test_a_constructed_counterexample_is_found_under_each_symmetry(name, transform):
    verdict = _verdict(name, transform)
    assert verdict.kind is VerdictKind.COUNTEREXAMPLE
    assert verdict.refuted_claims == CORPUS[name][1]


@pytest.mark.parametrize(
    "name, transform",
    [
        pytest.param(name, transform, marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP items {CORPUS[name][2]}"))
        for name, transform in READINGS
    ],
)
def test_a_constructed_counterexample_is_certified(name, transform):
    assert _verdict(name, transform).evidence_grade is EvidenceGrade.CERTIFIED
