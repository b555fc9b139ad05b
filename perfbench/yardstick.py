"""A fixed stdlib-Fraction loop that every reported time is measured against.

On a shared 2-core box the speed of one core swings between 1x and ~2.2x
for seconds at a time, depending on what runs on the sibling core; medians
within a run cannot remove a slow stretch that covers most of the run. So
each timed call is divided by the time of this loop taken next to it and
multiplied by ``NOMINAL_S``, the loop's time on an idle core of the box the
benchmark was defined on. The loop uses no qscaling code, so a faster
program still reads faster. Imports nothing but the standard library, so
the fresh interpreters timed for ``setup_s`` and ``reproduce_s`` can use it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

NOMINAL_S = 300e-6

_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(5)) for i in range(5))


def _work() -> Fraction:
    """Fraction elimination plus tuple and dict churn: the op mix of qscaling.

    Under contention the Fraction part alone slowed ~20% more than the
    package's code did; the interpreter-bound part brings the two closer.
    """
    counts: dict = {}
    for i in range(200):
        key = (i % 13, i * 3 % 7, i & 5)
        counts[key] = counts.get(key, 0) + len([x for x in key if x])
    rows = [list(r) for r in _MATRIX]
    det = Fraction(1)
    for k in range(5):
        pivot = next(i for i in range(k, 5) if rows[i][k] != 0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, 5):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


def seconds(repeats: int = 3) -> float:
    """The loop's time now: the fastest of ``repeats`` back-to-back runs."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _work()
        best = min(best, perf_counter() - start)
    return best


def normalised(raw: float, before: float, after: float) -> float:
    """``raw`` seconds expressed at the nominal speed, from the loop times around it."""
    return raw * NOMINAL_S / ((before + after) / 2)
