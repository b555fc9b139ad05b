"""Span recording from outside the package.

While a ``Tracer`` is installed, the layer entry points that ``qscaling.refute``
calls through its module namespace are rebound to wrappers that record a
span (name, start, end, parent, tag) per call; ``uninstall`` puts the
originals back. Spans stay in memory until the benchmark writes them out.
The untraced passes run with no wrapper in place.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

from qscaling import refute

#: refute-namespace name -> span name
LAYERS = {
    "verify_refutation": "refute.verify_refutation",
    "symbolic_q_invariants": "scaling.symbolic_q_invariants",
    "certify_positive_on_orthant": "scaling.certify",
    "sample_refute": "scaling.sample_refute",
    "mat_mul": "matrices.mat_mul",
    "classify": "matrix_classes.classify",
    "is_anti_sign_symmetric": "matrix_classes.is_anti_sign_symmetric",
}

EVIDENCE_KIND = {
    "CoefficientEvidence": "coefficients",
    "QuadraticEvidence": "quadratic",
    "WitnessEvidence": "witness",
    "NoneType": "inconclusive",
}


def _tag(name: str, result, kwargs) -> str | None:
    if name == "scaling.certify":
        return EVIDENCE_KIND[type(result.evidence).__name__]
    if name == "scaling.sample_refute":
        return "hit" if result is not None else f"miss:{kwargs['budget']}"
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, tag]
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        span[4] = _tag(name, result, kwargs)
        return result

    def install(self) -> None:
        for attr, name in LAYERS.items():
            original = getattr(refute, attr)
            self._originals[attr] = original
            setattr(refute, attr, functools.partial(self.call, name, original))

    def uninstall(self) -> None:
        for attr, original in self._originals.items():
            setattr(refute, attr, original)
        self._originals.clear()

    def child_time(self) -> list[float]:
        """Per span, the time covered by its direct children (sequential, so a sum)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def summary(self) -> dict:
        """Per span name: calls, total ms, self ms; per tag: calls and ms."""
        covered = self.child_time()
        out: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for (name, start, end, _, tag), child in zip(self.spans, covered):
            ms = (end - start) * 1e3
            for key in (name, f"{name}:{tag}") if tag else (name,):
                entry = out[key]
                entry["calls"] += 1
                entry["ms"] += ms
                entry["self_ms"] += ms - child * 1e3
        return dict(out)

    def nesting_holds(self) -> bool:
        """Every span's children sum to no more than the span itself."""
        return all(c <= end - start for (_, start, end, _, _), c in zip(self.spans, self.child_time()))
