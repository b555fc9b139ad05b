"""Inputs of the benchmark workloads, made from a seed.

Each hunt workload is a list of single-candidate ``HuntConfig``s: input k is
the first candidate of ``HuntConfig(seed=k, count=1, ...)``, so every timed
call goes through the public ``hunt()`` and the candidate is fixed by k.

hunt-d3 draws its candidates from a labelled pool (``hunt_d3_pool.json``).
About a quarter of 3x3 candidates leave some p_j INCONCLUSIVE and fall
through to ``sample_refute``, which costs ~20x a decided candidate; about a
fifth are decided although some p_j is INCONCLUSIVE, after a grid search
that takes ~30 ms when p_1 is the first INCONCLUSIVE p_j and ~45 ms when a
later one is; the rest are decided in a few ms. Drawing these shares by
chance makes the run time and the median swing with the seed by more than
any bound worth having, so each seed draws a fixed number from each
stratum (see ``HUNT_WORKLOADS``). The labels were made once at the commit
that defined the benchmark (see ``label_pool``) and never follow the
program under test, so a later strategy that decides more of the "sampled"
stratum shows up as a higher ``decided_share`` on the same inputs.

Run ``python3 perfbench/workloads.py label-pool`` to rebuild the labels.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from qscaling import HuntConfig, RationalMatrix  # noqa: E402
from qscaling.refute import generate_candidates  # noqa: E402

POOL_FILE = Path(__file__).with_name("hunt_d3_pool.json")
POOL_SIZE = 1200

#: per workload, full size and the seconds-long smoke size used by selftest.py
HUNT_WORKLOADS = {
    # budget 500 (not the CLI default) keeps one pass near 5 s, so a run
    # holds three passes and reports medians; sampling is still ~2/3 of it.
    # The pool is 298 sampled / 120 inconclusive_p1 / 116 inconclusive_later
    # / 666 clean of 1200. This mix puts the median inside the
    # "inconclusive_p1" stratum and p90 inside the "sampled" one, where
    # the draws move them least between seeds (a free or proportional draw
    # puts the median on the edge of a cluster).
    "hunt-d3": dict(dimension=3, entry_range=5, mode="all", budget=500,
                    full=dict(sampled=25, inconclusive_p1=40, inconclusive_later=15, clean=20),
                    smoke=dict(sampled=2, inconclusive_p1=1, inconclusive_later=1, clean=4)),
    "hunt-spd-d5": dict(dimension=5, entry_range=5, mode="spd", budget=2000,
                        full=dict(count=34), smoke=dict(count=2)),
    "hunt-d2": dict(dimension=2, entry_range=5, mode="all", budget=2000,
                    full=dict(count=3000), smoke=dict(count=60)),
}
#: classify-wide: (n, upper-triangular count, random count). One n=9 pair
#: costs ~4 s and one n=8 pair ~1.3 s, too few latency samples for a p90
#: in one run. Fewer random matrices than triangular ones keep the median
#: and p90 inside the worst-case cluster rather than on the gap between.
CLASSIFY_SIZES = {"full": (7, 24, 10), "smoke": (5, 2, 2)}
WORKLOADS = (*HUNT_WORKLOADS, "classify-wide")

#: seed stride between runs, so hunt seeds of different run seeds never meet
_SEED_STRIDE = 1_000_000


@dataclass(frozen=True)
class HuntInput:
    config: HuntConfig
    candidate: RationalMatrix


@dataclass(frozen=True)
class ClassifyInput:
    matrix: RationalMatrix
    triangular: bool


def _hunt_config(spec: dict, seed: int) -> HuntConfig:
    return HuntConfig(
        dimension=spec["dimension"],
        entry_range=spec["entry_range"],
        count=1,
        budget=spec["budget"],
        seed=seed,
        mode=spec["mode"],
    )


def _hunt_seeds(name: str, seed: int, size: dict) -> list[int]:
    if name != "hunt-d3":
        return [seed * _SEED_STRIDE + i for i in range(size["count"])]
    strata = json.loads(POOL_FILE.read_text())["strata"]
    rng = random.Random(f"{name}:{seed}")
    picks = [k for stratum, count in size.items() for k in rng.sample(strata[stratum], count)]
    rng.shuffle(picks)
    return picks


def _classify_inputs(seed: int, scale: str) -> list[ClassifyInput]:
    n, uppers, randoms = CLASSIFY_SIZES[scale]
    rng = random.Random(f"classify-wide:{seed}")
    out = []
    for _ in range(uppers):
        # dense upper-triangular: one minor of every mirrored pair is 0,
        # so the anti-sign scan finds no violation and visits every pair
        upper = tuple(
            tuple(
                rng.randint(1, 5) if j == i else rng.choice((-1, 1)) * rng.randint(1, 5) if j > i else 0
                for j in range(n)
            )
            for i in range(n)
        )
        out.append(ClassifyInput(RationalMatrix(upper), True))
    for _ in range(randoms):
        out.append(ClassifyInput(RationalMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))), False))
    rng.shuffle(out)
    return out


def make_inputs(name: str, seed: int, scale: str = "full") -> list:
    """The workload's inputs for ``seed``; the same seed gives the same inputs."""
    if name == "classify-wide":
        return _classify_inputs(seed, scale)
    spec = HUNT_WORKLOADS[name]
    inputs = []
    for k in _hunt_seeds(name, seed, spec[scale]):
        cfg = _hunt_config(spec, k)
        inputs.append(HuntInput(cfg, next(generate_candidates(cfg))))
    return inputs


def label_pool() -> dict:
    """Sort pool candidates 0..POOL_SIZE-1 into the hunt-d3 strata.

    "sampled": the certificates leave the hypothesis open, so it reaches
    sample_refute; "inconclusive_p1" / "inconclusive_later": decided, but
    p_1 / only a later p_j is INCONCLUSIVE; "clean": every p_j settled by a
    certificate.
    """
    from qscaling import CertificateVerdict, refute

    reached = []

    def record(*args, **kwargs):
        reached.append(True)
        return None

    strata: dict[str, list[int]] = {"sampled": [], "inconclusive_p1": [], "inconclusive_later": [], "clean": []}
    original = refute.sample_refute
    refute.sample_refute = record
    try:
        for k in range(POOL_SIZE):
            cfg = _hunt_config(HUNT_WORKLOADS["hunt-d3"], k)
            reached.clear()
            report = refute.verify_refutation(next(generate_candidates(cfg)), budget=cfg.budget, seed=k * 1_000_003)
            if reached:
                strata["sampled"].append(k)
            elif report.certificates[0].verdict is CertificateVerdict.INCONCLUSIVE:
                strata["inconclusive_p1"].append(k)
            elif any(c.verdict is CertificateVerdict.INCONCLUSIVE for c in report.certificates):
                strata["inconclusive_later"].append(k)
            else:
                strata["clean"].append(k)
    finally:
        refute.sample_refute = original
    return {"pool_size": POOL_SIZE, "strata": strata}


if __name__ == "__main__":
    if sys.argv[1:] != ["label-pool"]:
        sys.exit("usage: python3 perfbench/workloads.py label-pool")
    POOL_FILE.write_text(json.dumps(label_pool()) + "\n")
