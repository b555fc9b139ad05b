"""Self-test of the benchmark itself; takes well under a minute.

    python3 perfbench/selftest.py

1. Runs every workload at its smoke size, untraced and traced, and asserts
   that the run is correct and prints every metric BENCHMARK.json names,
   with its unit, both as a ``name = value unit`` line and in the JSON line.
2. Shows that the correctness check can fail: it must reject a
   QuadraticEvidence whose completion was tampered with, and a RefutedAt
   whose D leaves (D*A)^2 a Q-matrix.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/, where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (first: it puts src/ on the import path)
import check  # noqa: E402
from qscaling import (  # noqa: E402
    COUNTEREXAMPLE_MATRIX,
    CertifiedForAll,
    DiagonalScaling,
    HuntConfig,
    QuadraticEvidence,
    RefutedAt,
    verify_refutation,
)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    args = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(
        [sys.executable, *command[1:], *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def test_smoke_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_benchmark(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert result["correct"] and result["failed"] == 0, (workload, trace, done.stderr)
            assert result["attempted"] >= 1
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted, (workload, trace)
            for name, unit in wanted.items():
                assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines), name
            print(f"ok  smoke {workload} trace={trace}")


def test_check_rejects_tampering() -> None:
    inp = workloads.HuntInput(HuntConfig(dimension=2, entry_range=5, count=1), COUNTEREXAMPLE_MATRIX)
    report = verify_refutation(COUNTEREXAMPLE_MATRIX, budget=inp.config.budget)
    assert check.check_hunt_report(inp, report) == []

    certs = list(report.certificates)
    evidence = certs[0].evidence
    assert isinstance(evidence, QuadraticEvidence)
    (m1, form1), rest = evidence.completion[0], evidence.completion[1:]
    tampered = dataclasses.replace(evidence, completion=((m1 + 1, form1), *rest))
    certs[0] = dataclasses.replace(certs[0], evidence=tampered)
    forged = dataclasses.replace(report, hypothesis=CertifiedForAll(tuple(certs)))
    assert "p1 certificate does not verify" in check.check_hunt_report(inp, forged)
    print("ok  check rejects a tampered QuadraticEvidence completion")

    not_refuting = RefutedAt(DiagonalScaling((Fraction(1), Fraction(1))), report.certificates)
    forged = dataclasses.replace(report, hypothesis=not_refuting)
    assert "refuting D leaves (D*A)^2 a Q-matrix" in check.check_hunt_report(inp, forged)
    print("ok  check rejects a D that does not refute")


def test_fails_without_the_package() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run_benchmark(bare, "hunt-d2", 0)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done
    print("ok  exits non-zero without src/")


if __name__ == "__main__":
    test_check_rejects_tampering()
    test_fails_without_the_package()
    test_smoke_runs()
