"""qscaling benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload hunt-d3 --seed 0 --seconds 10 --trace 0

Runs from the repository root and imports the package from ``src/`` as a
library; nothing is installed or built. A run

1. analyses every input once untimed, as the reference output that the
   independent checks in ``check.py`` re-verify (this also warms caches);
2. repeats timed passes over the inputs until ``--seconds`` have passed, at
   least three passes and at least 100 latency samples. Each call's time is
   expressed at the nominal speed of ``yardstick.py``. Between calls it
   times the fresh interpreters behind ``setup_s`` (import qscaling, make
   the inputs) and, with ``--trace 1`` only, ``cli.reproduce_s``
   (``qscaling reproduce``). With ``--trace 1`` the passes alternate
   untraced / traced (``spans.py``) and only per-layer metrics are printed;
3. re-checks every reference output independently (``check.py``), and
   runs ``qscaling reproduce``, which must pass 18/18 checks;
4. compares every timed output with the reference output, derives the
   deterministic counters and a digest of the verdicts, and asserts that
   they equal what earlier runs of the same workload, seed and code (a hash
   of ``src/qscaling`` and ``perfbench``) recorded in
   ``.perfbench/ledger.json``.

It prints one ``name = value unit`` line per metric, then the counters and
run metadata, and last a JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``. Seed 7331 is held out: a change that claims a
gain must also hold there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
HELD_OUT_SEED = 7331
MIN_PASSES = 3
MIN_SAMPLES = 100
CHILD_REPEATS = 11
#: a fresh yardstick timing is taken when the last one is older than this
YARDSTICK_EVERY_S = 0.02

END_TO_END = {
    "setup_s": "s",
    "inputs_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "decided_share": "share",
    "peak_rss_mb": "MB",
}
CERT_KINDS = ("coefficients", "quadratic", "witness", "inconclusive")
PER_LAYER = {
    "scaling.sample_refute.ms": "ms",
    "scaling.sample_refute.hits": "count",
    "scaling.sample_refute.misses": "count",
    "scaling.sample_refute.ms_per_1k_draws": "ms",
    "scaling.symbolic_q_invariants.ms": "ms",
    "scaling.symbolic_q_invariants.calls": "count",
    "scaling.symbolic_q_invariants.monomials": "count",
    "scaling.certify.ms": "ms",
    **{f"scaling.certify.{k}.{q}": u for k in CERT_KINDS for q, u in (("count", "count"), ("ms", "ms"))},
    "matrix_classes.classify.ms": "ms",
    "matrix_classes.classify.calls": "count",
    "matrix_classes.is_anti_sign_symmetric.ms": "ms",
    "matrix_classes.anti_sign.full_scans": "count",
    "matrix_classes.principal_minor_sums.ms": "ms",
    "matrices.mat_mul.ms": "ms",
    "matrices.minors_evaluated": "count",
    "refute.verify_refutation.ms": "ms",
    "refute.self_ms": "ms",
    "reproduction.run_reproduction.ms": "ms",
    "cli.reproduce_s": "s",
    "trace.overhead_share": "share",
}

# Fresh-interpreter children; argv[1:3] are perfbench/ and src/. Each child
# times its own work, from before the first import of the package to the
# end, then times the yardstick (after, so that the yardstick's own imports
# stay out of the measurement; the fastest of 24 runs, as the first runs in
# a fresh process scatter) and reports both on its last stderr line.
# The interpreter's start-up and exit (~20-40 ms, none of it the package's)
# are left out: under contention they slow unlike Python code does, and
# the wall time of the whole child is printed as the raw value instead.
SETUP_CODE = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.make_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5]); took = time.perf_counter() - start; "
    "import yardstick; print('timing', took, yardstick.seconds(24), file=sys.stderr)"
)
REPRODUCE_CODE = (
    "import sys, time; start = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "from qscaling.cli import main; code = main(['reproduce']); took = time.perf_counter() - start; "
    "import yardstick; print('timing', took, yardstick.seconds(24), file=sys.stderr); sys.exit(code)"
)


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


class Children:
    """Times the fresh-interpreter children, spread over the timed passes.

    The machine's speed changes every few seconds, so the children run one
    at a time between timed calls (never inside one) across the whole run,
    not in one burst; ``finish`` runs whatever is still missing.
    """

    def __init__(self, seconds: float, jobs: dict[str, tuple[str, ...]]):
        self.jobs = jobs  # metric name -> (code, *args)
        self.normalised: dict[str, list[float]] = {name: [] for name in jobs}
        self.raw: dict[str, list[float]] = {name: [] for name in jobs}
        self.done: dict[str, list[subprocess.CompletedProcess]] = {name: [] for name in jobs}
        self.interval = seconds / (CHILD_REPEATS * len(jobs) + 1)
        self.next_at = perf_counter() + self.interval

    def run_one(self) -> None:
        name = min(self.jobs, key=lambda n: len(self.done[n]))
        start = perf_counter()
        child = run_child(*self.jobs[name])
        raw = perf_counter() - start
        last = (child.stderr.strip().splitlines() or [""])[-1].split()
        # a child that failed (reported as a problem by the caller) counts at its raw time
        ok = child.returncode == 0 and last[:1] == ["timing"]
        self.normalised[name].append(float(last[1]) * yardstick.NOMINAL_S / float(last[2]) if ok else raw)
        self.raw[name].append(raw)
        self.done[name].append(child)

    def between_calls(self) -> None:
        if perf_counter() >= self.next_at and min(map(len, self.done.values())) < CHILD_REPEATS:
            self.run_one()
            self.next_at = perf_counter() + self.interval

    def finish(self) -> None:
        while min(map(len, self.done.values())) < CHILD_REPEATS:
            self.run_one()


# ---------------------------------------------------------------------------
# Workload adapters: the timed call, the reference call and its check


class HuntWorkload:
    def __init__(self, inputs):
        from qscaling import refute

        self.inputs = inputs
        self.refute = refute

    def timed(self, inp):
        return self.refute.hunt(inp.config)

    def traced(self, tracer, inp):
        return tracer.call("refute.hunt", self.refute.hunt, inp.config)

    def reference_output(self, inp):
        cfg = inp.config
        # hunt() analyses candidate `index` with sampling seed cfg.seed * 1_000_003 + index
        return self.refute.verify_refutation(
            inp.candidate, budget=cfg.budget, seed=cfg.seed * 1_000_003, exponent_range=cfg.exponent_range
        )

    def expected_output(self, report):
        return [] if report.verdict.kind is self.refute.VerdictKind.CONSISTENT else [report]

    def check(self, inp, report):
        return check.check_hunt_report(inp, report)

    def to_dict(self, report):
        return report.to_dict()

    def count(self, c: dict, report) -> None:
        from qscaling import CertificateVerdict, CertifiedForAll, NoCounterexampleFound, RefutedAt

        hypothesis = report.hypothesis
        sampled = isinstance(hypothesis, NoCounterexampleFound) or (
            isinstance(hypothesis, RefutedAt)
            and all(cert.verdict is not CertificateVerdict.NOT_POSITIVE for cert in report.certificates)
        )
        c["decided"] += isinstance(hypothesis, (CertifiedForAll, RefutedAt))
        if sampled:
            hit = isinstance(hypothesis, RefutedAt)
            c["sample_refute.hits" if hit else "sample_refute.misses"] += 1
            c["sample_refute.miss_draws"] += 0 if hit else hypothesis.budget
        c["symbolic.calls"] += 1
        c["symbolic.monomials"] += sum(len(p.terms()) for p in report.polynomials)
        for cert in report.certificates:
            c[f"certify.{spans.EVIDENCE_KIND[type(cert.evidence).__name__]}"] += 1
        c["classify.calls"] += 1
        c["anti_sign.full_scans"] += report.conclusion.anti_sign_symmetric.holds + report.anti_sign.holds
        # classify(A^2), then is_anti_sign_symmetric(A)
        c["minors_evaluated.computed"] += _classify_minors(report.conclusion) + 2 * _pairs_scanned(
            report.matrix.n, report.anti_sign.witness
        )


class ClassifyWorkload:
    def __init__(self, inputs):
        from qscaling import classify, principal_minor_sums

        self.inputs = inputs
        self.classify, self.sums = classify, principal_minor_sums

    def timed(self, inp):
        return self.classify(inp.matrix), self.sums(inp.matrix)

    def traced(self, tracer, inp):
        return (
            tracer.call("matrix_classes.classify", self.classify, inp.matrix),
            tracer.call("matrix_classes.principal_minor_sums", self.sums, inp.matrix),
        )

    reference_output = timed

    def expected_output(self, output):
        return output

    def check(self, inp, output):
        return check.check_classify_output(inp, output)

    def to_dict(self, output):
        report, sums = output
        return {"classify": report.to_dict(), "principal_minor_sums": [str(c) for c in sums]}

    def count(self, c: dict, output) -> None:
        report, _ = output
        c["decided"] += 1
        c["classify.calls"] += 1
        c["anti_sign.full_scans"] += report.anti_sign_symmetric.holds
        # classify only: the minors principal_minor_sums evaluates follow from
        # its algorithm, not from its output, so they are not counted
        c["minors_evaluated.computed"] += _classify_minors(report)


# ---------------------------------------------------------------------------
# Deterministic counters, derived from the reference outputs


def _pairs_scanned(n: int, witness) -> int:
    """Mirrored pairs the anti-sign scan visits before stopping at ``witness``."""
    total = 0
    for k in range(1, n + 1):
        m = comb(n, k)
        if witness is not None and len(witness.row_set) == k:
            subsets = list(combinations(range(1, n + 1), k))
            a, b = subsets.index(witness.row_set.members), subsets.index(witness.col_set.members)
            return total + sum(m - 1 - i for i in range(a)) + (b - a)
        total += m * (m - 1) // 2
    return total


def _classify_minors(report) -> int:
    return (2**report.n - 1) + 2 * _pairs_scanned(report.n, report.anti_sign_symmetric.witness)


def counters(workload, outputs) -> dict:
    c = dict.fromkeys(
        [
            "decided",
            "sample_refute.hits",
            "sample_refute.misses",
            "sample_refute.miss_draws",
            "symbolic.calls",
            "symbolic.monomials",
            *(f"certify.{k}" for k in CERT_KINDS),
            "classify.calls",
            "anti_sign.full_scans",
            "minors_evaluated.computed",
        ],
        0,
    )
    c["inputs"] = len(outputs)
    for output in outputs:
        workload.count(c, output)
    return c


# ---------------------------------------------------------------------------
# Passes


class Pass(NamedTuple):
    tracer: spans.Tracer | None  # None for an untraced pass
    latencies: list[float]  # normalised seconds per call
    raw: list[float]  # wall-clock seconds per call
    reference: float  # median yardstick seconds during the pass

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def one_pass(workload, tracer=None, children: Children | None = None) -> tuple[Pass, list, list[str]]:
    """Analyse every input once; return the timings, the outputs and any tracebacks."""
    calls, outputs, errors = [], [], []  # calls: (raw seconds, index of the yardstick timing before it)
    refs = [yardstick.seconds()]
    last_ref = perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for inp in workload.inputs:
            if children is not None:
                children.between_calls()
            if perf_counter() - last_ref > YARDSTICK_EVERY_S:
                if tracer is not None:
                    tracer.uninstall()
                refs.append(yardstick.seconds())
                last_ref = perf_counter()
                if tracer is not None:
                    tracer.install()
            t0 = perf_counter()
            try:
                out = workload.timed(inp) if tracer is None else workload.traced(tracer, inp)
            except Exception:  # an input that raises is counted as failed; the run goes on
                errors.append(traceback.format_exc())
                out = None
            calls.append((perf_counter() - t0, len(refs) - 1))
            outputs.append(out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    refs.append(yardstick.seconds())
    latencies = [yardstick.normalised(raw, refs[i], refs[i + 1]) for raw, i in calls]
    return Pass(tracer, latencies, [raw for raw, _ in calls], statistics.median(refs)), outputs, errors


def run(name: str, seed: int, seconds: float, traced: bool, scale: str) -> tuple[dict, list]:
    result: dict = {"metrics": {}, "problems": [], "attempted": 0, "failed": 0}
    problems = result["problems"]
    raw: dict = {}
    inputs = workloads.make_inputs(name, seed, scale)
    workload = ClassifyWorkload(inputs) if name == "classify-wide" else HuntWorkload(inputs)
    reference = [workload.reference_output(inp) for inp in inputs]
    expected = [workload.expected_output(r) for r in reference]

    passes: list[Pass] = []
    jobs = {"setup_s": (SETUP_CODE, name, str(seed), scale)}
    if traced:  # cli.reproduce_s is a per-layer metric
        jobs["reproduce_s"] = (REPRODUCE_CODE,)
    children = Children(seconds, jobs)
    deadline = perf_counter() + seconds
    while (
        len(passes) < (2 if traced else MIN_PASSES)
        or perf_counter() < deadline
        or (scale == "full" and sum(len(p.latencies) for p in passes if p.tracer is None) < MIN_SAMPLES)
    ):
        one, outputs, errors = one_pass(
            workload, spans.Tracer() if traced and len(passes) % 2 == 1 else None, children
        )
        passes.append(one)
        result["attempted"] += len(inputs)
        bad = sum(out != exp for out, exp in zip(outputs, expected))
        result["failed"] += bad
        if bad:
            problems.append(f"{bad} timed outputs differ from the reference output")
        problems += errors[:1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bad_inputs = 0
    for inp, ref in zip(inputs, reference):
        found = workload.check(inp, ref)
        if found:
            bad_inputs += 1
            problems.append(f"{inp}: {found}")
    result["failed"] += bad_inputs * len(passes)

    result["counters"] = counters(workload, reference)
    result["digest"] = hashlib.sha256(
        json.dumps([workload.to_dict(r) for r in reference], sort_keys=True).encode()
    ).hexdigest()

    untraced = [p for p in passes if p.tracer is None]
    latencies = [x for p in untraced for x in p.latencies]
    result["samples"] = {"passes": len(untraced), "latency_samples": len(latencies), "inputs": len(inputs)}
    children.finish()
    failed_setups = [c for c in children.done["setup_s"] if c.returncode]
    problems += [f"setup child failed: {c.stderr.strip()[-300:]}" for c in failed_setups]
    # untimed when untraced: the 18/18 check needs only one reproduce child
    reproduced = children.done.get("reproduce_s") or [run_child(REPRODUCE_CODE)]
    for child in reproduced:
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines or lines[-1] != "reproduction: 18/18 checks passed":
            problems.append(f"qscaling reproduce failed: {child.stdout[-300:]} {child.stderr[-300:]}")
            result["failed"] += 1
    result["attempted"] += len(reproduced)
    for key in children.jobs:
        raw[key] = statistics.median(children.raw[key])

    m = result["metrics"]
    if not traced:
        c = result["counters"]
        m.update(
            {
                "setup_s": statistics.median(children.normalised["setup_s"]),
                "inputs_per_s": len(inputs) / statistics.median(p.seconds for p in untraced),
                "latency_ms.p50": statistics.median(latencies) * 1e3,
                "latency_ms.p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
                "decided_share": c["decided"] / c["inputs"],
                "peak_rss_mb": peak_rss_mb,
            }
        )
        raw_latencies = [x for p in untraced for x in p.raw]
        raw.update(
            {
                "inputs_per_s": len(inputs) / statistics.median(sum(p.raw) for p in untraced),
                "latency_ms.p50": statistics.median(raw_latencies) * 1e3,
                "latency_ms.p90": statistics.quantiles(raw_latencies, n=10)[8] * 1e3,
                "yardstick_us": statistics.median(p.reference for p in untraced) * 1e6,
            }
        )
    else:
        m.update(layer_metrics(passes, result["counters"], problems))
        m["cli.reproduce_s"] = statistics.median(children.normalised["reproduce_s"])
    result["raw"] = raw
    return result, passes


def layer_metrics(passes, c: dict, problems: list) -> dict:
    from qscaling import run_reproduction

    traced_passes = [p for p in passes if p.tracer is not None]
    summaries = [p.tracer.summary() for p in traced_passes]
    scales = [yardstick.NOMINAL_S / p.reference for p in traced_passes]
    if not all(p.tracer.nesting_holds() for p in traced_passes):
        problems.append("child spans sum to more than their parent")

    def ms(key, field="ms"):
        return statistics.median(s.get(key, {}).get(field, 0.0) * f for s, f in zip(summaries, scales))

    def calls(key):
        counts = {s.get(key, {}).get("calls", 0) for s in summaries}
        if len(counts) != 1:
            problems.append(f"{key} call count differs between traced passes: {counts}")
        return counts.pop()

    for kind in CERT_KINDS:
        if calls(f"scaling.certify:{kind}") != c[f"certify.{kind}"]:
            problems.append(f"certify {kind} spans disagree with the reports")
    misses = sum(calls(k) for k in {k for s in summaries for k in s if k.startswith("scaling.sample_refute:miss")})
    if (calls("scaling.sample_refute:hit"), misses) != (c["sample_refute.hits"], c["sample_refute.misses"]):
        problems.append("sample_refute spans disagree with the reports")
    miss_ms = statistics.median(
        f * sum(v["ms"] for k, v in s.items() if k.startswith("scaling.sample_refute:miss"))
        for s, f in zip(summaries, scales)
    )

    durations = []
    for _ in range(3):
        reproduction = spans.Tracer()
        before = yardstick.seconds()
        reproduction.call("reproduction.run_reproduction", run_reproduction)
        _, start, end, _, _ = reproduction.spans[0]
        durations.append(yardstick.normalised(end - start, before, yardstick.seconds()))

    untraced = statistics.median(p.seconds for p in passes if p.tracer is None)
    traced = statistics.median(p.seconds for p in traced_passes)
    return {
        "scaling.sample_refute.ms": ms("scaling.sample_refute"),
        "scaling.sample_refute.hits": c["sample_refute.hits"],
        "scaling.sample_refute.misses": c["sample_refute.misses"],
        "scaling.sample_refute.ms_per_1k_draws": miss_ms / (c["sample_refute.miss_draws"] / 1000)
        if c["sample_refute.miss_draws"]
        else 0.0,
        "scaling.symbolic_q_invariants.ms": ms("scaling.symbolic_q_invariants"),
        "scaling.symbolic_q_invariants.calls": calls("scaling.symbolic_q_invariants"),
        "scaling.symbolic_q_invariants.monomials": c["symbolic.monomials"],
        "scaling.certify.ms": ms("scaling.certify"),
        **{f"scaling.certify.{k}.count": c[f"certify.{k}"] for k in CERT_KINDS},
        **{f"scaling.certify.{k}.ms": ms(f"scaling.certify:{k}") for k in CERT_KINDS},
        "matrix_classes.classify.ms": ms("matrix_classes.classify"),
        "matrix_classes.classify.calls": calls("matrix_classes.classify"),
        "matrix_classes.is_anti_sign_symmetric.ms": ms("matrix_classes.is_anti_sign_symmetric"),
        "matrix_classes.anti_sign.full_scans": c["anti_sign.full_scans"],
        "matrix_classes.principal_minor_sums.ms": ms("matrix_classes.principal_minor_sums"),
        "matrices.mat_mul.ms": ms("matrices.mat_mul"),
        "matrices.minors_evaluated": c["minors_evaluated.computed"],
        "refute.verify_refutation.ms": ms("refute.verify_refutation"),
        "refute.self_ms": ms("refute.verify_refutation", "self_ms"),
        "reproduction.run_reproduction.ms": statistics.median(durations) * 1e3,
        "trace.overhead_share": traced / untraced - 1,
    }


# ---------------------------------------------------------------------------
# Ledger, metadata, output


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def code_identity() -> str:
    """sha256 of the package and benchmark sources, so that a change to either starts a new ledger key."""
    digest = hashlib.sha256()
    for top in (ROOT / "src" / "qscaling", ROOT / "perfbench"):
        for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            digest.update(f"{path.relative_to(ROOT).as_posix()}\0".encode() + path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_ledger(key: str, entry: dict) -> list[str]:
    """Counters and digest must equal what earlier runs with this key recorded."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    previous = ledger.setdefault(key, entry)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    if previous == entry:
        return []
    return [f"counters or digest differ from an earlier run of {key}: {previous} != {entry}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long inputs for perfbench/selftest.py")
    args = parser.parse_args(argv)
    scale = "smoke" if args.smoke else "full"

    result, passes = run(args.workload, args.seed, args.seconds, bool(args.trace), scale)
    problems = result["problems"]
    code = code_identity()
    problems += check_ledger(
        f"{args.workload}:{args.seed}:{scale}:{code}", {"counters": result["counters"], "digest": result["digest"]}
    )
    units = PER_LAYER if args.trace else END_TO_END
    metadata = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "scale": scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "code_sha256": code,
        **result["samples"],
    }
    for name, unit in units.items():
        print(f"{name} = {result['metrics'][name]!r} {unit}")
    for name, value in result["raw"].items():
        print(f"raw {name} = {value!r} (wall clock, not normalised)")
    for name, value in result["counters"].items():
        print(f"counter {name} = {value}")
    print(f"digest = {result['digest']}")
    print("metadata = " + json.dumps(metadata, sort_keys=True))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    if args.trace:
        last = [p.tracer for p in passes if p.tracer is not None][-1]
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(last.spans))
    record = {
        "metadata": metadata,
        "metrics": result["metrics"],
        "raw": result["raw"],
        "counters": result["counters"],
        "digest": result["digest"],
        "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if not (ROOT / "src" / "qscaling" / "__init__.py").is_file():
    sys.exit(f"error: {ROOT / 'src' / 'qscaling'} is missing; run from a full checkout of the repository")

import workloads  # noqa: E402  (puts src/ on the import path)
import check  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
