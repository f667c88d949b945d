"""Self-test of the benchmark itself; it never looks at speed.

    python3 benchmark/selftest.py

1. Runs every workload at toy size, untraced and traced, and checks the
   result line: its keys, that every check passed and no operation failed,
   and that the metric names and units are exactly the end-to-end
   (untraced) or per-layer (traced) ones BENCHMARK.json lists.
2. Feeds each correctness check a planted wrong answer (an off-by-one
   value, an extra computation, a leftover pending demand, a lost computed
   demand, a swapped or perturbed result set, a wrong model) and requires it
   to be rejected, and the right answer to be accepted.
3. Plants faults in whole toy runs (an off-by-one operator, a miscounted
   computation, swapped classify results) and requires ``correct`` false.
4. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark's files, and requires a non-zero exit with no result line.

Exit code 0 when every case passes.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402

FAILURES: list = []


def expect(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _invoke(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmark", "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def output_schema():
    spec = _spec()
    listed = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "BENCHMARK.json names the three workloads")
    expect(listed[0] == run.END_TO_END, "BENCHMARK.json lists the end-to-end metrics run.py prints")
    expect(listed[1] == dict(run.per_layer_names()), "BENCHMARK.json lists the per-layer metrics run.py prints")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = _invoke(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(out["correct"] is True and out["failed"] == 0, f"{label}: correct, no failed operation")
            expect(isinstance(out["attempted"], int) and out["attempted"] >= 1, f"{label}: attempted >= 1")
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            expect(got == listed[trace], f"{label}: every metric of BENCHMARK.json, in its unit")
            values = [m["value"] for m in out["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), f"{label}: finite values")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{label}: no end-to-end metric is 0")


def planted_answers():
    expect(checks.fib_like(0, 1, 20) == 6765 and checks.fib_demands(20) == 21, "fib oracle: fib@20 = 6765, 21 demands")
    expect(checks.fib_like(0, 1, 93) == -6246583658587674878, "fib oracle wraps at 64 bits")
    expect(checks.lattice(1, 2, 2) == 6 and checks.lattice_demands(2, 2) == 8, "lattice oracle: 6 paths, 8 demands")

    expect(not checks.check_query("q", 55, 55, 11, 11), "right query answer accepted")
    expect(bool(checks.check_query("q", 56, 55, 11, 11)), "off-by-one value rejected")
    expect(bool(checks.check_query("q", 55, 55, 12, 11)), "one extra computation rejected")
    expect(bool(checks.check_query("q", 55, 55, 1, 0)), "computation on a warm query rejected")
    expect(not checks.check_computations("r", 360, 360), "right computation count of a round accepted")
    expect(bool(checks.check_computations("r", 359, 360)), "a round one computation short rejected")

    stats = SimpleNamespace(pending=0, in_process=0, computed=10)
    expect(not checks.check_drained("s", stats), "drained store accepted")
    expect(bool(checks.check_drained("s", SimpleNamespace(pending=0, in_process=1))), "IN_PROCESS demand rejected")
    expect(bool(checks.check_drained("s", SimpleNamespace(pending=1, in_process=0))), "PENDING demand rejected")
    expect(not checks.check_restart(stats, stats), "same computed count accepted")
    expect(bool(checks.check_restart(stats, SimpleNamespace(computed=9))), "lost computed demand rejected")

    fvs = [(1, [1.0, 0.0]), (1, [0.8, 0.2]), (2, [0.0, 1.0]), (2, [0.1, 0.7])]
    cents = checks.centroids(fvs)
    rs = checks.nearest(cents, [0.7, 0.1])
    expect(not checks.check_result_set("r", rs, rs), "right result set accepted")
    expect(bool(checks.check_result_set("r", list(reversed(rs)), rs)), "swapped result set rejected")
    nudged = [(s, d * (1 + 1e-6)) for s, d in rs]
    expect(bool(checks.check_result_set("r", nudged, rs)), "distance off by 1e-6 relative rejected")
    expect(not checks.check_result_set("r", [(s, d * (1 + 1e-12)) for s, d in rs], rs), "1e-12 relative accepted")
    model = {s: (tuple(m), c) for s, (m, c) in cents.items()}
    expect(not checks.check_model("m", model, cents), "right model accepted")
    expect(bool(checks.check_model("m", {**model, 2: (model[2][0], 3)}, cents)), "miscounted model rejected")
    expect(bool(checks.check_model("m", {**model, 1: ((0.9, 0.2), 2)}, cents)), "wrong model mean rejected")


def planted_runs():
    from eduction import evaluator, pipeline

    def plant(owner, attr, make, workload, what):
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        try:
            r = run.measure(workload, 5, 0.5, run.TOY)
            expect(bool(r.problems), f"{workload}: {what} is caught")
        finally:
            setattr(owner, attr, original)

    def off_by_one(apply_binop):
        return lambda op, a, b: apply_binop(op, a, b) + 1 if op == "+" else apply_binop(op, a, b)

    def overcount(counter):
        return lambda self: counter(self) + 1

    def swap_results(distributed):
        def swapped(store, samples, mode, **kw):
            results = distributed(store, samples, mode, **kw)
            return results[1:] + results[:1]

        return swapped

    plant(evaluator, "apply_binop", off_by_one, "eval-local", "off-by-one operator")
    plant(evaluator.Evaluator, "computation_counter", overcount, "eval-tcp", "miscounted computation")
    plant(pipeline, "run_pipeline_distributed", swap_results, "pipeline-tcp", "swapped result sets")


def bare_directory():
    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "benchmark"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _invoke("eval-local", 0, cwd=bare)
        printed = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed, "without the program: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    planted_answers()
    planted_runs()
    bare_directory()
    output_schema()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
