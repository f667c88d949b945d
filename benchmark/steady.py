"""Steadiness check: two sets of runs of one commit, compared metric by metric.

    python3 benchmark/steady.py [--runs 10] [--workloads eval-tcp,...] [--seconds 30]
    python3 benchmark/steady.py --trace [--runs 10]

Runs ``run.py`` ``--runs`` times per workload in each of two sets, one run
at a time, with a new seed for every run.  For each workload and
end-to-end metric it prints each set's median and quartiles, the spread
(third minus first quartile, over the median) and the shift of the second
median against the first.  A metric passes when both spreads and the size
of the shift, in either direction, are within its bound from
BENCHMARK.json: the two sets come from one commit, so a shift either way
is noise.  The share of failed operations must be the same in both sets.
The runs are also written to ``.bench_out/steady-<time>.json``.
``--trace`` makes one set of traced runs and prints each per-layer
metric's median and quartiles instead.  Exit code 0 when everything
passes, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["seed"] = seed
    return result


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(spec: dict, runs: dict):
    """Per-layer figures of traced runs: median and quartiles, no bounds."""
    for w in [w["name"] for w in spec["workloads"] if w["name"] in runs]:
        rs = runs[w]
        print(f"\n{w}: {len(rs)} traced runs, correct={all(r['correct'] for r in rs)}")
        for name in rs[0]["metrics"]:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in rs])
            unit = rs[0]["metrics"][name]["unit"]
            print(f"  {name:42s} {q1:12.5g} {med:12.5g} {q3:12.5g} {unit}")


def compare(spec: dict, sets: list) -> bool:
    """Print the per-metric table; True when every metric of every workload passes."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    workloads = [w["name"] for w in spec["workloads"] if w["name"] in sets[0]]
    for w in workloads:
        a, b = sets[0][w], sets[1][w]
        print(f"\n{w}: {len(a)} + {len(b)} runs, wall {statistics.median(r['wall_s'] for r in a + b):.1f} s per run")
        share = [Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s)) for s in (a, b)]
        correct = all(r["correct"] for r in a + b)
        fail_ok = share[0] == share[1]
        print(f"  correct={correct} failed share {float(share[0]):.6f} / {float(share[1]):.6f} {'ok' if fail_ok else 'DIFFERS'}")
        ok &= correct and fail_ok
        print(f"  {'metric':24s} {'set':>3s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>7s}  bound  shift  verdict")
        for name in a[0]["metrics"]:
            bound = bounds[name]
            rows = []
            for label, s in (("1", a), ("2", b)):
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in s])
                rows.append((label, q1, med, q3, (q3 - q1) / med))
            shift = (rows[1][2] - rows[0][2]) / rows[0][2]
            verdict = all(r[4] <= bound for r in rows) and abs(shift) <= bound
            ok &= verdict
            for i, (label, q1, med, q3, spread) in enumerate(rows):
                tail = f"  {bound:.2f}  {shift:+.3f}  {'ok' if verdict else 'FAIL'}" if i == 1 else ""
                print(f"  {name if i == 0 else '':24s} {label:>3s} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread:7.3f}{tail}")
    return ok


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--trace", action="store_true", help="one set of traced runs: per-layer quartiles")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")

    sets = []
    seed = args.first_seed
    for s in range(1 if args.trace else 2):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                r = run_once(spec, w, seed, args.seconds, int(args.trace))
                seed += 1
                runs[w].append(r)
                print(f"set {s + 1} run {i + 1} {w} seed {r['seed']}: {r['wall_s']:.1f} s", file=sys.stderr)
        sets.append(runs)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(sets, f)
    print(f"runs written to {path}")
    if args.trace:
        summarize(spec, sets[0])
        return 0
    return 0 if compare(spec, sets) else 1


if __name__ == "__main__":
    sys.exit(main())
