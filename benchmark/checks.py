"""Answers computed apart from the program, and the checks that use them.

Every check returns a list of problems; an empty list means it passed.
The oracles share no code with ``eduction``: values come from plain
iterative loops, demand counts from a walk over the recursion, and the
classifier from ``math.fsum`` means and distances.
"""
from __future__ import annotations

import math

INT64 = 1 << 64


def wrap64(n: int) -> int:
    return (n + (1 << 63)) % INT64 - (1 << 63)


# --- eval workloads ---------------------------------------------------------


def fib_like(a: int, b: int, n: int) -> int:
    """f(0) = a, f(1) = b, f(d) = f(d-1) + f(d-2), 64-bit wrapping."""
    if n == 0:
        return a
    prev, cur = a, b
    for _ in range(n - 1):
        prev, cur = cur, wrap64(prev + cur)
    return cur


def lattice(c: int, i: int, j: int) -> int:
    """c times the number of monotone lattice paths to (i, j), 64-bit wrapping."""
    row = [c] * (j + 1)
    for _ in range(i):
        for y in range(1, j + 1):
            row[y] = wrap64(row[y] + row[y - 1])
    return row[j]


def _walk(start, children) -> int:
    seen = {start}
    todo = [start]
    while todo:
        for nxt in children(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen)


def fib_demands(n: int) -> int:
    """Distinct (identifier, context) demands reached from fib@d=n."""
    return _walk(n, lambda d: () if d <= 1 else (d - 1, d - 2))


def lattice_demands(i: int, j: int) -> int:
    """Distinct demands reached from lat@(i, j)."""
    return _walk((i, j), lambda p: () if p[0] == 0 or p[1] == 0 else ((p[0] - 1, p[1]), (p[0], p[1] - 1)))


def check_computations(label: str, computations: int, expected: int) -> list:
    if computations != expected:
        return [f"{label}: {computations} computations, expected {expected}"]
    return []


def check_query(label: str, got, expected, computations: int, expected_computations: int) -> list:
    problems = []
    if got != expected:
        problems.append(f"{label}: value {got!r}, expected {expected!r}")
    return problems + check_computations(label, computations, expected_computations)


def check_drained(label: str, stats) -> list:
    if stats.pending or stats.in_process:
        return [f"{label}: {stats.pending} PENDING and {stats.in_process} IN_PROCESS demands left"]
    return []


def check_restart(before, after) -> list:
    if before.computed != after.computed:
        return [f"restart: {before.computed} computed before, {after.computed} after replay"]
    return []


# --- pipeline workload ---------------------------------------------------------


def features(amplitudes, windows: int) -> list:
    """Peak-normalised amplitudes, mean-square energy per zero-padded window."""
    peak = max(abs(x) for x in amplitudes)
    xs = [x / peak for x in amplitudes] if peak else list(amplitudes)
    wlen = -(-len(xs) // windows)
    xs += [0.0] * (wlen * windows - len(xs))
    return [math.fsum(x * x for x in xs[k * wlen : (k + 1) * wlen]) / wlen for k in range(windows)]


def centroids(labeled_features) -> dict:
    """{subject: (mean vector, count)} over (subject, feature vector) pairs."""
    groups: dict = {}
    for subject, fv in labeled_features:
        groups.setdefault(subject, []).append(fv)
    return {
        s: ([math.fsum(col) / len(fvs) for col in zip(*fvs)], len(fvs)) for s, fvs in groups.items()
    }


def nearest(cents: dict, fv) -> list:
    """[(subject, distance)] by distance, ties to the lower subject id."""
    rows = sorted(
        (math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(fv, mean))), s) for s, (mean, _) in cents.items()
    )
    return [(s, d) for d, s in rows]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_result_set(label: str, got, expected, rel: float = 1e-9) -> list:
    if [s for s, _ in got] != [s for s, _ in expected]:
        return [f"{label}: subjects {[s for s, _ in got]}, expected {[s for s, _ in expected]}"]
    for (s, d), (_, e) in zip(got, expected):
        if not _close(d, e, rel):
            return [f"{label}: distance to {s} is {d!r}, expected {e!r}"]
    return []


def check_model(label: str, subjects: dict, expected: dict, rel: float = 1e-9) -> list:
    """``subjects`` as the program's TrainingSet keeps them: {id: (mean, count)}."""
    if sorted(subjects) != sorted(expected):
        return [f"{label}: subjects {sorted(subjects)}, expected {sorted(expected)}"]
    for s, (mean, count) in subjects.items():
        emean, ecount = expected[s]
        if count != ecount or len(mean) != len(emean):
            return [f"{label}: subject {s} has {count} samples of width {len(mean)}"]
        if not all(_close(a, b, rel) for a, b in zip(mean, emean)):
            return [f"{label}: subject {s} mean differs"]
    return []
