#!/usr/bin/env python3
"""Print the lines of ``src/eduction`` that a pytest run never executes.

    python3 scripts/linecov.py [pytest args]      (default: -q tests)

Stdlib only: ``sys.settrace`` and ``threading.settrace`` record every line
executed in the package while ``pytest.main`` runs in this process.  A
module's executable lines are the line numbers of its compiled code objects.
Lines run only in a subprocess are not seen, so the benchmark self-test
that the suite starts counts for nothing here.  The exit status is
pytest's.
"""
import os
import sys
import threading
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "eduction")


def executable_lines(path: str) -> set:
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines) -> str:
    out, start, prev = [], None, None
    for n in sorted(lines) + [None]:
        if start is not None and n != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = None
        if start is None:
            start = n
        prev = n
    return ", ".join(out)


def run_traced(args) -> tuple:
    import pytest

    prefix = PACKAGE + os.sep
    hit = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    class Rearm:
        # a tracer that raises (say, a RecursionError from a test that
        # exhausts the stack) is switched off, so set it again per test
        def pytest_runtest_setup(self, item):
            sys.settrace(tracer)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args, plugins=[Rearm()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hit


def main(argv) -> int:
    sys.path.insert(0, os.path.dirname(PACKAGE))  # trace this checkout, not an installed copy
    status, hit = run_traced(argv or ["-q", os.path.join(ROOT, "tests")])
    total_missed = total = 0
    print()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        missed = lines - hit[path]
        total += len(lines)
        total_missed += len(missed)
        print(f"{name:16} {len(missed):4} of {len(lines):4} never run: {ranges(missed) or '-'}")
    print(f"{'total':16} {total_missed:4} of {total:4} executable lines never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
