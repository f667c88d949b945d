"""The benchmark's self-test, run as a subprocess.

``benchmark/selftest.py`` checks the benchmark's output schema and that
every correctness check rejects planted wrong answers; it never looks at
speed.  Running it with the suite makes a change that breaks what the
benchmark uses of the program (``run_pipeline_distributed``, the model
copied under its id) fail here rather than at the next benchmark run.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmark", "selftest.py")],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert proc.stdout.rstrip().endswith("all passed")
