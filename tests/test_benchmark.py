"""The benchmark's self-test, run as a subprocess, and its tracer in-process.

``benchmark/selftest.py`` checks the benchmark's output schema and that
every correctness check rejects planted wrong answers; it never looks at
speed.  Running it with the suite makes a change that breaks what the
benchmark uses of the program (``run_pipeline_distributed``, the model
copied under its id) fail here rather than at the next benchmark run.
"""
import os
import subprocess
import sys

import pytest

from eduction import wire
from eduction.model import DemandSignature, make_context

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


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "benchmark"))
    import tracing

    return tracing


def test_tracer_wraps_and_restores_every_name_it_names(tracing):
    """A traced benchmark run wraps these names; a rename that breaks it fails here, in-process."""
    wrapped = {name: getattr(wire, name) for name in tracing.WIRE_ENCODE + tracing.WIRE_DECODE}
    sig = DemandSignature("p", "x", make_context([("d", 3)]))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(getattr(wire, name).__wrapped__ is fn for name, fn in wrapped.items())
        assert wire.decode_signature(sig.key()) == sig
        assert tracer.totals()["setup"]["wire.decode"][0] == 1  # the readers inside run under the one span
    finally:
        tracer.uninstall()
    assert {name: getattr(wire, name) for name in wrapped} == wrapped


def test_tracer_refuses_a_name_that_is_gone(tracing, monkeypatch):
    monkeypatch.delattr(wire, "read_demand")
    tracer = tracing.Tracer()
    try:
        with pytest.raises(AttributeError):
            tracer.install()
    finally:
        tracer.uninstall()
