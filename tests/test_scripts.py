"""The scripts under ``scripts/`` still run."""
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_ROWS = {
    "wire.encode_signature_us",
    "wire.decode_signature_us",
    "wire.encode_demand_us",
    "wire.decode_demand_us",
    "wire.encode_signature_512f_us",
    "wire.decode_signature_512f_us",
    "store.deposit_us",
    "store.fulfill_us",
    "store.reopen_fulfil_us",
    "dispatch.deposit_us",
    "dispatch.fulfill_us",
    "inproc.deposit_us",
    "tcp.deposit_us",
    "store.fib30_query_us",
    "inproc.fib30_query_us",
    "tcp.fib30_query_us",
    "tcp.gather160_deposit_us",
}


def test_bench_writes_every_row(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "scripts", "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name, tiny in (("BATCH", 4), ("REPEAT", 1), ("FIB_QUERIES", 1)):
        monkeypatch.setattr(bench, name, tiny)
    out = tmp_path / "bench.json"
    assert bench.main([str(out)]) == 0
    result = json.loads(out.read_text())
    assert (result["batch"], result["repeat"]) == (4, 1)
    rows = result["median_us_per_call"]
    assert set(rows) == BENCH_ROWS
    assert all(us > 0 for us in rows.values()), rows


def run_script(name: str) -> subprocess.CompletedProcess:
    """Run ``scripts/<name>`` from the repository root, as its ``sys.path`` line expects."""
    return subprocess.run(
        [sys.executable, os.path.join("scripts", name)], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def test_demo_cluster_classifies_every_sample_across_a_move():
    done = run_script("demo_cluster.py")
    assert done.returncode == 0, done.stderr
    assert "recognition accuracy with mid-run move: 20/20" in done.stdout.splitlines()


def test_window_sweep_reports_every_window():
    done = run_script("window_sweep.py")
    assert done.returncode == 0, done.stderr
    rows = {int(w): accuracy for w, accuracy, _ in (line.split() for line in done.stdout.splitlines()[1:])}
    assert sorted(rows) == [2, 4, 8, 16, 32, 64]
    assert rows[16] == "20/20"
