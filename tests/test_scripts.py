"""The scripts under ``scripts/`` still run."""
import importlib.util
import json
import os

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
