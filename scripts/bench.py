#!/usr/bin/env python3
"""Time the layers a demand crosses, one call at a time.

    python3 scripts/bench.py OUT.json

Stdlib only; the package is imported from ``src/``.  Each row is the median,
over ``REPEAT`` rounds, of the process CPU time of one call, averaged over
a batch of calls, in µs; each round times every row once.  CPU time, not
wall time: on a shared host a process that waits for a CPU would count its
neighbours' work.  The TCP
server runs in this process, so ``tcp.deposit`` is the CPU of both ends.
The inputs are the ones a cold ``fib@d`` query sends: one-dimension
intensional signatures of a program ``q7-fib``, plus a procedural signature
carrying a 512-float FloatArray, the largest value the pipeline moves.

    wire.*           encode and decode of a signature and of a demand
    store.*          ``DemandStore.deposit`` (an intensional miss) and
                     ``fulfill`` (a new key), no log
    store.reopen_fulfil
                     reopening a log of ``BATCH`` intensional FULFILL
                     frames, per frame
    dispatch.*       ``dispatch_store_request`` of the same DEPOSIT and
                     FULFILL payloads, decoding included
    inproc.deposit   one deposit round trip through the in-process carrier
    tcp.deposit      one deposit round trip over TCP to a ``serve_store``
                     running in this process
    store.fib30_query
                     one cold ``fib@30`` query through ``Evaluator`` on a
                     ``DemandStore``, per demand (31 a query): the engine
                     and its keyed deposit and fulfil, with no carrier
    inproc.fib30_query
                     the same query through the in-process carrier on
                     that store, per demand: the carrier's own cost
    tcp.fib30_query  the same query over that TCP store, per demand: a
                     deposit, and a fulfil written behind, each
    tcp.gather160_deposit
                     one ``store.gather`` of 160 ``cls.classify`` signatures
                     over that TCP store, per demand; each is a warehouse
                     hit, so the gather is its deposits and awaits nothing

The rows, the CPU count and the Python version are printed and written to
OUT.json.
"""
import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from eduction import wire  # noqa: E402
from eduction.evaluator import Evaluator  # noqa: E402
from eduction.lang import compile_source  # noqa: E402
from eduction.model import DemandKind, DemandSignature, make_context, pending_demand  # noqa: E402
from eduction.pipeline import CLASSIFY_PROC, DEFAULT_WINDOWS, PROGRAM_ID  # noqa: E402
from eduction.store import DemandStore, gather  # noqa: E402
from eduction.transport import InProcAgent, StoreClient, TcpAgent, dispatch_store_request, serve_store  # noqa: E402
from eduction.wire import MsgType  # noqa: E402

BATCH = 2000
REPEAT = 9
FIB_QUERIES = 20  # a batch of cold fib@30 queries, 620 demands
FIB = compile_source(
    "fib where dimension d; fib = if #.d <= 1 then #.d else (fib @.d (#.d - 1)) + (fib @.d (#.d - 2)); end", "fib"
)
FIB30_DEMANDS = 31
GATHER_DEMANDS = 160
GATHERS = 20  # a batch of gathers, 3200 deposits


def fib_sig(n: int) -> DemandSignature:
    return DemandSignature("q7-fib", "fib", make_context([("d", n)]), DemandKind.INTENSIONAL)


def timed(batches: dict) -> dict:
    """Median over ``REPEAT`` rounds of each row's µs per call.

    ``batches`` maps a row to a function that gives one batch of calls.  A
    round times one batch of every row, so a spell of a slower host falls
    on all the rows alike rather than on the few timed during it.
    """
    per_call: dict = {name: [] for name in batches}
    for _ in range(REPEAT):
        for name, setup in batches.items():
            calls = setup()
            t0 = time.process_time_ns()
            for call in calls:
                call()
            per_call[name].append((time.process_time_ns() - t0) / len(calls) / 1e3)
    return {name: statistics.median(times) for name, times in per_call.items()}


def same(fn, *args):
    """A batch of one call repeated: for calls that change no state."""
    return lambda: [lambda: fn(*args)] * BATCH


def rows() -> dict:
    sig = fib_sig(30)
    key = sig.key()
    demand = pending_demand(sig)
    encoded_demand = wire.encode_demand(demand)
    floats = DemandSignature("p", "fe.window_energy", kind=DemandKind.PROCEDURAL,
                             args=(tuple(i / 7 for i in range(512)),))
    floats_key = floats.key()

    def fresh_sigs():
        sigs = [fib_sig(n) for n in range(BATCH)]
        for s in sigs:
            s.key()
        return sigs

    def fulfills():
        store = DemandStore()
        return [lambda s=s: store.fulfill(s, 832040, "generator") for s in fresh_sigs()]

    def reopens():
        return [lambda: DemandStore(log_path).close()]

    def dispatch_fulfills():
        store = DemandStore()
        payloads = [s.key() + wire.encode_value(832040) + wire.encode_value("generator") for s in fresh_sigs()]
        return [lambda p=p: dispatch_store_request(store, MsgType.FULFILL, p) for p in payloads]

    def fib30_queries(on):
        def batch():
            # a fresh program id per query keeps every one of them cold
            geers = [replace(FIB, program_id=f"q{next(query_ids)}-fib") for _ in range(FIB_QUERIES)]
            return [lambda g=g: Evaluator(g, on).eval_demand("fib", fib30) for g in geers]

        return batch

    query_ids = itertools.count()
    fib30 = make_context([("d", 30)])
    store = DemandStore()
    digest = "0" * 64  # a classify round's signatures: one model digest, a feature vector each
    classify_sigs = [
        DemandSignature(PROGRAM_ID, CLASSIFY_PROC, kind=DemandKind.PROCEDURAL,
                        args=(digest, tuple(float(k + i) for i in range(DEFAULT_WINDOWS))))
        for k in range(GATHER_DEMANDS)
    ]
    for c in classify_sigs:  # computed, so that a gather only deposits
        store.deposit(pending_demand(c))
        store.fulfill(store.claim("bench", 60000).signature, (1.0, 0.5), "bench")
    inproc = StoreClient(InProcAgent(lambda t, p: dispatch_store_request(store, t, p)))
    server = serve_store(store)
    tcp = StoreClient(TcpAgent("127.0.0.1", server.port))
    log_dir = tempfile.TemporaryDirectory()
    log_path = os.path.join(log_dir.name, "store.log")
    logged = DemandStore(log_path)
    for s in fresh_sigs():
        logged.fulfill(s, 832040, "generator")
    logged.close()
    try:
        batches = {
            "wire.encode_signature_us": same(wire._encode_signature, sig),
            "wire.decode_signature_us": same(wire.decode_signature, key),
            "wire.encode_demand_us": same(wire.encode_demand, demand),
            "wire.decode_demand_us": same(wire.decode_demand, encoded_demand),
            "wire.encode_signature_512f_us": same(wire._encode_signature, floats),
            "wire.decode_signature_512f_us": same(wire.decode_signature, floats_key),
            "store.deposit_us": same(store.deposit, demand),
            "store.fulfill_us": fulfills,
            "store.reopen_fulfil_us": reopens,
            "dispatch.deposit_us": same(dispatch_store_request, store, MsgType.DEPOSIT, encoded_demand),
            "dispatch.fulfill_us": dispatch_fulfills,
            "inproc.deposit_us": same(inproc.deposit, demand),
            "tcp.deposit_us": same(tcp.deposit, demand),
            "store.fib30_query_us": fib30_queries(store),
            "inproc.fib30_query_us": fib30_queries(inproc),
            "tcp.fib30_query_us": fib30_queries(tcp),
            "tcp.gather160_deposit_us": lambda: [lambda: gather(tcp, classify_sigs, 10000)] * GATHERS,
        }
        out = timed(batches)
        out["store.fib30_query_us"] /= FIB30_DEMANDS
        out["inproc.fib30_query_us"] /= FIB30_DEMANDS
        out["tcp.fib30_query_us"] /= FIB30_DEMANDS
        out["tcp.gather160_deposit_us"] /= GATHER_DEMANDS
        out["store.reopen_fulfil_us"] /= BATCH
        return out
    finally:
        tcp.close()
        server.stop()
        log_dir.cleanup()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="where to write the JSON result")
    args = ap.parse_args(argv)
    result = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "batch": BATCH,
        "repeat": REPEAT,
        "median_us_per_call": {name: round(us, 3) for name, us in rows().items()},
    }
    for name, us in result["median_us_per_call"].items():
        print(f"{name:32s} {us:9.3f}")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
