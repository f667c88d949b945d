#!/usr/bin/env python3
"""Walk a small cluster through its paces, in one process.

Registers two nodes with a manager, allocates a store tier and a worker
tier, evaluates the factorial program through the shared warehouse, runs
the recognition pipeline distributed, then moves the worker tier to the
second node mid-classification and shows that nothing changed.
"""
import argparse
import sys
import threading
import time

sys.path.insert(0, "src")  # allow running from a fresh checkout

from eduction import pipeline as P
from eduction.evaluator import Evaluator
from eduction.lang import compile_source
from eduction.manager import LocalNodeAgent, Manager
from eduction.model import make_context
from eduction.transport import connect_store

FACT = (
    "fact where dimension d; "
    "fact = if #.d == 0 then 1 else #.d * (fact @.d (#.d - 1)); end"
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--subjects", type=int, default=4)
    ap.add_argument("--length", type=int, default=512)
    args = ap.parse_args()

    mgr = Manager(heartbeat_ms=60000)
    n1 = mgr.register_node("demo-a:0", agent=LocalNodeAgent())
    n2 = mgr.register_node("demo-b:0", agent=LocalNodeAgent())
    dst = mgr.allocate(n1, "DST", {})
    addr = dst.details["address"]
    dwt = mgr.allocate(n1, "DWT", {"store": addr, "registry": "pipeline"})
    print(f"cluster up: DST on node {n1} at {addr}, DWT on node {n1}")

    client = connect_store(addr)

    geer = compile_source(FACT, "facts")
    ev = Evaluator(geer, client)
    value = ev.eval_demand("fact", make_context([("d", 20)]))
    print(f"fact @ d=20 -> {value} ({ev.computation_counter()} computations)")
    ev.reset_counter()
    ev.clear_cache()
    ev.eval_demand("fact", make_context([("d", 20)]))
    print(f"again        -> warehouse hits only ({ev.computation_counter()} computations)")

    train, test = P.default_corpus(subjects=args.subjects, n=args.length)
    labels = [sid for sid, _ in test]
    unlabeled = [(None, s) for _, s in test]
    P.run_pipeline_distributed(client, train, P.TRAIN_MODE)

    def mover():
        time.sleep(0.05)
        rec = mgr.move(dwt.tier_id, n2)
        print(f"moved worker tier {dwt.tier_id} -> {rec.tier_id} on node {n2}")

    t = threading.Thread(target=mover)
    t.start()
    results = P.run_pipeline_distributed(client, unlabeled, P.CLASSIFY_MODE)
    t.join()

    hits, total = P.top1_accuracy(results, labels)
    print(f"recognition accuracy with mid-run move: {hits}/{total}")
    print(client.stats().as_line())

    client.close()
    mgr.close()
    return 0 if hits == total else 1


if __name__ == "__main__":
    raise SystemExit(main())
