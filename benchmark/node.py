"""Node process for the TCP workloads.

Builds its tiers the way ``eduction node start`` does: a ``LocalNodeAgent``
starts a ``DstTier`` on an ephemeral port and, with ``--tiers dst,dwt``, a
``DwtTier`` with the ``pipeline`` registry on that store.  Tier settings
are the defaults; in particular no ``poll_ms`` is passed.  ``--log`` turns
the store log on.

    python3 benchmark/node.py --tiers dst --log .bench_out/x/store.log [--trace [--phase P]]

The first line on standard output is ``{"address": "tcp://host:port"}``.
After that the node obeys one command per line on standard input and
answers each with one JSON line:

    phase NAME   label later spans with NAME (traced nodes)
    rss          {"rss_kb": peak resident set of this process}
    dump PATH    write the spans to PATH
    stop         stop the tiers and exit; so does end of input

The benchmark kills a node with SIGKILL to simulate a crash.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _reply(obj: dict):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tiers", default="dst", choices=("dst", "dst,dwt"))
    ap.add_argument("--log", help="store log path (default: no log)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--phase", default="start", help="phase label for spans before the first command")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
        tracer.phase = args.phase

    from eduction.manager import LocalNodeAgent

    agent = LocalNodeAgent()
    try:
        dst = {"host": "127.0.0.1", "port": 0}
        if args.log:
            dst["log_path"] = args.log
        address = agent.start_tier("dst-1", "DST", dst)["address"]
        if args.tiers == "dst,dwt":
            agent.start_tier("dwt-1", "DWT", {"store": address, "registry": "pipeline"})
        _reply({"address": address})
        for line in sys.stdin:
            cmd, _, arg = line.strip().partition(" ")
            if cmd == "phase":
                if tracer is not None:
                    tracer.phase = arg
                _reply({"ok": True})
            elif cmd == "rss":
                _reply({"rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            elif cmd == "dump":
                if tracer is not None:
                    tracer.dump(arg)
                _reply({"ok": tracer is not None})
            elif cmd == "stop":
                break
            else:
                _reply({"error": f"unknown command {cmd!r}"})
    finally:
        # the worker first: LocalNodeAgent.close stops the store under a
        # polling worker, whose claims then retry for 1.5 s and raise
        agent.stop_tier("dwt-1")
        agent.close()
    _reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
