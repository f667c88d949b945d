"""Spans around the public functions of the eduction modules.

``Tracer.install`` replaces selected functions and methods of ``lang``,
``model``, ``evaluator``, ``store``, ``wire``, ``transport``, ``worker`` and
``pipeline`` with wrappers that time each call.  Nothing inside ``src/`` is
edited: the wrappers are put in place from outside, in whichever process
calls ``install`` (the generator and the node process each do).

Each span has a name, a start, an end and the span that was open when it
began.  A span's self time is its duration minus the time of its direct
children.  A span is not opened while a span of the same name is open on
the thread, so the recursive calls inside ``wire`` count once, at the
outermost call.

Spans are folded as they close into per-(phase, name) totals: count, total
time, self time and a summed note (bytes moved, warehouse hits).  The first
``keep`` spans of each phase are also kept whole, and ``dump`` writes both
out when the run ends.  Procedural deposits and claims additionally record a
keyed timestamp on the host-wide monotonic clock, so the time a demand
waited in the queue can be joined across processes.
"""
from __future__ import annotations

import hashlib
import json
import threading
import time

from eduction import evaluator, lang, model, pipeline, store, transport, wire, worker
from eduction.model import DemandKind
from eduction.store import DepositStatus

WIRE_ENCODE = ("encode_value", "encode_context", "encode_signature", "encode_demand", "encode_geer", "encode_frame")
WIRE_DECODE = (
    "read_value",
    "decode_value",
    "read_context",
    "decode_context",
    "read_signature",
    "decode_signature",
    "read_demand",
    "decode_demand",
    "decode_geer",
    "parse_header",
    "parse_frame",
)
STORE_OPS = ("deposit", "claim", "fulfill", "fetch", "await_result", "put_resource", "get_resource", "stats")


def key_digest(sig) -> str:
    return hashlib.blake2b(sig.key(), digest_size=8).hexdigest()


def _deposit_hit(result, args) -> int:
    return int(result.status is DepositStatus.ALREADY_COMPUTED)


def _frame_bytes(result, args) -> int:
    # request frame out, reply frame back
    _, payload = args[1], args[2]
    return 2 * wire.HEADER_SIZE + len(payload) + len(result[1])


def _resource_bytes_in(result, args) -> int:
    return len(result)


def _resource_bytes_out(result, args) -> int:
    return len(args[2])


class Tracer:
    """Collects spans in memory; one instance per process."""

    def __init__(self, keep: int = 2000):
        self.phase = "setup"
        self.keep = keep
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._aggs: list[dict] = []  # one dict per thread, merged by totals()
        self.spans: dict[str, list] = {}
        self.events: list = []  # (phase, "deposit"|"claim", key digest, monotonic ns)
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _thread_state(self):
        st = getattr(self._tls, "state", None)
        if st is None:
            agg: dict = {}
            with self._lock:
                self._aggs.append(agg)
            st = self._tls.state = ([], set(), agg)
        return st

    def call(self, name, fn, args, kwargs, note):
        stack, open_names, agg = self._thread_state()
        if name in open_names:
            return fn(*args, **kwargs)
        frame = [name, 0]  # name, child ns
        stack.append(frame)
        open_names.add(name)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            open_names.discard(name)
            dur = t1 - t0
            if stack:
                stack[-1][1] += dur
            phase = self.phase
            row = agg.get((phase, name))
            if row is None:
                row = agg[(phase, name)] = [0, 0, 0, 0]
            row[0] += 1
            row[1] += dur
            row[2] += dur - frame[1]
            kept = self.spans.setdefault(phase, [])
            if len(kept) < self.keep:
                kept.append((name, t0, t1, stack[-1][0] if stack else None, threading.get_ident()))
        if note is not None:
            row[3] += note(result, args)
        return result

    def event(self, kind: str, digest: str):
        self.events.append((self.phase, kind, digest, time.monotonic_ns()))

    # -- installation --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, note=None):
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, note)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", attr)
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def install(self):
        """Wrap the public functions each per-layer metric is derived from."""
        self.wrap(lang, "compile_source", "lang.compile")
        self._wrap_key()
        self.wrap(evaluator.Evaluator, "eval_demand", "evaluator.eval")
        for op in STORE_OPS:
            self.wrap(store.DemandStore, op, f"store.{op}", _deposit_hit if op == "deposit" else None)
        self.wrap(store.DemandStore, "__init__", "store.open")
        self._wrap_client()
        self.wrap(transport.TcpAgent, "request", "transport.request", _frame_bytes)
        self.wrap(transport, "dispatch_store_request", "transport.dispatch")
        for fn in WIRE_ENCODE:
            self.wrap(wire, fn, "wire.encode")
        for fn in WIRE_DECODE:
            self.wrap(wire, fn, "wire.decode")
        self.wrap(worker, "execute_one", "worker.execute")
        self._wrap_invoke()
        self.wrap(pipeline, "preprocess", "pipeline.preprocess")
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def _wrap_key(self):
        # only keys computed for the first time: a cached key() is a dict lookup
        original = model.DemandSignature.key
        tracer = self

        def key(sig):
            if "_key" in sig.__dict__:
                return original(sig)
            return tracer.call("model.key", original, (sig,), {}, None)

        model.DemandSignature.key = key
        self._restore.append((model.DemandSignature, "key", original))

    def _wrap_client(self):
        tracer = self
        cls = transport.StoreClient
        notes = {"deposit": _deposit_hit, "get_resource": _resource_bytes_in, "put_resource": _resource_bytes_out}
        for op in STORE_OPS:
            original = cls.__dict__[op]

            def make(op, original):
                def method(*args, **kwargs):
                    if op == "deposit" and args[1].signature.kind is DemandKind.PROCEDURAL:
                        tracer.event("deposit", key_digest(args[1].signature))
                    result = tracer.call(f"client.{op}", original, args, kwargs, notes.get(op))
                    if op == "claim" and result is not None:
                        tracer.event("claim", key_digest(result.signature))
                    return result

                return method

            setattr(cls, op, make(op, original))
            self._restore.append((cls, op, original))

    def _wrap_invoke(self):
        original = worker.ProcedureRegistry.invoke
        tracer = self

        def invoke(reg, name, args):
            return tracer.call(f"proc.{name}", original, (reg, name, args), {}, None)

        worker.ProcedureRegistry.invoke = invoke
        self._restore.append((worker.ProcedureRegistry, "invoke", original))

    # -- output ----------------------------------------------------------------

    def totals(self) -> dict:
        """{phase: {name: [count, total_ns, self_ns, note_sum]}} over all threads."""
        out: dict = {}
        with self._lock:
            aggs = list(self._aggs)
        for agg in aggs:
            for (phase, name), row in list(agg.items()):
                acc = out.setdefault(phase, {}).setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {"totals": self.totals(), "events": self.events, "spans": self.spans},
                f,
            )


def merge_totals(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for phase, names in part.items():
            for name, row in names.items():
                acc = out.setdefault(phase, {}).setdefault(name, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += row[i]
    return out
