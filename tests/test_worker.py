"""Procedure registry and the claim/execute/fulfill loop."""
import threading
import time

import pytest

from eduction.model import EMPTY_CONTEXT, DemandKind, DemandSignature, DemandState, pending_demand
from eduction.store import DemandStore, NotFound
from eduction.worker import (
    CLAIM_WAIT_MS,
    ArityMismatch,
    DuplicateProcedure,
    ProcedureFault,
    ProcedureRegistry,
    UnknownProcedure,
    Worker,
    WorkerConfig,
    build_demo_registry,
    execute_one,
    run_worker,
)


def psig(proc, *args):
    return DemandSignature("p", proc, EMPTY_CONTEXT, DemandKind.PROCEDURAL, args)


def run_to_fault(reg, sig) -> str:
    """Deposit ``sig``, let a worker run it; the ProcedureFault ``store.fetch`` raises."""
    store = DemandStore()
    store.deposit(pending_demand(sig))
    w = Worker(WorkerConfig(worker_id="w"), store, reg)
    w.start()
    try:
        with pytest.raises(ProcedureFault):
            store.await_result(sig, 5000)
        assert w.alive
        with pytest.raises(ProcedureFault) as info:
            store.fetch(sig)
        assert store.stats().in_process == 0
    finally:
        w.stop()
        store.close()
    return str(info.value)


class TestRegistry:
    def test_register_and_call(self):
        reg = ProcedureRegistry()
        reg.register("inc", 1, lambda a: a + 1)
        assert execute_one(reg, pending_demand(psig("inc", 41))) == 42

    def test_duplicate_name(self):
        reg = ProcedureRegistry()
        reg.register("f", 0, lambda: 0)
        with pytest.raises(DuplicateProcedure):
            reg.register("f", 1, lambda a: a)

    def test_unknown_procedure(self):
        with pytest.raises(UnknownProcedure):
            execute_one(ProcedureRegistry(), pending_demand(psig("ghost")))

    def test_arity_mismatch(self):
        reg = ProcedureRegistry()
        reg.register("f", 2, lambda a, b: a + b)
        with pytest.raises(ArityMismatch):
            execute_one(reg, pending_demand(psig("f", 1)))

    def test_demo_registry(self):
        reg = build_demo_registry()
        assert execute_one(reg, pending_demand(psig("add2", 19, 23))) == 42
        assert execute_one(reg, pending_demand(psig("mul2", 6, 7))) == 42
        assert execute_one(reg, pending_demand(psig("neg", -42))) == 42


class TestWorkerLoop:
    def test_claims_and_fulfills(self):
        store = DemandStore()
        sigs = [psig("add2", i, i) for i in range(10)]
        for s in sigs:
            store.deposit(pending_demand(s))
        stop = threading.Event()

        def until_done():
            while store.stats().computed < len(sigs):
                if stop.wait(0.01):
                    return
            stop.set()

        watcher = threading.Thread(target=until_done)
        watcher.start()
        summary = run_worker(
            WorkerConfig(worker_id="w"),
            store,
            build_demo_registry(),
            stop,
        )
        watcher.join()
        assert summary.claims == 10 and summary.fulfills == 10 and summary.failures == 0
        for s in sigs:
            st, val = store.fetch(s)
            assert st is DemandState.COMPUTED and val == 2 * s.args[0]
        store.close()

    def test_fault_becomes_error_marker(self):
        reg = ProcedureRegistry()
        reg.register("boom", 0, lambda: 1 // 0)
        message = run_to_fault(reg, psig("boom"))
        assert message.startswith("ProcedureFault: boom: ZeroDivisionError")

    def test_unknown_procedure_is_fault_not_crash(self):
        assert run_to_fault(build_demo_registry(), psig("ghost", 1)).startswith("UnknownProcedure: ghost")

    def test_non_finite_result_is_fault(self):
        reg = ProcedureRegistry()
        reg.register("inf", 0, lambda: float("inf"))
        assert run_to_fault(reg, psig("inf")).startswith("ProcedureFault: inf: non-finite result")

    def test_non_encodable_result_is_fault(self):
        reg = ProcedureRegistry()
        reg.register("bad", 0, lambda: object())
        assert run_to_fault(reg, psig("bad")).startswith("MalformedValue: not a value")

    def test_float_overflow_result_is_fault_not_crash(self):
        # float(10**400) raises OverflowError; the worker must not die of it
        reg = ProcedureRegistry()
        reg.register("huge", 0, lambda: (10**400,))
        assert run_to_fault(reg, psig("huge")).startswith("MalformedValue: bad float array element")

    def test_worker_ignores_intensional_kind(self):
        from eduction.model import make_context

        store = DemandStore()
        isig = DemandSignature("p", "x", make_context([("d", 1)]), DemandKind.INTENSIONAL)
        qsig = psig("add2", 1, 0)
        store.deposit(pending_demand(isig))
        store.deposit(pending_demand(qsig))
        # an intensional deposit queues nothing, so a claim for intensional
        # demands finds none, and leaves procedural work alone
        assert store.claim("w", [DemandKind.INTENSIONAL], 5000, wait_ms=50) is None
        assert store.fetch(qsig)[0] is DemandState.PENDING
        with pytest.raises(NotFound):
            store.fetch(isig)
        store.close()

    def test_two_workers_split_queue_without_overlap(self):
        store = DemandStore()
        sigs = [psig("add2", i, 1) for i in range(50)]
        for s in sigs:
            store.deposit(pending_demand(s))
        ws = [
            Worker(WorkerConfig(worker_id=f"w{i}"), store, build_demo_registry())
            for i in range(2)
        ]
        for w in ws:
            w.start()
        for s in sigs:
            store.await_result(s, 10000)
        for w in ws:
            w.stop()
        summaries = [w.summary for w in ws]
        assert sum(s.claims for s in summaries) == 50
        assert sum(s.fulfills for s in summaries) == 50
        store.close()


class CountingStore(DemandStore):
    claims = 0

    def claim(self, *args, **kwargs):
        self.claims += 1
        return super().claim(*args, **kwargs)


class TestBlockingClaim:
    def test_idle_worker_does_not_poll(self):
        store = CountingStore()
        w = Worker(WorkerConfig(worker_id="w"), store, build_demo_registry()).start()
        time.sleep(1.0)
        w.stop()
        assert store.claims <= 1000 / CLAIM_WAIT_MS + 2

    def test_stop_returns_within_one_claim_wait(self):
        w = Worker(WorkerConfig(worker_id="w"), DemandStore(), build_demo_registry()).start()
        time.sleep(0.05)
        started = time.monotonic()
        w.stop()
        assert time.monotonic() - started < CLAIM_WAIT_MS / 1000 + 0.2
        assert not w.alive
