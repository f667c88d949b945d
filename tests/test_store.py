"""Demand store: queue discipline, leases, persistence."""
import logging
import os
import re
import random
import sys
import threading
import time
import tracemalloc

import pytest

from eduction import wire
from eduction.errors import EductionError
from eduction.evaluator import DivisionByZero, Evaluator
from eduction.lang import compile_source
from eduction.model import (
    EMPTY_CONTEXT,
    DemandKind,
    DemandSignature,
    DemandState,
    Fault,
    MalformedDemand,
    as_float_array,
    make_context,
    pending_demand,
)
from eduction.store import (
    ConflictingResult,
    DemandStore,
    DepositStatus,
    NonFiniteValue,
    NotAJournal,
    NotClaimed,
    NotFound,
    ProcedureFault,
    Timeout,
    UnreadableJournalVersion,
)

from helpers import assert_every_cut_replays_its_whole_records


def isig(name="fact", **tags):
    return DemandSignature("prog", name, make_context(tags.items()), DemandKind.INTENSIONAL)


def psig(proc="add2", args=(1, 2)):
    return DemandSignature("prog", proc, EMPTY_CONTEXT, DemandKind.PROCEDURAL, tuple(args))


def qsig(d):
    # procedural twin of isig(d=...): queued work that workers claim under a lease
    return psig("add2", (d, 0))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, ms):
        self.t += ms


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def st(clock):
    s = DemandStore(clock=clock)
    yield s
    s.close()


class TestLifecycle:
    def test_deposit_claim_fulfill(self, st):
        sig = qsig(1)
        out = st.deposit(pending_demand(sig))
        assert out.status is DepositStatus.ENQUEUED and out.value is None

        d = st.claim("w1", lease_ms=5000)
        assert d is not None and d.signature == sig
        assert st.fetch(sig)[0] is DemandState.IN_PROCESS

        st.fulfill(sig, 42, "w1")
        state, value = st.fetch(sig)
        assert state is DemandState.COMPUTED and value == 42

    def test_duplicate_pending(self, st):
        sig = qsig(2)
        st.deposit(pending_demand(sig))
        out = st.deposit(pending_demand(sig))
        assert out.status is DepositStatus.DUPLICATE_PENDING
        # still only one claimable instance
        assert st.claim("w", 1000) is not None
        assert st.claim("w", 1000) is None

    def test_already_computed_returns_value(self, st):
        sig = qsig(3)
        st.deposit(pending_demand(sig))
        st.claim("w", 1000)
        st.fulfill(sig, 7, "w")
        out = st.deposit(pending_demand(sig))
        assert out.status is DepositStatus.ALREADY_COMPUTED and out.value == 7

    def test_claim_filters_by_kind(self, st):
        # the store alone decides what is claimable: only procedural work is queued
        st.deposit(pending_demand(isig(d=1)))
        st.deposit(pending_demand(psig()))
        got = st.claim("w", 1000)
        assert got is not None and got.signature == psig()
        assert st.claim("w", 1000) is None

    def test_fetch_unknown(self, st):
        with pytest.raises(NotFound):
            st.fetch(isig(d=99))

    def test_fetch_pending(self, st):
        sig = qsig(98)
        st.deposit(pending_demand(sig))
        assert st.fetch(sig) == (DemandState.PENDING, None)
        # an intensional miss records nothing, so there is nothing to fetch
        st.deposit(pending_demand(isig(d=98)))
        with pytest.raises(NotFound):
            st.fetch(isig(d=98))

    def test_fulfill_without_claim(self, st):
        sig = qsig(4)
        st.deposit(pending_demand(sig))
        with pytest.raises(NotClaimed):
            st.fulfill(sig, 1, "w")

    def test_fulfill_unknown_demand(self, st):
        with pytest.raises(NotClaimed):
            st.fulfill(qsig(5), 1, "w")
        # an intensional result needs no deposit before it: it is stored
        st.fulfill(isig(d=5), 1, "w")
        assert st.fetch(isig(d=5)) == (DemandState.COMPUTED, 1)

    def test_idempotent_fulfill_same_value(self, st):
        sig = qsig(6)
        st.deposit(pending_demand(sig))
        st.claim("w", 1000)
        st.fulfill(sig, 9, "w")
        st.fulfill(sig, 9, "other")  # no error: same bytes
        assert st.fetch(sig) == (DemandState.COMPUTED, 9)

    def test_conflicting_result(self, st):
        sig = qsig(7)
        st.deposit(pending_demand(sig))
        st.claim("w", 1000)
        st.fulfill(sig, 9, "w")
        with pytest.raises(ConflictingResult):
            st.fulfill(sig, 10, "w")

    def test_non_finite_rejected(self, st):
        sig = qsig(8)
        st.deposit(pending_demand(sig))
        st.claim("w", 1000)
        with pytest.raises(NonFiniteValue):
            st.fulfill(sig, float("nan"), "w")
        with pytest.raises(NonFiniteValue):
            st.fulfill(sig, float("inf"), "w")

    def test_zero_sign_distinguished(self, st):
        # -0.0 and 0.0 encode differently, so the conflict guard sees them apart
        sig = qsig(9)
        st.deposit(pending_demand(sig))
        st.claim("w", 1000)
        st.fulfill(sig, 0.0, "w")
        with pytest.raises(ConflictingResult):
            st.fulfill(sig, -0.0, "w")

    def test_unencodable_argument_is_malformed_demand(self, st):
        # an Int argument past 64 bits has no wire encoding, so no key
        with pytest.raises(MalformedDemand):
            st.deposit(pending_demand(psig("add2", (1 << 70, 0))))
        assert st.stats().deposits == 0 and st.stats().pending == 0


class TestIntensional:
    # generators fulfil intensional demands directly: never queued, never leased
    def test_fulfil_needs_no_claim(self, st):
        sig = isig(d=1)
        assert st.deposit(pending_demand(sig)).status is DepositStatus.ENQUEUED
        assert st.claim("w", 1000) is None
        st.fulfill(sig, 42, "dgt")
        assert st.fetch(sig) == (DemandState.COMPUTED, 42)
        s = st.stats()
        assert s.computed == 1 and s.pending == 0 and s.in_process == 0

    def test_repeat_fulfil_agrees_or_conflicts(self, st):
        sig = isig(d=2)
        st.deposit(pending_demand(sig))
        # the second deposit is a plain miss: nothing was recorded by the first
        assert st.deposit(pending_demand(sig)).status is DepositStatus.ENQUEUED
        st.fulfill(sig, 7, "dgt")
        st.fulfill(sig, 7, "dgt")  # the slower generator's identical result
        with pytest.raises(ConflictingResult):
            st.fulfill(sig, 8, "dgt")
        assert st.fetch(sig) == (DemandState.COMPUTED, 7)

    def test_failed_evaluation_leaves_nothing_pending(self, st):
        geer = compile_source("x where dimension d; x = y + 1; y = 1 / #.d; end", "p")
        with pytest.raises(DivisionByZero):
            Evaluator(geer, st).eval_demand("x", make_context([("d", 0)]))
        s = st.stats()
        assert (s.computed, s.pending, s.in_process) == (0, 0, 0)


class TestQueueOrder:
    def test_fifo_by_deposit_time(self, st, clock):
        sigs = [qsig(i) for i in (5, 1, 3)]
        for s in sigs:
            st.deposit(pending_demand(s))
            clock.advance(1)
        claimed = [st.claim("w", 1000).signature for _ in sigs]
        assert claimed == sigs

    def test_key_breaks_timestamp_ties(self, st):
        # same deposit instant: key bytes decide
        sigs = [qsig(i) for i in (4, 2, 9)]
        for s in sigs:
            st.deposit(pending_demand(s))
        claimed = [st.claim("w", 1000).signature for _ in sigs]
        assert [c.key() for c in claimed] == sorted(s.key() for s in sigs)


class TestLeases:
    def test_expiry_redelivers(self, st, clock):
        sig = qsig(1)
        st.deposit(pending_demand(sig))
        st.claim("w1", lease_ms=1000)
        assert st.stats().redeliveries == 0
        assert st.claim("w2", 1000) is None

        clock.advance(1001)
        assert st.sweep_expired_leases() == 1
        assert st.fetch(sig)[0] is DemandState.PENDING

        d2 = st.claim("w2", 1000)
        assert d2 is not None and d2.state is DemandState.IN_PROCESS
        assert st.stats().redeliveries == 1

    def test_unexpired_lease_not_swept(self, st, clock):
        st.deposit(pending_demand(qsig(2)))
        st.claim("w1", lease_ms=1000)
        clock.advance(999)
        assert st.sweep_expired_leases() == 0

    def test_late_fulfill_after_redelivery_same_value(self, st, clock):
        sig = qsig(3)
        st.deposit(pending_demand(sig))
        st.claim("w1", lease_ms=100)
        clock.advance(101)
        st.sweep_expired_leases()
        st.claim("w2", lease_ms=5000)
        st.fulfill(sig, 5, "w2")
        # the original claimer comes back with the same answer: accepted quietly
        st.fulfill(sig, 5, "w1")
        assert st.fetch(sig) == (DemandState.COMPUTED, 5)

    def test_await_result(self):
        # real clock: await blocks on wall time
        st = DemandStore()
        sig = qsig(4)
        st.deposit(pending_demand(sig))

        def later():
            st.claim("w", 1000)
            st.fulfill(sig, 11, "w")

        t = threading.Timer(0.05, later)
        t.start()
        try:
            assert st.await_result(sig, timeout_ms=2000) == 11
        finally:
            t.join()
            st.close()

    def test_await_timeout(self):
        st = DemandStore()
        st.deposit(pending_demand(qsig(5)))
        st.deposit(pending_demand(isig(d=5)))
        try:
            with pytest.raises(Timeout):
                st.await_result(qsig(5), timeout_ms=20)
            # an intensional miss leaves nothing to wait for
            with pytest.raises(NotFound):
                st.await_result(isig(d=5), timeout_ms=20)
        finally:
            st.close()

    def test_await_unknown_demand(self):
        st = DemandStore()
        try:
            with pytest.raises(NotFound):
                st.await_result(isig(d=6), timeout_ms=20)
        finally:
            st.close()


def claim_in_thread(st, wait_ms=2000):
    """Start a blocking claim; the returned dict gets its demand and finish time."""
    out = {}

    def run():
        out["demand"] = st.claim("w", 5000, wait_ms=wait_ms)
        out["at"] = time.monotonic()

    t = threading.Thread(target=run)
    t.start()
    time.sleep(0.1)  # let it block
    return t, out


class TestBlockingClaim:
    def test_deposit_wakes_blocked_claim(self, st):
        t, out = claim_in_thread(st)
        deposited = time.monotonic()
        st.deposit(pending_demand(qsig(1)))
        t.join(3)
        assert not t.is_alive()
        assert out["demand"].signature == qsig(1)
        assert out["at"] - deposited < 0.5

    def test_sweep_wakes_blocked_claim(self, st, clock):
        st.deposit(pending_demand(qsig(2)))
        st.claim("w1", lease_ms=1000)
        t, out = claim_in_thread(st)
        clock.advance(1001)
        swept = time.monotonic()
        assert st.sweep_expired_leases() == 1
        t.join(3)
        assert not t.is_alive()
        assert out["demand"].signature == qsig(2) and st.stats().redeliveries == 1
        assert out["at"] - swept < 0.5

    def test_empty_claim_returns_none_after_wait(self, st):
        started = time.monotonic()
        assert st.claim("w", 5000, wait_ms=150) is None
        assert 0.14 <= time.monotonic() - started < 1.0

    def test_each_blocked_claimer_gets_one_deposit(self, st):
        claimers = [claim_in_thread(st) for _ in range(4)]
        deposited = time.monotonic()
        for d in range(4):
            st.deposit(pending_demand(qsig(d)))
        for t, _ in claimers:
            t.join(3)
        assert not any(t.is_alive() for t, _ in claimers)
        assert sorted(out["demand"].signature.args[0] for _, out in claimers) == [0, 1, 2, 3]
        assert all(out["at"] - deposited < 0.5 for _, out in claimers)

    def test_deposit_wakes_one_blocked_claimer(self, st, monkeypatch):
        wakeups = []
        wait = st._queued.wait
        monkeypatch.setattr(st._queued, "wait", lambda timeout=None: wakeups.append(wait(timeout)))
        claimers = [claim_in_thread(st, wait_ms=1000) for _ in range(4)]
        st.deposit(pending_demand(qsig(1)))
        time.sleep(0.2)
        # waking all four would return four waits: one claim, three that wait again
        assert len(wakeups) == 1
        for t, _ in claimers:
            t.join(3)
        assert not any(t.is_alive() for t, _ in claimers)
        assert [out["demand"] is None for _, out in claimers].count(False) == 1

    def test_blocked_claimers_take_each_deposit_once(self):
        st = DemandStore()
        claimed = []
        stop = threading.Event()

        def claimer(wid):
            while not stop.is_set():
                d = st.claim(wid, 60000, wait_ms=50)
                if d is not None:
                    claimed.append(d.signature)
                    st.fulfill(d.signature, 0, wid)

        def depositor(base):
            for i in range(100):
                st.deposit(pending_demand(qsig(base + i)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            claimers = [threading.Thread(target=claimer, args=(f"w{i}",)) for i in range(8)]
            depositors = [threading.Thread(target=depositor, args=(b,)) for b in (0, 1000)]
            for t in claimers + depositors:
                t.start()
            deadline = time.monotonic() + 10
            while st.stats().computed < 200 and time.monotonic() < deadline:
                time.sleep(0.01)
            stop.set()
            for t in claimers + depositors:
                t.join(5)
        finally:
            sys.setswitchinterval(switch)
            st.close()
        assert not any(t.is_alive() for t in claimers + depositors)
        assert len(claimed) == len(set(claimed)) == 200
        assert st.stats().in_process == st.stats().pending == 0


class TestLazyExpiry:
    """Leases expire where they are read: no thread watches them."""

    def test_blocked_claim_gets_lapsed_lease_at_expiry(self):
        st = DemandStore()  # real clock, and no thread of its own
        sig = qsig(7)
        st.deposit(pending_demand(sig))
        before = time.monotonic()
        st.claim("dead", lease_ms=300)
        after = time.monotonic()
        try:
            d = st.claim("live", 5000, wait_ms=2000)
            got = time.monotonic()
            assert d is not None and d.signature == sig
            assert before + 0.3 <= got < after + 0.3 + 0.1
            assert st.stats().redeliveries == 1
        finally:
            st.close()

    def test_claim_without_wait_redelivers(self, st, clock):
        st.deposit(pending_demand(qsig(1)))
        st.claim("dead", lease_ms=1000)
        clock.advance(1001)
        d = st.claim("live", 1000)  # wait_ms=0, as criterion 4 drains
        assert d is not None and d.signature == qsig(1) and d.state is DemandState.IN_PROCESS
        assert st.stats().redeliveries == 1

    def test_fetch_reports_lapsed_lease_pending(self, st, clock):
        sig = qsig(2)
        st.deposit(pending_demand(sig))
        st.claim("dead", lease_ms=1000)
        assert st.fetch(sig) == (DemandState.IN_PROCESS, None)
        clock.advance(1001)
        assert st.fetch(sig) == (DemandState.PENDING, None)
        s = st.stats()
        assert (s.pending, s.in_process, s.redeliveries) == (1, 0, 1)

    def test_stats_reports_lapsed_lease_pending(self, st, clock):
        st.deposit(pending_demand(qsig(3)))
        st.claim("dead", lease_ms=1000)
        clock.advance(1001)
        s = st.stats()
        assert (s.pending, s.in_process, s.redeliveries) == (1, 0, 1)

    def test_redelivery_keeps_deposit_order(self, st, clock):
        first, second = qsig(5), qsig(1)
        st.deposit(pending_demand(first))
        clock.advance(1)
        st.deposit(pending_demand(second))
        assert st.claim("dead", lease_ms=100).signature == first
        clock.advance(101)
        # the redelivered demand was deposited first, so it is claimed first
        assert st.claim("w", 1000).signature == first
        assert st.claim("w", 1000).signature == second

    def test_claim_waits_for_due_lease_without_spinning(self, st, clock, monkeypatch):
        st.deposit(pending_demand(qsig(4)))
        st.claim("w1", lease_ms=1000)
        clock.advance(1000)  # due now, but a lease lapses only once its expiry has passed
        sweeps = []
        sweep = st.sweep_expired_leases
        monkeypatch.setattr(st, "sweep_expired_leases", lambda now=None: sweeps.append(now) or sweep(now))
        assert st.claim("w2", 1000, wait_ms=100) is None
        # the fake clock never moves on, so each look waits the 1 ms floor
        assert 2 <= len(sweeps) <= 110


class TestResources:
    @staticmethod
    def blob(src="1 + 2", pid="p1"):
        from eduction import wire
        from eduction.lang import compile_source

        return wire.encode_geer(compile_source(src, pid))

    def test_put_get_roundtrip(self, st):
        data = self.blob()
        st.put_resource("p1", data)
        assert st.get_resource("p1") == data

    def test_unknown_resource(self, st):
        with pytest.raises(NotFound):
            st.get_resource("nope")

    def test_idempotent_identical_put(self, st):
        data = self.blob()
        st.put_resource("p1", data)
        st.put_resource("p1", data)
        assert st.get_resource("p1") == data

    def test_overwrite_allowed(self, st):
        # models are re-put as training progresses, so resources overwrite
        st.put_resource("p1", self.blob("1 + 2"))
        newer = self.blob("1 + 3")
        st.put_resource("p1", newer)
        assert st.get_resource("p1") == newer

    def test_untagged_blob_rejected(self, st):
        from eduction.lang import MalformedGeer

        with pytest.raises(MalformedGeer):
            st.put_resource("p1", b"plain bytes")


class TestFaults:
    """A Fault is stored as the result; every read of it raises ProcedureFault."""

    FAULT = Fault("UnknownProcedure", "add2")

    def faulted(self, st):
        sig = qsig(1)
        st.deposit(pending_demand(sig))
        st.claim("w", 1000)
        st.fulfill(sig, self.FAULT, "w")
        return sig

    def test_every_read_raises(self, st):
        sig = self.faulted(st)
        reads = [lambda: st.deposit(pending_demand(sig)), lambda: st.fetch(sig), lambda: st.await_result(sig, 10)]
        for read in reads:
            with pytest.raises(ProcedureFault, match=r"\AUnknownProcedure: add2\Z"):
                read()
        s = st.stats()
        assert (s.computed, s.pending, s.in_process) == (1, 0, 0)

    def test_refulfil_compares_bytes(self, st):
        sig = self.faulted(st)
        st.fulfill(sig, Fault("UnknownProcedure", "add2"), "w")  # idempotent completion
        with pytest.raises(ConflictingResult):
            st.fulfill(sig, Fault("UnknownProcedure", "add3"), "w")
        with pytest.raises(ConflictingResult):
            st.fulfill(sig, "UnknownProcedure: add2", "w")

    def test_fault_replays(self, tmp_path, clock):
        log = str(tmp_path / "store.log")
        s1 = DemandStore(log_path=log, clock=clock)
        sig = self.faulted(s1)
        s1.close()
        s2 = DemandStore(log_path=log, clock=clock)
        with pytest.raises(ProcedureFault, match=r"\AUnknownProcedure: add2\Z"):
            s2.deposit(pending_demand(sig))
        s2.close()


class TestFootprint:
    """A computed entry costs its key and its value, nothing more."""

    @staticmethod
    def traced_growth(fill) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fill()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    def test_intensional_entries(self, st):
        n = 10_000

        def fill():
            for i in range(n):
                sig = isig("fib", d=i)
                st.deposit(pending_demand(sig))
                st.fulfill(sig, i, "dgt")

        assert self.traced_growth(fill) / n < 300
        assert st.stats().computed == n

    def test_float_array_procedural_entries(self, st):
        n = 20
        rng = random.Random(7)
        key_len = []

        def fill(count):
            for _ in range(count):  # fresh floats, as they arrive off the wire
                amplitudes = as_float_array(rng.uniform(-1, 1) for _ in range(512))
                sig = DemandSignature(
                    "pipeline", "fe.window_energy", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (amplitudes, 8)
                )
                key_len.append(len(sig.key()))
                st.deposit(pending_demand(sig))
                st.claim("w", 1000)
                st.fulfill(sig, as_float_array(range(8)), "w")

        fill(1)  # warms the store's tables and the interpreter's caches
        assert self.traced_growth(lambda: fill(n)) / n < 2 * key_len[-1]
        assert st.stats().computed == n + 1


class TestStats:
    def test_counters(self, st):
        sig = qsig(1)
        st.deposit(pending_demand(sig))  # warehouse miss: enqueued
        st.fetch(sig)  # miss: still pending
        st.claim("w", 1000)
        st.fulfill(sig, 1, "w")
        st.fetch(sig)  # hit
        s = st.stats()
        assert s.deposits == 1 and s.computed == 1
        assert s.hits == 1 and s.misses == 2
        assert s.pending == 0 and s.in_process == 0

    def test_as_line(self, st):
        line = st.stats().as_line()
        assert "deposits=0" in line and "redeliveries=0" in line


class TestPersistence:
    def test_replay_restores_state(self, tmp_path, clock, caplog):
        blob = TestResources.blob()
        log = str(tmp_path / "store.log")
        s1 = DemandStore(log_path=log, clock=clock)
        done, open_ = qsig(1), qsig(2)
        s1.deposit(pending_demand(done))
        s1.deposit(pending_demand(open_))
        s1.claim("w", 1000)
        s1.fulfill(done, 123, "w")
        s1.put_resource("p", blob)
        s1.close()

        s2 = DemandStore(log_path=log, clock=clock)
        assert s2.fetch(done) == (DemandState.COMPUTED, 123)
        # an in-flight claim does not survive: the demand shows up claimable again
        assert s2.fetch(open_)[0] is DemandState.PENDING
        assert s2.claim("w2", 1000).signature == open_
        assert s2.get_resource("p") == blob
        s2.close()
        assert caplog.records == []  # an intact log drops nothing

    def test_truncated_tail_ignored(self, tmp_path, clock, caplog):
        log = str(tmp_path / "store.log")
        s1 = DemandStore(log_path=log, clock=clock)
        a, b = qsig(1), qsig(2)
        for sig in (a, b):
            s1.deposit(pending_demand(sig))
            s1.claim("w", 1000)
            s1.fulfill(sig, sig.args[0], "w")
        s1.close()

        size = os.path.getsize(log)
        with open(log, "r+b") as f:
            f.truncate(size - 3)  # tear the final record

        with caplog.at_level(logging.WARNING, logger="eduction.store"):
            s2 = DemandStore(log_path=log, clock=clock)
        torn = size - 3 - os.path.getsize(log)
        assert torn > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"journal {log}: dropping {torn} bytes of torn or corrupt tail"
        ]
        assert s2.fetch(a) == (DemandState.COMPUTED, 1)
        # the torn trailing record is dropped: b's result never replays
        assert s2.fetch(b)[0] is not DemandState.COMPUTED
        s2.close()

    def test_replay_queues_no_intensional_demand(self, tmp_path, clock):
        log = str(tmp_path / "store.log")
        s1 = DemandStore(log_path=log, clock=clock)
        sig = isig(d=1)
        s1.deposit(pending_demand(sig))
        s1.deposit(pending_demand(qsig(1)))
        s1.close()

        s2 = DemandStore(log_path=log, clock=clock)
        assert s2.fetch(qsig(1)) == (DemandState.PENDING, None)
        with pytest.raises(NotFound):
            s2.fetch(sig)
        assert s2.claim("w", 1000).signature == qsig(1)
        assert s2.claim("w", 1000) is None
        s2.fulfill(sig, 3, "dgt")
        assert s2.fetch(sig) == (DemandState.COMPUTED, 3)
        s2.close()

    def test_replay_queues_only_unfulfilled_work(self, tmp_path, clock):
        log = str(tmp_path / "store.log")
        s1 = DemandStore(log_path=log, clock=clock)
        for d in range(200):
            s1.deposit(pending_demand(qsig(d)))
            s1.claim("w", 1000)
            s1.fulfill(qsig(d), d, "w")
        s1.close()

        s2 = DemandStore(log_path=log, clock=clock)
        assert s2.stats().pending == 0
        # a completed demand leaves no claim-heap entry behind
        assert s2._queue == []
        s2.deposit(pending_demand(qsig(200)))
        s2.close()

        s3 = DemandStore(log_path=log, clock=clock)
        assert [key for _, key in s3._queue] == [qsig(200).key()]
        s3.close()

    def test_no_log_builds_no_log_payload(self, st, monkeypatch):
        queued, computed = qsig(1), isig(d=1)
        queued.key(), computed.key()  # the callers' own encodings
        calls = []

        def counting(name, encode):
            return lambda x: calls.append(name) or encode(x)

        for name in ("encode_value", "encode_demand"):
            monkeypatch.setattr(wire, name, counting(name, getattr(wire, name)))
        st.deposit(pending_demand(queued))
        st.claim("w", 1000)
        st.fulfill(queued, 5, "w")
        st.fulfill(computed, 6, "dgt")
        assert calls == []

    def test_no_log_put_resource_encodes_nothing(self, st, monkeypatch):
        blob = TestResources.blob()
        calls = []
        encode = wire.encode_value
        monkeypatch.setattr(wire, "encode_value", lambda v: calls.append(v) or encode(v))
        st.put_resource("p1", blob)
        assert st.get_resource("p1") == blob
        assert calls == []

    def test_cold_intensional_demand_logs_one_fulfill(self, tmp_path, clock):
        log = str(tmp_path / "store.log")
        s = DemandStore(log_path=log, clock=clock)
        sig = isig(d=3)
        assert s.deposit(pending_demand(sig)).status is DepositStatus.ENQUEUED
        s.fulfill(sig, 6, "dgt")
        s.close()
        with open(log, "rb") as f:
            frames = [(t, p) for t, p, _ in wire.iter_frames(f.read())]
        assert frames == [(wire.MsgType.FULFILL, sig.key() + wire.encode_value(6))]

    def test_closed_log_refuses_every_change_it_would_record(self, tmp_path, clock):
        log = tmp_path / "store.log"
        s = DemandStore(log_path=str(log), clock=clock)
        s.deposit(pending_demand(qsig(1)))
        s.claim("w", 1000)
        s.close()
        size = log.stat().st_size
        changes = {
            "procedural deposit": lambda: s.deposit(pending_demand(qsig(2))),
            "procedural fulfil": lambda: s.fulfill(qsig(1), 1, "w"),
            "intensional fulfil": lambda: s.fulfill(isig(d=1), 1, "dgt"),
            "resource put": lambda: s.put_resource("p", TestResources.blob()),
        }
        for name, change in changes.items():
            with pytest.raises(EductionError) as info:
                change()
            assert info.value.code == "StoreClosed", name
        assert log.stat().st_size == size
        stats = s.stats()  # nothing it refused was made in memory either
        assert (stats.computed, stats.pending, stats.in_process) == (0, 0, 1)
        with pytest.raises(NotFound):
            s.get_resource("p")
        # a lookup, or a deposit of queued work, records nothing: still served
        assert s.deposit(pending_demand(isig(d=1))).status is DepositStatus.ENQUEUED
        assert s.deposit(pending_demand(qsig(1))).status is DepositStatus.DUPLICATE_PENDING
        s.close()  # a second close does nothing

    def test_replays_log_with_intensional_deposits(self, tmp_path, clock):
        # logs written before intensional deposits became pure lookups hold a
        # DEPOSIT frame for every intensional miss, computed or abandoned
        done, abandoned, queued = isig(d=1), isig(d=2), qsig(1)
        frames = [
            (wire.MsgType.DEPOSIT, wire.encode_demand(pending_demand(done))),
            (wire.MsgType.DEPOSIT, wire.encode_demand(pending_demand(abandoned))),
            (wire.MsgType.FULFILL, done.key() + wire.encode_value(10)),
            (wire.MsgType.DEPOSIT, wire.encode_demand(pending_demand(queued))),
        ]
        log = tmp_path / "store.log"
        log.write_bytes(b"".join(wire.encode_frame(t, p) for t, p in frames))

        s = DemandStore(log_path=str(log), clock=clock)
        assert s.fetch(done) == (DemandState.COMPUTED, 10)
        with pytest.raises(NotFound):
            s.fetch(abandoned)
        stats = s.stats()
        assert (stats.computed, stats.pending, stats.in_process) == (1, 1, 0)
        assert s.claim("w", 1000).signature == queued
        assert s.claim("w", 1000) is None
        s.close()

    def test_resource_with_an_int_id_stops_replay(self, tmp_path, clock, caplog):
        blob = TestResources.blob()
        log = str(tmp_path / "store.log")
        s1 = DemandStore(log_path=log, clock=clock)
        s1.put_resource("p", blob)
        s1.close()
        good = os.path.getsize(log)
        with open(log, "ab") as f:
            payload = wire.encode_value(1) + len(blob).to_bytes(4, "big") + blob
            f.write(wire.encode_frame(wire.MsgType.RESOURCE_PUT, payload))

        with caplog.at_level(logging.WARNING, logger="eduction.store"):
            s2 = DemandStore(log_path=log, clock=clock)
        assert os.path.getsize(log) == good
        assert len(caplog.records) == 1
        assert s2.get_resource("p") == blob
        with pytest.raises(NotFound):
            s2.get_resource(1)
        s2.close()

    def test_a_resource_record_with_trailing_bytes_puts_nothing(self, tmp_path, clock, caplog):
        blob = TestResources.blob()
        log = str(tmp_path / "store.log")
        payload = wire.encode_value("p") + len(blob).to_bytes(4, "big") + blob + b"\x00"
        with open(log, "wb") as f:
            f.write(wire.encode_frame(wire.MsgType.RESOURCE_PUT, payload))
        with caplog.at_level(logging.WARNING, logger="eduction.store"):
            s = DemandStore(log_path=log, clock=clock)
        assert os.path.getsize(log) == 0 and len(caplog.records) == 1
        with pytest.raises(NotFound):  # the log dropped the record, so the store holds none of it
            s.get_resource("p")
        s.close()

    def test_corrupt_byte_stops_replay(self, tmp_path, clock, caplog):
        log = str(tmp_path / "store.log")
        s1 = DemandStore(log_path=log, clock=clock)
        a, b = qsig(1), qsig(2)
        s1.deposit(pending_demand(a))
        off_before_b = os.path.getsize(log)
        s1.deposit(pending_demand(b))
        s1.close()

        size = os.path.getsize(log)
        with open(log, "r+b") as f:
            f.seek(off_before_b)
            f.write(b"\xff\xff\xff\xff")

        with caplog.at_level(logging.WARNING, logger="eduction.store"):
            s2 = DemandStore(log_path=log, clock=clock)
        assert os.path.getsize(log) == off_before_b
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == f"journal {log}: dropping {size - off_before_b} bytes of torn or corrupt tail"
        assert s2.claim("w", 1000).signature == a
        assert s2.claim("w", 1000) is None
        s2.close()


class TestJournal:
    def test_every_cut_of_a_store_log_replays_its_whole_records(self, tmp_path, clock, caplog):
        log = str(tmp_path / "store.log")
        s = DemandStore(log_path=log, clock=clock)
        s.deposit(pending_demand(qsig(1)))
        s.deposit(pending_demand(qsig(2)))
        s.claim("w", 1000)
        s.fulfill(qsig(1), 1, "w")
        s.fulfill(isig(d=1), 2.5, "dgt")
        s.close()
        assert_every_cut_replays_its_whole_records(log, caplog)

    @pytest.mark.parametrize("junk", [b"not a log\n", b"GDMX" + bytes(20), b"\x00"], ids=["text", "bad-magic", "zero"])
    def test_a_file_that_was_never_a_journal_is_refused_untouched(self, tmp_path, clock, junk):
        log = tmp_path / "store.log"
        log.write_bytes(junk)
        with pytest.raises(NotAJournal, match=str(log)):
            DemandStore(log_path=str(log), clock=clock)
        assert log.read_bytes() == junk

    @pytest.mark.parametrize("at", ["first", "second"])
    def test_a_log_of_another_version_is_refused_untouched(self, tmp_path, clock, monkeypatch, at):
        log = tmp_path / "store.log"
        s = DemandStore(log_path=str(log), clock=clock)
        s.deposit(pending_demand(qsig(1)))
        second = os.path.getsize(log)
        if at == "second":  # a log that a later version went on writing
            monkeypatch.setattr(wire, "VERSION", 2)
        s.deposit(pending_demand(qsig(2)))
        s.close()
        old = log.read_bytes()
        # a reader of version 2 meets version 1 at byte 0; one of version 1 meets version 2 at the second frame
        found, expected, start = (1, 2, 0) if at == "first" else (2, 1, second)
        monkeypatch.setattr(wire, "VERSION", expected)
        message = f"{log} holds a frame of version {found} at byte {start}; this code reads version {expected}"
        with pytest.raises(UnreadableJournalVersion, match=f"^{re.escape(message)}$") as refused:
            DemandStore(log_path=str(log), clock=clock)
        assert isinstance(refused.value, NotAJournal)
        assert log.read_bytes() == old

    def test_a_tear_inside_the_first_header_is_a_torn_tail(self, tmp_path, clock, caplog):
        log = tmp_path / "store.log"
        log.write_bytes(b"GD")
        with caplog.at_level(logging.WARNING, logger="eduction.store"):
            s = DemandStore(log_path=str(log), clock=clock)
        assert [r.getMessage() for r in caplog.records] == [f"journal {log}: dropping 2 bytes of torn or corrupt tail"]
        assert log.read_bytes() == b""
        s.deposit(pending_demand(qsig(1)))
        s.close()
        assert [t for t, _, _ in wire.iter_frames(log.read_bytes())] == [wire.MsgType.DEPOSIT]

