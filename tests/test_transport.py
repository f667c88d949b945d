"""Carriers, dispatch, retry behavior."""
import socket
import threading
import time

import pytest

from eduction import transport, wire
from eduction.model import (
    EMPTY_CONTEXT,
    DemandKind,
    DemandSignature,
    DemandState,
    make_context,
    pending_demand,
)
from eduction.store import ConflictingResult, DemandStore, DepositStatus, NotFound
from eduction.transport import (
    InProcAgent,
    StoreClient,
    TcpAgent,
    TransportUnreachable,
    connect_store,
    dispatch_store_request,
    serve_store,
    system_request,
)
from eduction.wire import MsgType


def isig(d=1):
    return DemandSignature("p", "x", make_context([("d", d)]), DemandKind.INTENSIONAL)


def qsig(d=1):
    # procedural twin of isig: queued work that workers claim under a lease
    return DemandSignature("p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (d, 0))


QUEUED = [DemandKind.PROCEDURAL]


@pytest.fixture
def store():
    s = DemandStore()
    yield s
    s.close()


@pytest.fixture
def tcp_client(store):
    srv = serve_store(store)
    cl = connect_store(f"127.0.0.1:{srv.port}")
    yield cl
    cl.close()
    srv.stop()


def inproc_store_client(store):
    return StoreClient(InProcAgent(lambda t, p: dispatch_store_request(store, t, p)))


@pytest.fixture
def inproc_client(store):
    cl = inproc_store_client(store)
    yield cl
    cl.close()


class TestDispatch:
    def test_deposit_reply_roundtrip(self, store):
        payload = wire.encode_demand(pending_demand(qsig()))
        mt, body = dispatch_store_request(store, MsgType.DEPOSIT, payload)
        assert (mt, body) == (MsgType.OK, b"\x00")
        assert store.fetch(qsig())[0] is DemandState.PENDING
        # an intensional miss answers the same byte and records nothing
        payload = wire.encode_demand(pending_demand(isig()))
        assert dispatch_store_request(store, MsgType.DEPOSIT, payload) == (MsgType.OK, b"\x00")
        with pytest.raises(NotFound):
            store.fetch(isig())

    def test_malformed_payload_is_err(self, store):
        mt, body = dispatch_store_request(store, MsgType.DEPOSIT, b"\x00garbage")
        assert mt is MsgType.ERR

    def test_err_body_carries_code_and_message(self, store):
        mt, body = dispatch_store_request(
            store, MsgType.FETCH, wire.encode_signature(isig(42))
        )
        assert mt is MsgType.ERR
        r = wire.Reader(body)
        code, message = wire.read_value(r), wire.read_value(r)
        assert code == "NotFound" and "d=42" in message
        assert isinstance(transport.error_for_code(code, message), NotFound)


class TestClaimKinds:
    # the claim request carries the kind filter as a bitmask byte
    def test_bitmask_selects_kinds(self, store, inproc_client):
        proc = DemandSignature(
            "p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (1, 2)
        )
        store.deposit(pending_demand(proc))
        assert inproc_client.claim("w", [DemandKind.INTENSIONAL], 1000) is None
        got = inproc_client.claim("w", [DemandKind.PROCEDURAL], 1000)
        assert got is not None and got.signature == proc

    def test_kinds_beyond_procedural_rejected(self, store):
        # only INTENSIONAL (0) and PROCEDURAL (1) exist: kind byte 2 and mask
        # bit 0x04 are malformed, not an empty queue
        raw = bytearray(wire.encode_demand(pending_demand(isig())))
        kind_at = 5 + 1 + 5 + 1  # after the two length-prefixed strings "p" and "x"
        assert raw[kind_at] == 0
        raw[kind_at] = 2
        claim = wire.encode_value("w") + b"\x04" + wire.encode_value(1000)
        for msg_type, payload in ((MsgType.DEPOSIT, bytes(raw)), (MsgType.CLAIM, claim)):
            mt, body = dispatch_store_request(store, msg_type, payload)
            assert mt is MsgType.ERR
            assert wire.read_value(wire.Reader(body)) == "MalformedEncoding"

    def test_empty_kind_mask_rejected(self, store, inproc_client):
        # a zero bitmask is a malformed request, not an empty filter
        store.deposit(pending_demand(isig()))
        with pytest.raises(wire.MalformedEncoding):
            inproc_client.claim("w", [], 1000)


class TestCarrierEquivalence:
    OPS = ("deposit", "fetch_miss", "claim", "fulfill", "fetch_hit", "stats")

    def run_ops(self, client):
        sig = qsig(7)
        out = []
        out.append(client.deposit(pending_demand(sig)).status.name)
        out.append(client.fetch(sig)[0].name)
        d = client.claim("w", QUEUED, 60000)
        out.append(d.signature.key().hex())
        client.fulfill(sig, 99, "w")
        st, val = client.fetch(sig)
        out.append((st.name, val))
        out.append(client.stats().as_line())
        return out

    def test_inproc_equals_tcp(self):
        results = {}
        for mode in ("inproc", "tcp"):
            store = DemandStore()
            if mode == "inproc":
                cl = inproc_store_client(store)
            else:
                srv = serve_store(store)
                cl = connect_store(f"127.0.0.1:{srv.port}")
            try:
                results[mode] = self.run_ops(cl)
            finally:
                cl.close()
                if mode == "tcp":
                    srv.stop()
                store.close()
        assert results["inproc"] == results["tcp"]


class TestTcp:
    def test_full_lifecycle_over_tcp(self, store, tcp_client):
        sig = qsig(3)
        assert tcp_client.deposit(pending_demand(sig)).status is DepositStatus.ENQUEUED
        d = tcp_client.claim("w", QUEUED, 5000)
        assert d.signature == sig
        tcp_client.fulfill(sig, 10, "w")
        assert tcp_client.await_result(sig, 1000) == 10

    def test_error_reraised_client_side(self, store, tcp_client):
        sig = qsig(4)
        tcp_client.deposit(pending_demand(sig))
        tcp_client.claim("w", QUEUED, 5000)
        tcp_client.fulfill(sig, 1, "w")
        with pytest.raises(ConflictingResult):
            tcp_client.fulfill(sig, 2, "w")
        with pytest.raises(NotFound):
            tcp_client.get_resource("missing")

    def test_resources_over_tcp(self, store, tcp_client):
        from eduction.lang import compile_source

        blob = wire.encode_geer(compile_source("40 + 2", "t"))
        tcp_client.put_resource("t", blob)
        assert tcp_client.get_resource("t") == blob

    def test_concurrent_clients(self, store):
        srv = serve_store(store)
        addr = f"127.0.0.1:{srv.port}"
        sigs = [qsig(i) for i in range(8)]
        for s in sigs:
            store.deposit(pending_demand(s))
        seen = []
        lock = threading.Lock()

        def drain(wid):
            cl = connect_store(addr)
            try:
                while True:
                    d = cl.claim(wid, QUEUED, 60000)
                    if d is None:
                        return
                    cl.fulfill(d.signature, d.signature.args[0], wid)
                    with lock:
                        seen.append(d.signature.key())
            finally:
                cl.close()

        threads = [threading.Thread(target=drain, args=(f"w{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == sorted(s.key() for s in sigs)
        assert len(set(seen)) == len(sigs)
        srv.stop()


class TestOneEncodingPerSignature:
    """Each signature is encoded once, where it is built; every hop reuses the bytes."""

    @pytest.fixture
    def fresh_encodes(self, monkeypatch):
        calls = []
        encode = wire._encode_signature

        def counting(sig):
            calls.append(sig)
            return encode(sig)

        monkeypatch.setattr(wire, "_encode_signature", counting)
        return calls

    @pytest.fixture
    def logged(self, tmp_path):
        log = str(tmp_path / "store.log")
        store = DemandStore(log_path=log)
        srv = serve_store(store)
        generator = connect_store(f"127.0.0.1:{srv.port}")
        worker = connect_store(f"127.0.0.1:{srv.port}")
        yield store, generator, worker, log
        generator.close()
        worker.close()
        srv.stop()
        store.close()

    def test_intensional_demand(self, logged, fresh_encodes):
        store, generator, _, _ = logged
        sig = isig(5)
        assert generator.deposit(pending_demand(sig)).status is DepositStatus.ENQUEUED
        generator.fulfill(sig, 120, "g")
        assert store.stats().computed == 1
        assert len(fresh_encodes) == 1 and fresh_encodes[0] is sig

    def test_procedural_demand(self, logged, fresh_encodes):
        store, generator, worker, log = logged
        sig = qsig(5)
        assert generator.deposit(pending_demand(sig)).status is DepositStatus.ENQUEUED
        claimed = worker.claim("w", QUEUED, 5000)
        worker.fulfill(claimed.signature, 5, "w")
        assert generator.await_result(sig, 1000) == 5
        assert len(fresh_encodes) == 1 and fresh_encodes[0] is sig
        # replaying the log keys every record by the bytes it holds
        replayed = DemandStore(log_path=log)
        assert replayed.fetch(claimed.signature) == (DemandState.COMPUTED, 5)
        replayed.close()
        assert len(fresh_encodes) == 1


class TestFailedEvaluation:
    def test_leaves_nothing_pending_in_a_logged_dst(self, tmp_path):
        from eduction.evaluator import DivisionByZero, Evaluator
        from eduction.lang import compile_source

        geer = compile_source("x where dimension d; x = y + 1; y = 1 / #.d; end", "p")
        log = str(tmp_path / "store.log")
        store = DemandStore(log_path=log)
        srv = serve_store(store)
        client = connect_store(f"127.0.0.1:{srv.port}")
        try:
            with pytest.raises(DivisionByZero):
                Evaluator(geer, client).eval_demand("x", make_context([("d", 0)]))
            assert client.stats().pending == 0
        finally:
            client.close()
            srv.stop()
            store.close()
        reopened = DemandStore(log_path=log)
        assert reopened.stats().pending == 0
        reopened.close()


@pytest.fixture(params=["inproc", "tcp"])
def agent(request, store):
    if request.param == "inproc":
        yield InProcAgent(lambda t, p: dispatch_store_request(store, t, p))
        return
    srv = serve_store(store)
    a = TcpAgent("127.0.0.1", srv.port)
    yield a
    a.close()
    srv.stop()


def claim_payload(*wait_ms):
    payload = wire.encode_value("w") + bytes([1 << DemandKind.PROCEDURAL]) + wire.encode_value(60000)
    return payload + b"".join(wire.encode_value(w) for w in wait_ms)


class TestBlockingClaim:
    def test_deposit_wakes_blocked_claim(self, store, agent):
        out = {}

        def run():
            out["demand"] = StoreClient(agent).claim("w", QUEUED, 5000, wait_ms=2000)
            out["at"] = time.monotonic()

        t = threading.Thread(target=run)
        t.start()
        time.sleep(0.1)
        deposited = time.monotonic()
        store.deposit(pending_demand(qsig(1)))
        t.join(3)
        assert not t.is_alive()
        assert out["demand"].signature == qsig(1)
        assert out["at"] - deposited < 0.5

    def test_empty_claim_returns_none_after_wait(self, agent):
        started = time.monotonic()
        assert StoreClient(agent).claim("w", QUEUED, 5000, wait_ms=150) is None
        assert 0.14 <= time.monotonic() - started < 1.0

    def test_three_field_claim_still_claims(self, store, agent):
        store.deposit(pending_demand(qsig(2)))
        mt, body = agent.request(MsgType.CLAIM, claim_payload())
        assert mt is MsgType.CLAIM_REPLY and body[:1] == b"\x01"

    @pytest.mark.parametrize("wait_ms", [True, -1, transport.MAX_CLAIM_WAIT_MS + 1, 1.5])
    def test_bad_wait_is_err(self, store, agent, wait_ms):
        store.deposit(pending_demand(qsig(3)))
        mt, body = agent.request(MsgType.CLAIM, claim_payload(wait_ms))
        assert mt is MsgType.ERR
        assert wire.read_value(wire.Reader(body)) == "MalformedEncoding"
        assert store.stats().pending == 1


class TestServerStop:
    def test_idle_server_stops_at_once(self, store):
        srv = serve_store(store)
        time.sleep(0.2)
        started = time.monotonic()
        srv.stop()
        assert time.monotonic() - started < 0.1

    def test_stopped_server_refuses_connections(self, store):
        srv = serve_store(store)
        srv.stop()
        with pytest.raises(TransportUnreachable):
            TcpAgent("127.0.0.1", srv.port, retry_base_ms=1, tries=2).request(MsgType.STATS, b"")


    def test_stop_ends_open_connections(self, store):
        srv = serve_store(store)
        agent = TcpAgent("127.0.0.1", srv.port, retry_base_ms=1, tries=2)
        client = StoreClient(agent)
        client.deposit(pending_demand(qsig(1)))
        srv.stop()
        with pytest.raises(TransportUnreachable):
            client.deposit(pending_demand(qsig(2)))
        agent.close()
        assert store.stats().deposits == 1


class TestRetry:
    def test_unreachable_after_retries(self):
        # grab a port and close it so nothing listens there
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()

        agent = TcpAgent("127.0.0.1", port, retry_base_ms=1, tries=3)
        before = transport.time.monotonic()
        with pytest.raises(TransportUnreachable):
            agent.request(MsgType.STATS, b"")
        elapsed = transport.time.monotonic() - before
        # two backoff sleeps: 1ms + 2ms, far under a second
        assert elapsed < 2.0

    def test_backoff_doubles(self, monkeypatch):
        waits = []
        monkeypatch.setattr(transport.time, "sleep", waits.append)

        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        agent = TcpAgent("127.0.0.1", port, retry_base_ms=100, tries=5)
        with pytest.raises(TransportUnreachable):
            agent.request(MsgType.STATS, b"")
        assert waits == [0.1, 0.2, 0.4, 0.8]


class TestSystemChannel:
    def test_system_request_roundtrip(self):
        def handler(mt, payload):
            op, body = transport.decode_system_payload(payload)
            return MsgType.OK, transport.encode_system_reply({"op": op, "echo": body})

        agent = InProcAgent(handler)
        reply = system_request(agent, 4, {"node": 1})
        assert reply == {"op": 4, "echo": {"node": 1}}

    def test_malformed_system_payload(self, store):
        mt, body = dispatch_store_request(store, MsgType.SYSTEM, b"\x04\x00")
        assert mt is MsgType.ERR
