"""Carriers, dispatch, retry behavior."""
import hashlib
import socket
import struct
import sys
import threading
import time
from dataclasses import replace

import pytest

from eduction import pipeline as P
from eduction import model, transport, wire
from eduction.lang import compile_source
from eduction.model import (
    EMPTY_CONTEXT,
    Demand,
    DemandKind,
    DemandSignature,
    DemandState,
    Fault,
    make_context,
    pending_demand,
)
from eduction.evaluator import DivisionByZero, Evaluator
from eduction.store import (
    ENQUEUED,
    ConflictingResult,
    DemandStore,
    DepositOutcome,
    DepositStatus,
    NonFiniteValue,
    NotFound,
    ProcedureFault,
    StoreStats,
    gather,
)
from eduction.transport import (
    InProcAgent,
    StoreClient,
    TcpAgent,
    TcpServer,
    TransportUnreachable,
    connect_store,
    dispatch_store_request,
    serve_store,
    system_request,
)
from eduction.wire import MsgType
from eduction.worker import ProcedureRegistry, Worker, WorkerConfig


def isig(d=1):
    return DemandSignature("p", "x", make_context([("d", d)]), DemandKind.INTENSIONAL)


def qsig(d=1):
    # procedural twin of isig: queued work that workers claim under a lease
    return DemandSignature("p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (d, 0))


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


def assert_malformed(reply):
    mt, body = reply
    assert mt is MsgType.ERR
    assert wire.read_value(body, 0)[0] == "MalformedEncoding"


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
        code, message = wire.decode_fields(body, wire.read_value, wire.read_value)
        assert code == "NotFound" and "d=42" in message
        assert isinstance(transport.error_for_code(code, message), NotFound)

    @pytest.mark.parametrize(
        "msg_type, payload",
        [
            (MsgType.DEPOSIT, wire.encode_demand(Demand(qsig(), DemandState.IN_PROCESS))),
            (MsgType.CLAIM, wire.encode_value("w") + wire.encode_value(0) + wire.encode_value(0)),
        ],
        ids=["deposit-in-process", "claim-lease-0"],
    )
    def test_store_refuses_malformed_demand(self, store, msg_type, payload):
        store.deposit(pending_demand(qsig(2)))
        mt, body = dispatch_store_request(store, msg_type, payload)
        assert mt is MsgType.ERR
        assert wire.read_value(body, 0)[0] == "MalformedDemand"
        assert store.stats().pending == 1  # nothing queued, nothing leased
        assert store.stats().in_process == 0

    def test_unknown_code_is_named_in_the_message(self):
        def crash(target, msg_type, payload):
            raise RuntimeError("boom")

        client = StoreClient(InProcAgent(lambda t, p: transport.answer(crash, None, t, p)))
        with pytest.raises(transport.EductionError) as info:
            client.stats()
        # no class is registered for InternalError: the base class keeps the code
        assert type(info.value) is transport.EductionError
        assert str(info.value) == "InternalError: RuntimeError: boom"


class TestClaimKinds:
    def test_kinds_beyond_procedural_rejected(self, store):
        # only INTENSIONAL (0) and PROCEDURAL (1) exist: kind byte 2 is malformed
        raw = bytearray(wire.encode_demand(pending_demand(isig())))
        kind_at = 5 + 1 + 5 + 1  # after the two length-prefixed strings "p" and "x"
        assert raw[kind_at] == 0
        raw[kind_at] = 2
        assert_malformed(dispatch_store_request(store, MsgType.DEPOSIT, bytes(raw)))


class TestCarrierEquivalence:
    OPS = ("deposit", "fetch_miss", "claim", "fulfill", "fetch_hit", "stats")

    def run_ops(self, client):
        sig = qsig(7)
        out = []
        out.append(client.deposit(pending_demand(sig)).status.name)
        out.append(client.fetch(sig)[0].name)
        d = client.claim("w", 60000)
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
        d = tcp_client.claim("w", 5000)
        assert d.signature == sig
        tcp_client.fulfill(sig, 10, "w")
        assert tcp_client.await_result(sig, 1000) == 10

    def test_error_reraised_client_side(self, store, tcp_client):
        sig = qsig(4)
        tcp_client.deposit(pending_demand(sig))
        tcp_client.claim("w", 5000)
        tcp_client.fulfill(sig, 1, "w")
        with pytest.raises(ConflictingResult):
            tcp_client.fulfill(sig, 2, "w")
        with pytest.raises(NotFound):
            tcp_client.get_resource("missing")

    def test_resources_over_tcp(self, store, tcp_client):
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
                    d = cl.claim(wid, 60000)
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
        encode = model._encode_signature

        def counting(sig):
            calls.append(sig)
            return encode(sig)

        monkeypatch.setattr(model, "_encode_signature", counting)
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
        generator.sync()  # an intensional fulfil is written behind: its reply is owed until settled
        assert store.stats().computed == 1
        assert len(fresh_encodes) == 1 and fresh_encodes[0] is sig

    def test_procedural_demand(self, logged, fresh_encodes):
        store, generator, worker, log = logged
        sig = qsig(5)
        assert generator.deposit(pending_demand(sig)).status is DepositStatus.ENQUEUED
        claimed = worker.claim("w", 5000)
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


def claim_payload(wait_ms=0):
    return wire.encode_value("w") + wire.encode_value(60000) + wire.encode_value(wait_ms)


class TestBlockingClaim:
    def test_deposit_wakes_blocked_claim(self, store, agent):
        out = {}

        def run():
            out["demand"] = StoreClient(agent).claim("w", 5000, wait_ms=2000)
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
        assert StoreClient(agent).claim("w", 5000, wait_ms=150) is None
        assert 0.14 <= time.monotonic() - started < 1.0

    def test_three_field_claim_still_claims(self, store, agent):
        # Str worker, Int lease_ms, Int wait_ms: the one CLAIM layout
        store.deposit(pending_demand(qsig(2)))
        mt, body = agent.request(MsgType.CLAIM, claim_payload())
        assert mt is MsgType.CLAIM_REPLY and body[:1] == b"\x01"

    @pytest.mark.parametrize("wait_ms", [True, -1, transport.MAX_CLAIM_WAIT_MS + 1, 1.5])
    def test_bad_wait_is_err(self, store, agent, wait_ms):
        store.deposit(pending_demand(qsig(3)))
        assert_malformed(agent.request(MsgType.CLAIM, claim_payload(wait_ms)))
        assert store.stats().pending == 1

    def test_claim_without_wait_is_err(self, store, agent):
        store.deposit(pending_demand(qsig(4)))
        assert_malformed(agent.request(MsgType.CLAIM, wire.encode_value("w") + wire.encode_value(60000)))
        assert store.stats().pending == 1

    @pytest.mark.parametrize("mask", [1 << DemandKind.INTENSIONAL, 1 << DemandKind.PROCEDURAL, 0x03])
    @pytest.mark.parametrize("wait", [b"", wire.encode_value(0)])
    def test_claim_with_kind_mask_is_err(self, store, agent, mask, wait):
        # the layout with a kind-mask byte after the worker id is gone
        store.deposit(pending_demand(qsig(5)))
        payload = wire.encode_value("w") + bytes([mask]) + wire.encode_value(60000) + wait
        assert_malformed(agent.request(MsgType.CLAIM, payload))
        assert store.stats().pending == 1

    def test_each_blocked_claimer_gets_one_deposit(self, store, agent):
        outs = [{} for _ in range(4)]

        def run(out, wid):
            client = StoreClient(agent if isinstance(agent, InProcAgent) else TcpAgent(agent.host, agent.port))
            try:
                out["demand"] = client.claim(wid, 5000, wait_ms=2000)
                out["at"] = time.monotonic()
            finally:
                client.close()

        threads = [threading.Thread(target=run, args=(out, f"w{i}")) for i, out in enumerate(outs)]
        for t in threads:
            t.start()
        time.sleep(0.2)  # let all four block
        deposited = time.monotonic()
        for d in range(4):
            store.deposit(pending_demand(qsig(d)))
        for t in threads:
            t.join(3)
        assert not any(t.is_alive() for t in threads)
        assert sorted(out["demand"].signature.args[0] for out in outs) == [0, 1, 2, 3]
        assert all(out["at"] - deposited < 0.5 for out in outs)


class TestOneRequestPath:
    """Both carriers post, batch and cap frames alike."""

    def test_a_posted_fulfil_reaches_the_store_with_the_posters_next_exchange(self, store, agent):
        poster = StoreClient(agent)
        reader = inproc_store_client(store) if isinstance(agent, InProcAgent) else connect_store(f"{agent.host}:{agent.port}")
        try:
            poster.fulfill(isig(0), 5, "g")
            with pytest.raises(NotFound):
                reader.fetch(isig(0))
            assert poster.stats().computed == 1  # the next exchange carries the fulfil
            assert reader.fetch(isig(0)) == (DemandState.COMPUTED, 5)
            poster.fulfill(isig(1), 6, "g")
            with pytest.raises(NotFound):
                reader.fetch(isig(1))
            poster.sync()
            assert reader.fetch(isig(1)) == (DemandState.COMPUTED, 6)
        finally:
            reader.close()

    def test_a_request_over_the_frame_cap_is_refused_before_the_store(self, store, agent):
        client = StoreClient(agent)
        huge = DemandSignature("p", "f", EMPTY_CONTEXT, DemandKind.PROCEDURAL, ("x" * wire.MAX_PAYLOAD,))
        with pytest.raises(wire.MalformedEncoding):
            client.deposit(pending_demand(huge))
        with pytest.raises(wire.MalformedEncoding):
            client.put_resource("big", bytes(wire.MAX_PAYLOAD))
        assert client.stats() == StoreStats(0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(NotFound):
            client.get_resource("big")


class TestTypedFields:
    """Each Str or Int field of a request is read as that kind or answered MalformedEncoding."""

    def test_fulfill_worker_must_be_str(self, store, agent):
        store.deposit(pending_demand(qsig(6)))
        store.claim("w", 60000)
        payload = wire.encode_signature(qsig(6)) + wire.encode_value(8) + wire.encode_value(7)
        assert_malformed(agent.request(MsgType.FULFILL, payload))
        assert store.stats().in_process == 1

    @pytest.mark.parametrize("timeout_ms", [True, "100"])
    def test_await_timeout_must_be_int(self, store, agent, timeout_ms):
        store.deposit(pending_demand(qsig(7)))
        payload = wire.encode_signature(qsig(7)) + wire.encode_value(timeout_ms)
        assert_malformed(agent.request(MsgType.AWAIT, payload))

    def test_resource_put_id_must_be_str(self, store, agent):
        data = wire.encode_geer(compile_source("1", "p"))
        payload = wire.encode_value(1) + len(data).to_bytes(4, "big") + data
        assert_malformed(agent.request(MsgType.RESOURCE_PUT, payload))
        with pytest.raises(NotFound):
            store.get_resource(1)

    def test_resource_get_id_must_be_str(self, store, agent):
        assert_malformed(agent.request(MsgType.RESOURCE_GET, wire.encode_value(1)))

    def test_a_geer_nested_past_the_recursion_limit_is_malformed_not_internal(self, store, agent):
        leaf = b"\x00" + wire.encode_value(1)  # Literal 1
        root = b"\x03" * 1000 + leaf * 2001  # If(If(... If(1, 1, 1) ..., 1, 1), 1, 1), 1000 deep
        data = wire.GEER_MAGIC + wire.encode_value("p") + bytes(4) + bytes(8) + root  # no digest, dims or entries
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)  # a fresh process's: ``reference_eval`` in an earlier test may have raised it
        try:
            mt, body = agent.request(MsgType.RESOURCE_PUT, wire.encode_value("p") + len(data).to_bytes(4, "big") + data)
        finally:
            sys.setrecursionlimit(saved)
        assert mt is MsgType.ERR and wire.read_value(body, 0)[0] == "MalformedGeer"
        with pytest.raises(NotFound):
            store.get_resource("p")


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

    def test_stop_leaves_no_connection_thread(self, store):
        srv = serve_store(store)
        agents = [TcpAgent("127.0.0.1", srv.port) for _ in range(3)]
        for agent in agents:
            StoreClient(agent).stats()
        agents[0].close()  # one the client ended before the stop
        srv.stop()
        srv.stop()  # a second stop finds nothing left to do
        for t in threading.enumerate():
            if t.name == f"frame-conn-{srv.port}":
                t.join(2)
                assert not t.is_alive()
        for agent in agents:
            agent.close()


class TestFraming:
    def test_bad_header_gets_one_err_then_eof(self, store):
        srv = serve_store(store)
        try:
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
                sock.sendall(b"XXXX" + bytes(wire.HEADER_SIZE - 4))
                mt, body, rest = transport.read_frame(sock)
                assert mt is MsgType.ERR and rest == b""
                assert wire.read_value(body, 0)[0] == "ProtocolError"
                assert sock.recv(1) == b""
        finally:
            srv.stop()


def frame_conn_threads(srv):
    return [t for t in threading.enumerate() if t.name == f"frame-conn-{srv.port}" and t.is_alive()]


class TestBufferedFrames:
    """Each side reads frames through one buffer per connection: split or
    merged segments must still give each request exactly its reply, in order."""

    SIG = isig(5)
    REQUESTS = [
        (MsgType.DEPOSIT, wire.encode_demand(pending_demand(SIG))),
        (MsgType.FULFILL, SIG.key() + wire.encode_value(8) + wire.encode_value("g")),
        (MsgType.DEPOSIT, wire.encode_demand(pending_demand(SIG))),
        (MsgType.STATS, b""),
    ]
    REPLIES = [
        (MsgType.OK, b"\x00"),
        (MsgType.OK, b""),
        (MsgType.OK, b"\x01" + wire.encode_value(8)),
        (MsgType.OK, struct.pack(">7Q", 2, 1, 1, 1, 0, 0, 0)),
    ]

    def talk(self, store, send):
        """Write the requests with ``send(sock, frames)``; read the replies, then EOF."""
        srv = serve_store(store)
        try:
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                send(sock, [wire.encode_frame(*req) for req in self.REQUESTS])
                got, rest = [], b""
                for _ in self.REPLIES:
                    mt, body, rest = transport.read_frame(sock, rest)
                    got.append((mt, body))
                sock.shutdown(socket.SHUT_WR)
                assert rest == b"" and sock.recv(1) == b""  # no reply more
        finally:
            srv.stop()
        assert got == self.REPLIES

    def test_one_byte_at_a_time(self, store):
        def send(sock, frames):
            for byte in b"".join(frames):
                sock.sendall(bytes((byte,)))
                time.sleep(0.0005)

        self.talk(store, send)

    def test_every_request_in_one_sendall(self, store):
        self.talk(store, lambda sock, frames: sock.sendall(b"".join(frames)))

    def test_header_and_payload_in_separate_segments(self, store):
        def send(sock, frames):
            for frame in frames:
                for part in (frame[:3], frame[3 : wire.HEADER_SIZE], frame[wire.HEADER_SIZE :]):
                    sock.sendall(part)
                    time.sleep(0.02)

        self.talk(store, send)

    def test_peer_closing_mid_frame_ends_its_thread(self, store):
        srv = serve_store(store)
        try:
            frame = wire.encode_frame(*self.REQUESTS[0])
            with socket.create_connection(("127.0.0.1", srv.port), timeout=5) as sock:
                sock.sendall(frame[: wire.HEADER_SIZE + 4])
                deadline = time.monotonic() + 5
                while not frame_conn_threads(srv) and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert frame_conn_threads(srv)  # serving, mid-frame
            deadline = time.monotonic() + 5
            while frame_conn_threads(srv) and time.monotonic() < deadline:
                time.sleep(0.005)
            assert not frame_conn_threads(srv)
            assert store.stats().deposits == 0  # the torn request was never served
            client = StoreClient(TcpAgent("127.0.0.1", srv.port))
            assert client.deposit(pending_demand(self.SIG)).status is DepositStatus.ENQUEUED  # still serving
            client.close()
        finally:
            srv.stop()

    def test_frames_read_in_one_recv_are_split_from_the_buffer(self):
        a, b = socket.socketpair()
        with a, b:
            first, second = wire.encode_frame(MsgType.OK, b"x"), wire.encode_frame(MsgType.ERR, b"yz")
            a.sendall(first + second)
            a.close()  # from here on every recv sees EOF
            assert transport.read_frame(b) == (MsgType.OK, b"x", second)
            assert transport.read_frame(b, second) == (MsgType.ERR, b"yz", b"")
            with pytest.raises(ConnectionError):
                transport.read_frame(b)

    STATS = struct.pack(">7Q", *range(7))

    @pytest.mark.parametrize(
        "bad_reply, error",
        [
            (b"XXXX" + bytes(wire.HEADER_SIZE - 4), "bad magic"),
            (wire.encode_frame(MsgType.OK, STATS) * 2, "bytes after the reply"),
        ],
        ids=["bad-magic", "two-replies"],
    )
    def test_client_drops_a_connection_whose_reply_is_bad(self, bad_reply, error):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)
        held = []

        def fake_server():
            # the first connection gets the bad reply and stays open; the next is answered properly
            for reply in (bad_reply, wire.encode_frame(MsgType.OK, self.STATS)):
                conn, _ = listener.accept()
                held.append(conn)
                conn.settimeout(5)
                transport.read_frame(conn)
                conn.sendall(reply)

        server = threading.Thread(target=fake_server)
        server.start()
        agent = TcpAgent("127.0.0.1", listener.getsockname()[1])
        try:
            client = StoreClient(agent)
            with pytest.raises(wire.ProtocolError, match=error):
                client.stats()
            assert client.stats() == StoreStats(*range(7))  # over a new connection
        finally:
            agent.close()
            server.join(10)
            for conn in held:
                conn.close()
            listener.close()
        assert not server.is_alive() and len(held) == 2


class TestReplyCheck:
    """Both clients read a reply through one check: ERR raises, any other wrong type is a ProtocolError."""

    @staticmethod
    def replying(msg_type, body=b""):
        return InProcAgent(lambda t, p: (msg_type, body))

    def test_wrong_reply_type_store_client(self):
        with pytest.raises(wire.ProtocolError, match="expected OK reply, got CLAIM_REPLY"):
            StoreClient(self.replying(MsgType.CLAIM_REPLY)).stats()

    def test_deposit_replies(self, store):
        miss = StoreClient(self.replying(MsgType.OK, b"\x00")).deposit(pending_demand(isig()))
        assert miss is ENQUEUED  # one shared outcome, as the store's own miss is
        assert store.deposit(pending_demand(isig(1))) is store.deposit(pending_demand(isig(2))) is ENQUEUED
        dup = StoreClient(self.replying(MsgType.OK, b"\x02")).deposit(pending_demand(qsig()))
        assert dup == DepositOutcome(DepositStatus.DUPLICATE_PENDING)
        hit = StoreClient(self.replying(MsgType.OK, b"\x01" + wire.encode_value(-0.0))).deposit(pending_demand(isig()))
        assert hit.status is DepositStatus.ALREADY_COMPUTED and wire.values_equal(hit.value, -0.0)

    @pytest.mark.parametrize(
        "body",
        [b"", b"\x07", b"\x00\x00", b"\x02\x01", b"\x01", b"\x01" + wire.encode_value(8) + b"\x00"],
        ids=["empty", "unknown", "trailing", "trailing-dup", "no-value", "trailing-value"],
    )
    def test_malformed_deposit_reply(self, body):
        with pytest.raises(wire.MalformedEncoding):
            StoreClient(self.replying(MsgType.OK, body)).deposit(pending_demand(isig()))

    def test_fetch_and_claim_replies(self):
        computed = StoreClient(self.replying(MsgType.FETCH_REPLY, b"\x02\x01" + wire.encode_value(-0.0))).fetch(isig())
        assert computed[0] is DemandState.COMPUTED and wire.values_equal(computed[1], -0.0)
        assert StoreClient(self.replying(MsgType.FETCH_REPLY, b"\x01\x00")).fetch(qsig()) == (DemandState.IN_PROCESS, None)
        assert StoreClient(self.replying(MsgType.CLAIM_REPLY, b"\x00")).claim("w", 5000) is None
        demand = Demand(qsig(), DemandState.IN_PROCESS)
        claimed = StoreClient(self.replying(MsgType.CLAIM_REPLY, b"\x01" + wire.encode_demand(demand))).claim("w", 5000)
        assert claimed.signature == qsig() and claimed.state is DemandState.IN_PROCESS

    @pytest.mark.parametrize(
        "body",
        [
            b"\x07\x00",
            b"\x02\x05" + wire.encode_value(8),
            b"\x00\x01" + wire.encode_value(3),
            b"\x02\x00",
            b"\x02\x01" + wire.encode_value(8) + b"\x00",
            b"\x00",
            b"\x00\x00\x00",
        ],
        ids=["unknown-state", "presence-5", "pending-with-value", "computed-without-value", "trailing-value",
             "no-presence", "trailing"],
    )
    def test_malformed_fetch_reply(self, body):
        with pytest.raises(wire.MalformedEncoding):
            StoreClient(self.replying(MsgType.FETCH_REPLY, body)).fetch(isig())

    @pytest.mark.parametrize(
        "body",
        [
            b"\x02" + wire.encode_demand(Demand(qsig(), DemandState.IN_PROCESS)),
            b"",
            b"\x00\x00",
            b"\x01" + wire.encode_demand(Demand(qsig(), DemandState.IN_PROCESS)) + b"\x00",
        ],
        ids=["first-byte-2", "empty", "trailing-none", "trailing-demand"],
    )
    def test_malformed_claim_reply(self, body):
        with pytest.raises(wire.MalformedEncoding):
            StoreClient(self.replying(MsgType.CLAIM_REPLY, body)).claim("w", 5000)

    def test_wrong_reply_type_system_request(self):
        with pytest.raises(wire.ProtocolError, match="expected OK reply, got FETCH_REPLY"):
            system_request(self.replying(MsgType.FETCH_REPLY), 4, {})

    def test_short_stats_reply_rejected(self):
        with pytest.raises(wire.ProtocolError, match="bad stats reply"):
            StoreClient(self.replying(MsgType.OK, bytes(55))).stats()

    @pytest.mark.parametrize("raw", [b"{not json", b"[1, 2]", b"\xff"], ids=["bad-json", "list", "bad-utf8"])
    def test_malformed_system_reply(self, raw):
        reply = len(raw).to_bytes(4, "big") + raw
        with pytest.raises(wire.MalformedEncoding):
            system_request(self.replying(MsgType.OK, reply), 4, {})


class TestSplitHostPort:
    @pytest.mark.parametrize("address", ["nohost", "h:x"])
    def test_rejects(self, address):
        with pytest.raises(ValueError, match="store address must be host:port"):
            transport.split_host_port(address, ValueError, "store")


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

    def test_server_that_never_replies_is_unreachable(self):
        # the kernel times the receive (SO_RCVTIMEO): a blocking socket gives up too
        listener = socket.create_server(("127.0.0.1", 0))
        held = []

        def accept():
            for _ in range(2):
                held.append(listener.accept()[0])

        server = threading.Thread(target=accept, daemon=True)
        server.start()
        agent = TcpAgent("127.0.0.1", listener.getsockname()[1], retry_base_ms=1, tries=2)
        started = time.monotonic()
        try:
            with pytest.raises(TransportUnreachable):
                agent.request(MsgType.STATS, b"", timeout_s=0.2)
            assert 0.35 <= time.monotonic() - started < 3.0
        finally:
            agent.close()
            server.join(5)
            for conn in held:
                conn.close()
            listener.close()

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


FIB = compile_source(
    "fib where dimension d; "
    "fib = if #.d <= 1 then #.d else (fib @.d (#.d - 1)) + (fib @.d (#.d - 2)); end",
    "fibs",
)


class CountingSocket:
    """A client socket that keeps every ``sendall``: one per exchange."""

    def __init__(self, sock, sent):
        self._sock, self._sent = sock, sent

    def sendall(self, data):
        self._sent.append(data)
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class CountingAgent(TcpAgent):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent = []

    def _connect(self):
        return CountingSocket(super()._connect(), self.sent)


@pytest.fixture
def logged_dst(tmp_path):
    """A DST with its log on; ``start(handler)`` serves it through ``handler(store, t, p)``."""
    store = DemandStore(log_path=str(tmp_path / "store.log"))
    servers, agents = [], []

    def start(handler=dispatch_store_request):
        servers.append(TcpServer(lambda t, p: handler(store, t, p)).start())
        agents.append(CountingAgent("127.0.0.1", servers[-1].port, retry_base_ms=1))
        return store, agents[-1]

    yield start
    for agent in agents:
        agent.close()
    for srv in servers:
        srv.stop()
    store.close()


def carrier_for(carrier, store, agent):
    if carrier == "inproc":
        return InProcAgent(lambda t, p: dispatch_store_request(store, t, p))
    return agent


class TestWriteBehind:
    """An intensional fulfil is written behind: its frame rides with the next request."""

    # every frame a DST receives for stats, a cold fib@30 and a warm fib@30, as
    # sent before fulfils were written behind
    FRAMES_SHA256 = "e8ac446626b6bf610855d35e2afa0a3df02c4134965a6b1737845826d7143fbe"

    def test_cold_fib30_is_one_exchange_per_demand(self, logged_dst):
        store, agent = logged_dst()
        client = StoreClient(agent)
        client.stats()
        before = len(agent.sent)
        assert Evaluator(FIB, client).eval_demand("fib", make_context([("d", 30)])) == 832040
        # 31 deposits, then the last 30 fulfils in one closing exchange; it was 62
        assert len(agent.sent) - before == 32
        assert store.stats().computed == 31

    def test_frames_the_server_receives_are_unchanged(self, logged_dst):
        received = []

        def recording(store, t, p):
            received.append(wire.encode_frame(t, p))
            return dispatch_store_request(store, t, p)

        _, agent = logged_dst(recording)
        client = StoreClient(agent)
        client.stats()
        for _ in range(2):
            assert Evaluator(FIB, client).eval_demand("fib", make_context([("d", 30)])) == 832040
        assert len(received) == 1 + 62 + 1
        assert hashlib.sha256(b"".join(received)).hexdigest() == self.FRAMES_SHA256

    @pytest.mark.parametrize("carrier", ["inproc", "tcp"])
    def test_an_owed_error_wins_and_does_not_leak(self, logged_dst, carrier):
        # y's fulfil is refused before x divides by zero: the refusal came first
        geer = compile_source("x where dimension d; x = y + (1 / #.d); y = 1e308 * 10.0; end", "p")
        store, agent = logged_dst()
        client = StoreClient(carrier_for(carrier, store, agent))
        with pytest.raises(NonFiniteValue) as info:
            Evaluator(geer, client).eval_demand("x", make_context([("d", 0)]))
        assert isinstance(info.value.__context__, DivisionByZero)
        assert client.stats() == StoreStats(2, 0, 2, 0, 0, 0, 0)  # nothing owed was left over

    @pytest.mark.parametrize("carrier", ["inproc", "tcp"])
    def test_an_owed_error_raises_from_the_next_request(self, logged_dst, carrier):
        store, agent = logged_dst()
        client = StoreClient(carrier_for(carrier, store, agent))
        client.fulfill(isig(0), float("inf"), "g")  # owed: nothing raises yet
        with pytest.raises(NonFiniteValue):
            client.deposit(pending_demand(isig(1)))
        # the deposit was served, and its reply read: the stream is still in step
        assert client.stats() == StoreStats(1, 0, 1, 0, 0, 0, 0)
        client.fulfill(isig(1), 2, "g")
        assert client.deposit(pending_demand(isig(1))) == DepositOutcome(DepositStatus.ALREADY_COMPUTED, 2)

    def test_an_owed_error_waits_for_every_reply_of_its_exchange(self):
        # the owed ERR and the request's reply arrive in two reads: both are read before the raise
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(5)
        stats = struct.pack(">7Q", *range(7))

        def fake_server():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                _, _, rest = transport.read_frame(conn)
                transport.read_frame(conn, rest)
                conn.sendall(wire.encode_frame(MsgType.ERR, wire.encode_value("NonFiniteValue") + wire.encode_value("inf")))
                time.sleep(0.05)
                conn.sendall(wire.encode_frame(MsgType.OK, b"\x00"))
                transport.read_frame(conn)
                conn.sendall(wire.encode_frame(MsgType.OK, stats))

        server = threading.Thread(target=fake_server)
        server.start()
        agent = TcpAgent("127.0.0.1", listener.getsockname()[1])
        try:
            client = StoreClient(agent)
            client.fulfill(isig(0), float("inf"), "g")
            with pytest.raises(NonFiniteValue):
                client.deposit(pending_demand(isig(1)))
            assert client.stats() == StoreStats(*range(7))
        finally:
            agent.close()
            server.join(10)
            listener.close()
        assert not server.is_alive()

    @pytest.mark.parametrize("carrier", ["inproc", "tcp"])
    def test_owed_frames_settle_once_past_the_read_size(self, logged_dst, carrier):
        store, agent = logged_dst()
        client = StoreClient(carrier_for(carrier, store, agent))

        def frame_size(sig, value):
            return wire.HEADER_SIZE + len(wire.encode_signature(sig) + wire.encode_value(value) + wire.encode_value("g"))

        client.fulfill(isig(0), float("inf"), "g")
        owed, d = frame_size(isig(0), float("inf")), 1
        while owed + frame_size(isig(d), d) <= transport.RECV_BYTES:
            client.fulfill(isig(d), d, "g")  # still owed: nothing raises
            owed += frame_size(isig(d), d)
            d += 1
        with pytest.raises(NonFiniteValue):
            client.fulfill(isig(d), d, "g")  # passes the read size: everything owed is settled
        assert store.stats().computed == d
        client.sync()  # nothing is owed now

    def test_a_deep_chain_settles_in_bounded_batches(self, logged_dst):
        chain = compile_source("c where dimension d; c = if #.d <= 0 then 0 else 1 + (c @.d (#.d - 1)); end", "chain")
        store, agent = logged_dst()
        client = StoreClient(agent)
        assert Evaluator(chain, client).eval_demand("c", make_context([("d", 9999)])) == 9999
        assert store.stats().computed == 10000
        assert max(map(len, agent.sent)) < transport.RECV_BYTES + 1024
        assert 10000 < len(agent.sent) < 10000 + 20

    @pytest.mark.parametrize("drop_at", [33, 40], ids=["deposit-after-a-fulfil", "closing-fulfils"])
    def test_a_dropped_connection_resends_what_is_owed(self, logged_dst, tmp_path, drop_at):
        # the server serves frame `drop_at`, then drops the connection before replying
        seen = []

        def dropping(store, t, p):
            reply = dispatch_store_request(store, t, p)
            seen.append(t)
            if len(seen) == drop_at:
                raise ConnectionResetError("dropped on purpose")
            return reply

        store, agent = logged_dst(dropping)
        client = StoreClient(agent)
        client.stats()
        ev = Evaluator(FIB, client)
        assert ev.eval_demand("fib", make_context([("d", 30)])) == 832040
        assert ev.computation_counter() == 31
        assert len(seen) > 1 + 62  # frames were sent again
        s = store.stats()
        assert (s.computed, s.pending, s.in_process) == (31, 0, 0)
        with open(tmp_path / "store.log", "rb") as f:
            assert [t for t, _, _ in wire.iter_frames(f.read())] == [MsgType.FULFILL] * 31

    def test_threads_sharing_a_client_lose_no_fulfil(self, logged_dst):
        # owed frames belong to the client: any thread's exchange may carry and settle them
        store, agent = logged_dst()
        client = StoreClient(agent)
        fibs = [0, 1]
        while len(fibs) <= 60:
            fibs.append(fibs[-1] + fibs[-2])
        errors = []

        def generate(geer):
            try:
                ev = Evaluator(geer, client)
                for n in range(0, 61, 3):
                    assert ev.eval_demand("fib", make_context([("d", n)])) == fibs[n]
            except Exception as e:
                errors.append(e)

        threads = [threading.Thread(target=generate, args=(replace(FIB, program_id=f"fib{i}"),)) for i in range(6)]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        s = store.stats()
        assert (s.computed, s.pending, s.in_process) == (6 * 61, 0, 0)


def proc_sigs(name, n):
    """``n`` distinct pipeline signatures of ``name``: classify ones, or feature ones of 512 floats."""
    digest = hashlib.sha256(b"model").hexdigest()
    if name == P.CLASSIFY_PROC:
        args = [(digest, tuple(float(i + k) for i in range(P.DEFAULT_WINDOWS))) for k in range(n)]
    else:
        args = [(tuple(i * k / 7 for i in range(512)), P.DEFAULT_WINDOWS) for k in range(n)]
    return [DemandSignature(P.PROGRAM_ID, name, kind=DemandKind.PROCEDURAL, args=a) for a in args]


def answer_of(sig):
    return (float(len(sig.args[1])), 0.5) if sig.name == P.CLASSIFY_PROC else (float(sig.args[1]),)


def answering_worker(store):
    """A worker claiming on ``store`` in-process; its answer to each signature is ``answer_of``."""
    reg = ProcedureRegistry()
    reg.register(P.CLASSIFY_PROC, 2, lambda digest, fv: (float(len(fv)), 0.5))
    reg.register(P.FE_PROC, 2, lambda amplitudes, windows: (float(windows),))
    return Worker(WorkerConfig("w"), store, reg).start()


@pytest.fixture
def answering(logged_dst):
    """A logged DST and an ``answering_worker`` on its store."""
    store, agent = logged_dst()
    worker = answering_worker(store)
    yield store, agent
    worker.stop()


def deposit_frame(sig):
    return wire.encode_frame(MsgType.DEPOSIT, wire.encode_demand(pending_demand(sig)))


def frames_in_first_write(sizes, first=0):
    """How many of these frames the first write carries: the fewest whose bytes pass ``RECV_BYTES``."""
    for n, size in enumerate(sizes, 1):
        first += size
        if first > transport.RECV_BYTES:
            return n
    return len(sizes)


def leads_with(data, msg_type):
    return wire.parse_header(data[: wire.HEADER_SIZE])[0] is msg_type


class TestGatheredDeposits:
    """``gather`` deposits in one write per ``RECV_BYTES`` of frames, each reply read, in order."""

    # every frame a DST receives for stats and a gather of 40 feature and 20
    # classify signatures, as sent when each deposit was a round trip of its own
    FRAMES_SHA256 = "20fbbc38dc9d0133deb90d9043f3746a4d4fde7d4ad42a34234dc17bf7ba248d"

    @pytest.mark.parametrize("name, n, writes", [(P.CLASSIFY_PROC, 160, 1), (P.FE_PROC, 180, 12)])
    def test_one_write_per_read_size(self, answering, name, n, writes):
        store, agent = answering
        client = StoreClient(agent)
        client.stats()
        sigs = proc_sigs(name, n)
        assert gather(client, sigs, 10000) == [answer_of(s) for s in sigs]
        frames = [deposit_frame(s) for s in sigs]
        deposits = [data for data in agent.sent if leads_with(data, MsgType.DEPOSIT)]
        assert b"".join(deposits) == b"".join(frames)
        assert len(deposits) == writes == -(-sum(map(len, frames)) // transport.RECV_BYTES)
        assert max(map(len, deposits)) <= transport.RECV_BYTES + len(frames[0])
        assert len(agent.sent) == 1 + writes + n  # and one AWAIT each; a round trip per deposit made 1 + 2n
        assert store.stats().computed == n

    def test_frames_the_server_receives_are_unchanged(self, logged_dst):
        received = []

        def recording(store, t, p):
            received.append(wire.encode_frame(t, p))
            return dispatch_store_request(store, t, p)

        store, agent = logged_dst(recording)
        worker = answering_worker(store)
        try:
            client = StoreClient(agent)
            client.stats()
            for sigs in (proc_sigs(P.FE_PROC, 40), proc_sigs(P.CLASSIFY_PROC, 20)):
                assert gather(client, sigs, 10000) == [answer_of(s) for s in sigs]
        finally:
            worker.stop()
        assert len(received) == 1 + 2 * 60
        assert hashlib.sha256(b"".join(received)).hexdigest() == self.FRAMES_SHA256

    @pytest.mark.parametrize("carrier", ["inproc", "tcp"])
    def test_a_fault_raises_after_every_reply_of_its_write(self, logged_dst, carrier):
        store, agent = logged_dst()
        sigs = proc_sigs(P.FE_PROC, 40)
        store.deposit(pending_demand(sigs[5]))
        store.fulfill(store.claim("w", 5000).signature, Fault("ValueError", "no energy"), "w")
        client = StoreClient(carrier_for(carrier, store, agent))
        with pytest.raises(ProcedureFault):
            gather(client, sigs, 10000)
        # the deposits after the fault in its write were served; no later write was sent
        first = frames_in_first_write([len(deposit_frame(s)) for s in sigs])
        assert 5 < first < len(sigs)
        assert client.stats() == StoreStats(1 + first, 1, first, 1, first - 1, 0, 0)

    @pytest.mark.parametrize("carrier", ["inproc", "tcp"])
    def test_an_owed_error_ends_the_batch_at_its_first_write(self, logged_dst, carrier):
        store, agent = logged_dst()
        client = StoreClient(carrier_for(carrier, store, agent))
        client.fulfill(isig(0), float("inf"), "g")  # owed
        sigs = proc_sigs(P.FE_PROC, 40)
        with pytest.raises(NonFiniteValue):
            gather(client, sigs, 10000)
        owed = wire.HEADER_SIZE + len(isig(0).key() + wire.encode_value(float("inf")) + wire.encode_value("g"))
        first = frames_in_first_write([len(deposit_frame(s)) for s in sigs], owed)
        assert client.stats() == StoreStats(first, 0, first, 0, first, 0, 0)

    def test_owed_fulfils_ride_in_the_first_write(self, answering):
        store, agent = answering
        client = StoreClient(agent)
        client.stats()
        sent = len(agent.sent)
        owed = []
        for d in range(2):
            client.fulfill(isig(d), d, "g")
            owed.append(wire.encode_frame(MsgType.FULFILL, isig(d).key() + wire.encode_value(d) + wire.encode_value("g")))
        assert len(agent.sent) == sent  # written behind: nothing went out yet
        sigs = proc_sigs(P.CLASSIFY_PROC, 3)
        assert gather(client, sigs, 10000) == [answer_of(s) for s in sigs]
        assert agent.sent[sent] == b"".join(owed + [deposit_frame(s) for s in sigs])
        assert len(agent.sent) - sent == 1 + 3  # the deposits with the fulfils, then an AWAIT each
        assert store.stats().computed == 2 + 3
