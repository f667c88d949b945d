"""Transport agents: one request/reply protocol over two carriers.

The in-process carrier hands request payloads straight to
``dispatch_store_request``; the TCP carrier frames the same payloads over a
socket to a server that calls the same dispatcher.  Both therefore produce
byte-identical reply payloads for the same request sequence.

Request payloads (replies in parentheses):

    DEPOSIT       demand                          (OK: status byte, + value when already computed)
    CLAIM         Str worker, kinds bitmask, Int lease_ms[, Int wait_ms]
                                                  (CLAIM_REPLY: 0x00, or 0x01 + demand)
                  with nothing queued the reply waits up to wait_ms
                  (0 when absent, at most 30000) for a deposit or redelivery
    FULFILL       signature, value, Str worker    (OK: empty)
    FETCH         signature                       (FETCH_REPLY: state byte, presence byte [+ value])
    AWAIT         signature, Int timeout_ms       (OK: value)
    RESOURCE_PUT  Str id, 4-byte length, bytes    (OK: empty)
    RESOURCE_GET  Str id                          (OK: 4-byte length, bytes)
    STATS         empty                           (OK: seven 8-byte counters)
    SYSTEM        op byte, 4-byte length, JSON    (OK: 4-byte length, JSON; manager only)

Errors come back as ERR frames carrying two Str values: the error code
(a class name from the store's error family) and a human-readable message.
A read of a demand whose procedure failed (a DEPOSIT that hits it, FETCH,
AWAIT) is answered ERR ``ProcedureFault``.  Every request gets exactly one
reply frame: each server runs its handler through ``answer``.  A store is
addressed as ``[tcp://]host:port``; there is no ``inproc://`` address.

A TCP client retries connection failures with exponential backoff: base
100 ms, doubling, at most 5 tries, then ``TransportUnreachable``.
"""
from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time
from typing import Callable, Iterable, Optional, Tuple

from .errors import EductionError, error_for_code
from . import wire
from .model import Demand, DemandKind, DemandSignature, DemandState, Value
from .store import DemandStore, DepositOutcome, DepositStatus, StoreStats
from .wire import MsgType, ProtocolError

RETRY_BASE_MS = 100
RETRY_TRIES = 5
SOCKET_TIMEOUT_S = 30.0
MAX_CLAIM_WAIT_MS = int(SOCKET_TIMEOUT_S * 1000)  # bounds how long one claim holds a server thread

DEFAULT_DST_PORT = 4747
DEFAULT_GMT_PORT = 4748


class TransportUnreachable(EductionError):
    pass


# --- shared request dispatch -------------------------------------------------


def _err_reply(code: str, message: str) -> Tuple[MsgType, bytes]:
    return MsgType.ERR, wire.encode_value(code) + wire.encode_value(message)


def _decode_err(payload: bytes) -> EductionError:
    r = wire.Reader(payload)
    code = wire.read_value(r)
    message = wire.read_value(r)
    r.expect_done()
    return error_for_code(code, message)


def _encode_kinds(kinds: Iterable[DemandKind]) -> bytes:
    mask = 0
    for k in kinds:
        mask |= 1 << int(k)
    return bytes([mask])


def _decode_kinds(mask: int) -> frozenset:
    if mask == 0 or mask >= (1 << len(DemandKind)):
        raise wire.MalformedEncoding(f"bad demand-kind mask {mask:#04x}")
    return frozenset(k for k in DemandKind if mask & (1 << int(k)))


def answer(handle: Callable, target, msg_type: MsgType, payload: bytes) -> Tuple[MsgType, bytes]:
    """``handle(target, msg_type, payload)``; never raises, errors become ERR replies."""
    try:
        return handle(target, msg_type, payload)
    except EductionError as e:
        return _err_reply(e.code, str(e))
    except Exception as e:  # defensive: a server must always reply
        return _err_reply("InternalError", f"{type(e).__name__}: {e}")


def dispatch_store_request(store: DemandStore, msg_type: MsgType, payload: bytes) -> Tuple[MsgType, bytes]:
    """Execute one store request; never raises, errors become ERR replies."""
    return answer(_store_request, store, msg_type, payload)


def _store_request(store: DemandStore, msg_type: MsgType, payload: bytes) -> Tuple[MsgType, bytes]:
    r = wire.Reader(payload)
    if msg_type is MsgType.DEPOSIT:
        d = wire.read_demand(r)
        r.expect_done()
        out = store.deposit(d)
        body = bytes([out.status.value])
        if out.status is DepositStatus.ALREADY_COMPUTED:
            body += wire.encode_value(out.value)
        return MsgType.OK, body
    if msg_type is MsgType.CLAIM:
        worker = wire.read_value(r)
        mask = r.u8()
        lease_ms = wire.read_value(r)
        wait_ms = 0 if r.done() else wire.read_value(r)
        r.expect_done()
        if not isinstance(worker, str) or isinstance(lease_ms, bool) or not isinstance(lease_ms, int):
            raise wire.MalformedEncoding("claim takes a Str worker and an Int lease")
        if type(wait_ms) is not int or not 0 <= wait_ms <= MAX_CLAIM_WAIT_MS:  # bool too
            raise wire.MalformedEncoding(f"claim wait must be an Int from 0 to {MAX_CLAIM_WAIT_MS} ms")
        d = store.claim(worker, _decode_kinds(mask), lease_ms, wait_ms)
        if d is None:
            return MsgType.CLAIM_REPLY, b"\x00"
        return MsgType.CLAIM_REPLY, b"\x01" + wire.encode_demand(Demand(d.signature, d.state, d.result))
    if msg_type is MsgType.FULFILL:
        sig = wire.read_signature(r)
        value = wire.read_value(r)
        worker = wire.read_value(r)
        r.expect_done()
        if not isinstance(worker, str):
            raise wire.MalformedEncoding("fulfill takes a Str worker id")
        store.fulfill(sig, value, worker)
        return MsgType.OK, b""
    if msg_type is MsgType.FETCH:
        sig = wire.read_signature(r)
        r.expect_done()
        state, value = store.fetch(sig)
        body = bytes([int(state)])
        body += b"\x01" + wire.encode_value(value) if value is not None else b"\x00"
        return MsgType.FETCH_REPLY, body
    if msg_type is MsgType.AWAIT:
        sig = wire.read_signature(r)
        timeout_ms = wire.read_value(r)
        r.expect_done()
        if isinstance(timeout_ms, bool) or not isinstance(timeout_ms, int):
            raise wire.MalformedEncoding("await takes an Int timeout")
        value = store.await_result(sig, timeout_ms)
        return MsgType.OK, wire.encode_value(value)
    if msg_type is MsgType.RESOURCE_PUT:
        program_id = wire.read_value(r)
        n = r.u32()
        data = r.take(n)
        r.expect_done()
        if not isinstance(program_id, str):
            raise wire.MalformedEncoding("resource ids are Str")
        store.put_resource(program_id, data)
        return MsgType.OK, b""
    if msg_type is MsgType.RESOURCE_GET:
        program_id = wire.read_value(r)
        r.expect_done()
        if not isinstance(program_id, str):
            raise wire.MalformedEncoding("resource ids are Str")
        data = store.get_resource(program_id)
        return MsgType.OK, len(data).to_bytes(4, "big") + data
    if msg_type is MsgType.STATS:
        r.expect_done()
        s = store.stats()
        fields = (s.deposits, s.hits, s.misses, s.computed, s.pending, s.in_process, s.redeliveries)
        return MsgType.OK, struct.pack(">7Q", *fields)
    raise ProtocolError(f"store does not serve {msg_type.name} requests")


# --- carriers ------------------------------------------------------------------


class InProcAgent:
    """Carrier that dispatches requests in-process, no sockets involved."""

    def __init__(self, handler: Callable[[MsgType, bytes], Tuple[MsgType, bytes]]):
        self._handler = handler

    def request(self, msg_type: MsgType, payload: bytes, timeout_s: Optional[float] = None):
        return self._handler(msg_type, payload)

    def close(self):
        pass


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Tuple[MsgType, bytes]:
    header = _recv_exact(sock, wire.HEADER_SIZE)
    msg_type, length = wire.parse_header(header)
    payload = _recv_exact(sock, length) if length else b""
    return msg_type, payload


class TcpAgent:
    """Carrier that frames requests over TCP, reconnecting with backoff."""

    def __init__(self, host: str, port: int, retry_base_ms: float = RETRY_BASE_MS, tries: int = RETRY_TRIES):
        self.host = host
        self.port = port
        self.retry_base_ms = retry_base_ms
        self.tries = tries
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def request(self, msg_type: MsgType, payload: bytes, timeout_s: Optional[float] = None):
        frame = wire.encode_frame(msg_type, payload)
        last_error: Optional[Exception] = None
        with self._lock:
            for attempt in range(self.tries):
                if attempt:
                    time.sleep(self.retry_base_ms * (2 ** (attempt - 1)) / 1000.0)
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    self._sock.settimeout(timeout_s if timeout_s is not None else SOCKET_TIMEOUT_S)
                    self._sock.sendall(frame)
                    return read_frame(self._sock)
                except ProtocolError:
                    self._drop()
                    raise
                except (OSError, ConnectionError) as e:
                    last_error = e
                    self._drop()
            raise TransportUnreachable(
                f"{self.host}:{self.port} after {self.tries} tries: {last_error}"
            )

    def _drop(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self):
        with self._lock:
            self._drop()


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self):
        while True:
            try:
                msg_type, payload = read_frame(self.request)
            except (ConnectionError, OSError):
                return
            except EductionError as e:
                reply_type, reply = _err_reply(e.code, str(e))
                try:
                    self.request.sendall(wire.encode_frame(reply_type, reply))
                except OSError:
                    pass
                return  # framing is broken; the stream cannot be trusted
            reply_type, reply = self.server.frame_handler(msg_type, payload)
            try:
                self.request.sendall(wire.encode_frame(reply_type, reply))
            except OSError:
                return

    def finish(self):
        self.server.connections.discard(self.request)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TcpServer:
    """Threaded frame server; one handler callable serves every connection.

    A blocking accept loop stands in for ``serve_forever``, which notices a
    shutdown only at its next 0.5 s poll: ``stop`` shuts the listening
    socket down, and that fails the pending ``accept`` at once.  ``stop``
    then shuts every open connection down too, so a client that connected
    before the stop is not served after it.
    """

    def __init__(self, handler: Callable[[MsgType, bytes], Tuple[MsgType, bytes]], host: str = "127.0.0.1", port: int = 0):
        self._server = _Server((host, port), _FrameHandler)
        self._server.frame_handler = handler
        self._server.connections = set()  # open ones; each handler removes its own
        self.host, self.port = self._server.server_address
        self._thread: Optional[threading.Thread] = None
        self._stopping = False

    def start(self) -> "TcpServer":
        self._thread = threading.Thread(target=self._accept_loop, name=f"frame-server-{self.port}", daemon=True)
        self._thread.start()
        return self

    def _accept_loop(self):
        while not self._stopping:
            try:
                request, client_address = self._server.get_request()
            except OSError:
                continue  # shut down by stop(), or a client that gave up mid-accept
            self._server.connections.add(request)
            self._server.process_request(request, client_address)

    def stop(self):
        if self._thread is not None:
            self._stopping = True
            try:
                self._server.socket.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._server.server_close()
            self._thread.join()  # nothing is accepted after this
            self._thread = None
            for conn in list(self._server.connections):
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # its handler's recv sees EOF
                except OSError:
                    pass  # closed meanwhile


def serve_store(store: DemandStore, host: str = "127.0.0.1", port: int = 0) -> TcpServer:
    return TcpServer(lambda t, p: dispatch_store_request(store, t, p), host, port).start()


# --- client ----------------------------------------------------------------------


class StoreClient:
    """Store operations over any carrier; ERR replies re-raise the right class."""

    def __init__(self, agent):
        self.agent = agent

    def _request(self, msg_type: MsgType, payload: bytes, expect: MsgType, timeout_s: Optional[float] = None) -> bytes:
        reply_type, reply = self.agent.request(msg_type, payload, timeout_s)
        if reply_type is MsgType.ERR:
            raise _decode_err(reply)
        if reply_type is not expect:
            raise ProtocolError(f"expected {expect.name} reply, got {reply_type.name}")
        return reply

    def deposit(self, d: Demand) -> DepositOutcome:
        reply = self._request(MsgType.DEPOSIT, wire.encode_demand(d), MsgType.OK)
        r = wire.Reader(reply)
        status = DepositStatus(r.u8())
        value = wire.read_value(r) if status is DepositStatus.ALREADY_COMPUTED else None
        r.expect_done()
        return DepositOutcome(status, value)

    def claim(
        self, worker_id: str, kinds: Iterable[DemandKind], lease_ms: float, wait_ms: float = 0
    ) -> Optional[Demand]:
        payload = (
            wire.encode_value(worker_id)
            + _encode_kinds(kinds)
            + wire.encode_value(int(lease_ms))
            + wire.encode_value(int(wait_ms))
        )
        reply = self._request(MsgType.CLAIM, payload, MsgType.CLAIM_REPLY, SOCKET_TIMEOUT_S + wait_ms / 1000.0)
        r = wire.Reader(reply)
        if not r.u8():
            r.expect_done()
            return None
        d = wire.read_demand(r)
        r.expect_done()
        return d

    def fulfill(self, sig: DemandSignature, value: Value, worker_id: str) -> None:
        payload = wire.encode_signature(sig) + wire.encode_value(value) + wire.encode_value(worker_id)
        self._request(MsgType.FULFILL, payload, MsgType.OK)

    def fetch(self, sig: DemandSignature):
        reply = self._request(MsgType.FETCH, wire.encode_signature(sig), MsgType.FETCH_REPLY)
        r = wire.Reader(reply)
        state = DemandState(r.u8())
        value = wire.read_value(r) if r.u8() else None
        r.expect_done()
        return state, value

    def await_result(self, sig: DemandSignature, timeout_ms: float) -> Value:
        payload = wire.encode_signature(sig) + wire.encode_value(int(timeout_ms))
        reply = self._request(MsgType.AWAIT, payload, MsgType.OK, timeout_s=timeout_ms / 1000.0 + 10.0)
        return wire.decode_value(reply)

    def put_resource(self, program_id: str, data: bytes) -> None:
        payload = wire.encode_value(program_id) + len(data).to_bytes(4, "big") + data
        self._request(MsgType.RESOURCE_PUT, payload, MsgType.OK)

    def get_resource(self, program_id: str) -> bytes:
        reply = self._request(MsgType.RESOURCE_GET, wire.encode_value(program_id), MsgType.OK)
        r = wire.Reader(reply)
        data = r.take(r.u32())
        r.expect_done()
        return data

    def stats(self) -> StoreStats:
        reply = self._request(MsgType.STATS, b"", MsgType.OK)
        if len(reply) != 56:
            raise ProtocolError("bad stats reply")
        return StoreStats(*struct.unpack(">7Q", reply))

    def close(self):
        self.agent.close()


def connect_store(address: str) -> StoreClient:
    """``[tcp://]host:port`` to a store client."""
    address = address.removeprefix("tcp://")
    return StoreClient(TcpAgent(*split_host_port(address, TransportUnreachable, "store")))


def split_host_port(address: str, error: type, role: str) -> Tuple[str, int]:
    """``host:port`` to ``(host, port)``; raises ``error`` for anything else."""
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise error(f"{role} address must be host:port, got {address!r}")
    return host, int(port)


def system_request(agent, op: int, body: dict, timeout_s: Optional[float] = None) -> dict:
    """One SYSTEM round-trip carrying a JSON body; used by the manager tier."""
    raw = json.dumps(body, sort_keys=True).encode("utf-8")
    payload = bytes([op]) + len(raw).to_bytes(4, "big") + raw
    reply_type, reply = agent.request(MsgType.SYSTEM, payload, timeout_s)
    if reply_type is MsgType.ERR:
        raise _decode_err(reply)
    if reply_type is not MsgType.OK:
        raise ProtocolError(f"expected OK reply, got {reply_type.name}")
    r = wire.Reader(reply)
    raw = r.take(r.u32())
    r.expect_done()
    return json.loads(raw.decode("utf-8"))


def decode_system_payload(payload: bytes) -> Tuple[int, dict]:
    r = wire.Reader(payload)
    op = r.u8()
    raw = r.take(r.u32())
    r.expect_done()
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise wire.MalformedEncoding(f"bad system payload: {e}") from None
    if not isinstance(body, dict):
        raise wire.MalformedEncoding("system payload must be a JSON object")
    return op, body


def encode_system_reply(body: dict) -> bytes:
    raw = json.dumps(body, sort_keys=True).encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def dispatch_system_request(ops: dict, msg_type: MsgType, payload: bytes) -> Tuple[MsgType, bytes]:
    """Serve one SYSTEM request from ``ops`` (op -> body -> reply body); never raises."""
    return answer(_system_request, ops, msg_type, payload)


def _system_request(ops: dict, msg_type: MsgType, payload: bytes) -> Tuple[MsgType, bytes]:
    if msg_type is not MsgType.SYSTEM:
        raise ProtocolError(f"this server serves SYSTEM requests, got {msg_type.name}")
    op, body = decode_system_payload(payload)
    if op not in ops:
        raise wire.MalformedEncoding(f"unknown system op {op}")
    try:
        return MsgType.OK, encode_system_reply(ops[op](body))
    except KeyError as e:
        raise wire.MalformedEncoding(f"missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise wire.MalformedEncoding(str(e)) from None
