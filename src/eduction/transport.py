"""Transport agents: one request/reply protocol over two carriers.

Both carriers share one request path (``_Carrier``): requests are encoded
as frames, cut into writes and written behind alike, and a payload past
``wire.MAX_PAYLOAD`` is refused before it is sent.  The in-process carrier
hands each frame's type and payload straight to ``dispatch_store_request``;
the TCP carrier writes the frames to a socket served by a server that calls
the same dispatcher.  Both therefore produce byte-identical reply payloads
for the same request sequence.

Request payloads (replies in parentheses):

    DEPOSIT       demand                          (OK: status byte, + value when already computed)
    CLAIM         Str worker, Int lease_ms, Int wait_ms
                                                  (CLAIM_REPLY: 0x00, or 0x01 + demand)
                  with nothing queued the reply waits up to wait_ms
                  (at most 30000) for a deposit or redelivery
    FULFILL       signature, value, Str worker    (OK: empty)
    FETCH         signature                       (FETCH_REPLY: state byte, presence byte [+ value])
    AWAIT         signature, Int timeout_ms       (OK: value)
    RESOURCE_PUT  Str id, 4-byte length, bytes    (OK: empty)
    RESOURCE_GET  Str id                          (OK: 4-byte length, bytes)
    STATS         empty                           (OK: seven 8-byte counters)
    SYSTEM        op byte, 4-byte length, JSON    (OK: 4-byte length, JSON; manager only)

A request is read at offsets into its payload, field by field, by
``wire.decode_fields``.  A request that names a signature is served from
its bytes: ``wire.read_key`` scans the signature with every check
``wire.read_signature`` makes and gives the store its kind and key, so no
signature, context or demand is built.  A procedural deposit's signature
is decoded from its key only when it is queued; a deposit that is not
PENDING with no result is decoded in full.  A client
sends the same frames from a key (``deposit_key``, ``fulfill_key``) as from
a signature.

Errors come back as ERR frames carrying two Str values: the error code
(a class name from the store's error family) and a human-readable message.
A read of a demand whose procedure failed (a DEPOSIT that hits it, FETCH,
AWAIT) is answered ERR ``ProcedureFault``.  Every request gets exactly one
reply frame, in order: each server runs its handler through ``answer``, and
the replies to frames that arrived in one read leave in one write.  A store
is addressed as ``[tcp://]host:port``; there is no ``inproc://`` address.

Batched requests.  ``request_many`` sends requests of one type in writes
that close once they pass ``RECV_BYTES``, and reads one reply per request,
in order; ``request`` is its one-request case.  A write whose replies hold
an ERR is the last one sent, and every reply of it is read first, so the
stream stays in step.  ``StoreClient.deposit_many`` is how ``store.gather``
deposits a batch of procedural demands.

Owed replies.  An intensional ``StoreClient.fulfill_key`` posts its frame
and owes the reply: a generator needs nothing from it but its error.  The
owed frames go out with the poster's next exchange, ahead of its request
(in the first write of a batch), and their replies are read first, so a
cold intensional demand costs one round trip, its deposit; until then no
other client of the store sees the fulfil.  Owed frames past ``RECV_BYTES``
are sent and settled at once, so neither side blocks on a full socket
buffer; ``sync`` settles them with no request.  An owed ERR raises from
the call that settles it, after every reply of that exchange is read.
Owed replies belong to the client, not to a thread, and a carrier runs one
exchange at a time, in-process too.  ``close`` and a carrier's own failure
(``TransportUnreachable``, ``ProtocolError``) drop them; a retry after a
dropped connection sends them again, which an idempotent fulfil allows.
Procedural fulfils stay a full round trip: a worker acts on their
``NotClaimed`` and ``ConflictingResult``.

A TCP client retries connection failures with exponential backoff: base
100 ms, doubling, at most 5 tries, then ``TransportUnreachable``.  Its
socket blocks, and the kernel bounds each send and receive by the request's
timeout (``SO_SNDTIMEO``, ``SO_RCVTIMEO``), so no ``poll`` precedes them.
"""
from __future__ import annotations

import json
import socket
import struct
import threading
import time
from typing import Callable, Optional, Tuple

from .errors import EductionError, TransportUnreachable, error_for_code
from . import wire
from .model import Demand, DemandKind, DemandSignature, DemandState, Value
from .store import ENQUEUED, DemandStore, DepositOutcome, DepositStatus, StoreStats
from .wire import MsgType, ProtocolError

RETRY_BASE_MS = 100
RETRY_TRIES = 5
SOCKET_TIMEOUT_S = 30.0
MAX_CLAIM_WAIT_MS = int(SOCKET_TIMEOUT_S * 1000)  # bounds how long one claim holds a server thread
RECV_BYTES = 65536


# --- shared request dispatch -------------------------------------------------


def _err_reply(code: str, message: str) -> Tuple[MsgType, bytes]:
    return MsgType.ERR, wire.encode_value(code) + wire.encode_value(message)


def _decode_err(payload: bytes) -> EductionError:
    code, message = wire.decode_fields(payload, wire.read_value, wire.read_value)
    return error_for_code(code, message)


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


_STATUS_BYTE = {s: bytes((s.value,)) for s in DepositStatus}  # a DEPOSIT reply's first byte
_DEPOSIT_STATUS = {b: s for s, b in _STATUS_BYTE.items()}


def _read_fulfil_record(data: bytes, pos: int):
    """A FULFILL's kind, key and value, and the bytes of the key and value: the log record as received."""
    (kind, key), end = wire.read_key(data, pos)
    value, end = wire.read_value(data, end)
    return (kind, key, value, data[pos:end]), end


def _store_request(store: DemandStore, msg_type: MsgType, payload: bytes) -> Tuple[MsgType, bytes]:
    if msg_type is MsgType.DEPOSIT:
        (kind, key), tail = wire.decode_fields(payload, wire.read_key, wire.read_rest)
        if tail != wire.PENDING:  # not PENDING with no result: the full decoder or ``deposit`` refuses it
            out = store.deposit(wire.decode_demand(payload))
        elif kind is DemandKind.INTENSIONAL:
            out = store.deposit_key(key)
        else:  # built only when queued: a claim hands out the signature
            out = store.deposit_key(key, lambda: wire.decode_signature(key))
        body = _STATUS_BYTE[out.status]
        if out.status is DepositStatus.ALREADY_COMPUTED:
            body += wire.encode_value(out.value)
        return MsgType.OK, body
    if msg_type is MsgType.CLAIM:
        worker, lease_ms, wait_ms = wire.decode_fields(payload, wire.read_str, wire.read_int, wire.read_int)
        if not 0 <= wait_ms <= MAX_CLAIM_WAIT_MS:
            raise wire.MalformedEncoding(f"claim wait must be an Int from 0 to {MAX_CLAIM_WAIT_MS} ms")
        d = store.claim(worker, lease_ms, wait_ms)
        if d is None:
            return MsgType.CLAIM_REPLY, b"\x00"
        return MsgType.CLAIM_REPLY, b"\x01" + wire.encode_demand(d)
    if msg_type is MsgType.FULFILL:
        (kind, key, value, record), worker = wire.decode_fields(payload, _read_fulfil_record, wire.read_str)
        store.fulfill_key(key, value, worker, kind is not DemandKind.INTENSIONAL, record)
        return MsgType.OK, b""
    if msg_type is MsgType.FETCH:
        key = wire.decode_fields(payload, wire.read_key)[0][1]
        state, value = store.fetch_key(key)
        body = bytes([int(state)])
        body += b"\x01" + wire.encode_value(value) if value is not None else b"\x00"
        return MsgType.FETCH_REPLY, body
    if msg_type is MsgType.AWAIT:
        (_, key), timeout_ms = wire.decode_fields(payload, wire.read_key, wire.read_int)
        value = store.await_key(key, timeout_ms)
        return MsgType.OK, wire.encode_value(value)
    if msg_type is MsgType.RESOURCE_PUT:
        program_id, data = wire.decode_fields(payload, wire.read_str, wire.read_bytes)
        store.put_resource(program_id, data)
        return MsgType.OK, b""
    if msg_type is MsgType.RESOURCE_GET:
        program_id = wire.decode_fields(payload, wire.read_str)[0]
        data = store.get_resource(program_id)
        return MsgType.OK, len(data).to_bytes(4, "big") + data
    if msg_type is MsgType.STATS:
        wire.decode_fields(payload)  # no fields: anything sent is trailing
        s = store.stats()
        fields = (s.deposits, s.hits, s.misses, s.computed, s.pending, s.in_process, s.redeliveries)
        return MsgType.OK, struct.pack(">7Q", *fields)
    raise ProtocolError(f"store does not serve {msg_type.name} requests")


# --- carriers ------------------------------------------------------------------


def _check(reply: Tuple[MsgType, bytes], expect: MsgType) -> bytes:
    """A reply's body; an ERR raises its error, any other type but ``expect`` a ``ProtocolError``."""
    reply_type, body = reply
    if reply_type is MsgType.ERR:
        raise _decode_err(body)
    if reply_type is not expect:
        raise ProtocolError(f"expected {expect.name} reply, got {reply_type.name}")
    return body


def _settle(replies) -> None:
    """Raise the first owed reply that is not a plain OK: an ERR as its error."""
    for reply in replies:
        _check(reply, MsgType.OK)


def _writes(sizes):
    """Cut frames of these sizes into writes, as ``(start, end)`` ranges.

    A write closes once its bytes pass ``RECV_BYTES``, as owed frames do.
    """
    start = end = total = 0
    for size in sizes:
        end += 1
        total += size
        if total > RECV_BYTES:
            yield start, end
            start, total = end, 0
    if start < end:
        yield start, end


class _Carrier:
    """The request path both carriers share: batched writes and owed frames.

    A carrier supplies ``_exchange(frames, timeout_s)``, which sends these
    encoded frames as one write and gives one reply per frame, in order.
    Exchanges run one at a time, under the carrier's lock.
    """

    def __init__(self):
        self._owed: list = []  # posted frames, sent with the next exchange
        self._owed_bytes = 0
        self._lock = threading.Lock()

    def request(self, msg_type: MsgType, payload: bytes, timeout_s: Optional[float] = None):
        return self.request_many(msg_type, (payload,), timeout_s)[0]

    def request_many(self, msg_type: MsgType, payloads, timeout_s: Optional[float] = None) -> list:
        """One reply per payload, in order, from writes cut as "Batched requests" says; an owed ERR raises here."""
        frames = [wire.encode_frame(msg_type, p) for p in payloads]
        with self._lock:
            owed = len(self._owed)
            if not owed and len(frames) == 1:  # a lone request: one write, nothing to cut
                return self._exchange(frames, timeout_s)
            frames[:0] = self._owed
            self._owed, self._owed_bytes = [], 0
            replies: list = []
            for start, end in _writes(map(len, frames)):
                written = self._exchange(frames[start:end], timeout_s)
                replies += written
                if any(reply_type is MsgType.ERR for reply_type, _ in written):
                    break  # no later write
        _settle(replies[:owed])
        return replies[owed:]

    def post(self, msg_type: MsgType, payload: bytes) -> None:
        """Owe this request: its frame goes out with the next exchange."""
        frame = wire.encode_frame(msg_type, payload)
        with self._lock:
            self._owed.append(frame)
            self._owed_bytes += len(frame)
            if self._owed_bytes <= RECV_BYTES:
                return
        self.sync()

    def sync(self) -> None:
        """Send what is owed, with no request; an owed ERR raises here."""
        if not self._owed:  # what another thread posts meanwhile is its own to settle
            return
        with self._lock:
            owed = self._owed
            if not owed:
                return
            self._owed, self._owed_bytes = [], 0
            replies = self._exchange(owed, None)
        _settle(replies)

    def _drop(self):
        """Forget the connection; an in-process carrier has none."""

    def close(self):
        with self._lock:
            self._drop()
            self._owed, self._owed_bytes = [], 0


class InProcAgent(_Carrier):
    """Carrier that hands each frame's type and payload to ``handler``, no sockets involved.

    Its writes, owed frames and lock are ``_Carrier``'s, as over TCP: a
    posted frame reaches ``handler`` with the poster's next exchange.
    """

    def __init__(self, handler: Callable[[MsgType, bytes], Tuple[MsgType, bytes]]):
        super().__init__()
        self._handler = handler

    def _exchange(self, frames: list, timeout_s: Optional[float]) -> list:
        return [self._handler(*wire.parse_frame(frame)) for frame in frames]


def _recv(sock: socket.socket, n: int) -> bytes:
    chunk = sock.recv(n)
    if not chunk:
        raise ConnectionError("connection closed mid-frame")
    return chunk


def read_frame(sock: socket.socket, buffered: bytes = b"") -> Tuple[MsgType, bytes, bytes]:
    """Read one frame: ``(msg_type, payload, rest)``.

    ``buffered`` is what the connection's last read took past the end of its
    frame, and ``rest`` is what this one did: the caller keeps it for the
    next.  Each ``recv`` asks for up to ``RECV_BYTES``, so a frame that
    arrived whole costs one call, and frames that arrived together are
    split here.
    """
    while len(buffered) < wire.HEADER_SIZE:
        buffered += _recv(sock, RECV_BYTES)
    msg_type, length = wire.parse_header(buffered[: wire.HEADER_SIZE])
    end = wire.HEADER_SIZE + length
    if len(buffered) < end:
        chunks, have = [buffered], len(buffered)
        while have < end:
            chunk = _recv(sock, max(end - have, RECV_BYTES))
            chunks.append(chunk)
            have += len(chunk)
        buffered = b"".join(chunks)
    return msg_type, buffered[wire.HEADER_SIZE : end], buffered[end:]


def _holds_frame(buffered: bytes) -> bool:
    """Whether ``buffered`` starts with a whole frame, by its header's length field."""
    if len(buffered) < wire.HEADER_SIZE:
        return False
    length = int.from_bytes(buffered[wire.HEADER_SIZE - 4 : wire.HEADER_SIZE], "big")  # the header ends with it
    return len(buffered) >= wire.HEADER_SIZE + length


def _timeval(seconds: float) -> bytes:
    """``seconds`` as a ``struct timeval``, at least 1 µs: a zero would mean no timeout."""
    return struct.pack("@ll", *divmod(max(1, round(seconds * 1e6)), 1_000_000))


class TcpAgent(_Carrier):
    """Carrier that frames requests over TCP, reconnecting with backoff."""

    def __init__(self, host: str, port: int, retry_base_ms: float = RETRY_BASE_MS, tries: int = RETRY_TRIES):
        super().__init__()
        self.host = host
        self.port = port
        self.retry_base_ms = retry_base_ms
        self.tries = tries
        self._sock: Optional[socket.socket] = None
        self._timeout: Optional[float] = None  # the socket's, set only when a request needs another

    request = _Carrier.request  # this class's own, so that a tracer can wrap TCP requests alone

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=10.0)
        sock.settimeout(None)  # blocking: the kernel times sends and receives, see _exchange
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _exchange(self, frames: list, timeout_s: Optional[float]) -> list:
        """Send ``frames`` in one write and read a reply to each, retrying on a dropped connection."""
        data = b"".join(frames)
        last_error: Optional[Exception] = None
        for attempt in range(self.tries):
            if attempt:
                time.sleep(self.retry_base_ms * (2 ** (attempt - 1)) / 1000.0)
            try:
                if self._sock is None:
                    self._sock = self._connect()
                timeout = timeout_s if timeout_s is not None else SOCKET_TIMEOUT_S
                if timeout != self._timeout:
                    tv = _timeval(timeout)
                    self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, tv)
                    self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, tv)
                    self._timeout = timeout
                self._sock.sendall(data)
                replies, rest = [], b""
                for _ in frames:
                    msg_type, reply, rest = read_frame(self._sock, rest)
                    replies.append((msg_type, reply))
                if rest:
                    raise ProtocolError(f"{len(rest)} bytes after the reply")
                return replies
            except ProtocolError:
                self._drop()
                raise
            except (OSError, ConnectionError) as e:  # a timeout too: a blocking socket raises EAGAIN
                last_error = e
                self._drop()
        raise TransportUnreachable(f"{self.host}:{self.port} after {self.tries} tries: {last_error}")

    def _drop(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._timeout = None


class TcpServer:
    """Threaded frame server; one handler callable serves every connection.

    One thread accepts, and each connection gets a thread of its own that
    runs the frame loop.  ``stop`` shuts the listening socket down, which
    fails the pending ``accept`` at once, and then shuts every open
    connection down too, so a client that connected before the stop is not
    served after it.
    """

    def __init__(self, handler: Callable[[MsgType, bytes], Tuple[MsgType, bytes]], host: str = "127.0.0.1", port: int = 0):
        self._handler = handler
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._connections: set = set()  # open ones; each connection thread removes its own
        self._thread: Optional[threading.Thread] = None
        self._stopping = False

    def start(self) -> "TcpServer":
        self._thread = threading.Thread(target=self._accept_loop, name=f"frame-server-{self.port}", daemon=True)
        self._thread.start()
        return self

    def _accept_loop(self):
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                continue  # shut down by stop(), or a client that gave up mid-accept
            self._connections.add(conn)
            threading.Thread(target=self._serve, args=(conn,), name=f"frame-conn-{self.port}", daemon=True).start()

    def _serve(self, conn: socket.socket):
        buffered = b""
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # or a second small reply waits on the first's ACK
            while True:
                # serve the next frame and every later one already whole in the buffer, then send their replies at once
                replies = []
                try:
                    while True:
                        msg_type, payload, buffered = read_frame(conn, buffered)
                        replies.append(wire.encode_frame(*self._handler(msg_type, payload)))
                        if not _holds_frame(buffered):
                            break
                except EductionError as e:  # framing is broken; the stream cannot be trusted
                    replies.append(wire.encode_frame(*_err_reply(e.code, str(e))))
                    conn.sendall(b"".join(replies))
                    return
                conn.sendall(replies[0] if len(replies) == 1 else b"".join(replies))
        except OSError:  # the peer went away, or stop() shut the connection down
            pass
        finally:
            self._connections.discard(conn)
            try:
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            conn.close()

    def stop(self):
        self._stopping = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join()  # nothing is accepted after this
            self._thread = None
        self._listener.close()
        for conn in list(self._connections):
            try:
                conn.shutdown(socket.SHUT_RDWR)  # its thread's recv sees EOF
            except OSError:
                pass  # closed meanwhile


def serve_store(store: DemandStore, host: str = "127.0.0.1", port: int = 0) -> TcpServer:
    return TcpServer(lambda t, p: dispatch_store_request(store, t, p), host, port).start()


# --- client ----------------------------------------------------------------------

_FETCH_STATE = {bytes((s,)): s for s in DemandState}  # a FETCH_REPLY's first byte


def _reply(agent, msg_type: MsgType, payload: bytes, expect: MsgType, timeout_s: Optional[float] = None) -> bytes:
    """One round trip; the reply's body, checked by ``_check``."""
    return _check(agent.request(msg_type, payload, timeout_s), expect)


def _deposit_outcome(reply: bytes) -> DepositOutcome:
    status = _DEPOSIT_STATUS.get(reply[:1])
    if status is DepositStatus.ALREADY_COMPUTED:
        try:
            return DepositOutcome(status, wire.decode_value(reply[1:]))
        except wire.TrailingBytes:
            pass
    elif status is not None and len(reply) == 1:
        return ENQUEUED if status is DepositStatus.ENQUEUED else DepositOutcome(status)
    raise wire.MalformedEncoding(f"bad deposit reply {reply[:16]!r}")


class StoreClient:
    """Store operations over any carrier; ERR replies re-raise the right class."""

    def __init__(self, agent):
        self.agent = agent

    def deposit(self, d: Demand) -> DepositOutcome:
        return self._deposit(wire.encode_demand(d))

    def deposit_key(self, key: bytes) -> DepositOutcome:
        """Deposit the PENDING demand whose signature has this key."""
        return self._deposit(key + wire.PENDING)

    def _deposit(self, payload: bytes) -> DepositOutcome:
        return _deposit_outcome(_reply(self.agent, MsgType.DEPOSIT, payload, MsgType.OK))

    def deposit_many(self, demands) -> list:
        """``deposit`` each demand, in one write per ``RECV_BYTES`` of frames.

        Every reply of a write is read before the first ERR in order raises,
        and no later write is sent.
        """
        replies = self.agent.request_many(MsgType.DEPOSIT, [wire.encode_demand(d) for d in demands])
        return [_deposit_outcome(_check(reply, MsgType.OK)) for reply in replies]

    def claim(self, worker_id: str, lease_ms: float, wait_ms: float = 0) -> Optional[Demand]:
        payload = b"".join(map(wire.encode_value, (worker_id, int(lease_ms), int(wait_ms))))
        reply = _reply(self.agent, MsgType.CLAIM, payload, MsgType.CLAIM_REPLY, SOCKET_TIMEOUT_S + wait_ms / 1000.0)
        if reply == b"\x00":
            return None
        if reply[:1] == b"\x01":
            try:
                return wire.decode_demand(reply[1:])
            except wire.TrailingBytes:
                pass
        raise wire.MalformedEncoding(f"bad claim reply {reply[:16]!r}")

    def fulfill(self, sig: DemandSignature, value: Value, worker_id: str) -> None:
        self.fulfill_key(sig.key(), value, worker_id, sig.kind is not DemandKind.INTENSIONAL)

    def fulfill_key(self, key: bytes, value: Value, worker_id: str, procedural: bool) -> None:
        """Store ``value`` under the signature key ``key``; an intensional fulfil is written behind.

        A posted fulfil takes effect when it is settled, by this client's
        next exchange or ``sync``, not when this call returns.
        """
        payload = key + wire.encode_value(value) + wire.encode_value(worker_id)
        if procedural:
            _reply(self.agent, MsgType.FULFILL, payload, MsgType.OK)
        else:
            self.agent.post(MsgType.FULFILL, payload)

    def sync(self) -> None:
        """Settle every owed reply; an owed ERR raises here."""
        self.agent.sync()

    def fetch(self, sig: DemandSignature):
        reply = _reply(self.agent, MsgType.FETCH, wire.encode_signature(sig), MsgType.FETCH_REPLY)
        state = _FETCH_STATE.get(reply[:1])
        if state is DemandState.COMPUTED and reply[1:2] == b"\x01":  # a value, and only a computed one has one
            try:
                return state, wire.decode_value(reply[2:])
            except wire.TrailingBytes:
                pass
        elif state is not None and state is not DemandState.COMPUTED and reply[1:] == b"\x00":
            return state, None
        raise wire.MalformedEncoding(f"bad fetch reply {reply[:16]!r}")

    def await_result(self, sig: DemandSignature, timeout_ms: float) -> Value:
        payload = wire.encode_signature(sig) + wire.encode_value(int(timeout_ms))
        reply = _reply(self.agent, MsgType.AWAIT, payload, MsgType.OK, timeout_s=timeout_ms / 1000.0 + 10.0)
        return wire.decode_value(reply)

    def put_resource(self, program_id: str, data: bytes) -> None:
        payload = wire.encode_value(program_id) + len(data).to_bytes(4, "big") + data
        _reply(self.agent, MsgType.RESOURCE_PUT, payload, MsgType.OK)

    def get_resource(self, program_id: str) -> bytes:
        reply = _reply(self.agent, MsgType.RESOURCE_GET, wire.encode_value(program_id), MsgType.OK)
        return wire.decode_fields(reply, wire.read_bytes)[0]

    def stats(self) -> StoreStats:
        reply = _reply(self.agent, MsgType.STATS, b"", MsgType.OK)
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
    reply = _reply(agent, MsgType.SYSTEM, bytes([op]) + encode_system_reply(body), MsgType.OK, timeout_s)
    return _system_body(wire.decode_fields(reply, wire.read_bytes)[0])


def decode_system_payload(payload: bytes) -> Tuple[int, dict]:
    op, raw = wire.decode_fields(payload, wire.read_u8, wire.read_bytes)
    return op, _system_body(raw)


def encode_system_reply(body: dict) -> bytes:
    """A SYSTEM body, 4-byte length then sorted-key JSON; a request puts its op byte first."""
    raw = json.dumps(body, sort_keys=True).encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def _system_body(raw: bytes) -> dict:
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise wire.MalformedEncoding(f"bad system payload: {e}") from None
    if not isinstance(body, dict):
        raise wire.MalformedEncoding("system payload must be a JSON object")
    return body


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
