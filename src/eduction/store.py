"""Demand store: the warehouse plus a leased queue of worker demands.

Every computed value lands in the warehouse and is served from there
instead of being recomputed.  A computed result is terminal and immutable,
so the warehouse keeps only signature key -> value.  Only work a worker
executes (procedural demands) is queued, oldest first in one heap, and
only until it is fulfilled: its entry goes PENDING -> IN_PROCESS ->
computed, and workers claim it under a lease.  A lease expires where it is
read, not on a timer: ``claim``, ``fetch`` and ``stats`` first send every
lapsed lease's demand back to PENDING (``sweep_expired_leases``), which
gives at-least-once delivery with no thread watching the clock.
Intensional demands are never queued, leased or recorded: a deposit of one
is a warehouse lookup, and whichever generator computes it on a miss
fulfils it directly.  A second fulfill must match the stored value
byte-for-byte (idempotent completion) or it is rejected as conflicting.  A
procedure that failed is fulfilled with a ``Fault``; it is stored like any
result, and every read of it (a deposit that hits it, ``fetch``,
``await_result``) raises ``ProcedureFault``.  Beside the warehouse the store
keeps resources, blobs by name, each a whole compiled program (GEER) or
speaker model (TSET); ``wire.validate_resource`` refuses any other with
``MalformedGeer`` before it is stored.

All operations take one lock, so the store is linearizable.  Two conditions
share it: ``await_result`` blocks on one that ``fulfill`` notifies, and a
``claim`` with nothing to take blocks, up to its ``wait_ms``, on one that
each queued entry (a deposit or a redelivery) notifies once.  Every claim
can take every queued entry, so one wakeup per entry is enough; the store
is the one place that decides what is claimable.  A blocked claim also
wakes when the earliest lease expires, so a worker picks up queued or
redelivered work as soon as it is due and never polls.  When a log path
is given, procedural deposits, fulfills and resource puts are appended to
a ``Journal`` of wire frames and replayed on startup, so a restart
recovers the warehouse and re-queues whatever was in flight.  A record is
appended before the change it records is made, and after ``close`` every
change the log would record raises ``StoreClosed``.  The manager keeps its
event log in a ``Journal`` too.

Each operation that names a signature has a keyed form
(``deposit_key``, ``fulfill_key``, ``fetch_key``, ``await_key``), which
the signature form calls with ``sig.key()``.  A DST passes the key bytes
it received, and a fulfil's log record is the bytes it received, so it
builds a signature only for a procedural demand it queues.  Replay reads
a FULFILL's key the same way.  The engine deposits and fulfils an
intensional demand by its key too, here and through a ``StoreClient``,
which has the same ``deposit_key`` and ``fulfill_key``.
"""
from __future__ import annotations

import enum
import heapq
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .errors import EductionError
from . import wire
from .model import (
    Demand,
    DemandKind,
    DemandSignature,
    DemandState,
    Fault,
    MalformedDemand,
    Value,
    is_finite_value,
    pending_demand,
)
from .wire import MsgType


class NotClaimed(EductionError):
    pass


class ProcedureFault(EductionError):
    pass


class ConflictingResult(EductionError):
    pass


class NonFiniteValue(EductionError):
    pass


class NotFound(EductionError):
    pass


class Timeout(EductionError):
    pass


class StoreClosed(EductionError):
    pass


class NotAJournal(EductionError):
    pass


class Journal:
    """An append-only file of wire frames: the store's log, and the manager's.

    Opening replays each whole frame through ``replay(msg_type, payload)``
    and cuts the file, with one WARNING, at the first frame that is torn or
    corrupt or that ``replay`` refuses with an ``EductionError``.  A non-empty
    file that does not begin as a frame does is refused and left as it is.
    ``append`` writes and flushes one frame; after ``close`` it raises
    ``StoreClosed``.
    """

    def __init__(self, path: str, replay: Callable[[MsgType, bytes], None]):
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            if not wire.MAGIC.startswith(data[: len(wire.MAGIC)]):
                raise NotAJournal(f"{path} is not a journal: it starts with {data[:len(wire.MAGIC)]!r}")
            good_end = 0
            try:
                for msg_type, payload, end in wire.iter_frames(data):
                    replay(msg_type, payload)
                    good_end = end
            except EductionError:
                pass  # the first torn or corrupt record ends the log
            if good_end != len(data):
                import logging  # only a damaged log needs it; a node start would pay for it

                logging.getLogger(__name__).warning(
                    "journal %s: dropping %d bytes of torn or corrupt tail", path, len(data) - good_end
                )
                with open(path, "r+b") as f:
                    f.truncate(good_end)
        self._file = open(path, "ab")

    def append(self, msg_type: MsgType, payload: bytes) -> None:
        if self._file.closed:
            raise StoreClosed("the journal is closed")
        self._file.write(wire.encode_frame(msg_type, payload))
        self._file.flush()

    def close(self) -> None:
        self._file.close()


class DepositStatus(enum.Enum):
    """Answer to a deposit.

    For a procedural demand ENQUEUED means the demand is now queued for a
    worker.  For an intensional demand it means "not in the warehouse:
    compute it and fulfil it"; the store records nothing.
    """

    ENQUEUED = 0
    ALREADY_COMPUTED = 1
    DUPLICATE_PENDING = 2


@dataclass(frozen=True)
class DepositOutcome:
    status: DepositStatus
    value: Optional[Value] = None


ENQUEUED = DepositOutcome(DepositStatus.ENQUEUED)  # one for every miss: an outcome is immutable


def _named(key: bytes) -> str:
    """The signature a key encodes, as an error message names it; decoded only for the message."""
    try:
        return str(wire.decode_signature(key))
    except EductionError:  # built in-process from parts the decoder refuses
        return repr(key)


@dataclass(frozen=True)
class Lease:
    worker_id: str
    expiry: float


@dataclass(frozen=True)
class StoreStats:
    deposits: int
    hits: int
    misses: int
    computed: int
    pending: int
    in_process: int
    redeliveries: int

    def as_line(self) -> str:
        return (
            f"deposits={self.deposits} hits={self.hits} misses={self.misses} "
            f"computed={self.computed} pending={self.pending} "
            f"in_process={self.in_process} redeliveries={self.redeliveries}"
        )


def _monotonic_ms() -> float:
    return time.monotonic() * 1000.0


class DemandStore:
    """In-memory demand store with optional append-only persistence."""

    def __init__(self, log_path: Optional[str] = None, clock: Callable[[], float] = _monotonic_ms):
        self._clock = clock
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)  # fulfilled: wakes await_result
        self._queued = threading.Condition(self._lock)  # enqueued: wakes claim
        self._results: dict[bytes, Value] = {}  # the warehouse: key -> computed value
        # queued procedural demands until fulfilled: key -> (signature, deposited_at);
        # an entry is IN_PROCESS iff its key is leased, else PENDING
        self._work: dict[bytes, Tuple[DemandSignature, float]] = {}
        self._leases: dict[bytes, Lease] = {}
        self._queue: list = []  # heap of (deposited_at, key), one per PENDING entry
        self._resources: dict[str, bytes] = {}
        self._deposits = 0
        self._hits = 0
        self._misses = 0
        self._redeliveries = 0
        self._log = None
        if log_path is not None:
            with self._lock:  # replay enqueues, and notifying needs the lock
                self._log = Journal(log_path, self._replay)
                for key in self._work:  # queue only what the log left unfulfilled
                    self._enqueue(key)

    # -- time ------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    # -- core operations ---------------------------------------------------

    def deposit(self, d: Demand) -> DepositOutcome:
        if d.state is not DemandState.PENDING or d.result is not None:
            raise MalformedDemand("deposits must be PENDING and carry no result")
        sig = d.signature
        try:
            key = sig.key()
        except EductionError as e:
            raise MalformedDemand(str(e)) from None
        return self.deposit_key(key, None if sig.kind is DemandKind.INTENSIONAL else lambda: sig)

    def deposit_key(self, key: bytes, queue: Optional[Callable[[], DemandSignature]] = None) -> DepositOutcome:
        """Deposit the PENDING demand whose signature has this key.

        ``queue`` is given for a procedural demand: a miss calls it for the
        signature to queue, so a hit builds none.  Without it the deposit
        is an intensional one, a warehouse lookup that records nothing.
        """
        with self._cond:
            self._deposits += 1
            value = self._results.get(key)
            if value is not None:
                self._hits += 1
                if type(value) is Fault:
                    raise ProcedureFault(str(value))
                return DepositOutcome(DepositStatus.ALREADY_COMPUTED, value)
            self._misses += 1
            if queue is None:
                return ENQUEUED
            if key in self._work:
                return DepositOutcome(DepositStatus.DUPLICATE_PENDING)
            if self._log is not None:
                self._log.append(MsgType.DEPOSIT, key + wire.PENDING)
            self._work[key] = (queue(), self.now())
            self._enqueue(key)
            return ENQUEUED

    def deposit_many(self, demands) -> list:
        """``deposit`` each demand in order; the first error raises, and no later demand is deposited."""
        return [self.deposit(d) for d in demands]

    def claim(self, worker_id: str, lease_ms: float, wait_ms: float = 0) -> Optional[Demand]:
        """Lease the oldest pending demand, waiting up to ``wait_ms`` for one.

        Only procedural demands are queued, so every claim can take every
        entry.  Lapsed leases are redelivered first, and a blocked claim
        wakes no later than the earliest lease expiry, so a dead claimer's
        demand is handed on as soon as its lease runs out.
        """
        if lease_ms <= 0:
            raise MalformedDemand("lease_ms must be positive")
        deadline = time.monotonic() + wait_ms / 1000.0
        with self._cond:
            while True:
                self.sweep_expired_leases()
                if self._queue:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                if self._leases:
                    # wake when the next lease lapses; wait 1 ms at least, so a clock that stands still cannot spin this
                    next_expiry = min(lease.expiry for lease in self._leases.values())
                    remaining = min(remaining, max(next_expiry - self.now(), 1.0) / 1000.0)
                self._queued.wait(remaining)
            key = heapq.heappop(self._queue)[1]
            self._leases[key] = Lease(worker_id, self.now() + lease_ms)
            return Demand(self._work[key][0], DemandState.IN_PROCESS)

    def fulfill(self, sig: DemandSignature, value: Value, worker_id: str) -> None:
        self.fulfill_key(sig.key(), value, worker_id, sig.kind is not DemandKind.INTENSIONAL)

    def fulfill_key(
        self, key: bytes, value: Value, worker_id: str, procedural: bool, record: Optional[bytes] = None
    ) -> None:
        """Store ``value`` under the signature key ``key``.

        A procedural demand must be leased to ``worker_id``.  ``record`` is
        the key followed by the encoded value, when the caller holds those
        bytes already; it is what the log appends.
        """
        if not is_finite_value(value):
            raise NonFiniteValue(f"refusing to store a non-finite value for {_named(key)}")
        with self._cond:
            stored = self._results.get(key)
            if stored is not None:
                if wire.values_equal(stored, value):
                    return  # idempotent completion
                raise ConflictingResult(f"{_named(key)}: stored result differs")
            if procedural:  # queued work needs its lease
                if key not in self._work:
                    raise NotClaimed(f"unknown signature {_named(key)}")
                lease = self._leases.get(key)
                if lease is None or lease.worker_id != worker_id:
                    raise NotClaimed(f"{_named(key)} is not claimed by {worker_id!r}")
            if self._log is not None:
                self._log.append(MsgType.FULFILL, record or key + wire.encode_value(value))
            self._results[key] = value
            if procedural:  # only queued work can be awaited
                del self._leases[key]
                del self._work[key]
                self._cond.notify_all()

    def sync(self) -> None:
        """Nothing to settle: every operation here is done when it returns (``StoreClient.sync`` has work)."""

    def fetch(self, sig: DemandSignature) -> Tuple[DemandState, Optional[Value]]:
        return self.fetch_key(sig.key())

    def fetch_key(self, key: bytes) -> Tuple[DemandState, Optional[Value]]:
        with self._cond:
            self.sweep_expired_leases()
            value = self._results.get(key)
            if value is not None:
                self._hits += 1
                if type(value) is Fault:
                    raise ProcedureFault(str(value))
                return DemandState.COMPUTED, value
            self._misses += 1
            if key not in self._work:
                raise NotFound(_named(key))
            return (DemandState.IN_PROCESS if key in self._leases else DemandState.PENDING), None

    def await_result(self, sig: DemandSignature, timeout_ms: float) -> Value:
        return self.await_key(sig.key(), timeout_ms)

    def await_key(self, key: bytes, timeout_ms: float) -> Value:
        deadline = self.now() + timeout_ms
        with self._cond:
            while True:
                value = self._results.get(key)
                if value is not None:
                    self._hits += 1
                    if type(value) is Fault:
                        raise ProcedureFault(str(value))
                    return value
                if key not in self._work:
                    raise NotFound(_named(key))
                remaining = deadline - self.now()
                if remaining <= 0:
                    raise Timeout(f"no result for {_named(key)} within {timeout_ms} ms")
                self._cond.wait(remaining / 1000.0)

    def sweep_expired_leases(self, now: Optional[float] = None) -> int:
        """Return the demands of lapsed leases to PENDING for redelivery.

        The one place leases expire; ``claim``, ``fetch`` and ``stats`` call
        it before they read the queue.  Returns how many leases lapsed.
        """
        with self._cond:
            if now is None:
                now = self.now()
            expired = [key for key, lease in self._leases.items() if lease.expiry < now]
            for key in expired:
                del self._leases[key]
                self._enqueue(key)
            self._redeliveries += len(expired)
            return len(expired)

    def _enqueue(self, key: bytes):
        """Queue a pending entry for claiming, in original deposit order."""
        heapq.heappush(self._queue, (self._work[key][1], key))
        self._queued.notify()  # any claimer can take it; each rechecks the queue after a wait

    # -- resources ---------------------------------------------------------

    def put_resource(self, program_id: str, data: bytes) -> None:
        wire.validate_resource(data)
        with self._cond:
            if self._resources.get(program_id) == data:
                return  # idempotent re-put
            if self._log is not None:
                self._log.append(
                    MsgType.RESOURCE_PUT,
                    wire.encode_value(program_id) + len(data).to_bytes(4, "big") + data,
                )
            self._resources[program_id] = data

    def get_resource(self, program_id: str) -> bytes:
        with self._cond:
            try:
                return self._resources[program_id]
            except KeyError:
                raise NotFound(f"no resource {program_id!r}") from None

    # -- stats ---------------------------------------------------------------

    def stats(self) -> StoreStats:
        with self._cond:
            self.sweep_expired_leases()
            return StoreStats(
                deposits=self._deposits,
                hits=self._hits,
                misses=self._misses,
                computed=len(self._results),
                pending=len(self._work) - len(self._leases),
                in_process=len(self._leases),
                redeliveries=self._redeliveries,
            )

    # -- persistence ---------------------------------------------------------

    def _replay(self, msg_type: MsgType, payload: bytes):
        if msg_type is MsgType.DEPOSIT:
            (kind, key), tail = wire.decode_fields(payload, wire.read_key, wire.read_rest)
            if tail != wire.PENDING:  # not as ``deposit_key`` logs it: checked in full
                wire.decode_demand(payload)
            queued = kind is not DemandKind.INTENSIONAL  # older logs hold intensional ones too
            if queued and key not in self._work and key not in self._results:
                self._deposits += 1
                self._work[key] = (wire.decode_signature(key), self.now())
        elif msg_type is MsgType.FULFILL:
            (_, key), value = wire.decode_fields(payload, wire.read_key, wire.read_value)
            self._results.setdefault(key, value)
            self._work.pop(key, None)
        elif msg_type is MsgType.RESOURCE_PUT:
            program_id, data = wire.decode_fields(payload, wire.read_str, wire.read_bytes)
            self._resources[program_id] = data
        # other frame types never appear in the log

    def close(self):
        """Close the log; a change that the log would record raises ``StoreClosed`` after this."""
        if self._log is not None:
            self._log.close()


def gather(store, sigs, timeout_ms: float) -> list:
    """Deposit every signature, then give each one's value, in order.

    ``store`` is a ``DemandStore`` or a client of one.  A warehouse hit is
    its value at once; anything else is awaited.  Every deposit goes out
    before the first wait, so the demands run on as many workers as there
    are.  This is the one place that reads a procedural deposit's outcome.

    ``deposit_many`` makes the deposits: a client sends them in one write
    per ``RECV_BYTES`` of frames.  A deposit that hits a ``Fault`` raises
    ``ProcedureFault`` only once every reply of its write is read, so the
    deposits after it in that write are still queued and computed, though
    nothing reads them; no later write is sent.  A ``DemandStore`` stops at
    the fault, as deposits made one round trip each would.
    """
    outs = store.deposit_many([pending_demand(sig) for sig in sigs])
    return [
        out.value if out.status is DepositStatus.ALREADY_COMPUTED else store.await_result(sig, timeout_ms)
        for sig, out in zip(sigs, outs)
    ]

