"""Demand store: the warehouse plus a leased queue of worker demands.

Every computed value lands in the warehouse and is served from there
instead of being recomputed.  A computed result is terminal and immutable,
so the warehouse keeps only signature key -> value.  Only work a worker
executes (procedural demands) is queued, oldest first in one heap, and
only until it is fulfilled: its entry goes PENDING -> IN_PROCESS ->
computed, workers claim it under a lease, and when a lease expires the
sweep sends the entry back to PENDING, which gives at-least-once delivery.
Intensional demands are never queued, leased or recorded: a deposit of one
is a warehouse lookup, and whichever generator computes it on a miss
fulfils it directly.  A second fulfill must match the stored value
byte-for-byte (idempotent completion) or it is rejected as conflicting.  A
procedure that failed is fulfilled with a ``Fault``; it is stored like any
result, and every read of it (a deposit that hits it, ``fetch``,
``await_result``) raises ``ProcedureFault``.

All operations take one lock, so the store is linearizable.  Two conditions
share it: ``await_result`` blocks on one that ``fulfill`` notifies, and a
``claim`` with nothing to take blocks, up to its ``wait_ms``, on one that
a deposit and the lease sweep notify, so a worker picks up queued work as
soon as it is queued and never polls.  When a log path is given,
procedural deposits, fulfills and resource puts are appended as wire
frames and replayed on startup, so a restart recovers the warehouse and
re-queues whatever was in flight.
"""
from __future__ import annotations

import enum
import heapq
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Tuple

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
)
from .wire import MsgType

DEFAULT_LEASE_MS = 5000
DEFAULT_SWEEP_MS = 500


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


@dataclass
class StoreEntry:
    demand: Demand
    deposited_at: float


@dataclass(frozen=True)
class Lease:
    signature_key: bytes
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
        self._work: dict[bytes, StoreEntry] = {}  # queued procedural demands until fulfilled
        self._leases: dict[bytes, Lease] = {}
        self._queue: list = []  # heap of (deposited_at, key) for claims
        self._resources: dict[str, bytes] = {}
        self._deposits = 0
        self._hits = 0
        self._misses = 0
        self._redeliveries = 0
        self._log = None
        self._sweeper: Optional[threading.Thread] = None
        self._sweeper_stop: Optional[threading.Event] = None
        if log_path is not None:
            with self._lock:  # replay enqueues, and notifying needs the lock
                self._open_log(log_path)

    # -- time ------------------------------------------------------------

    def now(self) -> float:
        return self._clock()

    # -- core operations ---------------------------------------------------

    def deposit(self, d: Demand) -> DepositOutcome:
        if d.state is not DemandState.PENDING or d.result is not None:
            raise MalformedDemand("deposits must be PENDING and carry no result")
        try:
            key = d.signature.key()
        except EductionError as e:
            raise MalformedDemand(str(e)) from None
        with self._cond:
            self._deposits += 1
            value = self._results.get(key)
            if value is not None:
                self._hits += 1
                if type(value) is Fault:
                    raise ProcedureFault(str(value))
                return DepositOutcome(DepositStatus.ALREADY_COMPUTED, value)
            self._misses += 1
            if d.signature.kind is DemandKind.INTENSIONAL:
                return DepositOutcome(DepositStatus.ENQUEUED)
            if key in self._work:
                return DepositOutcome(DepositStatus.DUPLICATE_PENDING)
            fresh = Demand(d.signature)
            entry = StoreEntry(demand=fresh, deposited_at=self.now())
            self._work[key] = entry
            self._enqueue(entry, key)
            if self._log is not None:
                self._append_log(MsgType.DEPOSIT, wire.encode_demand(fresh))
            return DepositOutcome(DepositStatus.ENQUEUED)

    def claim(
        self, worker_id: str, kinds: Iterable[DemandKind], lease_ms: float, wait_ms: float = 0
    ) -> Optional[Demand]:
        """Lease the oldest pending demand of ``kinds``, waiting up to ``wait_ms`` for one.

        Only procedural demands are queued, so a claim whose ``kinds`` lack
        PROCEDURAL finds nothing.
        """
        if lease_ms <= 0:
            raise MalformedDemand("lease_ms must be positive")
        procedural = DemandKind.PROCEDURAL in kinds
        deadline = time.monotonic() + wait_ms / 1000.0
        with self._cond:
            while not procedural or (key := self._oldest_pending()) is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._queued.wait(remaining)
            heapq.heappop(self._queue)
            entry = self._work[key]
            expiry = self.now() + lease_ms
            entry.demand = replace(entry.demand, state=DemandState.IN_PROCESS, lease_expiry=expiry)
            self._leases[key] = Lease(key, worker_id, expiry)
            return entry.demand

    def _oldest_pending(self) -> Optional[bytes]:
        q = self._queue
        while q:
            key = q[0][1]
            entry = self._work.get(key)
            if entry is not None and entry.demand.state is DemandState.PENDING:
                return key
            heapq.heappop(q)  # stale heap entry
        return None

    def fulfill(self, sig: DemandSignature, value: Value, worker_id: str) -> None:
        if not is_finite_value(value):
            raise NonFiniteValue(f"refusing to store a non-finite value for {sig}")
        key = sig.key()
        with self._cond:
            stored = self._results.get(key)
            if stored is not None:
                if wire.values_equal(stored, value):
                    return  # idempotent completion
                raise ConflictingResult(f"{sig}: stored result differs")
            queued = sig.kind is not DemandKind.INTENSIONAL
            if queued:  # queued work needs its lease
                if key not in self._work:
                    raise NotClaimed(f"unknown signature {sig}")
                lease = self._leases.get(key)
                if lease is None or lease.worker_id != worker_id:
                    raise NotClaimed(f"{sig} is not claimed by {worker_id!r}")
                del self._leases[key]
                del self._work[key]
            self._results[key] = value
            if self._log is not None:
                self._append_log(MsgType.FULFILL, key + wire.encode_value(value))
            if queued:  # only queued work can be awaited
                self._cond.notify_all()

    def fetch(self, sig: DemandSignature) -> Tuple[DemandState, Optional[Value]]:
        key = sig.key()
        with self._cond:
            value = self._results.get(key)
            if value is not None:
                self._hits += 1
                if type(value) is Fault:
                    raise ProcedureFault(str(value))
                return DemandState.COMPUTED, value
            self._misses += 1
            entry = self._work.get(key)
            if entry is None:
                raise NotFound(str(sig))
            return entry.demand.state, None

    def await_result(self, sig: DemandSignature, timeout_ms: float) -> Value:
        key = sig.key()
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
                    raise NotFound(str(sig))
                remaining = deadline - self.now()
                if remaining <= 0:
                    raise Timeout(f"no result for {sig} within {timeout_ms} ms")
                self._cond.wait(remaining / 1000.0)

    def sweep_expired_leases(self, now: Optional[float] = None) -> int:
        """Return expired IN_PROCESS entries to PENDING for redelivery."""
        with self._cond:
            if now is None:
                now = self.now()
            expired = [lease for lease in self._leases.values() if lease.expiry < now]
            for lease in expired:
                del self._leases[lease.signature_key]
                entry = self._work[lease.signature_key]
                entry.demand = replace(
                    entry.demand,
                    state=DemandState.PENDING,
                    lease_expiry=None,
                    attempts=entry.demand.attempts + 1,
                )
                self._enqueue(entry, lease.signature_key)
                self._redeliveries += 1
            return len(expired)

    def _enqueue(self, entry: StoreEntry, key: bytes):
        """Queue a pending entry for claiming."""
        heapq.heappush(self._queue, (entry.deposited_at, key))
        # every waiting claim rechecks: one whose kinds do not match must not swallow it
        self._queued.notify_all()

    # -- resources ---------------------------------------------------------

    def put_resource(self, program_id: str, data: bytes) -> None:
        _validate_resource(data)
        with self._cond:
            if self._resources.get(program_id) == data:
                return  # idempotent re-put
            self._resources[program_id] = data
            if self._log is not None:
                self._append_log(
                    MsgType.RESOURCE_PUT,
                    wire.encode_value(program_id) + len(data).to_bytes(4, "big") + data,
                )

    def get_resource(self, program_id: str) -> bytes:
        with self._cond:
            try:
                return self._resources[program_id]
            except KeyError:
                raise NotFound(f"no resource {program_id!r}") from None

    # -- stats ---------------------------------------------------------------

    def stats(self) -> StoreStats:
        with self._cond:
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

    def _open_log(self, path: str):
        good_end = 0
        if os.path.exists(path):
            with open(path, "rb") as f:
                data = f.read()
            try:
                for msg_type, payload, end in wire.iter_frames(data):
                    self._replay(msg_type, payload)
                    good_end = end
            except EductionError:
                pass  # stop at the first corrupt record; truncate below
            if good_end != len(data):
                import logging  # only a damaged log needs it; a node start would pay for it

                dropped = len(data) - good_end
                logging.getLogger(__name__).warning(
                    "store log %s: dropping %d bytes of torn or corrupt tail", path, dropped
                )
                with open(path, "r+b") as f:
                    f.truncate(good_end)
        self._log = open(path, "ab")

    def _replay(self, msg_type: MsgType, payload: bytes):
        if msg_type is MsgType.DEPOSIT:
            sig = wire.decode_demand(payload).signature
            key = sig.key()
            queued = sig.kind is not DemandKind.INTENSIONAL  # older logs hold intensional ones too
            if queued and key not in self._work and key not in self._results:
                self._deposits += 1
                entry = StoreEntry(demand=Demand(sig), deposited_at=self.now())
                self._work[key] = entry
                self._enqueue(entry, key)
        elif msg_type is MsgType.FULFILL:
            r = wire.Reader(payload)
            key = wire.read_signature(r).key()
            value = wire.read_value(r)
            r.expect_done()
            self._results.setdefault(key, value)
            self._work.pop(key, None)
        elif msg_type is MsgType.RESOURCE_PUT:
            r = wire.Reader(payload)
            program_id = wire.read_value(r)
            n = r.u32()
            self._resources[program_id] = r.take(n)
            r.expect_done()
        # other frame types never appear in the log

    def _append_log(self, msg_type: MsgType, payload: bytes):
        if self._log is not None:
            self._log.write(wire.encode_frame(msg_type, payload))
            self._log.flush()

    # -- background sweeper ----------------------------------------------------

    def start_sweeper(self, interval_ms: float = DEFAULT_SWEEP_MS):
        if self._sweeper is not None:
            return
        stop = threading.Event()

        def loop():
            while not stop.wait(interval_ms / 1000.0):
                self.sweep_expired_leases()

        self._sweeper_stop = stop
        self._sweeper = threading.Thread(target=loop, name="dst-sweeper", daemon=True)
        self._sweeper.start()

    def stop_sweeper(self):
        if self._sweeper is not None:
            self._sweeper_stop.set()
            self._sweeper.join()
            self._sweeper = None
            self._sweeper_stop = None

    def close(self):
        self.stop_sweeper()
        if self._log is not None:
            self._log.close()
            self._log = None


def _validate_resource(data: bytes):
    """Resources are tagged blobs: compiled programs or serialized models."""
    from . import lang, pipeline

    if data[:5] == wire.GEER_MAGIC:
        wire.decode_geer(data)
        return
    if data[:5] == pipeline.TSET_MAGIC:
        pipeline.decode_training_set(data)
        return
    raise lang.MalformedGeer("unknown resource payload")
