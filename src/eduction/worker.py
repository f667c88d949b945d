"""Demand worker: claims procedural demands and fulfills their results.

A worker never polls: each claim waits in the store, up to
``CLAIM_WAIT_MS``, until a demand is deposited or redelivered, so queued
work is picked up at once.  The bound only limits how long ``Worker.stop``
waits for a claim that finds nothing.

A worker owns a registry of named procedures.  A procedure that raises is
not allowed to wedge the queue: the failure is fulfilled as a ``Fault``
(error code and message), and the store raises ``ProcedureFault`` to every
generator that reads it, so waiting generators fail fast instead of timing
out.  ``SystemExit``/``KeyboardInterrupt`` are not caught, so a dying
worker leaves its claim to lapse and the demand is redelivered elsewhere.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import EductionError
from . import wire
from .model import Demand, DemandKind, Fault, MalformedValue, Value, is_finite_value
from .store import ConflictingResult, NotClaimed, ProcedureFault

CLAIM_WAIT_MS = 200


class DuplicateProcedure(EductionError):
    pass


class UnknownProcedure(EductionError):
    pass


class ArityMismatch(EductionError):
    pass


class StoreUnreachable(EductionError):
    pass


class ProcedureRegistry:
    """Named procedures: Value arguments in, one Value out."""

    def __init__(self):
        self._procs: dict[str, tuple[int, Callable]] = {}

    def register(self, name: str, arity: int, impl: Callable) -> None:
        if name in self._procs:
            raise DuplicateProcedure(name)
        self._procs[name] = (arity, impl)

    def names(self) -> list[str]:
        return sorted(self._procs)

    def invoke(self, name: str, args: Sequence[Value]) -> Value:
        try:
            arity, impl = self._procs[name]
        except KeyError:
            raise UnknownProcedure(name) from None
        if len(args) != arity:
            raise ArityMismatch(f"{name} takes {arity} arguments, got {len(args)}")
        try:
            return impl(*args)
        except EductionError:
            raise
        except Exception as e:
            raise ProcedureFault(f"{name}: {type(e).__name__}: {e}") from e


def execute_one(registry: ProcedureRegistry, demand: Demand) -> Value:
    sig = demand.signature
    if sig.kind is not DemandKind.PROCEDURAL:
        raise UnknownProcedure(f"workers execute procedural demands, not {sig.kind.name}")
    return registry.invoke(sig.name, sig.args)


@dataclass
class WorkerConfig:
    worker_id: str
    lease_ms: float = 5000


@dataclass
class RunSummary:
    claims: int = 0
    fulfills: int = 0
    failures: int = 0


def run_worker(cfg: WorkerConfig, store, registry: ProcedureRegistry, stop: threading.Event) -> RunSummary:
    """Claim/execute/fulfill until ``stop`` is set; returns the tally.

    The current demand is always fulfilled before the loop exits, so a
    graceful stop leaves no dangling lease behind.
    """
    summary = RunSummary()
    while not stop.is_set():
        demand = store.claim(cfg.worker_id, (DemandKind.PROCEDURAL,), cfg.lease_ms, wait_ms=CLAIM_WAIT_MS)
        if demand is None:
            continue
        summary.claims += 1
        try:
            value = execute_one(registry, demand)
            wire.encode_value(value)  # results must be encodable ...
            if not is_finite_value(value):  # ... and finite, or the store refuses them
                raise ProcedureFault(f"{demand.signature.name}: non-finite result")
        except (UnknownProcedure, ArityMismatch, ProcedureFault, MalformedValue) as e:
            value = Fault(e.code, str(e))
            summary.failures += 1
        try:
            store.fulfill(demand.signature, value, cfg.worker_id)
            summary.fulfills += 1
        except (NotClaimed, ConflictingResult):
            summary.failures += 1  # lease lapsed and someone else finished it
    return summary


class Worker:
    """A worker loop on its own thread."""

    def __init__(self, cfg: WorkerConfig, store, registry: ProcedureRegistry):
        self.cfg = cfg
        self.store = store
        self.registry = registry
        self.summary: Optional[RunSummary] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Worker":
        def loop():
            self.summary = run_worker(self.cfg, self.store, self.registry, self._stop)

        self._thread = threading.Thread(target=loop, name=f"dwt-{self.cfg.worker_id}", daemon=True)
        self._thread.start()
        return self

    def stop(self, join: bool = True):
        self._stop.set()
        if join and self._thread is not None:
            self._thread.join()

    @property
    def alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


def build_demo_registry() -> ProcedureRegistry:
    """Small arithmetic procedures for demos and raw-queue exercises."""
    reg = ProcedureRegistry()
    reg.register("add2", 2, lambda a, b: a + b)
    reg.register("mul2", 2, lambda a, b: a * b)
    reg.register("neg", 1, lambda a: -a)
    return reg
