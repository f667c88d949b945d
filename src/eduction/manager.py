"""Manager tier: node registry, tier lifecycle, liveness from heartbeats.

The manager is the one coordination point of a running system.  Nodes
register an address and then heartbeat; every other judgement about them
is derived, never stored: a node is ALIVE while its last heartbeat is
younger than two intervals, SUSPECT under five, DEAD from five on.

Tier instances are built from ``TIERS``, which maps the kind string
("DST", "DWT", "DGT") to a wrapper that its node agent starts once and
stops once.  Allocation talks to the owning node through a node agent:
``LocalNodeAgent`` runs tiers as threads in this process,
``TcpNodeAgent`` sends the same commands to a remote node's agent server.
A move is stop-then-start with the config carried over and a fresh tier
id, and the event log records it as that dealloc and that alloc; nothing
migrates live state, redelivery of leased demands is the store's job.

Commands are serialized by one lock (a single logical command queue);
heartbeats only touch timestamps and take a separate lock so a slow
allocation cannot mask a live node.  When a path is given, every
state-changing command is appended to an event log, a ``Journal`` of
SYSTEM frames (the op byte, then the SYSTEM JSON body with a ``ts``), and
replayed on construction, so a restarted manager still knows its
topology.  Replay restores records, not processes: tiers on remote nodes
keep running and stay RUNNING; whether they still answer is the next
command's problem.
"""
from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import EductionError, TransportUnreachable
from . import wire
from .store import DemandStore, Journal
from .transport import (
    InProcAgent,
    TcpAgent,
    TcpServer,
    connect_store,
    decode_system_payload,
    dispatch_system_request,
    encode_system_reply,
    serve_store,
    split_host_port,
    system_request,
)
from .worker import Worker, WorkerConfig, build_demo_registry

DEFAULT_HEARTBEAT_MS = 1000
SUSPECT_AFTER = 2  # missed intervals
DEAD_AFTER = 5

class UnknownTierKind(EductionError):
    pass


class DuplicateAddress(EductionError):
    pass


class NodeUnknown(EductionError):
    pass


class NodeDead(EductionError):
    pass


class AlreadyAllocated(EductionError):
    pass


class TierUnknown(EductionError):
    pass


class BadTierConfig(EductionError):
    pass


class NodeStatus(enum.Enum):
    ALIVE = "ALIVE"
    SUSPECT = "SUSPECT"
    DEAD = "DEAD"


class TierState(enum.Enum):
    RUNNING = "RUNNING"
    STOPPED = "STOPPED"


class SystemOp(enum.IntEnum):
    REGISTER_NODE = 0
    ALLOCATE = 1
    DEALLOCATE = 2
    MOVE = 3
    HEARTBEAT = 4
    STATUS = 5


def _monotonic_ms() -> float:
    return time.monotonic() * 1000.0


# --- tier wrappers -------------------------------------------------------------


class _TierBase:
    """Concrete tier wrapper: holds config; started once and stopped once."""

    kind = "?"

    def __init__(self, tier_id: str, config: dict):
        self.tier_id = tier_id
        self.config = dict(config)
        self.details: dict = {}

    def start(self) -> dict:
        self.details = self._start()
        return self.details

    def _start(self) -> dict:
        raise NotImplementedError

    def stop(self) -> None:
        raise NotImplementedError


class DstTier(_TierBase):
    """Demand store served over TCP.

    No thread watches its leases: the store expires a lapsed lease when a
    claim, fetch or stats request next reads it.
    """

    kind = "DST"

    def _start(self) -> dict:
        self.store = DemandStore(log_path=self.config.get("log_path"))
        self._server = serve_store(
            self.store, self.config.get("host", "127.0.0.1"), int(self.config.get("port", 0))
        )
        return {"address": f"tcp://{self._server.host}:{self._server.port}"}

    def stop(self) -> None:
        self._server.stop()
        self.store.close()


# worker registries a DWT can come up with; extendable by embedding programs
REGISTRY_PRESETS: dict[str, Callable] = {
    "demo": lambda client: build_demo_registry(),
}


def _pipeline_preset(client):
    from .pipeline import build_pipeline_registry

    return build_pipeline_registry(client)


REGISTRY_PRESETS["pipeline"] = _pipeline_preset


class DwtTier(_TierBase):
    """One worker thread claiming procedural demands from a store.

    ``local_store`` is the ``DemandStore`` of a DST that the same node agent
    runs at the ``store`` address: the worker claims and fulfils on it
    in-process, with no connection and no codec.  Any other worker connects
    to its ``store`` over TCP.  ``stop`` closes only a client the tier
    opened; the DST owns its store and its log, and stops this worker
    before it closes them.
    """

    kind = "DWT"

    def __init__(self, tier_id: str, config: dict, local_store: Optional[DemandStore] = None):
        super().__init__(tier_id, config)
        self.local_store = local_store

    def _start(self) -> dict:
        address = self.config.get("store")
        if not address:
            raise BadTierConfig("DWT needs a 'store' address")
        preset = self.config.get("registry", "demo")
        if preset not in REGISTRY_PRESETS:
            raise BadTierConfig(f"unknown registry preset {preset!r}")
        self._client = connect_store(address) if self.local_store is None else None
        store = self._client or self.local_store
        registry = REGISTRY_PRESETS[preset](store)
        cfg = WorkerConfig(worker_id=self.tier_id, lease_ms=self.config.get("lease_ms", 5000))
        self.worker = Worker(cfg, store, registry).start()
        return {"worker_id": self.tier_id, "procedures": registry.names()}

    def stop(self) -> None:
        self.worker.stop()
        if self._client is not None:
            self._client.close()


class DgtTier(_TierBase):
    """Generator seat: connects to a store and preloads a program, if any."""

    kind = "DGT"

    def _start(self) -> dict:
        self._client = None
        address = self.config.get("store")
        program = self.config.get("program")
        if address:
            self._client = connect_store(address)
            if program:  # a missing or corrupt program fails the allocation
                try:
                    wire.decode_geer(self._client.get_resource(program))
                except BaseException:
                    self._client.close()  # stop() is never called on a failed start
                    raise
        return {"program": program}

    def stop(self) -> None:
        if self._client is not None:
            self._client.close()


TIERS = {"DST": DstTier, "DWT": DwtTier, "DGT": DgtTier}


# --- node agents --------------------------------------------------------------


class LocalNodeAgent:
    """Runs tier instances as threads inside this process.

    A DWT whose ``store`` names a DST this agent runs gets that DST's
    store in-process (see ``DwtTier``); stopping that DST stops the DWT
    too, and neither is this agent's tier any more.
    """

    def __init__(self):
        self._tiers: dict[str, _TierBase] = {}
        self._lock = threading.Lock()

    def start_tier(self, tier_id: str, kind: str, config: dict) -> dict:
        if kind not in TIERS:
            raise UnknownTierKind(str(kind))
        if kind == "DWT":
            tier = DwtTier(tier_id, config, self._store_at(config.get("store")))
        else:
            tier = TIERS[kind](tier_id, config)
        details = tier.start()
        with self._lock:
            self._tiers[tier_id] = tier
        return details

    def _store_at(self, address) -> Optional[DemandStore]:
        """The store of the DST this agent runs at ``address``, ``tcp://`` stripped from both; else None."""
        if not isinstance(address, str):
            return None
        address = address.removeprefix("tcp://")
        with self._lock:
            for t in self._tiers.values():
                if isinstance(t, DstTier) and t.details["address"].removeprefix("tcp://") == address:
                    return t.store
        return None

    def stop_tier(self, tier_id: str) -> list:
        """Stop a tier; return the ids of every tier stopped, in stop order (none if it is not here)."""
        with self._lock:
            tier = self._tiers.pop(tier_id, None)
            if tier is None:
                return []
            bound = []  # the workers that claim on a DST's store in-process leave with it, ending before it closes
            if isinstance(tier, DstTier):
                bound = [tid for tid, t in self._tiers.items() if isinstance(t, DwtTier) and t.local_store is tier.store]
                bound = [self._tiers.pop(tid) for tid in bound]
        for t in bound:
            t.stop()
        tier.stop()
        return [t.tier_id for t in bound] + [tier_id]

    def list_tiers(self) -> dict:
        with self._lock:
            return {
                tid: {"kind": t.kind, "details": t.details} for tid, t in self._tiers.items()
            }

    def tier(self, tier_id: str) -> Optional[_TierBase]:
        with self._lock:
            return self._tiers.get(tier_id)

    def close(self):
        # reverse start order: a worker stops before the store it claims from
        with self._lock:
            tiers, self._tiers = list(self._tiers.values()), {}
        for t in reversed(tiers):
            t.stop()


def node_ops(agent: LocalNodeAgent) -> dict:
    """The node-agent commands, a subset of the manager's SYSTEM op space."""
    return {
        SystemOp.ALLOCATE: lambda b: {
            "details": agent.start_tier(str(b["tier_id"]), str(b["kind"]), dict(b["config"]))
        },
        SystemOp.DEALLOCATE: lambda b: {"stopped": agent.stop_tier(str(b["tier_id"]))},
        SystemOp.STATUS: lambda b: {"tiers": agent.list_tiers()},
    }


def serve_node_agent(agent: LocalNodeAgent, host: str = "127.0.0.1", port: int = 0) -> TcpServer:
    ops = node_ops(agent)
    return TcpServer(lambda t, p: dispatch_system_request(ops, t, p), host, port).start()


class TcpNodeAgent:
    """Manager-side proxy driving a remote node's agent server."""

    def __init__(self, address: str):
        self._agent = TcpAgent(*split_host_port(address, BadTierConfig, "node"))

    def start_tier(self, tier_id: str, kind: str, config: dict) -> dict:
        body = {"tier_id": tier_id, "kind": kind, "config": config}
        return self._request(SystemOp.ALLOCATE, body, "details", dict)

    def stop_tier(self, tier_id: str) -> list:
        return self._request(SystemOp.DEALLOCATE, {"tier_id": tier_id}, "stopped", list, str)

    def list_tiers(self) -> dict:
        return self._request(SystemOp.STATUS, {}, "tiers", dict)

    def _request(self, op: SystemOp, body: dict, name: str, kind: type, item: type = object):
        """Field ``name`` of the node's reply to ``op``; not a ``kind`` of ``item``s, it is ``MalformedEncoding``."""
        value = system_request(self._agent, op, body).get(name)
        if not isinstance(value, kind) or not all(isinstance(v, item) for v in value):
            raise wire.MalformedEncoding(f"node reply field {name!r} has the wrong shape: {value!r}")
        return value

    def close(self):
        self._agent.close()


# --- manager -----------------------------------------------------------------


@dataclass
class NodeRecord:
    node_id: int
    address: str
    last_heartbeat: float
    agent: object = None  # node agent; built lazily for TCP addresses


@dataclass
class TierRecord:
    tier_id: str
    kind: str
    node_id: int
    config: dict
    state: TierState
    details: dict = field(default_factory=dict)


class Manager:
    """General manager: owns the node and tier registries."""

    def __init__(
        self,
        heartbeat_ms: float = DEFAULT_HEARTBEAT_MS,
        clock: Callable[[], float] = _monotonic_ms,
        log_path: Optional[str] = None,
    ):
        self.heartbeat_ms = heartbeat_ms
        self._clock = clock
        self._cmd = threading.RLock()
        self._hb = threading.Lock()
        self._nodes: dict[int, NodeRecord] = {}
        self._tiers: dict[str, TierRecord] = {}
        self._next_node = 1
        self._next_tier = 1
        self._log = None if log_path is None else Journal(log_path, self._replay)

    # -- registry ----------------------------------------------------------

    def register_node(self, address: str, agent=None) -> int:
        with self._cmd:
            for rec in self._nodes.values():
                if rec.address == address:
                    raise DuplicateAddress(address)
            node_id = self._next_node
            self._next_node += 1
            self._nodes[node_id] = NodeRecord(node_id, address, self._clock(), agent)
            self._log_event(SystemOp.REGISTER_NODE, {"node_id": node_id, "address": address})
            return node_id

    def heartbeat(self, node_id: int) -> NodeStatus:
        with self._hb:
            self._node(node_id, must_be_alive=False).last_heartbeat = self._clock()
        return NodeStatus.ALIVE

    def node_status(self, node_id: int) -> NodeStatus:
        return self._status_of(self._node(node_id, must_be_alive=False))

    def _status_of(self, rec: NodeRecord) -> NodeStatus:
        age = self._clock() - rec.last_heartbeat
        if age < SUSPECT_AFTER * self.heartbeat_ms:
            return NodeStatus.ALIVE
        if age < DEAD_AFTER * self.heartbeat_ms:
            return NodeStatus.SUSPECT
        return NodeStatus.DEAD

    def _node(self, node_id: int, must_be_alive: bool) -> NodeRecord:
        rec = self._nodes.get(node_id)
        if rec is None:
            raise NodeUnknown(f"node {node_id}")
        if must_be_alive:
            status = self._status_of(rec)
            if status is not NodeStatus.ALIVE:
                raise NodeDead(f"node {node_id} is {status.value}")
        return rec

    def _agent_of(self, rec: NodeRecord):
        if rec.agent is None:
            rec.agent = TcpNodeAgent(rec.address)
        return rec.agent

    # -- tier lifecycle -------------------------------------------------------

    def allocate(self, node_id: int, kind: str, config: dict) -> TierRecord:
        with self._cmd:
            rec = self._node(node_id, must_be_alive=True)
            if kind not in TIERS:
                raise UnknownTierKind(str(kind))
            if kind == "DST" and any(
                t.kind == "DST" and t.state is not TierState.STOPPED for t in self._tiers.values()
            ):
                raise AlreadyAllocated("a DST is already allocated (single-DST rule)")
            tier_id = f"t{self._next_tier}"
            self._next_tier += 1
            # recorded STOPPED until its start returns: a failed start leaves it so
            tier = TierRecord(tier_id, kind, node_id, dict(config), TierState.STOPPED)
            self._tiers[tier_id] = tier
            tier.details = self._agent_of(rec).start_tier(tier_id, kind, config)
            tier.state = TierState.RUNNING
            self._log_event(
                SystemOp.ALLOCATE, {"tier_id": tier_id, "node_id": node_id, "kind": kind, "config": tier.config}
            )
            return tier

    def deallocate(self, tier_id: str) -> bool:
        with self._cmd:
            tier = self._tiers.get(tier_id)
            if tier is None:
                raise TierUnknown(str(tier_id))
            if tier.state is TierState.STOPPED:
                return False  # idempotent
            node = self._nodes[tier.node_id]
            try:
                stopped = self._agent_of(node).stop_tier(tier_id)
            except TransportUnreachable:
                stopped = []  # node gone; the record is authoritative
            for tid in dict.fromkeys(stopped + [tier_id]):  # the agent knows which workers left with their store
                t = self._tiers.get(tid)
                if t is not None and t.node_id == tier.node_id and t.state is TierState.RUNNING:
                    t.state = TierState.STOPPED
                    self._log_event(SystemOp.DEALLOCATE, {"tier_id": tid})
            return True

    def move(self, tier_id: str, dest_node_id: int) -> TierRecord:
        """Stop on the old node, start with the same config on the new one."""
        with self._cmd:
            tier = self._tiers.get(tier_id)
            if tier is None or tier.state is TierState.STOPPED:
                raise TierUnknown(str(tier_id))
            self._node(dest_node_id, must_be_alive=True)
            self.deallocate(tier_id)
            return self.allocate(dest_node_id, tier.kind, tier.config)

    # -- reporting -----------------------------------------------------------

    def status_report(self) -> dict:
        with self._cmd:
            now = self._clock()
            nodes = {
                str(nid): {
                    "address": rec.address,
                    "status": self._status_of(rec).value,
                    "age_ms": max(0.0, now - rec.last_heartbeat),
                }
                for nid, rec in self._nodes.items()
            }
            tiers = {
                t.tier_id: {
                    "kind": t.kind,
                    "node_id": t.node_id,
                    "state": t.state.value,
                    "config": t.config,
                }
                for t in self._tiers.values()
            }
            return {"nodes": nodes, "tiers": tiers}

    # -- event log ---------------------------------------------------------------

    def _replay(self, msg_type: wire.MsgType, payload: bytes):
        """Apply one logged event; a record that decodes but is not a whole event ends the log."""
        op, ev = decode_system_payload(payload) if msg_type is wire.MsgType.SYSTEM else (None, {})
        try:
            if op == SystemOp.REGISTER_NODE:
                node_id = int(ev["node_id"])
                self._nodes[node_id] = NodeRecord(node_id, ev["address"], self._clock())
                self._next_node = max(self._next_node, node_id + 1)
            elif op == SystemOp.ALLOCATE:
                tier_id = ev["tier_id"]
                self._tiers[tier_id] = TierRecord(
                    tier_id, ev["kind"], int(ev["node_id"]), dict(ev["config"]), TierState.RUNNING
                )
                self._next_tier = max(self._next_tier, int(tier_id[1:]) + 1)
            elif op == SystemOp.DEALLOCATE:
                tier = self._tiers.get(ev["tier_id"])
                if tier is not None:
                    tier.state = TierState.STOPPED
            else:
                raise ValueError(f"{msg_type.name} op {op} is no manager event")
        except (KeyError, TypeError, ValueError) as e:
            raise wire.MalformedEncoding(f"manager log record: {e!r}") from None

    def _log_event(self, op: SystemOp, ev: dict):
        if self._log is not None:
            self._log.append(wire.MsgType.SYSTEM, bytes([op]) + encode_system_reply(dict(ev, ts=time.time())))

    def close(self):
        """Close the event log (a command it would record raises ``StoreClosed`` after this) and the node agents."""
        if self._log is not None:
            self._log.close()
        for rec in self._nodes.values():
            if isinstance(rec.agent, TcpNodeAgent):
                rec.agent.close()


# --- manager service -------------------------------------------------------------


def manager_ops(mgr: Manager) -> dict:
    """The manager's commands, one per SYSTEM op."""

    def tier_reply(tier: TierRecord) -> dict:
        return {"tier_id": tier.tier_id, "details": tier.details}

    return {
        SystemOp.REGISTER_NODE: lambda b: {"node_id": mgr.register_node(str(b["address"]))},
        SystemOp.ALLOCATE: lambda b: tier_reply(
            mgr.allocate(int(b["node_id"]), str(b["kind"]), dict(b.get("config", {})))
        ),
        SystemOp.DEALLOCATE: lambda b: {"stopped": mgr.deallocate(str(b["tier_id"]))},
        SystemOp.MOVE: lambda b: tier_reply(mgr.move(str(b["tier_id"]), int(b["node_id"]))),
        SystemOp.HEARTBEAT: lambda b: {"status": mgr.heartbeat(int(b["node_id"])).value},
        SystemOp.STATUS: lambda b: mgr.status_report(),
    }


def serve_manager(mgr: Manager, host: str = "127.0.0.1", port: int = 0) -> TcpServer:
    ops = manager_ops(mgr)
    return TcpServer(lambda t, p: dispatch_system_request(ops, t, p), host, port).start()


class ManagerClient:
    """Manager operations over any carrier, one method per SYSTEM op."""

    def __init__(self, agent):
        self.agent = agent

    def register_node(self, address: str) -> int:
        return int(system_request(self.agent, SystemOp.REGISTER_NODE, {"address": address})["node_id"])

    def allocate(self, node_id: int, kind: str, config: dict) -> dict:
        body = {"node_id": node_id, "kind": kind, "config": config}
        return system_request(self.agent, SystemOp.ALLOCATE, body)

    def deallocate(self, tier_id: str) -> bool:
        return bool(system_request(self.agent, SystemOp.DEALLOCATE, {"tier_id": tier_id})["stopped"])

    def move(self, tier_id: str, node_id: int) -> dict:
        return system_request(self.agent, SystemOp.MOVE, {"tier_id": tier_id, "node_id": node_id})

    def heartbeat(self, node_id: int) -> str:
        return system_request(self.agent, SystemOp.HEARTBEAT, {"node_id": node_id})["status"]

    def status(self) -> dict:
        return system_request(self.agent, SystemOp.STATUS, {})

    def close(self):
        self.agent.close()


def connect_manager(address: str, mgr: Optional[Manager] = None) -> ManagerClient:
    """``inproc`` (give the manager) or ``[tcp://]host:port``."""
    if mgr is not None:
        ops = manager_ops(mgr)
        return ManagerClient(InProcAgent(lambda t, p: dispatch_system_request(ops, t, p)))
    address = address.removeprefix("tcp://")
    return ManagerClient(TcpAgent(*split_host_port(address, BadTierConfig, "manager")))


class Heartbeater:
    """Background thread a node runs to keep its record ALIVE."""

    def __init__(self, client: ManagerClient, node_id: int, interval_ms: float = DEFAULT_HEARTBEAT_MS):
        self.client = client
        self.node_id = node_id
        self.interval_ms = interval_ms
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Heartbeater":
        self._thread = threading.Thread(target=self._run, name=f"heartbeat-n{self.node_id}", daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(self.interval_ms / 1000.0):
            try:
                self.client.heartbeat(self.node_id)
            except EductionError:
                continue  # manager briefly away; keep beating

    def stop(self):
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
