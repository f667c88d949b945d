"""General manager tier: registration, liveness, allocation, movement."""
import gc
import json
import random
import re
import socket
import threading
import time
import warnings

import pytest

from eduction.manager import (
    AlreadyAllocated,
    BadTierConfig,
    DuplicateAddress,
    Heartbeater,
    LocalNodeAgent,
    Manager,
    ManagerClient,
    NodeDead,
    TcpNodeAgent,
    NodeStatus,
    NodeUnknown,
    SystemOp,
    TierState,
    TierUnknown,
    UnknownTierKind,
    connect_manager,
    node_ops,
    serve_manager,
    serve_node_agent,
)
from eduction.model import DemandKind, DemandSignature, EMPTY_CONTEXT, pending_demand
from eduction.store import NotAJournal, NotFound, StoreClosed, UnreadableJournalVersion
from eduction.transport import (
    InProcAgent,
    StoreClient,
    TcpAgent,
    TcpServer,
    TransportUnreachable,
    connect_store,
    decode_system_payload,
    dispatch_system_request,
    encode_system_reply,
    system_request,
)
from eduction import wire
from eduction.wire import MalformedEncoding, MsgType, encode_frame, iter_frames

from helpers import assert_every_cut_replays_its_whole_records


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, ms):
        self.t += ms


def make_mgr(**kw):
    clock = FakeClock()
    mgr = Manager(heartbeat_ms=1000, clock=clock, **kw)
    return mgr, clock


@pytest.fixture
def new_agent():
    """Make LocalNodeAgents and close them all, newest first, when the test ends.

    Tests register a worker's node after its store's node, so newest first
    stops every worker before the store it claims from.
    """
    made = []

    def make():
        made.append(LocalNodeAgent())
        return made[-1]

    yield make
    for agent in reversed(made):
        agent.close()


class TestRegistration:
    def test_ids_assigned_in_order(self, new_agent):
        mgr, _ = make_mgr()
        assert mgr.register_node("n1:1", agent=new_agent()) == 1
        assert mgr.register_node("n2:1", agent=new_agent()) == 2
        mgr.close()

    def test_duplicate_address(self, new_agent):
        mgr, _ = make_mgr()
        mgr.register_node("n1:1", agent=new_agent())
        with pytest.raises(DuplicateAddress):
            mgr.register_node("n1:1", agent=new_agent())
        mgr.close()

    def test_unknown_node(self):
        mgr, _ = make_mgr()
        with pytest.raises(NodeUnknown):
            mgr.node_status(7)
        with pytest.raises(NodeUnknown):
            mgr.heartbeat(7)
        mgr.close()


class TestLiveness:
    def test_threshold_boundaries(self, new_agent):
        mgr, clock = make_mgr()
        nid = mgr.register_node("n:1", agent=new_agent())
        assert mgr.node_status(nid) is NodeStatus.ALIVE
        clock.advance(1999)
        assert mgr.node_status(nid) is NodeStatus.ALIVE
        clock.advance(2)  # age 2001 ms: two intervals missed
        assert mgr.node_status(nid) is NodeStatus.SUSPECT
        clock.advance(2998)  # age 4999
        assert mgr.node_status(nid) is NodeStatus.SUSPECT
        clock.advance(2)  # age 5001: five intervals missed
        assert mgr.node_status(nid) is NodeStatus.DEAD
        mgr.close()

    def test_heartbeat_revives(self, new_agent):
        mgr, clock = make_mgr()
        nid = mgr.register_node("n:1", agent=new_agent())
        clock.advance(10000)
        assert mgr.node_status(nid) is NodeStatus.DEAD
        assert mgr.heartbeat(nid) is NodeStatus.ALIVE
        assert mgr.node_status(nid) is NodeStatus.ALIVE
        mgr.close()


class TestAllocation:
    @pytest.fixture(autouse=True)
    def node(self, new_agent):
        self.mgr, self.clock = make_mgr()
        self.nid = self.mgr.register_node("n:1", agent=new_agent())
        yield
        self.mgr.close()

    def test_allocate_dst(self):
        rec = self.mgr.allocate(self.nid, "DST", {})
        assert rec.kind == "DST" and rec.state is TierState.RUNNING
        assert "address" in rec.details

    def test_unknown_kind(self):
        with pytest.raises(UnknownTierKind):
            self.mgr.allocate(self.nid, "GMT", {})

    def test_single_running_dst(self):
        self.mgr.allocate(self.nid, "DST", {})
        with pytest.raises(AlreadyAllocated):
            self.mgr.allocate(self.nid, "DST", {})

    def test_dst_slot_frees_on_deallocate(self):
        rec = self.mgr.allocate(self.nid, "DST", {})
        assert self.mgr.deallocate(rec.tier_id) is True
        again = self.mgr.allocate(self.nid, "DST", {})
        assert again.state is TierState.RUNNING

    def test_allocate_on_dead_node(self):
        self.clock.advance(10000)
        with pytest.raises(NodeDead):
            self.mgr.allocate(self.nid, "DST", {})

    def test_worker_tier_needs_store(self):
        with pytest.raises(BadTierConfig):
            self.mgr.allocate(self.nid, "DWT", {})
        # a failed start leaves its record behind, STOPPED
        tiers = self.mgr.status_report()["tiers"]
        assert [(t["kind"], t["state"]) for t in tiers.values()] == [("DWT", "STOPPED")]

    def test_unknown_registry_preset(self):
        dst = self.mgr.allocate(self.nid, "DST", {})
        with pytest.raises(BadTierConfig):
            self.mgr.allocate(
                self.nid, "DWT", {"store": dst.details["address"], "registry": "nope"}
            )

    def test_deallocate_idempotent(self):
        rec = self.mgr.allocate(self.nid, "DST", {})
        assert self.mgr.deallocate(rec.tier_id) is True
        assert self.mgr.deallocate(rec.tier_id) is False

    def test_deallocate_unknown(self):
        with pytest.raises(TierUnknown):
            self.mgr.deallocate("t99")

    def test_worker_tier_serves_demands(self):
        dst = self.mgr.allocate(self.nid, "DST", {})
        self.mgr.allocate(
            self.nid, "DWT", {"store": dst.details["address"], "registry": "demo"}
        )
        cl = connect_store(dst.details["address"])
        sig = DemandSignature("p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (19, 23))
        cl.deposit(pending_demand(sig))
        assert cl.await_result(sig, 10000) == 42
        cl.close()


class TestMove:
    @pytest.fixture(autouse=True)
    def nodes(self, new_agent):
        self.mgr, self.clock = make_mgr()
        self.n1 = self.mgr.register_node("n:1", agent=new_agent())
        self.n2 = self.mgr.register_node("n:2", agent=new_agent())
        yield
        self.mgr.close()

    def test_move_preserves_kind_and_config(self):
        dst = self.mgr.allocate(self.n1, "DST", {})
        cfg = {"store": dst.details["address"], "registry": "demo"}
        dwt = self.mgr.allocate(self.n1, "DWT", cfg)
        moved = self.mgr.move(dwt.tier_id, self.n2)
        assert moved.tier_id != dwt.tier_id
        assert moved.kind == "DWT" and moved.config == cfg
        assert moved.node_id == self.n2 and moved.state is TierState.RUNNING
        # old record stays, stopped
        tiers = self.mgr.status_report()["tiers"]
        assert tiers[dwt.tier_id]["state"] == "STOPPED"
        assert tiers[moved.tier_id]["state"] == "RUNNING"

    def test_move_to_dead_node(self):
        dst = self.mgr.allocate(self.n1, "DST", {})
        self.clock.advance(10000)
        self.mgr.heartbeat(self.n1)
        with pytest.raises(NodeDead):
            self.mgr.move(dst.tier_id, self.n2)

    def test_move_stopped_tier(self):
        dst = self.mgr.allocate(self.n1, "DST", {})
        self.mgr.deallocate(dst.tier_id)
        with pytest.raises(TierUnknown):
            self.mgr.move(dst.tier_id, self.n2)

    def test_move_unknown_tier(self):
        with pytest.raises(TierUnknown):
            self.mgr.move("t42", self.n2)

    def test_moved_dst_still_serves(self):
        dst = self.mgr.allocate(self.n1, "DST", {})
        moved = self.mgr.move(dst.tier_id, self.n2)
        cl = connect_store(moved.details["address"])
        assert cl.stats().deposits == 0
        cl.close()


class TestEventLog:
    def test_replay_restores_records(self, new_agent, tmp_path):
        log = str(tmp_path / "gmt.log")
        mgr, clock = make_mgr(log_path=log)
        nid = mgr.register_node("n:1", agent=new_agent())
        dst = mgr.allocate(nid, "DST", {})
        dwt = mgr.allocate(
            nid, "DWT", {"store": dst.details["address"], "registry": "demo"}
        )
        mgr.deallocate(dwt.tier_id)
        mgr.close()

        mgr2 = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=log)
        report = mgr2.status_report()
        assert [n["address"] for n in report["nodes"].values()] == ["n:1"]
        # records replay as bookkeeping; tiers are not respawned
        assert report["tiers"][dwt.tier_id]["state"] == "STOPPED"
        assert dst.tier_id in report["tiers"]
        # new ids continue past replayed ones
        nid2 = mgr2.register_node("n:2", agent=new_agent())
        assert nid2 == 2
        mgr2.close()

    def test_log_records_are_system_frames(self, new_agent, tmp_path):
        log = str(tmp_path / "gmt.log")
        mgr, _ = make_mgr(log_path=log)
        nid = mgr.register_node("n:1", agent=new_agent())
        mgr.allocate(nid, "DST", {})
        mgr.close()
        with open(log, "rb") as f:
            frames = list(iter_frames(f.read()))
        assert [t for t, _, _ in frames] == [MsgType.SYSTEM, MsgType.SYSTEM]
        events = [decode_system_payload(p) for _, p, _ in frames]
        assert [op for op, _ in events] == [SystemOp.REGISTER_NODE, SystemOp.ALLOCATE]
        assert events[0][1]["address"] == "n:1"
        assert all("ts" in ev for _, ev in events)
        # each body is the SYSTEM JSON codec's: keys sorted inside each record
        for _, payload, _ in frames:
            raw = payload[5:].decode("utf-8")
            assert raw == json.dumps(json.loads(raw), sort_keys=True)

    def test_move_is_logged_as_its_dealloc_and_alloc(self, new_agent, tmp_path):
        log = str(tmp_path / "gmt.log")
        mgr, _ = make_mgr(log_path=log)
        n1 = mgr.register_node("n:1", agent=new_agent())
        n2 = mgr.register_node("n:2", agent=new_agent())
        old = mgr.allocate(n1, "DST", {})
        new = mgr.move(old.tier_id, n2)
        mgr.close()
        with open(log, "rb") as f:
            ops = [decode_system_payload(p)[0] for _, p, _ in iter_frames(f.read())]
        assert ops == [
            SystemOp.REGISTER_NODE, SystemOp.REGISTER_NODE, SystemOp.ALLOCATE, SystemOp.DEALLOCATE, SystemOp.ALLOCATE
        ]
        m = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=log)
        report = m.status_report()
        m.close()
        assert report["tiers"][old.tier_id]["state"] == "STOPPED"
        assert report["tiers"][new.tier_id]["node_id"] == n2

    def test_torn_tail_stops_replay(self, new_agent, tmp_path, caplog):
        log = str(tmp_path / "gmt.log")
        mgr, _ = make_mgr(log_path=log)
        mgr.register_node("n:1", agent=new_agent())
        mgr.register_node("n:2", agent=new_agent())
        mgr.close()
        with open(log, "rb") as f:
            data = f.read()
        with open(log, "wb") as f:
            f.write(data[:-5])  # tear the second record
        mgr2 = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=log)
        assert [n["address"] for n in mgr2.status_report()["nodes"].values()] == ["n:1"]
        assert "dropping" in caplog.text
        # the torn record is cut off, so the next event starts a frame of its own
        assert mgr2.register_node("n:3", agent=new_agent()) == 2
        mgr2.close()
        mgr3 = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=log)
        assert [n["address"] for n in mgr3.status_report()["nodes"].values()] == ["n:1", "n:3"]
        assert mgr3.register_node("n:4", agent=new_agent()) == 3
        mgr3.close()

    def test_corrupt_record_ends_the_log(self, new_agent, tmp_path):
        log = tmp_path / "gmt.log"
        mgr, _ = make_mgr(log_path=str(log))
        mgr.register_node("n:1", agent=new_agent())
        mgr.close()
        first = log.read_bytes()
        # a record that decodes but lacks its fields ends the log, like a torn one
        lacking = encode_frame(MsgType.SYSTEM, bytes([SystemOp.REGISTER_NODE]) + encode_system_reply({"ts": 0.0}))
        log.write_bytes(first + lacking + first.replace(b"n:1", b"n:2"))
        mgr2 = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=str(log))
        assert [n["address"] for n in mgr2.status_report()["nodes"].values()] == ["n:1"]
        mgr2.close()
        assert log.read_bytes() == first

    def test_every_cut_of_the_log_replays_its_whole_records(self, new_agent, tmp_path, caplog):
        log = str(tmp_path / "gmt.log")
        mgr, _ = make_mgr(log_path=log)
        nid = mgr.register_node("n:1", agent=new_agent())
        dgt = mgr.allocate(nid, "DGT", {})
        mgr.deallocate(dgt.tier_id)
        mgr.close()
        assert_every_cut_replays_its_whole_records(log, caplog)

    def test_a_logged_op_that_is_no_event_ends_the_log(self, new_agent, tmp_path, caplog):
        log = tmp_path / "gmt.log"
        mgr, _ = make_mgr(log_path=str(log))
        mgr.register_node("n:1", agent=new_agent())
        mgr.close()
        first = log.read_bytes()
        beat = encode_frame(MsgType.SYSTEM, bytes([SystemOp.HEARTBEAT]) + encode_system_reply({"node_id": 1, "ts": 0.0}))
        log.write_bytes(first + beat + first.replace(b"n:1", b"n:2"))
        mgr2 = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=str(log))
        assert [n["address"] for n in mgr2.status_report()["nodes"].values()] == ["n:1"]
        mgr2.close()
        assert log.read_bytes() == first
        assert [r.levelname for r in caplog.records if "dropping" in r.getMessage()] == ["WARNING"]

    def test_a_log_of_another_version_is_refused_untouched(self, new_agent, tmp_path, monkeypatch):
        log = tmp_path / "gmt.log"
        mgr, _ = make_mgr(log_path=str(log))
        mgr.register_node("n:1", agent=new_agent())
        mgr.register_node("n:2", agent=new_agent())
        mgr.close()
        old = log.read_bytes()
        assert len(list(iter_frames(old))) == 2
        monkeypatch.setattr(wire, "VERSION", 2)
        message = f"{log} holds a frame of version 1 at byte 0; this code reads version 2"
        with pytest.raises(UnreadableJournalVersion, match=f"^{re.escape(message)}$"):
            Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=str(log))
        assert log.read_bytes() == old

    def test_a_json_lines_log_is_refused_untouched(self, tmp_path):
        log = tmp_path / "gmt.jsonl"
        old = b'{"address": "n:1", "ev": "register", "node_id": 1, "ts": 0.0}\n'
        log.write_bytes(old)
        with pytest.raises(NotAJournal, match=str(log)):
            Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=str(log))
        assert log.read_bytes() == old


def records(mgr):
    """The records a manager reports that its journal holds: its tiers, and its nodes' addresses."""
    report = mgr.status_report()
    return report["tiers"], {nid: n["address"] for nid, n in report["nodes"].items()}


def replayed(log):
    """The records of a manager reopened from ``log``."""
    mgr = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=log)
    try:
        return records(mgr)
    finally:
        mgr.close()


class TestWriteAhead:
    """A command journals its event, then applies it with the step replay runs: live and replayed records agree."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("over", ["in-process", "tcp"])
    def test_seeded_commands_replay_to_the_live_records(self, new_agent, tmp_path, over, seed):
        rng = random.Random(seed)
        log = str(tmp_path / "gmt.log")
        mgr, _ = make_mgr(log_path=log)
        server = serve_node_agent(new_agent()) if over == "tcp" else None
        try:
            if server is None:
                nodes = [mgr.register_node(f"n:{i}", agent=new_agent()) for i in (1, 2)]
            else:
                nodes = [mgr.register_node(f"127.0.0.1:{server.port}")]
            tiers, dst, refused = [], None, 0
            for step in range(30):
                op = rng.choice(["dst", "dwt", "dwt-no-store", "dwt-bad-registry", "dgt", "dealloc", "move"])
                node = rng.choice(nodes)
                try:
                    if op == "dst":
                        dst = mgr.allocate(node, "DST", {})
                        tiers.append(dst)
                    elif op == "dwt" and dst is not None and dst.state is TierState.RUNNING:  # stops with its store
                        tiers.append(mgr.allocate(dst.node_id, "DWT", {"store": dst.details["address"]}))
                    elif op == "dwt-no-store":
                        mgr.allocate(node, "DWT", {})
                    elif op == "dwt-bad-registry":
                        mgr.allocate(node, "DWT", {"store": "127.0.0.1:1", "registry": "nope"})
                    elif op == "dgt":
                        tiers.append(mgr.allocate(node, "DGT", {"step": step}))
                    elif op == "dealloc" and tiers:
                        mgr.deallocate(rng.choice(tiers).tier_id)
                    elif op == "move" and any(t.kind != "DWT" for t in tiers):  # a worker stays next to its store
                        tier = rng.choice([t for t in tiers if t.kind != "DWT"])
                        moved = mgr.move(tier.tier_id, node)
                        tiers.append(moved)
                        dst = moved if tier is dst else dst
                except (BadTierConfig, AlreadyAllocated, TierUnknown):
                    refused += 1
                assert replayed(log) == records(mgr), (step, op)
            assert refused and any(t["state"] == "STOPPED" for t in records(mgr)[0].values())
            live_tiers, live_nodes = records(mgr)
        finally:
            mgr.close()
            if server is not None:
                server.stop()
        reopened = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=log)
        try:
            nid = reopened.register_node("n:new", agent=new_agent())
            assert str(nid) not in live_nodes
            assert reopened.allocate(nid, "DGT", {}).tier_id not in live_tiers
        finally:
            reopened.close()

    @pytest.mark.parametrize("over", ["in-process", "tcp"])
    def test_a_failed_start_is_journalled_stopped_and_keeps_its_id(self, new_agent, tmp_path, over):
        log = str(tmp_path / "gmt.log")
        mgr, _ = make_mgr(log_path=log)
        agent = new_agent()
        server = serve_node_agent(agent) if over == "tcp" else None
        try:
            nid = mgr.register_node("n:1", agent=agent) if server is None else mgr.register_node(f"127.0.0.1:{server.port}")
            with pytest.raises(BadTierConfig):
                mgr.allocate(nid, "DWT", {})
            assert replayed(log) == records(mgr)
            assert mgr.allocate(nid, "DGT", {}).tier_id == "t2"
            assert {tid: t["state"] for tid, t in replayed(log)[0].items()} == {"t1": "STOPPED", "t2": "RUNNING"}
        finally:
            mgr.close()
            if server is not None:
                server.stop()

    @pytest.mark.parametrize("over", ["in-process", "tcp"])
    def test_a_closed_manager_starts_no_tier(self, new_agent, tmp_path, over):
        mgr, _ = make_mgr(log_path=str(tmp_path / "gmt.log"))
        agent = new_agent()
        server = serve_node_agent(agent) if over == "tcp" else None
        try:
            nid = mgr.register_node("n:1", agent=agent) if server is None else mgr.register_node(f"127.0.0.1:{server.port}")
            mgr.close()
            with pytest.raises(StoreClosed):
                mgr.allocate(nid, "DGT", {})
            assert agent.list_tiers() == {}
            assert mgr.status_report()["tiers"] == {}
        finally:
            mgr.close()
            if server is not None:
                server.stop()

    @pytest.mark.parametrize("over", ["in-process", "tcp"])
    def test_a_move_that_cannot_start_leaves_the_tier_on_its_source(self, new_agent, tmp_path, over):
        log = str(tmp_path / "gmt.log")
        mgr, _ = make_mgr(log_path=log)
        agent = new_agent()
        server = serve_node_agent(agent) if over == "tcp" else None
        with socket.socket() as s:  # a port that nothing serves once it is closed
            s.bind(("127.0.0.1", 0))
            nowhere = f"127.0.0.1:{s.getsockname()[1]}"
        try:
            source = mgr.register_node("n:1", agent=agent) if server is None else mgr.register_node(f"127.0.0.1:{server.port}")
            dest = mgr.register_node(nowhere)
            tier = mgr.allocate(source, "DST", {})
            with pytest.raises(TransportUnreachable):
                mgr.move(tier.tier_id, dest)  # after the carrier's retries: about 1.5 s
            tiers = records(mgr)[0]
            assert (tiers[tier.tier_id]["state"], tiers[tier.tier_id]["node_id"]) == ("RUNNING", source)
            assert [t["state"] for tid, t in tiers.items() if tid != tier.tier_id] == ["STOPPED"]
            assert list(agent.list_tiers()) == [tier.tier_id]
            assert replayed(log) == records(mgr)
        finally:
            mgr.close()
            if server is not None:
                server.stop()

    def test_a_closed_manager_registers_no_node(self, new_agent, tmp_path):
        mgr, _ = make_mgr(log_path=str(tmp_path / "gmt.log"))
        mgr.register_node("n:1", agent=new_agent())
        mgr.close()
        with pytest.raises(StoreClosed):
            mgr.register_node("n:2", agent=new_agent())
        assert [n["address"] for n in mgr.status_report()["nodes"].values()] == ["n:1"]


class TestRemoteSurface:
    def test_inproc_client(self):
        mgr, _ = make_mgr()
        agent = LocalNodeAgent()
        asrv = serve_node_agent(agent)
        cl = connect_manager("inproc://gmt", mgr)
        nid = cl.register_node(f"127.0.0.1:{asrv.port}")
        assert nid == 1
        assert cl.heartbeat(nid) == "ALIVE"
        rec = cl.allocate(nid, "DST", {})
        assert "address" in rec["details"]
        assert cl.status()["tiers"][rec["tier_id"]]["state"] == "RUNNING"
        assert cl.deallocate(rec["tier_id"]) is True
        status = cl.status()
        assert status["nodes"]["1"]["address"] == f"127.0.0.1:{asrv.port}"
        cl.close()
        mgr.close()
        asrv.stop()
        agent.close()

    def test_tcp_client_and_error_mapping(self):
        mgr, _ = make_mgr()
        agent = LocalNodeAgent()
        asrv = serve_node_agent(agent)
        addr = f"127.0.0.1:{asrv.port}"
        srv = serve_manager(mgr)
        cl = connect_manager(f"127.0.0.1:{srv.port}")
        nid = cl.register_node(addr)
        with pytest.raises(DuplicateAddress):
            cl.register_node(addr)
        with pytest.raises(NodeUnknown):
            cl.heartbeat(99)
        rec = cl.allocate(nid, "DST", {})
        with pytest.raises(AlreadyAllocated):
            cl.allocate(nid, "DST", {})
        assert cl.deallocate(rec["tier_id"]) is True
        cl.close()
        srv.stop()
        mgr.close()
        asrv.stop()
        agent.close()

    def test_node_agent_dispatch(self):
        agent = LocalNodeAgent()
        mt, body = dispatch_system_request(node_ops(agent), MsgType.DEPOSIT, b"")
        assert mt is MsgType.ERR  # only SYSTEM ops served on the agent channel
        agent.close()

    @pytest.mark.parametrize(
        "op, body",
        [
            (SystemOp.ALLOCATE, {"tier_id": "t1", "kind": "DST", "config": 5}),
            (SystemOp.ALLOCATE, {"tier_id": "t1", "kind": "DST"}),
            (SystemOp.HEARTBEAT, {"node_id": 1}),  # a manager op, not a node-agent one
        ],
        ids=["config-not-a-dict", "config-missing", "unknown-op"],
    )
    def test_node_agent_malformed_request(self, op, body):
        agent = LocalNodeAgent()
        ops = node_ops(agent)
        try:
            with pytest.raises(MalformedEncoding):
                system_request(InProcAgent(lambda t, p: dispatch_system_request(ops, t, p)), op, body)
            assert agent.list_tiers() == {}
        finally:
            agent.close()

    def test_remote_node_agent_lifecycle(self):
        # GMT drives a node's tiers over the agent back-channel
        agent = LocalNodeAgent()
        srv = serve_node_agent(agent)
        mgr, _ = make_mgr()
        nid = mgr.register_node(f"127.0.0.1:{srv.port}")
        rec = mgr.allocate(nid, "DST", {})
        assert rec.state is TierState.RUNNING
        assert sorted(agent.list_tiers()) == [rec.tier_id]
        cl = connect_store(rec.details["address"])
        cl.stats()
        cl.close()
        assert mgr.deallocate(rec.tier_id) is True
        assert agent.list_tiers() == {}
        mgr.close()
        srv.stop()
        agent.close()


class TestNodeReplies:
    """A node agent's reply is checked field by field; only a node out of reach is taken as gone."""

    @staticmethod
    def stub(**replies):
        """A node-agent server that answers each op named in ``replies`` with its body, whatever it holds."""
        ops = {SystemOp[name]: (lambda body, reply=reply: reply) for name, reply in replies.items()}
        return TcpServer(lambda t, p: dispatch_system_request(ops, t, p)).start()

    @pytest.mark.parametrize(
        "op, reply, call",
        [
            ("ALLOCATE", {"details": ["address"]}, lambda node: node.start_tier("t1", "DGT", {})),
            ("ALLOCATE", {}, lambda node: node.start_tier("t1", "DGT", {})),
            ("DEALLOCATE", {"stopped": True}, lambda node: node.stop_tier("t1")),
            ("DEALLOCATE", {"stopped": "t1"}, lambda node: node.stop_tier("t1")),
            ("DEALLOCATE", {"stopped": ["t1", 2]}, lambda node: node.stop_tier("t1")),
            ("STATUS", {"tiers": []}, lambda node: node.list_tiers()),
        ],
        ids=["details-a-list", "details-missing", "stopped-a-bool", "stopped-a-str", "stopped-an-int-id", "tiers-a-list"],
    )
    def test_a_reply_field_of_another_shape_is_malformed(self, op, reply, call):
        server = self.stub(**{op: reply})
        node = TcpNodeAgent(f"127.0.0.1:{server.port}")
        try:
            with pytest.raises(MalformedEncoding):
                call(node)
        finally:
            node.close()
            server.stop()

    def test_a_malformed_deallocate_reply_leaves_the_tier_running(self):
        server = self.stub(ALLOCATE={"details": {}}, DEALLOCATE={"stopped": True})
        mgr, _ = make_mgr()
        try:
            tier = mgr.allocate(mgr.register_node(f"127.0.0.1:{server.port}"), "DGT", {})
            with pytest.raises(MalformedEncoding):
                mgr.deallocate(tier.tier_id)
            assert mgr.status_report()["tiers"][tier.tier_id]["state"] == "RUNNING"
        finally:
            mgr.close()
            server.stop()

    def test_a_node_out_of_reach_leaves_its_tier_stopped(self, new_agent):
        server = serve_node_agent(new_agent())
        mgr, _ = make_mgr()
        try:
            tier = mgr.allocate(mgr.register_node(f"127.0.0.1:{server.port}"), "DGT", {})
            server.stop()
            assert mgr.deallocate(tier.tier_id) is True  # after the carrier's retries: about 1.5 s
            assert mgr.status_report()["tiers"][tier.tier_id]["state"] == "STOPPED"
        finally:
            mgr.close()


class TestHeartbeater:
    def test_keeps_node_alive(self):
        mgr = Manager(heartbeat_ms=20)
        cl = connect_manager("inproc://gmt", mgr)
        nid = cl.register_node("n:1")
        hb = Heartbeater(cl, nid, interval_ms=5)
        hb.start()
        time.sleep(0.25)
        assert mgr.node_status(nid) is NodeStatus.ALIVE
        hb.stop()
        time.sleep(0.25)
        assert mgr.node_status(nid) is NodeStatus.DEAD
        cl.close()
        mgr.close()

    def test_keeps_beating_after_a_beat_fails(self):
        beats = []

        class Flaky:
            def heartbeat(self, node_id):
                beats.append(node_id)
                if len(beats) == 1:
                    raise TransportUnreachable("manager away")

        hb = Heartbeater(Flaky(), 7, interval_ms=5).start()
        deadline = time.monotonic() + 5
        while len(beats) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        hb.stop()
        assert beats[:3] == [7, 7, 7]


class TestLocalNodeAgent:
    def test_start_tier_dispatches_on_kind(self):
        agent = LocalNodeAgent()
        agent.start_tier("t1", "DST", {})
        assert type(agent.tier("t1")).__name__ == "DstTier"
        with pytest.raises(UnknownTierKind):
            agent.start_tier("t2", "XYZ", {})
        assert agent.tier("t2") is None
        agent.close()

    def test_a_dst_that_cannot_bind_closes_its_log(self, tmp_path):
        taken = socket.create_server(("127.0.0.1", 0))
        config = {"port": taken.getsockname()[1], "log_path": str(tmp_path / "store.log")}
        agent = LocalNodeAgent()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(OSError):
                    agent.start_tier("dst-1", "DST", config)
                gc.collect()  # an unclosed log warns when it is collected
            assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
            assert agent.list_tiers() == {}
        finally:
            agent.close()
            taken.close()

    def test_close_stops_worker_before_store(self):
        agent = LocalNodeAgent()
        address = agent.start_tier("dst-1", "DST", {})["address"]
        agent.start_tier("dwt-1", "DWT", {"store": address})
        worker = agent.tier("dwt-1").worker
        started = time.monotonic()
        agent.close()
        # the worker loop exited on its own instead of retrying against a
        # stopped store for 1.5 s and dying (stopping the worker may wait
        # out one blocked claim, up to CLAIM_WAIT_MS)
        assert time.monotonic() - started < 1.0
        assert worker.summary is not None and not worker.alive


    def test_dst_redelivers_at_expiry_with_no_thread_of_its_own(self):
        sig = DemandSignature("p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (1, 0))
        agent = LocalNodeAgent()
        before = set(threading.enumerate())
        address = agent.start_tier("dst-1", "DST", {})["address"]
        started = set(threading.enumerate()) - before
        client = connect_store(address)
        try:
            # the frame server's accept loop is the one thread a DST starts
            assert [t.name for t in started] == [f"frame-server-{address.rpartition(':')[2]}"]
            client.deposit(pending_demand(sig))
            leased = time.monotonic()
            client.claim("dead", 300)
            d = None
            while d is None and time.monotonic() - leased < 2:
                d = client.claim("live", 5000, wait_ms=200)
            assert d is not None and d.signature == sig
            assert time.monotonic() - leased < 0.3 + 0.1
            assert client.stats().redeliveries == 1
        finally:
            client.close()
            agent.close()

    def test_stopped_dst_serves_no_old_connection(self, tmp_path):
        def sig(n):
            return DemandSignature("p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (n, 0))

        log = tmp_path / "store.log"
        agent = LocalNodeAgent()
        address = agent.start_tier("dst-1", "DST", {"log_path": str(log)})["address"]
        host, _, port = address.removeprefix("tcp://").rpartition(":")
        client = StoreClient(TcpAgent(host, int(port), retry_base_ms=1, tries=2))
        try:
            client.deposit(pending_demand(sig(1)))
            size = log.stat().st_size
            assert agent.stop_tier("dst-1")
            # before the fix this deposit was acknowledged ENQUEUED and never logged
            with pytest.raises(TransportUnreachable):
                client.deposit(pending_demand(sig(2)))
            assert log.stat().st_size == size
        finally:
            client.close()
            agent.close()


def add2(n):
    return DemandSignature("p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (n, 0))


@pytest.fixture
def connects(monkeypatch):
    """Every address a tier passes to ``connect_store``, in order."""
    from eduction import manager

    made = []

    def counting(address):
        made.append(address)
        return connect_store(address)

    monkeypatch.setattr(manager, "connect_store", counting)
    return made


def serves_a_demand(address, n=19):
    cl = connect_store(address)
    try:
        cl.deposit(pending_demand(add2(n)))
        return cl.await_result(add2(n), 10000) == n
    finally:
        cl.close()


def dwt_threads():
    return [t for t in threading.enumerate() if t.name.startswith("dwt-") and t.is_alive()]


class TestCoLocatedWorker:
    """A DWT whose node agent runs its store's DST claims on that store in-process."""

    @pytest.mark.parametrize("strip", [False, True], ids=["tcp-address", "bare-address"])
    def test_opens_no_connection_to_its_dst(self, new_agent, connects, strip):
        agent = new_agent()
        address = agent.start_tier("dst-1", "DST", {})["address"]
        store = address.removeprefix("tcp://") if strip else address
        agent.start_tier("dwt-1", "DWT", {"store": store})
        assert connects == []  # not even one, to its own DST
        assert agent.tier("dwt-1").local_store is agent.tier("dst-1").store
        assert serves_a_demand(address)

    def test_another_agents_dst_is_reached_over_tcp(self, new_agent, connects):
        a, b = new_agent(), new_agent()
        address = a.start_tier("dst-1", "DST", {})["address"]
        b.start_tier("dwt-1", "DWT", {"store": address})
        assert connects == [address]
        assert b.tier("dwt-1").local_store is None
        assert serves_a_demand(address)

    def test_another_host_string_is_reached_over_tcp(self, new_agent, connects):
        agent = new_agent()
        address = agent.start_tier("dst-1", "DST", {})["address"]
        other = "tcp://localhost:" + address.rpartition(":")[2]
        agent.start_tier("dwt-1", "DWT", {"store": other})
        assert connects == [other]
        assert serves_a_demand(address)

    def test_stopping_the_worker_leaves_the_dst_log_open(self, new_agent, tmp_path):
        log = tmp_path / "store.log"
        agent = new_agent()
        address = agent.start_tier("dst-1", "DST", {"log_path": str(log)})["address"]
        agent.start_tier("dwt-1", "DWT", {"store": address})
        assert serves_a_demand(address, 1)
        assert agent.stop_tier("dwt-1")
        size = log.stat().st_size
        cl = connect_store(address)
        try:
            cl.deposit(pending_demand(add2(2)))
        finally:
            cl.close()
        assert log.stat().st_size > size  # the store still appends: its log is not closed

    def test_stopping_the_dst_first_ends_its_workers(self, new_agent):
        agent = new_agent()
        before = dwt_threads()
        address = agent.start_tier("dst-1", "DST", {})["address"]
        agent.start_tier("dwt-1", "DWT", {"store": address})
        worker = agent.tier("dwt-1").worker
        assert len(dwt_threads()) == len(before) + 1
        started = time.monotonic()
        assert agent.stop_tier("dst-1")
        while dwt_threads() != before and time.monotonic() - started < 1.0:
            time.sleep(0.01)
        # over TCP the worker would claim on for 1.5 s after its store stopped, then die
        assert dwt_threads() == before
        assert worker.summary is not None
        assert "dwt-1" not in agent.list_tiers()  # it left with its store
        assert not agent.stop_tier("dwt-1")

    def test_stop_tier_returns_every_tier_it_stopped(self, new_agent):
        agent = new_agent()
        address = agent.start_tier("dst-1", "DST", {})["address"]
        agent.start_tier("dwt-1", "DWT", {"store": address})
        agent.start_tier("dgt-1", "DGT", {"store": address})
        stop = node_ops(agent)[SystemOp.DEALLOCATE]
        assert stop({"tier_id": "dst-1"}) == {"stopped": ["dwt-1", "dst-1"]}
        assert stop({"tier_id": "dst-1"}) == {"stopped": []}
        assert agent.stop_tier("dgt-1") == ["dgt-1"]

    @pytest.mark.parametrize("over", ["in-process", "tcp"])
    def test_deallocating_the_dst_stops_its_workers_in_the_manager(self, new_agent, tmp_path, over):
        log = str(tmp_path / "gmt.log")
        mgr, _ = make_mgr(log_path=log)
        agent = new_agent()
        server = serve_node_agent(agent) if over == "tcp" else None
        try:
            if server is None:
                nid = mgr.register_node("n:1", agent=agent)
            else:
                nid = mgr.register_node(f"127.0.0.1:{server.port}")
            dst = mgr.allocate(nid, "DST", {})
            dwt = mgr.allocate(nid, "DWT", {"store": dst.details["address"]})
            assert agent.tier(dwt.tier_id).local_store is agent.tier(dst.tier_id).store
            assert mgr.deallocate(dst.tier_id) is True
            assert agent.list_tiers() == {}
            states = {tid: t["state"] for tid, t in mgr.status_report()["tiers"].items()}
            assert states == {dst.tier_id: "STOPPED", dwt.tier_id: "STOPPED"}
            assert mgr.deallocate(dwt.tier_id) is False  # already stopped, with its store
        finally:
            mgr.close()
            if server is not None:
                server.stop()
        replayed = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=log)
        states = {tid: t["state"] for tid, t in replayed.status_report()["tiers"].items()}
        replayed.close()
        assert states == {dst.tier_id: "STOPPED", dwt.tier_id: "STOPPED"}


class TestGeneratorTier:
    def test_preload_checks_program(self):
        from eduction import wire
        from eduction.lang import MalformedGeer, compile_source
        from eduction.pipeline import TrainingSet, encode_training_set

        agent = LocalNodeAgent()
        address = agent.start_tier("dst-1", "DST", {})["address"]
        cl = connect_store(address)
        cl.put_resource("answer", wire.encode_geer(compile_source("6 * 7", "answer")))
        cl.put_resource("model", encode_training_set(TrainingSet()))  # a resource, not a program
        cl.close()
        try:
            details = agent.start_tier("dgt-1", "DGT", {"store": address, "program": "answer"})
            assert details == {"program": "answer"}
            with pytest.raises(NotFound):
                agent.start_tier("dgt-2", "DGT", {"store": address, "program": "missing"})
            with pytest.raises(MalformedGeer):
                agent.start_tier("dgt-3", "DGT", {"store": address, "program": "model"})
        finally:
            agent.close()
