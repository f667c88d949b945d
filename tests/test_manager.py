"""General manager tier: registration, liveness, allocation, movement."""
import json
import time

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
    NodeStatus,
    NodeUnknown,
    SystemOp,
    TierFactory,
    TierState,
    TierUnknown,
    UnknownTierKind,
    connect_manager,
    node_ops,
    serve_manager,
    serve_node_agent,
)
from eduction.model import DemandKind, DemandSignature, EMPTY_CONTEXT, pending_demand
from eduction.store import NotFound
from eduction.transport import (
    InProcAgent,
    StoreClient,
    TcpAgent,
    TransportUnreachable,
    connect_store,
    dispatch_system_request,
    system_request,
)
from eduction.wire import MalformedEncoding, MsgType


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


class TestRegistration:
    def test_ids_assigned_in_order(self):
        mgr, _ = make_mgr()
        assert mgr.register_node("n1:1", agent=LocalNodeAgent()) == 1
        assert mgr.register_node("n2:1", agent=LocalNodeAgent()) == 2
        mgr.close()

    def test_duplicate_address(self):
        mgr, _ = make_mgr()
        mgr.register_node("n1:1", agent=LocalNodeAgent())
        with pytest.raises(DuplicateAddress):
            mgr.register_node("n1:1", agent=LocalNodeAgent())
        mgr.close()

    def test_unknown_node(self):
        mgr, _ = make_mgr()
        with pytest.raises(NodeUnknown):
            mgr.node_status(7)
        with pytest.raises(NodeUnknown):
            mgr.heartbeat(7)
        mgr.close()


class TestLiveness:
    def test_threshold_boundaries(self):
        mgr, clock = make_mgr()
        nid = mgr.register_node("n:1", agent=LocalNodeAgent())
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

    def test_heartbeat_revives(self):
        mgr, clock = make_mgr()
        nid = mgr.register_node("n:1", agent=LocalNodeAgent())
        clock.advance(10000)
        assert mgr.node_status(nid) is NodeStatus.DEAD
        assert mgr.heartbeat(nid) is NodeStatus.ALIVE
        assert mgr.node_status(nid) is NodeStatus.ALIVE
        mgr.close()


class TestAllocation:
    def setup_method(self):
        self.mgr, self.clock = make_mgr()
        self.nid = self.mgr.register_node("n:1", agent=LocalNodeAgent())

    def teardown_method(self):
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
    def setup_method(self):
        self.mgr, self.clock = make_mgr()
        self.n1 = self.mgr.register_node("n:1", agent=LocalNodeAgent())
        self.n2 = self.mgr.register_node("n:2", agent=LocalNodeAgent())

    def teardown_method(self):
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
    def test_replay_restores_records(self, tmp_path):
        log = str(tmp_path / "gmt.jsonl")
        mgr, clock = make_mgr(log_path=log)
        nid = mgr.register_node("n:1", agent=LocalNodeAgent())
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
        nid2 = mgr2.register_node("n:2", agent=LocalNodeAgent())
        assert nid2 == 2
        mgr2.close()

    def test_log_lines_are_json(self, tmp_path):
        log = str(tmp_path / "gmt.jsonl")
        mgr, _ = make_mgr(log_path=log)
        nid = mgr.register_node("n:1", agent=LocalNodeAgent())
        mgr.allocate(nid, "DST", {})
        mgr.close()
        with open(log) as f:
            events = [json.loads(line) for line in f]
        assert [e["ev"] for e in events] == ["register", "alloc"]
        assert all("ts" in e for e in events)
        # keys are sorted inside each record
        with open(log) as f:
            for line in f:
                obj = json.loads(line)
                assert list(obj) == sorted(obj)

    def test_torn_tail_stops_replay(self, tmp_path):
        log = str(tmp_path / "gmt.jsonl")
        mgr, _ = make_mgr(log_path=log)
        mgr.register_node("n:1", agent=LocalNodeAgent())
        mgr.register_node("n:2", agent=LocalNodeAgent())
        mgr.close()
        with open(log, "rb") as f:
            data = f.read()
        with open(log, "wb") as f:
            f.write(data[:-5])  # tear the second record
        mgr2 = Manager(heartbeat_ms=1000, clock=FakeClock(), log_path=log)
        assert [n["address"] for n in mgr2.status_report()["nodes"].values()] == ["n:1"]
        mgr2.close()


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


class TestFactory:
    def test_dispatch_order(self):
        f = TierFactory()
        t = f.create_tier("DST", "t1", {})
        assert type(t).__name__ == "DstTier"
        with pytest.raises(UnknownTierKind):
            f.create_tier("XYZ", "t2", {})


class TestLocalNodeAgent:
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
