"""Acceptance gate: eight criteria, one verdict line each.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
pass/fail lines, or `-s` to also see the measured numbers.
"""
import random
import threading
import time

import pytest

from eduction import pipeline as P
from eduction import transport, wire
from eduction.lang import compile_source
from eduction.manager import LocalNodeAgent, Manager, NodeStatus
from eduction.model import (
    EMPTY_CONTEXT,
    DemandKind,
    DemandSignature,
    DemandState,
    Fault,
    make_context,
    pending_demand,
)
from eduction.evaluator import EvalConfig, Evaluator
from eduction.store import ConflictingResult, DemandStore
from eduction.transport import (
    InProcAgent,
    TcpAgent,
    connect_store,
    dispatch_store_request,
    serve_store,
)
from eduction.wire import MsgType

import helpers


VERDICTS: list[str] = []


def verdict(n: int, ok: bool, detail: str):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(line)
    print(line)


# -- 1: engine equivalent to the reference interpreter ------------------------


def test_criterion_1_engine_matches_reference():
    rng = random.Random(2026)
    programs = 500
    mismatches = []
    comparisons = 0
    t0 = time.monotonic()
    for i in range(programs):
        geer = helpers.gen_program(rng, i, max_depth=5, max_dims=2)
        for _ in range(2):
            ctx = helpers.gen_context(rng, geer, max_tag=3)
            got = helpers.outcome_engine(geer, "x", ctx, 256)
            want = helpers.outcome_oracle(geer, "x", ctx, 256)
            comparisons += 1
            if not helpers.outcomes_match(got, want):
                mismatches.append((geer.program_id, str(ctx), got, want))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 60.0
    verdict(1, ok, f"{programs} programs, {comparisons} comparisons, {elapsed:.1f}s")
    assert mismatches == [], mismatches[:3]
    assert elapsed < 60.0


# -- 2: demand counts under memoization ----------------------------------------

FACT_SRC = (
    "fact where dimension d; "
    "fact = if #.d == 0 then 1 else #.d * (fact @.d (#.d - 1)); end"
)
FIB_SRC = (
    "fib where dimension d; "
    "fib = if #.d <= 1 then #.d else (fib @.d (#.d - 1)) + (fib @.d (#.d - 2)); end"
)


def test_criterion_2_eduction_counts():
    fact = compile_source(FACT_SRC, "facts")
    ev = Evaluator(fact, DemandStore())
    value = ev.eval_demand("fact", make_context([("d", 20)]))
    cold = ev.computation_counter()
    ev.reset_counter()
    again = ev.eval_demand("fact", make_context([("d", 20)]))
    warm = ev.computation_counter()

    fib = compile_source(FIB_SRC, "fibs")
    ev2 = Evaluator(fib, DemandStore())
    fib20 = ev2.eval_demand("fib", make_context([("d", 20)]))
    fib_count = ev2.computation_counter()

    ok = (
        value == again == 2432902008176640000
        and cold == 21
        and warm == 0
        and fib20 == 6765
        and fib_count == 21
    )
    verdict(2, ok, f"fact@20 cold={cold} warm={warm}, fib@20 count={fib_count}")
    assert value == 2432902008176640000
    assert (cold, warm) == (21, 0)
    assert (fib20, fib_count) == (6765, 21)


# -- 3: concurrent claims, no duplicates, no conflicts -------------------------


def test_criterion_3_concurrent_claim_safety():
    store = DemandStore()
    total = 1000
    sigs = [
        DemandSignature("p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (i, 1))
        for i in range(total)
    ]
    for s in sigs:
        store.deposit(pending_demand(s))

    claims = [0] * 16
    fulfills = [0] * 16
    conflicts = [0] * 16
    done = threading.Event()

    def claimer(ix: int):
        wid = f"w{ix}"
        while not done.is_set():
            d = store.claim(wid, lease_ms=60000)
            if d is None:
                if store.stats().computed >= total:
                    done.set()
                    return
                time.sleep(0.001)
                continue
            claims[ix] += 1
            try:
                store.fulfill(d.signature, d.signature.args[0] + 1, wid)
                fulfills[ix] += 1
            except ConflictingResult:
                conflicts[ix] += 1

    t0 = time.monotonic()
    threads = [threading.Thread(target=claimer, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - t0

    n_claims, n_fulfills, n_conflicts = sum(claims), sum(fulfills), sum(conflicts)
    computed = store.stats().computed
    store.close()
    ok = (
        n_claims == total
        and n_fulfills == total
        and n_conflicts == 0
        and computed == total
        and elapsed < 10.0
    )
    verdict(
        3,
        ok,
        f"16 claimers, claims={n_claims} fulfills={n_fulfills} "
        f"conflicts={n_conflicts}, {elapsed:.2f}s",
    )
    assert (n_claims, n_fulfills, n_conflicts) == (total, total, 0)
    assert computed == total
    assert elapsed < 10.0


# -- 4: crash mid-queue, redelivery, byte-identical results --------------------


def _c4_sigs(total=200):
    return [
        DemandSignature("p", "mul2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (i, 3))
        for i in range(total)
    ]


def _c4_drain(store, wid, lease_ms, die_at_fulfill=None):
    """Claim/execute/fulfill; with die_at_fulfill=n, claim the nth demand
    and exit without fulfilling it (a crash holding a live lease)."""
    from eduction.worker import build_demo_registry, execute_one

    reg = build_demo_registry()
    fulfilled = 0
    while True:
        d = store.claim(wid, lease_ms=lease_ms)
        if d is None:
            return fulfilled
        if die_at_fulfill is not None and fulfilled + 1 == die_at_fulfill:
            return fulfilled  # dies holding the claim
        store.fulfill(d.signature, execute_one(reg, d), wid)
        fulfilled += 1


def _c4_collect(store, sigs):
    out = []
    for s in sigs:
        state, value = store.fetch(s)
        assert state is DemandState.COMPUTED
        out.append(wire.encode_value(value))
    return out


def test_criterion_4_crash_redelivery():
    sigs = _c4_sigs()

    baseline_store = DemandStore()
    for s in sigs:
        baseline_store.deposit(pending_demand(s))
    _c4_drain(baseline_store, "solo", lease_ms=5000)
    baseline = _c4_collect(baseline_store, sigs)
    baseline_store.close()

    t0 = time.monotonic()
    store = DemandStore()
    for s in sigs:
        store.deposit(pending_demand(s))

    # worker B dies at what would be its 50th fulfill, lease still held
    b_done = _c4_drain(store, "dwt-b", lease_ms=5000, die_at_fulfill=50)
    # worker A takes over; the abandoned lease must expire and redeliver
    a_thread_result = {}

    def run_a():
        done = _c4_drain(store, "dwt-a", lease_ms=5000)
        while store.stats().computed < len(sigs):
            time.sleep(0.05)
            done += _c4_drain(store, "dwt-a", lease_ms=5000)
        a_thread_result["fulfills"] = done

    t = threading.Thread(target=run_a)
    t.start()
    t.join(timeout=29)
    assert not t.is_alive(), "criterion 4 run exceeded its budget"
    elapsed = time.monotonic() - t0

    redeliveries = store.stats().redeliveries
    results = _c4_collect(store, sigs)
    store.close()

    identical = results == baseline
    ok = identical and redeliveries >= 1 and elapsed < 30.0
    verdict(
        4,
        ok,
        f"b_fulfills={b_done} a_fulfills={a_thread_result['fulfills']} "
        f"redeliveries={redeliveries} identical={identical}, {elapsed:.1f}s",
    )
    assert identical
    assert redeliveries >= 1
    assert elapsed < 30.0


# -- 5: carriers give byte-identical replies ------------------------------------


def _c5_script():
    """100 deterministic raw requests covering every store message type."""
    reqs = []
    geer_blob = wire.encode_geer(compile_source("6 * 7", "answer"))

    def dsig(i):
        return DemandSignature(
            "p", "add2", EMPTY_CONTEXT, DemandKind.PROCEDURAL, (i, i)
        )

    def isig(i):
        return DemandSignature(
            "p", "x", make_context([("d", i)]), DemandKind.INTENSIONAL
        )

    for i in range(15):  # deposits, mixed kinds
        reqs.append((MsgType.DEPOSIT, wire.encode_demand(pending_demand(dsig(i)))))
        reqs.append((MsgType.DEPOSIT, wire.encode_demand(pending_demand(isig(i)))))
    for i in range(5):  # duplicate deposits
        reqs.append((MsgType.DEPOSIT, wire.encode_demand(pending_demand(dsig(i)))))
    for i in range(10):  # fetches on pending demands
        reqs.append((MsgType.FETCH, wire.encode_signature(dsig(i))))
    for i in range(5):  # fetches on unknown demands: ERR replies
        reqs.append((MsgType.FETCH, wire.encode_signature(dsig(100 + i))))
    for i in range(10):  # claims
        reqs.append(
            (
                MsgType.CLAIM,
                wire.encode_value(f"w{i}") + wire.encode_value(60000) + wire.encode_value(0),
            )
        )
    for i in range(10):  # fulfills for the claimed ten
        reqs.append(
            (
                MsgType.FULFILL,
                wire.encode_signature(dsig(i))
                + wire.encode_value(2 * i)
                + wire.encode_value(f"w{i}"),
            )
        )
    for i in range(5):  # conflicting fulfills: ERR replies
        reqs.append(
            (
                MsgType.FULFILL,
                wire.encode_signature(dsig(i))
                + wire.encode_value(-1)
                + wire.encode_value(f"w{i}"),
            )
        )
    for i in range(10):  # fetches on computed demands
        reqs.append((MsgType.FETCH, wire.encode_signature(dsig(i))))
    for i in range(5):  # awaits on computed demands: immediate
        reqs.append(
            (MsgType.AWAIT, wire.encode_signature(dsig(i)) + wire.encode_value(1000))
        )
    reqs.append((MsgType.RESOURCE_PUT, wire.encode_value("answer") + len(geer_blob).to_bytes(4, "big") + geer_blob))
    reqs.append((MsgType.RESOURCE_GET, wire.encode_value("answer")))
    reqs.append((MsgType.RESOURCE_GET, wire.encode_value("missing")))  # ERR
    for _ in range(4):
        reqs.append((MsgType.STATS, b""))
    for i in range(8):  # malformed payloads: ERR replies
        reqs.append((MsgType.DEPOSIT, b"\xff" * (i + 1)))
    # the retired CLAIM layout, with a kind-mask byte: ERR reply
    reqs.append(
        (
            MsgType.CLAIM,
            wire.encode_value("w")
            + bytes([1 << DemandKind.PROCEDURAL])
            + wire.encode_value(60000)
            + wire.encode_value(0),
        )
    )
    return reqs


def test_criterion_5_carrier_equivalence():
    script = _c5_script()
    assert len(script) >= 100
    replies = {}
    for mode in ("inproc", "tcp"):
        store = DemandStore()
        if mode == "inproc":
            agent = InProcAgent(
                lambda mt, payload: dispatch_store_request(store, mt, payload)
            )
            srv = None
        else:
            srv = serve_store(store)
            agent = TcpAgent("127.0.0.1", srv.port)
        out = []
        for mt, payload in script:
            rt, body = agent.request(mt, payload)
            out.append((int(rt), body))
        replies[mode] = out
        if srv is not None:
            agent.close()
            srv.stop()
        store.close()

    diffs = [
        i
        for i, (a, b) in enumerate(zip(replies["inproc"], replies["tcp"]))
        if a != b
    ]
    ok = not diffs and replies["tcp"][-1][0] == MsgType.ERR  # the retired CLAIM layout
    verdict(5, ok, f"{len(script)} requests, {len(diffs)} divergent replies")
    assert diffs == [], diffs[:5]
    assert replies["tcp"][-1][0] == MsgType.ERR


# -- 6: recognition accuracy, both modes, equal result sets ---------------------


def _results_close(a, b, tol=1e-9):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for (sa, da), (sb, db) in zip(ra, rb):
            if sa != sb or abs(da - db) > tol:
                return False
    return True


def _run_both_modes():
    train, test = P.default_corpus()
    labels = [sid for sid, _ in test]
    unlabeled = [(None, s) for _, s in test]

    ts, _ = P.run_pipeline_local(train, P.TRAIN_MODE)
    _, local = P.run_pipeline_local(unlabeled, P.CLASSIFY_MODE, ts=ts)

    from eduction.worker import Worker, WorkerConfig

    store = DemandStore()
    workers = [
        Worker(
            WorkerConfig(worker_id=f"w{i}"),
            store,
            P.build_pipeline_registry(store),
        ).start()
        for i in range(2)
    ]
    try:
        P.run_pipeline_distributed(store, train, P.TRAIN_MODE)
        dist = P.run_pipeline_distributed(store, unlabeled, P.CLASSIFY_MODE)
    finally:
        for w in workers:
            w.stop()
        store.close()
    return labels, local, dist


def test_criterion_6_recognition_accuracy():
    labels, local, dist = _run_both_modes()
    lh, lt = P.top1_accuracy(local, labels)
    dh, dt = P.top1_accuracy(dist, labels)
    equal = _results_close(local, dist)
    ok = (lh, lt) == (20, 20) and (dh, dt) == (20, 20) and equal
    verdict(6, ok, f"local={lh}/{lt} distributed={dh}/{dt} resultsets_equal={equal}")
    assert (lh, lt) == (20, 20)
    assert (dh, dt) == (20, 20)
    assert equal


# -- 7: tier movement is invisible; death detection on schedule -----------------


def test_criterion_7_move_tier_and_death_detection():
    # part A: move the only worker tier mid-classification
    train, test = P.default_corpus()
    labels = [sid for sid, _ in test]
    unlabeled = [(None, s) for _, s in test]
    ts, _ = P.run_pipeline_local(train, P.TRAIN_MODE)
    _, baseline = P.run_pipeline_local(unlabeled, P.CLASSIFY_MODE, ts=ts)

    mgr = Manager(heartbeat_ms=60000)  # nodes stay alive for this part
    agent_a, agent_b = LocalNodeAgent(), LocalNodeAgent()
    n1 = mgr.register_node("node-a:0", agent=agent_a)
    n2 = mgr.register_node("node-b:0", agent=agent_b)
    dst = mgr.allocate(n1, "DST", {})
    dwt = mgr.allocate(
        n1,
        "DWT",
        {"store": dst.details["address"], "registry": "pipeline"},
    )
    client = connect_store(dst.details["address"])
    try:
        P.run_pipeline_distributed(client, train, P.TRAIN_MODE)

        moved_info = {}

        def mover():
            # wait until classification work is visibly flowing
            deadline = time.monotonic() + 10
            start_computed = client.stats().computed
            while time.monotonic() < deadline:
                if client.stats().computed > start_computed:
                    break
                time.sleep(0.002)
            rec = mgr.move(dwt.tier_id, n2)
            moved_info["tier"] = rec.tier_id
            moved_info["node"] = rec.node_id

        mv = threading.Thread(target=mover)
        mv.start()
        moved = P.run_pipeline_distributed(client, unlabeled, P.CLASSIFY_MODE)
        mv.join()
    finally:
        client.close()
        mgr.close()
        agent_b.close()  # the worker's node (moved there), before the store's node it claims from
        agent_a.close()

    hits, total = P.top1_accuracy(moved, labels)
    equal = _results_close(moved, baseline)
    moved_ok = (
        equal and (hits, total) == (20, 20) and moved_info.get("node") == n2
    )

    # part B: a silent node is DEAD after five missed heartbeats (within one)
    class Clock:
        t = 0.0

        def __call__(self):
            return self.t

    clock = Clock()
    mgr2 = Manager(heartbeat_ms=1000, clock=clock)
    nid = mgr2.register_node("silent:0", agent=LocalNodeAgent())
    statuses = {}
    for age in (3999, 4999, 5001, 6001):
        clock.t = float(age)
        statuses[age] = mgr2.node_status(nid)
    mgr2.close()
    death_ok = (
        statuses[3999] is not NodeStatus.DEAD
        and statuses[4999] is not NodeStatus.DEAD
        and statuses[5001] is NodeStatus.DEAD
        and statuses[6001] is NodeStatus.DEAD
    )

    ok = moved_ok and death_ok
    verdict(
        7,
        ok,
        f"moved to node {moved_info.get('node')}, accuracy={hits}/{total}, "
        f"resultsets_equal={equal}; dead at 5001ms={statuses[5001].name}",
    )
    assert equal
    assert (hits, total) == (20, 20)
    assert moved_info.get("node") == n2
    assert death_ok


# -- 8: wire fuzz round-trips and header corruption ------------------------------


def _random_str(rng: random.Random):
    return "".join(chr(rng.randrange(32, 0x2FF)) for _ in range(rng.randrange(0, 12)))


def _random_value(rng: random.Random):
    k = rng.randrange(6)
    if k == 0:
        return rng.randint(-(2**63), 2**63 - 1)
    if k == 1:
        return rng.uniform(-1e9, 1e9)
    if k == 2:
        return rng.random() < 0.5
    if k == 3:
        return _random_str(rng)
    if k == 4:
        return tuple(rng.uniform(-1e6, 1e6) for _ in range(rng.randrange(0, 6)))
    return Fault(_random_str(rng), _random_str(rng))


def _random_signature(rng: random.Random):
    pid = f"p{rng.randrange(4)}"
    if rng.random() < 0.5:
        dims = sorted(rng.sample(["a", "b", "c", "d"], rng.randrange(0, 3)))
        ctx = make_context((d, rng.randint(-5, 5)) for d in dims)
        return DemandSignature(pid, f"id{rng.randrange(6)}", ctx, DemandKind.INTENSIONAL)
    args = tuple(_random_value(rng) for _ in range(rng.randrange(0, 4)))
    return DemandSignature(pid, f"proc{rng.randrange(6)}", EMPTY_CONTEXT, DemandKind.PROCEDURAL, args)


def test_criterion_8_wire_robustness():
    rng = random.Random(4747)
    rounds = 10_000
    bad_roundtrips = 0
    for _ in range(rounds):
        pick = rng.randrange(3)
        if pick == 0:
            v = _random_value(rng)
            if not wire.values_equal(wire.decode_value(wire.encode_value(v)), v):
                bad_roundtrips += 1
        elif pick == 1:
            s = _random_signature(rng)
            data = wire.encode_signature(s)
            out = wire.decode_signature(data)
            # a decoded key is its input bytes: re-encode the decoded fields too
            if out != s or wire._encode_signature(out) != data:
                bad_roundtrips += 1
        else:
            d = pending_demand(_random_signature(rng))
            out = wire.decode_demand(wire.encode_demand(d))
            if out != d or wire._encode_signature(out.signature) != d.signature.key():
                bad_roundtrips += 1

    sig = DemandSignature("p", "x", make_context([("d", 1)]), DemandKind.INTENSIONAL)
    frame = wire.encode_frame(MsgType.DEPOSIT, wire.encode_demand(pending_demand(sig)))
    accepted = []
    tried = 0
    store = DemandStore()
    for offset in range(wire.HEADER_SIZE):
        for b in range(256):
            if b == frame[offset]:
                continue
            tried += 1
            data = bytearray(frame)
            data[offset] = b
            try:
                mt, payload = wire.parse_frame(bytes(data))
            except Exception:
                continue  # rejected at the framing layer
            try:
                rt, _ = dispatch_store_request(store, mt, payload)
            except Exception:
                continue  # rejected during dispatch
            if rt is not MsgType.ERR:
                accepted.append((offset, b, rt.name))
    store.close()

    ok = bad_roundtrips == 0 and tried == wire.HEADER_SIZE * 255 and not accepted
    verdict(
        8,
        ok,
        f"{rounds} round-trips clean={bad_roundtrips == 0}, "
        f"{tried} header corruptions, {len(accepted)} accepted",
    )
    assert bad_roundtrips == 0
    assert tried == wire.HEADER_SIZE * 255
    assert accepted == [], accepted[:5]
