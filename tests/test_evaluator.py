"""Eductive engine vs. the recursive reference interpreter."""
import enum
import gc
import inspect
import math
import os
import random
import subprocess
import sys
import textwrap
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import eduction
import helpers
from eduction import evaluator, lang, pipeline as P, wire
from eduction.evaluator import (
    GENERATOR_ID,
    CircularDemand,
    DepthExceeded,
    DivisionByZero,
    EvalConfig,
    Evaluator,
    ProcedureFault,
    ProcTimeout,
    TypeMismatch,
    UndefinedIdentifier,
    reference_eval,
)
from eduction.lang import compile_source
from eduction.model import (
    EMPTY_CONTEXT,
    INT64_MAX,
    INT64_MIN,
    IDENTIFIER,
    DemandKind,
    DemandSignature,
    MalformedValue,
    make_context,
    pending_demand,
)
from eduction.store import DemandStore
from eduction.transport import InProcAgent, StoreClient, connect_store, dispatch_store_request, serve_store
from eduction.wire import MsgType
from eduction.worker import ProcedureRegistry, StoreUnreachable, Worker, WorkerConfig, build_demo_registry

FACT = compile_source(
    "fact where dimension d; "
    "fact = if #.d == 0 then 1 else #.d * (fact @.d (#.d - 1)); end",
    "facts",
)
FIB = compile_source(
    "fib where dimension d; "
    "fib = if #.d <= 1 then #.d else (fib @.d (#.d - 1)) + (fib @.d (#.d - 2)); end",
    "fibs",
)


def ctx(**tags):
    return make_context(tags.items())


def ev_for(geer, **cfg):
    return Evaluator(geer, DemandStore(), EvalConfig(**cfg) if cfg else None)


def run(expr, dims="", **tags):
    decl = f"dimension {dims}; " if dims else ""
    geer = compile_source(f"x where {decl}x = {expr}; end", "p")
    return ev_for(geer).eval_demand("x", ctx(**tags))


class TestBasics:
    def test_fact_5(self):
        assert ev_for(FACT).eval_demand("fact", ctx(d=5)) == 120

    def test_fact_20(self):
        assert ev_for(FACT).eval_demand("fact", ctx(d=20)) == 2432902008176640000

    def test_fib_20(self):
        assert ev_for(FIB).eval_demand("fib", ctx(d=20)) == 6765

    def test_plain_arithmetic(self):
        assert run("2 + 3 * 4") == 14

    def test_hash_reads_current_tag(self):
        assert run("#.d + #.e", dims="d, e", d=3, e=4) == 7

    def test_unset_dimension_defaults_to_zero(self):
        assert run("#.d", dims="d") == 0

    def test_at_overrides_only_named_dim(self):
        geer = compile_source(
            "x @.d 9 where dimension d, e; x = #.d * 100 + #.e; end", "p"
        )
        assert ev_for(geer).eval_demand("x", ctx(d=1, e=2)) == 102
        # querying through the root applies the tag override
        src = "y where dimension d, e; y = x @.d 9; x = #.d * 100 + #.e; end"
        geer = compile_source(src, "p")
        assert ev_for(geer).eval_demand("y", ctx(d=1, e=2)) == 902

    def test_unknown_identifier(self):
        with pytest.raises(UndefinedIdentifier):
            ev_for(FACT).eval_demand("nope", EMPTY_CONTEXT)

    def test_context_restricted_to_declared_dims(self):
        # tags on undeclared dimensions do not split warehouse entries
        ev = ev_for(FACT)
        ev.eval_demand("fact", make_context([("d", 5), ("z", 1)]))
        ev.reset_counter()
        ev.eval_demand("fact", make_context([("d", 5), ("z", 2)]))
        assert ev.computation_counter() == 0


class TestArithmetic:
    def test_int64_wraparound(self):
        assert run("9223372036854775807 + 1") == -(2**63)

    def test_division_truncates_toward_zero(self):
        assert run("7 / 2") == 3
        assert run("(0 - 7) / 2") == -3
        assert run("7 % 2") == 1
        assert run("(0 - 7) % 2") == -1
        assert run("7 % (0 - 2)") == 1

    def test_mixed_promotion(self):
        assert run("1 + 0.5") == 1.5
        assert isinstance(run("2 * 0.5"), float)

    def test_comparison_and_logic(self):
        assert run("if 2 < 3 && 3 != 4 then 7 else 0") == 7
        assert run("if 1 > 2 || 2 >= 2 then 7 else 0") == 7


class TestErrors:
    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            run("1 / 0")
        with pytest.raises(DivisionByZero):
            run("1 % 0")

    def test_float_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            run("1.0 / 0.0")

    def test_if_condition_must_be_bool(self):
        with pytest.raises(TypeMismatch):
            run("if 1 then 2 else 3")

    def test_logical_operands_must_be_bool(self):
        with pytest.raises(TypeMismatch):
            run("if 1 && 2 < 3 then 0 else 1")

    def test_tag_must_be_int(self):
        with pytest.raises(TypeMismatch):
            run("#.d @.d 1.5", dims="d")

    def test_circular_demand(self):
        geer = compile_source("x where x = y; y = x; end", "p")
        with pytest.raises(CircularDemand, match=r"^x@\{\} -> y@\{\} -> x@\{\}$"):
            ev_for(geer).eval_demand("x", EMPTY_CONTEXT)

    def test_self_reference(self):
        geer = compile_source("x where x = x + 1; end", "p")
        with pytest.raises(CircularDemand):
            ev_for(geer).eval_demand("x", EMPTY_CONTEXT)

    def test_recursion_through_changing_context_is_not_circular(self):
        # fact revisits `fact` but under fresh tags: legal recursion
        assert ev_for(FACT).eval_demand("fact", ctx(d=6)) == 720

    def test_depth_exceeded(self):
        # fact at a negative tag never reaches the base case
        with pytest.raises(DepthExceeded):
            Evaluator(FACT, DemandStore(), EvalConfig(max_depth=64)).eval_demand(
                "fact", ctx(d=-1)
            )


CHAIN_SRC = "c where dimension d; c = if #.d <= 0 then 0 else 1 + (c @.d (#.d - 1)); end"
CHAIN = compile_source(CHAIN_SRC, "chain")


def chain_outcome(path, d):
    try:
        if path == "oracle":
            return reference_eval(CHAIN, "c", ctx(d=d))
        return Evaluator(CHAIN).eval_demand("c", ctx(d=d))
    except DepthExceeded:
        return DepthExceeded


def deep_sum(n):
    """``x = 1 + (1 + (... + 1))``: one demand, ``n + 1`` nested expressions."""
    node = lang.Literal(1)
    for _ in range(n):
        node = lang.Binary("+", lang.Literal(1), node)
    return replace(compile_source("x where x = 0; end", "deep"), dictionary={"x": node})


@pytest.fixture
def low_recursion_limit():
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


class TestDepth:
    """Depth is a checked bound: ``DepthExceeded``, never a bare ``RecursionError``."""

    @pytest.mark.parametrize("path", ["engine", "oracle"])
    @pytest.mark.parametrize("where", ["main", "thread"])
    def test_default_bound_is_exact(self, path, where):
        depths = (9999, 10000, 10001)
        out = []
        if where == "main":
            out = [chain_outcome(path, d) for d in depths]
        else:
            t = threading.Thread(target=lambda: out.extend(chain_outcome(path, d) for d in depths))
            t.start()
            t.join(60)
            assert not t.is_alive()
        assert out == [9999, DepthExceeded, DepthExceeded]

    def test_oracle_raises_the_limit_itself(self, low_recursion_limit):
        assert reference_eval(CHAIN, "c", ctx(d=500)) == 500

    def test_oracle_puts_the_recursion_limit_back(self, low_recursion_limit):
        assert reference_eval(CHAIN, "c", ctx(d=500)) == 500
        assert sys.getrecursionlimit() == 1000
        with pytest.raises(DepthExceeded):
            reference_eval(CHAIN, "c", ctx(d=10001))
        assert sys.getrecursionlimit() == 1000

    @pytest.mark.parametrize("path", ["engine", "oracle"])
    def test_nesting_past_the_stack_is_depth_exceeded(self, path, low_recursion_limit):
        geer = deep_sum(3000)
        with pytest.raises(DepthExceeded):
            if path == "oracle":
                reference_eval(geer, "x", EMPTY_CONTEXT, max_depth=10)
            else:
                Evaluator(geer, config=EvalConfig(max_depth=10)).eval_demand("x", EMPTY_CONTEXT)

    def test_engine_leaves_the_recursion_limit_alone(self):
        # a fresh interpreter, so no earlier test has raised the limit
        code = textwrap.dedent(f"""
            import sys, threading
            from eduction.evaluator import Evaluator
            from eduction.lang import compile_source
            from eduction.model import make_context
            chain = compile_source({CHAIN_SRC!r}, "chain")
            before = sys.getrecursionlimit()
            ask = lambda: Evaluator(chain).eval_demand("c", make_context([("d", 9999)]))
            out = [ask()]
            t = threading.Thread(target=lambda: out.append(ask()))
            t.start()
            t.join()
            print(before, sys.getrecursionlimit(), *out)
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eduction.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1000", "1000", "9999", "9999"]


class BodyLog(Evaluator):
    """An Evaluator that keeps every body generator it starts."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bodies = []

    def _body(self, name):
        compiled = super()._body(name)

        def logged(ev, ctx):
            gen = compiled(ev, ctx)
            self.bodies.append(gen)
            return gen

        self._bodies[name] = logged
        return logged


class TestFailureLeavesNothingBehind:
    """An error ends the evaluation: every suspended body is closed and the
    chain is empty, so the same Evaluator answers its next query."""

    @pytest.mark.parametrize(
        "src, cfg, bad, good, value, error",
        [
            (
                "c where dimension d, e; c = if #.d <= 0 then 1 / #.e else 1 + (c @.d (#.d - 1)); end",
                {},
                {"d": 50, "e": 0},
                {"d": 50, "e": 1},
                51,
                DivisionByZero,
            ),
            (
                "x where dimension d, e; "
                "x = if #.d > 0 then 1 + (x @.d (#.d - 1)) else if #.e == 0 then y else 0; y = x; end",
                {},
                {"d": 50, "e": 0},
                {"d": 50, "e": 1},
                50,
                CircularDemand,
            ),
            (CHAIN_SRC, {"max_depth": 64}, {"d": 100}, {"d": 63}, 63, DepthExceeded),
        ],
        ids=["division", "cycle", "depth"],
    )
    def test_error_closes_every_body(self, src, cfg, bad, good, value, error):
        root = src.split()[0]
        store = DemandStore()
        ev = BodyLog(compile_source(src, "p"), store, EvalConfig(**cfg))
        with pytest.raises(error):
            ev.eval_demand(root, ctx(**bad))
        assert len(ev.bodies) > 50
        assert {inspect.getgeneratorstate(g) for g in ev.bodies} == {inspect.GEN_CLOSED}
        assert ev._chain == {}
        assert ev.eval_demand(root, ctx(**good)) == value
        assert store.stats().pending == 0
        store.close()
        gc.collect()  # an error while finalizing a body would be unraisable, which pytest fails on


class TestWarehouse:
    def test_fact_20_computes_21_demands(self):
        ev = ev_for(FACT)
        ev.eval_demand("fact", ctx(d=20))
        assert ev.computation_counter() == 21

    def test_repeat_is_all_hits(self):
        ev = ev_for(FACT)
        ev.eval_demand("fact", ctx(d=20))
        ev.reset_counter()
        assert ev.eval_demand("fact", ctx(d=20)) == 2432902008176640000
        assert ev.computation_counter() == 0

    def test_fib_20_computes_21_demands(self):
        # naive recursion is exponential; the warehouse makes it linear
        ev = ev_for(FIB)
        ev.eval_demand("fib", ctx(d=20))
        assert ev.computation_counter() == 21

    def test_warehouse_shares_results_across_evaluators(self):
        store = DemandStore()
        first = Evaluator(FACT, store)
        first.eval_demand("fact", ctx(d=20))
        second = Evaluator(FACT, store)
        assert second.eval_demand("fact", ctx(d=20)) == 2432902008176640000
        assert second.computation_counter() == 0
        store.close()

    def test_without_a_store_nothing_is_shared(self):
        Evaluator(FACT).eval_demand("fact", ctx(d=10))
        second = Evaluator(FACT)
        assert second.eval_demand("fact", ctx(d=10)) == 3628800
        # no warehouse: the second evaluator redoes all 11
        assert second.computation_counter() == 11

    def test_clear_cache_falls_back_to_store(self):
        store = DemandStore()
        ev = Evaluator(FACT, store)
        ev.eval_demand("fact", ctx(d=10))
        ev.clear_cache()
        ev.reset_counter()
        assert ev.eval_demand("fact", ctx(d=10)) == 3628800
        # local memo gone, but every demand hits the shared warehouse
        assert ev.computation_counter() == 0
        store.close()

    def test_distinct_contexts_are_distinct_entries(self):
        ev = ev_for(FACT)
        assert ev.eval_demand("fact", ctx(d=3)) == 6
        assert ev.eval_demand("fact", ctx(d=4)) == 24
        # d=4 reuses d<=3: exactly one extra computation
        assert ev.computation_counter() == 5


class KeyLog(DemandStore):
    """A DemandStore that records the key of every keyed deposit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.keys = []

    def deposit_key(self, key, queue=None):
        self.keys.append(key)
        return super().deposit_key(key, queue)


def fib_sig(n):
    return DemandSignature(FIB.program_id, "fib", ctx(d=n), DemandKind.INTENSIONAL)


FIB_VALUES = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


class TestKeyedStoreTraffic:
    """The engine deposits and fulfils by key bytes: each key, request and
    log record is what a signature of the demand encodes to."""

    names = st.from_regex(IDENTIFIER, fullmatch=True).filter(lambda n: len(n) <= 12)
    tags = st.one_of(st.sampled_from([INT64_MIN, INT64_MAX, 0, -1]), st.integers(INT64_MIN, INT64_MAX))

    @settings(max_examples=200, deadline=None)
    @given(
        program_id=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
        name=names,
        pairs=st.dictionaries(names, tags, max_size=3),
    )
    def test_key_is_the_signatures(self, program_id, name, pairs):
        geer = lang.Geer(program_id, frozenset(pairs), {name: lang.Literal(1)}, lang.Ident(name), b"")
        context = make_context(pairs.items())
        store = KeyLog()
        ev = Evaluator(geer, store)
        assert ev.eval_demand(name, context) == 1
        ev.clear_cache()  # again from the warehouse, through the cached head
        assert ev.eval_demand(name, context) == 1
        key = DemandSignature(program_id, name, context, DemandKind.INTENSIONAL).key()
        assert store.keys == [key, key]

    def test_cold_fib_10_sends_the_frames_a_signature_encodes_to(self):
        backing = DemandStore()
        sent = []

        def handler(msg_type, payload):
            sent.append((msg_type, payload))
            return dispatch_store_request(backing, msg_type, payload)

        assert Evaluator(FIB, StoreClient(InProcAgent(handler))).eval_demand("fib", ctx(d=10)) == 55

        def deposit(n):
            return MsgType.DEPOSIT, wire.encode_demand(pending_demand(fib_sig(n)))

        def fulfil(n):
            payload = wire.encode_signature(fib_sig(n)) + wire.encode_value(FIB_VALUES[n])
            return MsgType.FULFILL, payload + wire.encode_value(GENERATOR_ID)

        # down the chain to fib@1, which demands nothing; fib@2 then demands fib@0
        expected = [deposit(n) for n in range(10, 0, -1)] + [fulfil(1), deposit(0), fulfil(0)]
        assert sent == expected + [fulfil(n) for n in range(2, 11)]

    def test_log_records_are_what_a_signature_encodes_to(self, tmp_path):
        path = tmp_path / "store.log"
        store = DemandStore(str(path))
        assert Evaluator(FIB, store).eval_demand("fib", ctx(d=10)) == 55
        store.close()
        order = [1, 0, *range(2, 11)]
        records = [fib_sig(n).key() + wire.encode_value(FIB_VALUES[n]) for n in order]
        assert path.read_bytes() == b"".join(wire.encode_frame(MsgType.FULFILL, r) for r in records)

    @pytest.mark.parametrize("program_id, tag", [("p\ud800", 1)], ids=["lone-surrogate"])
    @pytest.mark.parametrize(
        "path, error", [("none", None), ("direct", MalformedValue), ("inproc", MalformedValue)]
    )
    def test_a_demand_the_wire_cannot_carry_raises_as_it_did(self, program_id, tag, path, error):
        backing = DemandStore()
        store = {
            "none": None,
            "direct": backing,
            "inproc": StoreClient(InProcAgent(lambda t, p: dispatch_store_request(backing, t, p))),
        }[path]
        ev = Evaluator(compile_source("x where dimension d; x = #.d; end", program_id), store)
        if error is None:
            assert ev.eval_demand("x", ctx(d=tag)) == tag
        else:
            with pytest.raises(error):
                ev.eval_demand("x", ctx(d=tag))
        assert backing.stats().deposits == 0  # refused before the store saw it

    @pytest.mark.parametrize("tag", [2**70, INT64_MAX + 1, INT64_MIN - 1])
    def test_a_tag_past_i64_is_refused_before_any_evaluation(self, tag):
        with pytest.raises(MalformedValue):
            ctx(d=tag)
        assert ctx(d=INT64_MAX).get("d") == INT64_MAX and ctx(d=INT64_MIN).get("d") == INT64_MIN


class TestConcurrentGenerators:
    QUERIES = range(0, 197, 7)

    @staticmethod
    def run_threads(address, geers):
        errors = []

        def generate(geer):
            client = connect_store(address)
            try:
                ev = Evaluator(geer, client)
                for n in TestConcurrentGenerators.QUERIES:
                    ev.eval_demand("fib", ctx(d=n))
            except Exception as e:
                errors.append(e)
            finally:
                client.close()

        threads = [threading.Thread(target=generate, args=(g,), daemon=True) for g in geers]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_generators_over_tcp_leave_nothing_in_flight(self):
        # each thread evaluates its own copy of fib against one TCP store;
        # no generator may strand another program's demand
        store = DemandStore()
        srv = serve_store(store)
        address = f"127.0.0.1:{srv.port}"
        copies = [replace(FIB, program_id=f"fib{i}") for i in range(4)]
        try:
            self.run_threads(address, copies)
            s = store.stats()
            assert (s.in_process, s.pending, s.computed) == (0, 0, 4 * 197)
            client = connect_store(address)
            try:
                for geer in copies:
                    ev = Evaluator(geer, client)
                    for n in self.QUERIES:
                        ev.eval_demand("fib", ctx(d=n))
                    assert ev.computation_counter() == 0
            finally:
                client.close()
        finally:
            srv.stop()
            store.close()

    def test_generators_sharing_a_program_agree(self):
        # both threads compute and fulfil the same demands; the store keeps
        # one result per demand and accepts the duplicates as identical
        store = DemandStore()
        srv = serve_store(store)
        try:
            self.run_threads(f"127.0.0.1:{srv.port}", [FIB, FIB])
            s = store.stats()
            assert (s.in_process, s.pending, s.computed) == (0, 0, 197)
        finally:
            srv.stop()
            store.close()


class TestProcedural:
    def make(self, src, registry):
        geer = compile_source(f"x where x = {src}; end", "p")
        store = DemandStore()
        w = Worker(WorkerConfig(worker_id="w0"), store, registry)
        w.start()
        ev = Evaluator(geer, store, EvalConfig(proc_timeout_ms=10000))
        return ev, w

    def test_call_round_trip(self):
        ev, w = self.make("call add2(19, 23)", build_demo_registry())
        try:
            assert ev.eval_demand("x", EMPTY_CONTEXT) == 42
        finally:
            w.stop()

    def test_call_args_are_educted(self):
        geer = compile_source(
            "z where z = call mul2(x, x + 1); x = 6; end", "p"
        )
        store = DemandStore()
        w = Worker(WorkerConfig(worker_id="w0"), store, build_demo_registry())
        w.start()
        try:
            ev = Evaluator(geer, store, EvalConfig(proc_timeout_ms=10000))
            assert ev.eval_demand("z", EMPTY_CONTEXT) == 42
        finally:
            w.stop()

    def test_procedure_fault_propagates(self):
        reg = ProcedureRegistry()
        reg.register("boom", 0, lambda: 1 // 0)
        ev, w = self.make("call boom()", reg)
        try:
            with pytest.raises(ProcedureFault):
                ev.eval_demand("x", EMPTY_CONTEXT)
        finally:
            w.stop()

    def test_unencodable_float_array_is_fault(self):
        reg = ProcedureRegistry()
        reg.register("huge", 0, lambda: (10**400,))
        ev, w = self.make("call huge()", reg)
        try:
            with pytest.raises(ProcedureFault):
                ev.eval_demand("x", EMPTY_CONTEXT)
            assert w.alive
        finally:
            w.stop()

    def test_proc_timeout_without_worker(self):
        geer = compile_source("x where x = call add2(1, 2); end", "p")
        ev = Evaluator(geer, DemandStore(), EvalConfig(proc_timeout_ms=50))
        with pytest.raises(ProcTimeout):
            ev.eval_demand("x", EMPTY_CONTEXT)


class DepositLog:
    """A store that records the signature of every deposit."""

    def __init__(self, store):
        self.store = store
        self.signatures = []

    def __getattr__(self, name):
        return getattr(self.store, name)

    def deposit(self, d):
        self.signatures.append(d.signature)
        return self.store.deposit(d)

    def deposit_many(self, demands):
        return [self.deposit(d) for d in demands]


class TestProceduralMemo:
    """One evaluation deposits each distinct call once, and calls are told
    apart by the bytes of their arguments, not by Python equality."""

    def evaluate(self, src):
        reg = build_demo_registry()
        reg.register("kind", 1, lambda v: {int: 1, float: 2, bool: 3}[type(v)])
        reg.register("sign", 1, lambda v: math.copysign(1.0, v))
        store = DepositLog(DemandStore())
        w = Worker(WorkerConfig(worker_id="w0"), store.store, reg).start()
        try:
            ev = Evaluator(compile_source(f"x where x = {src}; end", "p"), store, EvalConfig(proc_timeout_ms=10000))
            value = ev.eval_demand("x", EMPTY_CONTEXT)
        finally:
            w.stop()
            store.close()
        return value, [s.args for s in store.signatures if s.kind is DemandKind.PROCEDURAL]

    def test_same_call_twice_deposits_once(self):
        assert self.evaluate("call add2(19, 23) + call add2(19, 23)") == (84, [(19, 23)])

    def test_zero_and_negative_zero_are_two_calls(self):
        value, calls = self.evaluate("call sign(0.0) - call sign(-0.0)")
        assert value == 2.0
        assert len(calls) == 2

    def test_int_float_and_bool_are_three_calls(self):
        value, calls = self.evaluate("call kind(1) * 100 + call kind(1.0) * 10 + call kind(1 == 1)")
        assert value == 123
        assert len(calls) == 3


def fault_registry():
    reg = ProcedureRegistry()
    reg.register("boom", 0, lambda: 1 // 0)
    reg.register("liar", 0, lambda: "!ERR:not really an error")
    return reg


@pytest.fixture(params=["direct", "tcp"])
def connect(request):
    """``connect(store)`` gives a generator's or worker's view of ``store``."""
    servers, clients = [], []

    def make(store):
        if request.param == "direct":
            return store
        servers.append(serve_store(store))
        clients.append(connect_store(f"127.0.0.1:{servers[-1].port}"))
        return clients[-1]

    yield make
    for c in clients:
        c.close()
    for srv in servers:
        srv.stop()


class TestFaults:
    """A procedure's failure is a Fault in the store, never an in-band Str."""

    # the pipeline's program id: Evaluator and pipeline._call make the same demands
    CALLS = compile_source("lie where lie = call liar(); boom = call boom(); end", P.PROGRAM_ID)

    def test_error_prefixed_str_is_a_result(self, connect):
        store = DemandStore()
        w = Worker(WorkerConfig(worker_id="w0"), connect(store), fault_registry()).start()
        try:
            gen = connect(store)
            assert Evaluator(self.CALLS, gen).eval_demand("lie", EMPTY_CONTEXT) == "!ERR:not really an error"
            assert P._call(gen, "liar", (), 10000) == "!ERR:not really an error"
        finally:
            w.stop()
            store.close()

    def test_fault_reaches_every_generator(self, connect):
        store = DemandStore()
        w = Worker(WorkerConfig(worker_id="w0"), connect(store), fault_registry()).start()
        try:
            with pytest.raises(ProcedureFault) as first:
                Evaluator(self.CALLS, connect(store)).eval_demand("boom", EMPTY_CONTEXT)
        finally:
            w.stop()
        assert str(first.value).startswith("ProcedureFault: boom: ZeroDivisionError")
        # no worker runs now: a second generator's deposit hits the stored fault
        with pytest.raises(ProcedureFault) as second:
            Evaluator(self.CALLS, connect(store)).eval_demand("boom", EMPTY_CONTEXT)
        assert str(second.value) == str(first.value)
        with pytest.raises(ProcedureFault) as third:
            P._call(connect(store), "boom", (), 10000)
        assert str(third.value) == str(first.value)
        store.close()

    def test_fault_survives_reopen(self, tmp_path, connect):
        log = str(tmp_path / "store.log")
        store = DemandStore(log_path=log)
        w = Worker(WorkerConfig(worker_id="w0"), connect(store), fault_registry()).start()
        try:
            with pytest.raises(ProcedureFault) as first:
                Evaluator(self.CALLS, connect(store)).eval_demand("boom", EMPTY_CONTEXT)
        finally:
            w.stop()
            store.close()
        reopened = DemandStore(log_path=log)
        try:
            with pytest.raises(ProcedureFault) as again:
                Evaluator(self.CALLS, connect(reopened)).eval_demand("boom", EMPTY_CONTEXT)
            assert str(again.value) == str(first.value)
        finally:
            reopened.close()


class TestReference:
    CALLS = [
        ("x where x = call add2(19, 23); end", {}),
        ("z where z = call mul2(x, x + 1); x = 6; end", {}),
        ("y where dimension d; y = call neg(call add2(#.d, 1)); end", {"d": 4}),
        ("s where dimension d; s = if #.d <= 0 then 0 else call add2(#.d, s @.d (#.d - 1)); end", {"d": 5}),
    ]

    @pytest.mark.parametrize("src, tags", CALLS)
    def test_reference_matches_engine_on_calls(self, src, tags):
        geer = compile_source(src, "calls")
        store = DemandStore()
        w = Worker(WorkerConfig(worker_id="w0"), store, build_demo_registry()).start()
        try:
            engine = Evaluator(geer, store, EvalConfig(proc_timeout_ms=10000))
            name = geer.root_expr.name
            oracle = reference_eval(geer, name, ctx(**tags), build_demo_registry())
            assert engine.eval_demand(name, ctx(**tags)) == oracle
        finally:
            w.stop()
            store.close()

    def test_calls_need_a_registry_or_a_store(self):
        geer = compile_source(self.CALLS[0][0], "calls")
        with pytest.raises(StoreUnreachable):
            reference_eval(geer, "x", EMPTY_CONTEXT)
        with pytest.raises(StoreUnreachable):
            Evaluator(geer).eval_demand("x", EMPTY_CONTEXT)

    def test_reference_matches_engine_on_fact(self):
        for d in range(8):
            assert reference_eval(FACT, "fact", ctx(d=d)) == ev_for(FACT).eval_demand(
                "fact", ctx(d=d)
            )

    def test_reference_raises_same_errors(self):
        cases = [
            ("x where x = 1 / 0; end", "x", DivisionByZero),
            ("x where x = x; end", "x", CircularDemand),
            ("x where x = if 1 then 2 else 3; end", "x", TypeMismatch),
            ("x where dimension d; x = #.d @.d 1.5; end", "x", TypeMismatch),
            ("x where x = 1; end", "y", UndefinedIdentifier),
        ]
        for src, root, error in cases:
            geer = compile_source(src, "p")
            with pytest.raises(error):
                reference_eval(geer, root, EMPTY_CONTEXT)
            with pytest.raises(error):
                ev_for(geer).eval_demand(root, EMPTY_CONTEXT)

    def test_random_program_equivalence_sample(self):
        import helpers

        rng = random.Random(99)
        mismatches = []
        for i in range(120):
            geer = helpers.gen_program(rng, i)
            for _ in range(2):
                c = helpers.gen_context(rng, geer)
                a = helpers.outcome_engine(geer, "x", c, 256)
                b = helpers.outcome_oracle(geer, "x", c, 256)
                if not helpers.outcomes_match(a, b):
                    mismatches.append((geer.program_id, c, a, b))
        assert mismatches == []


def exact(outcome):
    """An outcome with its value's type and repr: 1 and 1.0, or 0.0 and -0.0, differ."""
    kind, value = outcome
    return (kind, value) if kind == "error" else (kind, type(value).__name__, repr(value))


def agreed(geer, name, context, max_depth=10000):
    """The oracle's outcome, after checking that the engine gives it with no store and on a ``DemandStore``."""
    oracle = exact(helpers.outcome_oracle(geer, name, context, max_depth))
    for store in (False, True):
        assert exact(helpers.outcome_engine(geer, name, context, max_depth, store)) == oracle, store
    return oracle


INT_MIN = "(-9223372036854775808)"


class Seven(enum.IntEnum):
    """An Int that is not a plain ``int``: ``apply_binop`` takes its typed path."""

    SEVEN = 7


def wrap(n):
    return (n + 2**63) % 2**64 - 2**63


class TestCompiledBodies:
    """Each identifier body is compiled once into one generator function: it
    must give the oracle's value or error class, with no store and on one."""

    @pytest.mark.parametrize("store", [False, True], ids=["none", "direct"])
    def test_random_programs_match_the_oracle(self, store):
        rng = random.Random(31)
        seen, mismatches = set(), []
        for i in range(300):
            geer = helpers.gen_program(rng, i)
            for _ in range(2):
                c = helpers.gen_context(rng, geer)
                a = helpers.outcome_engine(geer, "x", c, 256, store)
                b = helpers.outcome_oracle(geer, "x", c, 256)
                seen.add(a[1] if a[0] == "error" else a[0])
                if not helpers.outcomes_match(a, b):
                    mismatches.append((geer.program_id, c, a, b))
        assert mismatches == []
        assert {"value", "TypeMismatch", "DivisionByZero", "CircularDemand"} <= seen

    @pytest.mark.parametrize(
        "expr, tags, outcome",
        [
            # Ints wrap at 64 bits
            ("9223372036854775807 + 1", {}, INT64_MIN),
            (f"{INT_MIN} - 1", {}, INT64_MAX),
            (f"{INT_MIN} * -1", {}, INT64_MIN),
            (f"{INT_MIN} / -1", {}, INT64_MIN),
            (f"{INT_MIN} % -1", {}, 0),
            ("#.d + 1", {"d": INT64_MAX}, INT64_MIN),
            ("9223372036854775807 * 2", {}, -2),
            # Int, Float and Bool mixed
            ("1 + 0.5", {}, 1.5),
            ("#.d * 0.5", {"d": 3}, 1.5),
            ("7 / 2.0", {}, 3.5),
            ("-7 % 2.0", {}, -1.0),
            ("0.0 * -1", {}, -0.0),
            ("1 == 1.0", {}, True),
            ("2 < 2.5", {}, True),
            ("(1 < 2) == (2 < 3)", {}, True),
            ("(1 < 2) != (2 < 1)", {}, True),
            ("(1 < 2) && (2 < 1) || (1 < 2)", {}, True),
            ("(1 < 2) == 1", {}, TypeMismatch),
            ("(1 < 2) + 1", {}, TypeMismatch),
            ("1.5 < (1 < 2)", {}, TypeMismatch),
            ("(1 < 2) && 1", {}, TypeMismatch),
            ("(1 < 2) || 1 / 0 == 1", {}, DivisionByZero),
            # division and modulo by zero
            ("1 / 0", {}, DivisionByZero),
            ("1 % 0", {}, DivisionByZero),
            ("1.0 / 0", {}, DivisionByZero),
            ("1 % 0.0", {}, DivisionByZero),
            ("1 / -0.0", {}, DivisionByZero),
            ("#.d / #.e", {"d": 1, "e": 0}, DivisionByZero),
            # an `if` takes a Bool, and evaluates only the branch it takes
            ("if 1 then 2 else 3", {}, TypeMismatch),
            ("if #.d then 2 else 3", {"d": 1}, TypeMismatch),
            ("if 1.5 then 2 else 3", {}, TypeMismatch),
            ("if 1 < 2 then 1 else 1 / 0", {}, 1),
            ("if 1 > 2 then 1 / 0 else 2", {}, 2),
            # a tag is an Int
            ("#.d @.d 1.5", {}, TypeMismatch),
            ("#.d @.d (1 < 2)", {}, TypeMismatch),
            (f"#.d @.d {INT_MIN}", {}, INT64_MIN),
            ("(#.d + #.e) @.e (#.e + 1)", {"d": 2, "e": 3}, 6),
        ],
    )
    def test_edge_cases_match_the_oracle(self, expr, tags, outcome):
        geer = compile_source(f"x where dimension d, e; x = {expr}; end", "edge")
        want = ("error", outcome.__name__) if isinstance(outcome, type) else exact(("value", outcome))
        assert agreed(geer, "x", ctx(**tags)) == want

    @pytest.mark.parametrize(
        "body, outcome",
        [
            (lang.If(lang.Literal(True), lang.Literal(1), "not a node"), ("value", "int", "1")),
            (lang.If(lang.Literal(False), lang.Literal(1), "not a node"), ("error", "TypeMismatch")),
            (lang.Binary("==", lang.Literal(math.nan), lang.Literal(math.nan)), ("value", "bool", "False")),
            (lang.Binary("<", lang.Literal("1"), lang.Literal(1)), ("error", "TypeMismatch")),
            (lang.Binary("*", lang.Literal(Seven.SEVEN), lang.Literal(INT64_MAX)), ("value", "int", str(wrap(7 * INT64_MAX)))),
            (lang.Binary("^", lang.Literal(1), lang.Literal(2)), ("error", "TypeMismatch")),
            (lang.Binary("+", lang.Ident("it's \\ \"x\""), lang.HashDim("d')")), ("value", "int", "2")),
        ],
        ids=["junk-not-taken", "junk-taken", "nan", "str", "int-subclass", "unknown-operator", "quoted-names"],
    )
    def test_hand_built_bodies_match_the_oracle(self, body, outcome):
        # literals with no literal syntax, names that need quoting, and a node of no known kind
        dictionary = {"x": body, "it's \\ \"x\"": lang.Literal(2)}
        assert agreed(lang.Geer("hand", frozenset({"d"}), dictionary, lang.Ident("x"), b""), "x", ctx(d=5)) == outcome

    @pytest.mark.parametrize("store", [False, True], ids=["none", "direct"])
    def test_a_cycle_reads_as_it_always_has(self, store):
        src = "x where dimension d, e; x = if #.d > 0 then 1 + (x @.d (#.d - 1)) else y @.e 7; y = x @.d (0 - 0); end"
        ev = Evaluator(compile_source(src, "p"), DemandStore() if store else None)
        with pytest.raises(CircularDemand) as cycle:
            ev.eval_demand("x", ctx(d=2, e=-3))
        assert str(cycle.value) == (
            "x@{d=2,e=-3} -> x@{d=1,e=-3} -> x@{d=0,e=-3} -> y@{d=0,e=7} -> x@{d=0,e=7} -> y@{d=0,e=7}"
        )

    def test_calls_in_a_body_match_the_oracle(self):
        src = (
            "x where dimension d; "
            "x = if #.d <= 0 then call add2(#.d, 1) else call mul2(x @.d (#.d - 1), call add2(#.d, #.d)); end"
        )
        geer = compile_source(src, "calls")
        oracle = reference_eval(geer, "x", ctx(d=3), build_demo_registry())
        store = DemandStore()
        w = Worker(WorkerConfig(worker_id="w0"), store, build_demo_registry()).start()
        try:
            assert Evaluator(geer, store, EvalConfig(proc_timeout_ms=10000)).eval_demand("x", ctx(d=3)) == oracle == 48
        finally:
            w.stop()
            store.close()
        with pytest.raises(StoreUnreachable):
            Evaluator(geer).eval_demand("x", ctx(d=3))

    @staticmethod
    def deepest(builds, hi):
        """The largest ``n`` below ``hi`` for which ``builds(n)`` gives a program, not ``None``."""
        lo = 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if builds(mid) is None:
                hi = mid - 1
            else:
                lo = mid
        return lo

    @staticmethod
    def check_nest(geer, n):
        """``geer`` nests ``n`` ifs, which give ``i`` at ``d = i`` and -1 past the last."""
        for d in (0, 1, n // 2, n - 1, n):
            assert agreed(geer, "x", ctx(d=d)) == exact(("value", d if d < n else -1)), d

    @staticmethod
    def nest(n):
        """``n`` nested ifs, each in the then branch or the else branch of the one around it, in turn."""
        node = lang.Literal(-1)
        for i in reversed(range(n)):
            hit = lang.Literal(i)
            if i % 2:
                node = lang.If(lang.Binary("!=", lang.HashDim("d"), lang.Literal(i)), node, hit)
            else:
                node = lang.If(lang.Binary("==", lang.HashDim("d"), lang.Literal(i)), hit, node)
        return node

    def test_an_if_past_the_indentation_limit_gets_a_function_of_its_own(self):
        self.check_nest(lang.Geer("nest", frozenset({"d"}), {"x": self.nest(45)}, lang.Ident("x"), b""), 45)

    def test_the_deepest_if_that_compiles(self):
        def builds(n):
            try:
                return compile_source(f"x where dimension d; x = {lang.pretty(self.nest(n))}; end", "deep")
            except RecursionError:
                return None

        n = self.deepest(builds, 1000)
        assert n > 40  # past the 38 nested ifs that one generated function holds
        self.check_nest(builds(n), n)

    def test_the_deepest_if_that_decodes(self):
        base = compile_source("x where dimension d; x = 0; end", "deep")

        def builds(n):
            try:
                return wire.decode_geer(wire.encode_geer(replace(base, dictionary={"x": self.nest(n)})))
            except (RecursionError, lang.MalformedGeer):
                return None

        n = self.deepest(builds, sys.getrecursionlimit())
        assert n > 500
        self.check_nest(builds(n), n)

    def test_a_copy_of_a_program_compiles_nothing(self, monkeypatch):
        compiled = []
        real = evaluator._compile_body
        monkeypatch.setattr(evaluator, "_compile_body", lambda name, node: compiled.append(name) or real(name, node))
        src = "fib where dimension d; fib = if #.d <= 1 then #.d else (fib @.d (#.d - 1)) + (fib @.d (#.d - 2)); end"
        geer, store = compile_source(src, "once"), DemandStore()
        first = Evaluator(geer, store)
        assert first.eval_demand("fib", ctx(d=20)) == 6765 and compiled == ["fib"]
        copy = Evaluator(replace(geer, program_id="once-more"), store)  # a fresh program id: every demand computed
        assert copy.eval_demand("fib", ctx(d=20)) == 6765 and copy.computation_counter() == 21
        warm = Evaluator(compile_source(src, "once"), store)  # a new Geer, but every demand a warehouse hit
        assert warm.eval_demand("fib", ctx(d=20)) == 6765 and warm.computation_counter() == 0
        assert compiled == ["fib"]
        other = Evaluator(replace(geer, dictionary={"fib": lang.Literal(7)}))
        assert other.eval_demand("fib", ctx(d=20)) == 7 and compiled == ["fib", "fib"]
        store.close()
