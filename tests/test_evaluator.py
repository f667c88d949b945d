"""Eductive engine vs. the recursive reference interpreter."""
import random
import threading
from dataclasses import replace

import pytest

from eduction import pipeline as P
from eduction.evaluator import (
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
from eduction.model import EMPTY_CONTEXT, make_context
from eduction.store import DemandStore
from eduction.transport import connect_store, serve_store
from eduction.worker import ProcedureRegistry, Worker, WorkerConfig, build_demo_registry

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
        with pytest.raises(CircularDemand):
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

    def test_warehouse_disabled_blocks_sharing(self):
        store = DemandStore()
        cfg = EvalConfig(warehouse_enabled=False)
        first = Evaluator(FACT, store, cfg)
        first.eval_demand("fact", ctx(d=10))
        second = Evaluator(FACT, store, cfg)
        second.eval_demand("fact", ctx(d=10))
        # nothing flowed through the store: the second run redoes all 11
        assert second.computation_counter() == 11
        store.close()

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
    def test_reference_matches_engine_on_fact(self):
        for d in range(8):
            assert reference_eval(FACT, "fact", ctx(d=d)) == ev_for(FACT).eval_demand(
                "fact", ctx(d=d)
            )

    def test_reference_raises_same_errors(self):
        geer = compile_source("x where x = 1 / 0; end", "p")
        with pytest.raises(DivisionByZero):
            reference_eval(geer, "x", EMPTY_CONTEXT)
        geer = compile_source("x where x = x; end", "p")
        with pytest.raises(CircularDemand):
            reference_eval(geer, "x", EMPTY_CONTEXT)

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
