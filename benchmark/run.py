"""The eduction benchmark: three workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py --workload eval-local --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for the why of each), each a
fixed number of rounds of a cold block and warm passes over it:

    eval-local    Evaluator on an in-process DemandStore
    eval-tcp      the same queries over TCP to a logged DST in a node process,
                  which is killed and restarted on its log three times
    pipeline-tcp  distributed train and classify against a DST and a pipeline
                  DWT in a node process, then classify again from the warehouse

Each workload drives one closed-loop generator: one thread, one store
connection.  With ``--trace 0`` the last line of standard output is a JSON
object with every end-to-end metric; with ``--trace 1`` the run measures
half its time untraced and half traced, and prints every per-layer metric
(0 for a phase the workload does not run) plus the traced/untraced ratio of
the end-to-end figures.
Spans of a traced run go to ``.bench_out/trace-<workload>-<seed>.json``.

Every output is checked against answers computed apart from the program
(``checks.py``); ``correct`` is false if any check fails.  Exit codes: 0 a
result was printed, 2 the program under test is missing or the arguments
are wrong.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("eval-local", "eval-tcp", "pipeline-tcp")

# Every workload reports every end-to-end metric; README.md says what a
# "cold query" and a "warm query" are on each workload.
END_TO_END = {
    "setup_s": "s",
    "cold_demands_per_s": "1/s",
    "cold_query_p50_ms": "ms",
    "warm_queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# per-layer metrics: name without phase prefix -> unit
LAYER_UNITS = {
    "lang.compile_ms": "ms",
    "model.key_us": "us",
    "evaluator.computations_per_query": "count",
    "evaluator.self_us_per_op": "us",
    "store.deposit_us": "us",
    "store.claim_us": "us",
    "store.fulfill_us": "us",
    "store.calls_per_op": "count",
    "store.hit_ratio": "ratio",
    "store.log_bytes_per_op": "B",
    "store.replay_s": "s",
    "store.await_wait_ms": "ms",
    "wire.encode_us_per_op": "us",
    "wire.decode_us_per_op": "us",
    "wire.bytes_per_op": "B",
    "transport.requests_per_op": "count",
    "transport.rtt_us": "us",
    "transport.dispatch_us": "us",
    "worker.claims_per_demand": "count",
    "worker.queue_wait_ms": "ms",
    "pipeline.preprocess_ms": "ms",
    "pipeline.fe_ms": "ms",
    "pipeline.train_ms": "ms",
    "pipeline.classify_ms": "ms",
    "pipeline.model_bytes_per_op": "B",
}

_EVAL_COLD = ("model.key_us", "evaluator.computations_per_query", "evaluator.self_us_per_op",
              "store.deposit_us", "store.claim_us", "store.fulfill_us", "store.calls_per_op",
              "wire.encode_us_per_op", "wire.decode_us_per_op")
_TCP = ("wire.bytes_per_op", "transport.requests_per_op", "transport.rtt_us", "transport.dispatch_us")
_WARM = ("store.hit_ratio", "store.calls_per_op", "store.deposit_us", "wire.encode_us_per_op",
         "wire.decode_us_per_op")
_PIPE = ("worker.claims_per_demand", "worker.queue_wait_ms", "store.await_wait_ms", "store.calls_per_op",
         "pipeline.preprocess_ms", "pipeline.fe_ms", "pipeline.model_bytes_per_op")

# Every workload reports every per-layer metric: those of a phase that the
# workload does not run, or of a layer it does not reach, read 0.
PER_LAYER = (
    ("setup", ("lang.compile_ms",)),
    ("cold", _EVAL_COLD + _TCP + ("store.log_bytes_per_op",)),
    ("restart", ("store.replay_s",)),
    ("warm", _WARM + _TCP),
    ("train", _PIPE + ("pipeline.train_ms",)),
    ("classify", _PIPE + ("pipeline.classify_ms",)),
)


def per_layer_names() -> list:
    names = [(f"{phase}.{m}", LAYER_UNITS[m]) for phase, ms in PER_LAYER for m in ms]
    # peak RSS is left out: both halves of a traced run share the generator process
    names += [(f"tracing.{m}", "ratio") for m in END_TO_END if m != "peak_rss_mb"]
    return names


@dataclass(frozen=True)
class Sizes:
    fib_n: int = 30  # fib@d=30: 31 demands
    lat: tuple = (5, 5)  # lat@(i=5, j=5): 35 demands
    pool: int = 64  # distinct programs compiled per setup; a multiple of 4
    # Rounds per budget second.  A run makes a fixed number of rounds, so its
    # store, and so its peak RSS, does not grow with the speed of the host.
    rounds_per_s: dict = field(default_factory=lambda: {"eval-local": 1.2, "eval-tcp": 0.55, "pipeline-tcp": 0.43})
    min_cold: int = 100  # cold queries per run, at least
    # warm passes over each round's cold block (pipeline-tcp: over its test set)
    warm_passes: dict = field(default_factory=lambda: {"eval-local": 330, "eval-tcp": 60, "pipeline-tcp": 5})
    # setups per run, in two bursts (_setups): each takes about 15 ms on eval-local and
    # 150 ms on the TCP workloads, where one node start varies by +-25% within a run
    setups: dict = field(default_factory=lambda: {"eval-local": 160, "eval-tcp": 24, "pipeline-tcp": 24})
    restarts: int = 3
    subjects: int = 4
    train_seeds: int = 5
    test_seeds: int = 40
    length: int = 512


TOY = Sizes(fib_n=8, lat=(3, 3), pool=8, rounds_per_s={"eval-local": 1, "eval-tcp": 1, "pipeline-tcp": 1}, min_cold=8, warm_passes={"eval-local": 2, "eval-tcp": 2, "pipeline-tcp": 2},
            setups={"eval-local": 2, "eval-tcp": 2, "pipeline-tcp": 2},
            restarts=2, subjects=2, train_seeds=2, test_seeds=2, length=64)

FIB_SRC = (
    "fib where dimension d; "
    "fib = if #.d <= 1 then (if #.d == 0 then {a} else {b}) "
    "else (fib @.d (#.d - 1)) + (fib @.d (#.d - 2)); end"
)
LAT_SRC = (
    "lat where dimension i, j; "
    "lat = if #.i == 0 || #.j == 0 then {c} "
    "else (lat @.i (#.i - 1)) + (lat @.j (#.j - 1)); end"
)


class BenchError(Exception):
    pass


# --- node processes ----------------------------------------------------------------


class Node:
    """A node process from node.py, talked to over its stdin/stdout."""

    START_TIMEOUT_S = 60.0

    def __init__(self, run: "Run", tiers: str, log: Optional[str] = None, phase: str = "start"):
        cmd = [sys.executable, os.path.join(HERE, "node.py"), "--tiers", tiers]
        if log:
            cmd += ["--log", log]
        if run.tracer is not None:
            cmd += ["--trace", "--phase", phase]
        self.run = run
        self._buf = b""
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
        run.nodes.append(self)
        self.address = self._read(self.START_TIMEOUT_S)["address"]

    def _read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise BenchError("node process did not answer in time")
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                raise BenchError(f"node process exited with {self.proc.wait()}")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def command(self, line: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write((line + "\n").encode())
        return self._read(timeout)

    def finish(self, kill: bool):
        """Record peak RSS and spans, then SIGKILL the node or stop it cleanly."""
        self.run.rss_kb.append(self.command("rss")["rss_kb"])
        if self.run.tracer is not None:
            path = os.path.join(self.run.tmp, f"node-{len(self.run.node_dumps)}.json")
            self.command(f"dump {path}")
            self.run.node_dumps.append(path)
        if kill:
            self.proc.kill()
        else:
            self.command("stop")
            self.proc.stdin.close()
        self.proc.wait(timeout=60)

    def reap(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout):
            if not f.closed:
                f.close()


# --- one measured run ------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    budget: float
    sizes: Sizes
    tracer: object = None
    tmp: str = ""
    nodes: list = field(default_factory=list)
    rss_kb: list = field(default_factory=list)
    node_dumps: list = field(default_factory=list)
    live: Optional[Node] = None
    metrics: dict = field(default_factory=dict)
    ops: dict = field(default_factory=dict)  # phase -> ops counted by per-layer metrics
    extra: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    queries: list = field(default_factory=list)
    contexts: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)  # span dumps of the node processes

    def phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name
            if self.live is not None:
                self.live.command(f"phase {name}")

    def check(self, problems: list):
        self.problems.extend(problems)


@dataclass(frozen=True)
class Query:
    kind: str  # "fib" or "lat"
    source: str
    expected: int
    demands: int


def make_queries(seed: int, sizes: Sizes) -> list:
    """The query pool: blocks of three fib-like and one lattice query, in seeded order."""
    rng = random.Random(seed)
    span = 1 << 40
    pool = []
    for _ in range(sizes.pool // 4):
        kinds = ["fib", "fib", "fib", "lat"]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "fib":
                a, b = rng.randrange(-span, span), rng.randrange(-span, span)
                pool.append(Query("fib", FIB_SRC.format(a=a, b=b), checks.fib_like(a, b, sizes.fib_n),
                                  checks.fib_demands(sizes.fib_n)))
            else:
                c = rng.randrange(-span, span)
                i, j = sizes.lat
                pool.append(Query("lat", LAT_SRC.format(c=c), checks.lattice(c, i, j),
                                  checks.lattice_demands(i, j)))
    return pool


def _setups(run: Run, setup_once, keep: bool = False):
    """Set up half of ``sizes.setups`` times, recording each time; keep the last state if ``keep``.

    Every run sets up in two bursts, one before and one after its measured
    phases, and reports the median of all the times as ``setup_s``: the
    host's speed drifts over seconds, and one burst would sample one stretch.
    """
    run.phase("setup")
    state = None
    for _ in range(run.sizes.setups[run.workload] // 2):
        if state is not None:
            state.teardown()
        t0 = time.perf_counter()
        state = setup_once(len(run.setup_times))
        run.setup_times.append(time.perf_counter() - t0)
    if keep:
        return state
    state.teardown()
    return None


class EvalState:
    def __init__(self, run: Run, tcp: bool, index: int):
        from eduction import DemandStore, connect_store, lang

        self.run = run
        self.node = None
        if tcp:
            self.log = os.path.join(run.tmp, f"store-{index}.log")
            self.node = Node(run, "dst", self.log, phase="setup")
            self.store = connect_store(self.node.address)
            self.store.stats()  # connect now, not on the first demand
            run.live = self.node
        else:
            self.store = DemandStore()
        self.geers = [lang.compile_source(q.source, f"pool{k}") for k, q in enumerate(run.queries)]

    def log_size(self) -> int:
        return os.path.getsize(self.log) if self.node is not None else 0

    def teardown(self):
        if self.node is not None:
            self.store.close()
            self.node.finish(kill=True)
            self.run.live = None


def _ctx(kind: str, sizes: Sizes):
    from eduction import make_context

    if kind == "fib":
        return make_context([("d", sizes.fib_n)])
    return make_context([("i", sizes.lat[0]), ("j", sizes.lat[1])])


def _ask(run: Run, state, k: int, phase: str, warm: bool):
    """One query from a fresh Evaluator; returns (seconds, computations) or None on failure."""
    from eduction import EductionError, Evaluator

    q = run.queries[k % len(run.queries)]
    ev = Evaluator(replace(state.geers[k % len(run.queries)], program_id=f"q{k}-{q.kind}"), state.store)
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        value = ev.eval_demand(q.kind, run.contexts[q.kind])
    except EductionError as e:
        run.failed += 1
        run.notes.append(f"{phase} query {k}: {type(e).__name__}: {e}")
        return None
    dt = time.perf_counter() - t0
    n = ev.computation_counter()
    run.check(checks.check_query(f"{phase} query {k}", value, q.expected, n, 0 if warm else q.demands))
    return dt, n


def _rounds(run: Run, least: int = 1) -> int:
    return max(least, round(run.sizes.rounds_per_s[run.workload] * run.budget))


def _eval_rounds(run: Run, state, restart=None):
    """Rounds of a cold block and warm passes over it.

    A cold block asks every pool program once under fresh program ids; the
    warm passes ask the block's queries again.  Cold and warm alternate so
    that both are measured across the whole run: the host's speed drifts in
    stretches of 10-20 s.  ``restart(i)`` runs after the round that passes
    the i-th of ``sizes.restarts`` evenly spaced points of the run.
    """
    s = run.sizes
    block = len(run.queries)
    n_rounds = _rounds(run, -(-s.min_cold // block))
    lat, computed, warm_done, warm_s = [], 0, 0, 0.0
    log_bytes = restarts = 0
    for done_rounds in range(1, n_rounds + 1):
        ks = range((done_rounds - 1) * block, done_rounds * block)
        run.phase("cold")
        log_before = state.log_size()
        for k in ks:
            got = _ask(run, state, k, "cold", warm=False)
            if got is not None:
                lat.append(got[0])
                computed += got[1]
        log_bytes += state.log_size() - log_before
        run.phase("warm")
        for _ in range(s.warm_passes[run.workload]):
            for k in ks:
                got = _ask(run, state, k, "warm", warm=True)
                if got is not None:
                    warm_s += got[0]
                    warm_done += 1
        while restart is not None and restarts < s.restarts and (
            (restarts + 1) * n_rounds <= done_rounds * (s.restarts + 1)
        ):
            restart(restarts)
            restarts += 1
    if not lat or not warm_done:
        raise BenchError("every cold or every warm query failed")
    run.ops["cold"] = computed
    run.ops["warm"] = warm_done
    run.metrics["cold_demands_per_s"] = computed / math.fsum(lat)
    run.metrics["cold_query_p50_ms"] = statistics.median(lat) * 1e3
    run.metrics["warm_queries_per_s"] = warm_done / warm_s
    run.extra["computations_per_query"] = computed / len(lat)
    run.extra["log_bytes"] = log_bytes


def eval_local(run: Run):
    state = _setups(run, lambda i: EvalState(run, False, i), keep=True)
    _eval_rounds(run, state)
    run.check(checks.check_drained("end", state.store.stats()))
    _setups(run, lambda i: EvalState(run, False, i))


def eval_tcp(run: Run):
    from eduction import connect_store

    state = _setups(run, lambda i: EvalState(run, True, i), keep=True)
    recoveries = []

    def restart(r: int):
        run.phase("check")
        before = state.store.stats()
        run.check(checks.check_drained(f"before restart {r}", before))
        state.teardown()  # SIGKILL: the store gets no chance to close its log
        run.phase("restart")
        t1 = time.perf_counter()
        state.node = Node(run, "dst", state.log, phase="restart")
        state.store = connect_store(state.node.address)
        run.live = state.node
        got = _ask(run, state, 0, f"restart {r}", warm=True)
        recoveries.append(time.perf_counter() - t1)
        if got is None:
            raise BenchError("the first query after a restart failed")
        run.check(checks.check_restart(before, state.store.stats()))

    _eval_rounds(run, state, restart)
    run.ops["restart"] = len(recoveries)
    run.notes.append(f"recovery {statistics.median(recoveries):.4g} s, median of {len(recoveries)} restarts")
    run.phase("check")
    run.check(checks.check_drained("end", state.store.stats()))
    state.store.close()
    state.node.finish(kill=False)
    run.live = None
    _setups(run, lambda i: EvalState(run, True, i))


class PipelineState:
    def __init__(self, run: Run):
        from eduction import connect_store

        self.run = run
        self.node = Node(run, "dst,dwt")
        self.store = connect_store(self.node.address)
        self.store.stats()
        run.live = self.node

    def teardown(self):
        self.store.close()
        self.node.finish(kill=True)  # a clean stop waits about 0.5 s for the worker
        self.run.live = None


def pipeline_tcp(run: Run):
    """Rounds of train, classify and warm classify passes.

    A cold query is one round's train and classify: a fresh model trained on
    fresh samples, then fresh samples classified with it; its computations
    are the demands the DST computed in it.  A warm query is one sample of
    the round's test set classified again, answered from the warehouse.
    """
    from eduction import EductionError
    from eduction import pipeline as P

    state = _setups(run, lambda i: PipelineState(run), keep=True)
    s = run.sizes
    base = random.Random(run.seed).randrange(1 << 32)
    per_round = s.train_seeds + s.test_seeds
    round_s = []
    computed = trained = classified = hits = warm_done = 0
    train_s = classify_s = warm_s = 0.0

    def classify(test_set, model_id, label):
        """(results, seconds) of one distributed classify, or None when it raised."""
        run.attempted += len(test_set)
        t0 = time.perf_counter()
        try:
            results = P.run_pipeline_distributed(state.store, test_set, P.CLASSIFY_MODE, model_id=model_id)
        except EductionError as e:
            run.failed += len(test_set)
            run.notes.append(f"{label}: {type(e).__name__}: {e}")
            return None
        return results, time.perf_counter() - t0

    for r in range(_rounds(run)):
        seeds = range(base + r * per_round, base + (r + 1) * per_round)
        train_set, test_set = P.default_corpus(
            subjects=s.subjects, train_seeds=seeds[: s.train_seeds], test_seeds=seeds[s.train_seeds :], n=s.length
        )
        model_id = f"model-{run.seed}-{r}"
        run.phase("check")
        before = state.store.stats().computed

        run.phase("train")
        run.attempted += len(train_set)
        t0 = time.perf_counter()
        try:
            P.run_pipeline_distributed(state.store, train_set, P.TRAIN_MODE, model_id=model_id)
        except EductionError as e:
            run.failed += len(train_set)
            run.notes.append(f"train round {r}: {type(e).__name__}: {e}")
            continue
        t1 = time.perf_counter() - t0

        run.phase("classify")
        got = classify(test_set, model_id, f"classify round {r}")
        if got is None:
            continue
        results, t2 = got
        train_s += t1
        classify_s += t2
        round_s.append(t1 + t2)
        trained += len(train_set)
        classified += len(test_set)

        run.phase("check")
        n = state.store.stats().computed - before
        # a feature demand and a train or classify demand per sample
        run.check(checks.check_computations(f"round {r}", n, 2 * (len(train_set) + len(test_set))))
        computed += n
        cents = checks.centroids((label, checks.features(x.amplitudes, P.DEFAULT_WINDOWS)) for label, x in train_set)
        model = P.decode_training_set(state.store.get_resource(model_id))
        run.check(checks.check_model(f"model {model_id}", model.subjects, cents))
        expected = [checks.nearest(cents, checks.features(x.amplitudes, P.DEFAULT_WINDOWS)) for _, x in test_set]
        for (label, sample), rs, want in zip(test_set, results, expected):
            run.check(checks.check_result_set(f"classify {sample.id}", list(rs), want))
            hits += int(bool(rs) and rs[0][0] == label)

        before = state.store.stats().computed
        run.phase("warm")
        for _ in range(s.warm_passes[run.workload]):
            got = classify(test_set, model_id, f"warm classify round {r}")
            if got is None:
                continue
            warm_s += got[1]
            warm_done += len(test_set)
            for (_, sample), rs, want in zip(test_set, got[0], expected):
                run.check(checks.check_result_set(f"warm classify {sample.id}", list(rs), want))
        run.phase("check")
        run.check(checks.check_computations(f"warm round {r}", state.store.stats().computed - before, 0))
    if not round_s or not warm_done:
        raise BenchError("no round of the pipeline completed")
    run.ops["train"] = trained
    run.ops["classify"] = classified
    run.ops["warm"] = warm_done
    run.metrics["cold_demands_per_s"] = computed / math.fsum(round_s)
    run.metrics["cold_query_p50_ms"] = statistics.median(round_s) * 1e3
    run.metrics["warm_queries_per_s"] = warm_done / warm_s
    run.notes.append(
        f"train {trained / train_s:.4g} samples/s, classify {classified / classify_s:.4g} samples/s, "
        f"accuracy {hits}/{classified} over {len(round_s)} rounds"
    )
    run.check(checks.check_drained("end", state.store.stats()))
    state.teardown()
    _setups(run, lambda i: PipelineState(run))


WORKLOAD_FNS = {"eval-local": eval_local, "eval-tcp": eval_tcp, "pipeline-tcp": pipeline_tcp}


def measure(workload: str, seed: int, budget: float, sizes: Sizes, tracer=None) -> Run:
    run = Run(workload, seed, budget, sizes, tracer=tracer)
    os.makedirs(OUT, exist_ok=True)
    run.tmp = os.path.join(OUT, f"run-{os.getpid()}-{workload}-{'traced' if tracer else 'plain'}")
    shutil.rmtree(run.tmp, ignore_errors=True)
    os.makedirs(run.tmp)
    if workload.startswith("eval"):
        run.queries = make_queries(seed, sizes)
        run.contexts = {kind: _ctx(kind, sizes) for kind in ("fib", "lat")}
    try:
        WORKLOAD_FNS[workload](run)
        run.metrics["setup_s"] = statistics.median(run.setup_times)
        run.ops["setup"] = len(run.setup_times)
        if tracer is not None:
            run.traces = [_load(p) for p in run.node_dumps]
    finally:
        for node in run.nodes:
            node.reap()
        shutil.rmtree(run.tmp, ignore_errors=True)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.metrics["peak_rss_mb"] = max([own] + run.rss_kb) / 1024.0
    return run


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# --- per-layer metrics from spans ------------------------------------------------------


def layer_metrics(run: Run, gen_trace: dict) -> dict:
    import tracing

    totals = tracing.merge_totals(gen_trace["totals"], *(t["totals"] for t in run.traces))
    events = [tuple(e) for t in [gen_trace] + run.traces for e in t["events"]]
    out = {}
    for phase, names in PER_LAYER:
        if phase not in run.ops:
            out.update((f"{phase}.{name}", 0.0) for name in names)
            continue
        agg = totals.get(phase, {})
        ops = run.ops[phase]

        def row(name):  # count, total ns, self ns, summed note
            return agg.get(name, (0, 0, 0, 0))

        def count(name):
            return row(name)[0]

        def total_ns(name):
            return row(name)[1]

        def mean_ns(name):
            return total_ns(name) / count(name) if count(name) else 0.0

        store_ops = sum(count(f"store.{op}") for op in tracing.STORE_OPS if op != "stats")
        values = {
            "lang.compile_ms": total_ns("lang.compile") / run.ops["setup"] / 1e6,
            "model.key_us": mean_ns("model.key") / 1e3,
            "evaluator.computations_per_query": run.extra.get("computations_per_query", 0.0),
            "evaluator.self_us_per_op": row("evaluator.eval")[2] / ops / 1e3,
            "store.deposit_us": mean_ns("store.deposit") / 1e3,
            "store.claim_us": mean_ns("store.claim") / 1e3,
            "store.fulfill_us": mean_ns("store.fulfill") / 1e3,
            "store.calls_per_op": store_ops / ops,
            "store.hit_ratio": row("store.deposit")[3] / max(count("store.deposit"), 1),
            "store.log_bytes_per_op": run.extra.get("log_bytes", 0) / ops,
            "store.replay_s": mean_ns("store.open") / 1e9,
            "store.await_wait_ms": mean_ns("client.await_result") / 1e6,
            "wire.encode_us_per_op": total_ns("wire.encode") / ops / 1e3,
            "wire.decode_us_per_op": total_ns("wire.decode") / ops / 1e3,
            "wire.bytes_per_op": row("transport.request")[3] / ops,
            "transport.requests_per_op": count("transport.request") / ops,
            "transport.rtt_us": mean_ns("transport.request") / 1e3,
            "transport.dispatch_us": mean_ns("transport.dispatch") / 1e3,
            "worker.claims_per_demand": count("client.claim") / max(count("worker.execute"), 1),
            "worker.queue_wait_ms": _queue_wait_ms(events, phase),
            "pipeline.preprocess_ms": mean_ns("pipeline.preprocess") / 1e6,
            "pipeline.fe_ms": mean_ns("proc.fe.window_energy") / 1e6,
            "pipeline.train_ms": mean_ns("proc.cls.train") / 1e6,
            "pipeline.classify_ms": mean_ns("proc.cls.classify") / 1e6,
            "pipeline.model_bytes_per_op": (row("client.get_resource")[3] + row("client.put_resource")[3]) / ops,
        }
        for name in names:
            out[f"{phase}.{name}"] = values[name]
    return out


def _queue_wait_ms(events, phase: str) -> float:
    """Median time from the generator's deposit to the worker's claim of each demand."""
    deposited = {}
    waits = []
    for ev_phase, kind, digest, t in events:
        if ev_phase == phase and kind == "deposit":
            deposited.setdefault(digest, t)
    for ev_phase, kind, digest, t in events:
        if ev_phase == phase and kind == "claim" and digest in deposited:
            waits.append((t - deposited[digest]) / 1e6)
    return statistics.median(waits) if waits else 0.0


# --- entry point ------------------------------------------------------------------------


def _pin():
    """Keep the generator and the node processes it starts on one CPU.

    Node processes inherit the affinity.  On this shared virtual machine a
    round trip between two CPUs waits for the idle one to be scheduled
    again, which made the TCP figures swing by up to 2x between runs; on
    one CPU they stayed within about 10% (README.md).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="eduction benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    if not os.path.isfile(os.path.join(SRC, "eduction", "__init__.py")):
        print(f"error: no eduction package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup in finally blocks

    sizes = TOY if args.toy else Sizes()
    _pin()
    if not args.trace:
        run = measure(args.workload, args.seed, args.seconds, sizes)
        metrics = {m: (run.metrics[m], unit) for m, unit in END_TO_END.items()}
        runs = [run]
    else:
        import tracing

        plain = measure(args.workload, args.seed, args.seconds / 2, sizes)
        tracer = tracing.Tracer().install()
        try:
            run = measure(args.workload, args.seed, args.seconds / 2, sizes, tracer)
        finally:
            tracer.uninstall()
        gen_trace = {"totals": tracer.totals(), "events": tracer.events, "spans": tracer.spans}
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"generator": gen_trace, "nodes": run.traces}, f)
        layer = layer_metrics(run, gen_trace)
        for name, _ in per_layer_names():
            if name.startswith("tracing."):
                m = name[len("tracing."):]
                layer[name] = run.metrics[m] / plain.metrics[m]
        metrics = {name: (layer[name], unit) for name, unit in per_layer_names()}
        runs = [plain, run]

    for r in runs:
        for note in r.notes[:10]:
            print(f"{r.workload}: {note}")
        for problem in r.problems[:10]:
            print(f"{r.workload}: CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not any(r.problems for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
