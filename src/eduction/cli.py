"""One executable: compile, eval, node, mgr, wh, pipeline.

Exit codes: 0 success, 1 usage, 2 domain error (compile/eval/pipeline and
friends), 3 transport error.  Results go to standard output, one
machine-readable line each (multi-sample commands print one line per
sample); diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import threading
from typing import Optional

from .errors import EductionError
from . import lang, wire
from .config import Config, resolve_config
from .evaluator import Evaluator
from .manager import (
    Heartbeater,
    LocalNodeAgent,
    Manager,
    connect_manager,
    serve_manager,
    serve_node_agent,
)
from .model import EMPTY_CONTEXT, DemandSignature, make_context
from .pipeline import (
    CLASSIFY_MODE,
    DEFAULT_MODEL_ID,
    TRAIN_MODE,
    decode_training_set,
    default_corpus,
    encode_training_set,
    run_pipeline_distributed,
    run_pipeline_local,
    top1_accuracy,
)
from .store import DemandStore
from .transport import TransportUnreachable, connect_store
from .worker import Worker, WorkerConfig, build_demo_registry
from .pipeline import build_pipeline_registry


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # exit code 1 for usage errors (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return "[" + ", ".join(repr(x) for x in v) + "]"


def _parse_ctx(text: Optional[str]):
    if not text:
        return EMPTY_CONTEXT
    pairs = []
    for part in text.split(","):
        dim, eq, tag = part.partition("=")
        if not eq:
            raise _UsageError(f"--ctx wants dim=tag pairs, got {part!r}")
        try:
            pairs.append((dim.strip(), int(tag)))
        except ValueError:
            raise _UsageError(f"context tag must be an integer, got {tag!r}") from None
    return make_context(pairs)


# --- compile -------------------------------------------------------------------


def _cmd_compile(args) -> int:
    with open(args.source, "r", encoding="utf-8") as f:
        source = f.read()
    program_id = args.program_id or os.path.splitext(os.path.basename(args.source))[0]
    geer = lang.compile_source(source, program_id)
    out = args.output or os.path.splitext(args.source)[0] + ".geer"
    with open(out, "wb") as f:
        f.write(wire.encode_geer(geer))
    print(out)
    return 0


# --- eval ----------------------------------------------------------------------


def _cmd_eval(args) -> int:
    with open(args.geer, "rb") as f:
        geer = wire.decode_geer(f.read())
    ctx = _parse_ctx(args.ctx)
    if args.dst:
        client = connect_store(args.dst)
        try:
            value = Evaluator(geer, client).eval_demand(args.identifier, ctx)
        finally:
            client.close()
    else:
        # self-contained: in-process store plus one demo worker for Calls
        store = DemandStore()
        worker = Worker(WorkerConfig(worker_id="cli-dwt"), store, build_demo_registry()).start()
        try:
            value = Evaluator(geer, store).eval_demand(args.identifier, ctx)
        finally:
            worker.stop()
            store.close()
    print(format_value(value))
    return 0


# --- node ----------------------------------------------------------------------


def _tier_config(kind: str, args, cfg: Config, store_address: Optional[str]) -> dict:
    if kind == "DST":
        port = args.dst_port if args.dst_port is not None else cfg.dst_port
        return {"host": args.host, "port": port, "log_path": cfg.log_path}
    if not store_address:
        raise _UsageError(f"{kind.lower()} needs a store: start a dst tier or pass --store")
    if kind == "DWT":
        return {"store": store_address, "registry": args.registry, "lease_ms": cfg.lease_ms}
    return {"store": store_address}


def _cmd_node_start(args) -> int:
    cfg = resolve_config(args.config)
    kinds = [k.strip().upper() for k in args.tiers.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in ("GMT", "DST", "DWT", "DGT")]
    if unknown:
        raise _UsageError(f"unknown tier kinds: {','.join(unknown)}")

    with contextlib.ExitStack() as stack:  # stops all of it in reverse start order
        agent = LocalNodeAgent()
        server = serve_node_agent(agent, args.host, args.port)
        stack.callback(server.stop)
        address = f"{server.host}:{server.port}"
        started, client, gmt_address = [], None, args.gmt
        if "GMT" in kinds:
            mgr = Manager(heartbeat_ms=cfg.heartbeat_ms, log_path=args.log)
            stack.callback(mgr.close)
            mgr_server = serve_manager(mgr, args.host, args.gmt_port if args.gmt_port is not None else cfg.gmt_port)
            stack.callback(mgr_server.stop)
            gmt_address = f"{mgr_server.host}:{mgr_server.port}"
            started.append(f"gmt:{gmt_address}")
        if gmt_address:
            client = stack.enter_context(contextlib.closing(connect_manager(gmt_address)))
            node_id = client.register_node(address)
            stack.callback(Heartbeater(client, node_id, cfg.heartbeat_ms).start().stop)

        store_address = args.store
        order = [k for k in ("DST", "DWT", "DGT") if k in kinds]  # store first
        stack.callback(agent.close)
        for i, kind in enumerate(order, start=1):
            config = _tier_config(kind, args, cfg, store_address)
            if client is None:
                tier_id, details = f"local-{i}", agent.start_tier(f"local-{i}", kind, config)
            else:
                reply = client.allocate(node_id, kind, config)
                tier_id, details = reply["tier_id"], reply["details"]
            if kind == "DST":
                store_address = details["address"]
            started.append(f"{tier_id}:{kind}")

        print(f"node {address} tiers={','.join(started) or 'none'}", flush=True)
        try:
            threading.Event().wait(args.run_ms / 1000.0 if args.run_ms else None)
        except KeyboardInterrupt:
            pass
        return 0


# --- mgr -----------------------------------------------------------------------


def _mgr_client(args, cfg: Config):
    return connect_manager(args.gmt or f"127.0.0.1:{cfg.gmt_port}")


def _parse_kv(pairs) -> dict:
    config = {}
    for pair in pairs or ():
        key, eq, value = pair.partition("=")
        if not eq:
            raise _UsageError(f"tier config wants key=value, got {pair!r}")
        try:
            config[key] = int(value)
        except ValueError:
            config[key] = value
    return config


def _cmd_mgr(args) -> int:
    cfg = resolve_config(args.config)
    client = _mgr_client(args, cfg)
    try:
        if args.mgr_cmd == "register":
            print(client.register_node(args.address))
        elif args.mgr_cmd == "alloc":
            reply = client.allocate(args.node_id, args.kind.upper(), _parse_kv(args.kv))
            print(reply["tier_id"])
        elif args.mgr_cmd == "dealloc":
            print("true" if client.deallocate(args.tier_id) else "false")
        elif args.mgr_cmd == "move":
            print(client.move(args.tier_id, args.node_id)["tier_id"])
        else:
            print(json.dumps(client.status(), sort_keys=True))
        return 0
    finally:
        client.close()


# --- wh ------------------------------------------------------------------------


def _cmd_wh(args) -> int:
    if args.wh_cmd == "sig":
        sig = DemandSignature(args.program, args.name, context=_parse_ctx(args.ctx))
        print(sig.key().hex())
        return 0
    cfg = resolve_config(args.config)
    client = connect_store(args.dst or f"127.0.0.1:{cfg.dst_port}")
    try:
        if args.wh_cmd == "stats":
            print(client.stats().as_line())
        else:  # get
            try:
                raw = bytes.fromhex(args.signature)
            except ValueError:
                raise _UsageError("signature must be the hex of an encoded signature") from None
            sig = wire.decode_signature(raw)
            state, value = client.fetch(sig)
            line = state.name if value is None else f"{state.name} {format_value(value)}"
            print(line)
        return 0
    finally:
        client.close()


# --- pipeline ------------------------------------------------------------------


def _corpus(args):
    return default_corpus(subjects=args.subjects, n=args.length)


def _print_results(labeled, results) -> int:
    hits, total = top1_accuracy(results, [label for label, _ in labeled])
    for (label, sample), rs in zip(labeled, results):
        top_sid, top_dist = rs[0]
        print(f"{sample.id} label={label} top={top_sid} dist={top_dist!r}")
    print(f"accuracy={hits}/{total}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = resolve_config(args.config)
    windows = args.windows if args.windows is not None else cfg.pipeline_windows
    train_set, test_set = _corpus(args)

    if args.pipe_cmd == "demo":
        # self-contained: in-process store, pipeline workers, both phases
        store = DemandStore()
        workers = [
            Worker(
                WorkerConfig(worker_id=f"demo-dwt-{i}", lease_ms=cfg.lease_ms),
                store,
                build_pipeline_registry(store),
            ).start()
            for i in range(args.workers)
        ]
        try:
            run_pipeline_distributed(store, train_set, TRAIN_MODE, windows=windows)
            results = run_pipeline_distributed(store, test_set, CLASSIFY_MODE, windows=windows)
        finally:
            for w in workers:
                w.stop()
            store.close()
        return _print_results(test_set, results)

    if args.distributed:
        client = connect_store(args.dst or f"127.0.0.1:{cfg.dst_port}")
        try:
            model_id = args.model or DEFAULT_MODEL_ID
            if args.pipe_cmd == "train":
                run_pipeline_distributed(client, train_set, TRAIN_MODE, model_id=model_id, windows=windows)
                print(f"model={model_id} trained={len(train_set)}")
                return 0
            results = run_pipeline_distributed(client, test_set, CLASSIFY_MODE, model_id=model_id, windows=windows)
            return _print_results(test_set, results)
        finally:
            client.close()

    model_path = args.model or "speakers.ts"
    if args.pipe_cmd == "train":
        ts, _ = run_pipeline_local(train_set, TRAIN_MODE, windows=windows)
        with open(model_path, "wb") as f:
            f.write(encode_training_set(ts))
        print(f"model={model_path} trained={len(train_set)}")
        return 0
    with open(model_path, "rb") as f:
        ts = decode_training_set(f.read())
    _, results = run_pipeline_local(test_set, CLASSIFY_MODE, ts=ts, windows=windows)
    return _print_results(test_set, results)


# --- wiring --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="eduction", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("compile", help="compile .ipl source to a .geer resource")
    p.add_argument("source")
    p.add_argument("-o", "--output")
    p.add_argument("--program-id")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("eval", help="evaluate an identifier of a compiled program")
    p.add_argument("geer")
    p.add_argument("identifier")
    p.add_argument("--ctx", help="context as dim=tag[,dim=tag...]")
    p.add_argument("--dst", help="store address (default: in-process store)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("node", help="run tiers in one process")
    nsub = p.add_subparsers(dest="node_cmd", required=True, parser_class=_Parser)
    ps = nsub.add_parser("start")
    ps.add_argument("--tiers", required=True, help="comma list of gmt,dst,dwt,dgt")
    ps.add_argument("--gmt", help="manager address to register with")
    ps.add_argument("--host", default="127.0.0.1")
    ps.add_argument("--port", type=int, default=0, help="node agent port (0 = ephemeral)")
    ps.add_argument("--dst-port", type=int, help="port for a dst tier")
    ps.add_argument("--gmt-port", type=int, help="port for a gmt tier")
    ps.add_argument("--store", help="store address for dwt/dgt tiers")
    ps.add_argument("--registry", default="demo", help="dwt procedure set: demo or pipeline")
    ps.add_argument("--log", help="manager event log path")
    ps.add_argument("--run-ms", type=int, default=0, help="exit after this long (0 = run until interrupted)")
    ps.add_argument("--config")
    ps.set_defaults(func=_cmd_node_start)

    p = sub.add_parser("mgr", help="manager operations")
    p.add_argument("--gmt", help="manager address (default 127.0.0.1:gmt.port)")
    p.add_argument("--config")
    msub = p.add_subparsers(dest="mgr_cmd", required=True, parser_class=_Parser)
    mp = msub.add_parser("register")
    mp.add_argument("address")
    mp = msub.add_parser("alloc")
    mp.add_argument("node_id", type=int)
    mp.add_argument("kind")
    mp.add_argument("kv", nargs="*", help="tier config key=value pairs")
    mp = msub.add_parser("dealloc")
    mp.add_argument("tier_id")
    mp = msub.add_parser("move")
    mp.add_argument("tier_id")
    mp.add_argument("node_id", type=int)
    msub.add_parser("status")
    p.set_defaults(func=_cmd_mgr)

    p = sub.add_parser("wh", help="warehouse inspection")
    p.add_argument("--dst", help="store address (default 127.0.0.1:dst.port)")
    p.add_argument("--config")
    wsub = p.add_subparsers(dest="wh_cmd", required=True, parser_class=_Parser)
    wsub.add_parser("stats")
    wp = wsub.add_parser("get")
    wp.add_argument("signature", help="hex of an encoded signature (see wh sig)")
    wp = wsub.add_parser("sig")
    wp.add_argument("program")
    wp.add_argument("name")
    wp.add_argument("--ctx")
    p.set_defaults(func=_cmd_wh)

    p = sub.add_parser("pipeline", help="recognition pipeline")
    psub = p.add_subparsers(dest="pipe_cmd", required=True, parser_class=_Parser)
    for name in ("train", "classify", "demo"):
        pp = psub.add_parser(name)
        pp.add_argument("--subjects", type=int, default=4)
        pp.add_argument("--windows", type=int)
        pp.add_argument("--length", type=int, default=512)
        pp.add_argument("--workers", type=int, default=2)
        pp.add_argument("--distributed", action="store_true")
        pp.add_argument("--dst", help="store address for --distributed")
        pp.add_argument("--model", help="model file (.ts) or resource id when distributed")
        pp.add_argument("--config")
        pp.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TransportUnreachable, wire.ProtocolError, ConnectionError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except EductionError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
