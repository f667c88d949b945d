"""Demand-driven eduction runtime with a mini intensional language.

Four tiers around one wire protocol: a demand store (warehouse plus leased
pending queue), generators that evaluate compiled programs by demanding
identifiers at contexts, workers that execute procedural demands, and a
manager that places tiers on registered nodes.  A small recognition
pipeline runs on top as the resident workload.
"""

from .errors import EductionError, error_for_code
from .model import (
    Context,
    Demand,
    DemandKind,
    DemandSignature,
    DemandState,
    EMPTY_CONTEXT,
    Value,
    make_context,
    pending_demand,
)
from .lang import Geer, compile_source, parse_program, tokenize
from .store import DemandStore, DepositStatus
from .evaluator import EvalConfig, Evaluator, reference_eval
from .worker import ProcedureRegistry, Worker, WorkerConfig, build_demo_registry
from .manager import Manager, ManagerClient, connect_manager, serve_manager
from .transport import StoreClient, connect_store, serve_store
from .config import Config, load_config, resolve_config

__all__ = [
    "Config",
    "Context",
    "Demand",
    "DemandKind",
    "DemandSignature",
    "DemandState",
    "DemandStore",
    "DepositStatus",
    "EMPTY_CONTEXT",
    "EductionError",
    "EvalConfig",
    "Evaluator",
    "Geer",
    "Manager",
    "ManagerClient",
    "ProcedureRegistry",
    "StoreClient",
    "Value",
    "Worker",
    "WorkerConfig",
    "build_demo_registry",
    "compile_source",
    "connect_manager",
    "connect_store",
    "error_for_code",
    "load_config",
    "make_context",
    "parse_program",
    "pending_demand",
    "reference_eval",
    "resolve_config",
    "serve_manager",
    "serve_store",
    "tokenize",
]

__version__ = "0.1.0"
