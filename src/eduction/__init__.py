"""Demand-driven eduction runtime with a mini intensional language.

Four tiers around one wire protocol: a demand store (warehouse plus leased
pending queue), generators that evaluate compiled programs by demanding
identifiers at contexts, workers that execute procedural demands, and a
manager that places tiers on registered nodes.  A small recognition
pipeline runs on top as the resident workload.

A module imports only those before it in errors, model, lang, wire, store,
worker, transport, evaluator, pipeline, manager, config, cli.  A public
name loads its module on first use, so a process loads only what it runs.
"""

from importlib import import_module

_EXPORTS = {
    "errors": ("EductionError", "error_for_code"),
    "model": (
        "Context", "Demand", "DemandKind", "DemandSignature", "DemandState", "EMPTY_CONTEXT", "Value",
        "make_context", "pending_demand",
    ),
    "lang": ("Geer", "compile_source", "parse_program", "tokenize"),
    "store": ("DemandStore", "DepositStatus"),
    "worker": ("ProcedureRegistry", "Worker", "WorkerConfig", "build_demo_registry"),
    "transport": ("StoreClient", "connect_store", "serve_store"),
    "evaluator": ("EvalConfig", "Evaluator", "reference_eval"),
    "manager": ("Manager", "ManagerClient", "connect_manager", "serve_manager"),
    "config": ("Config", "load_config", "resolve_config"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, imported from its module on first use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)  # later reads skip this
    return value
