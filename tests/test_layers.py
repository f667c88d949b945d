"""One import order for ``src/eduction``, and what a process loads under it.

A module imports only the modules before it in ``ORDER``.  Every import of
a package module is read with ``ast`` at any depth, function bodies
included, so an import a function defers is held to the order too.  The
package ``__init__`` sits above every module and imports none of them: a
public name loads its module on first use.  The subprocess tests check
what that leaves a process holding, and that an ERR reply's code still
finds its class in a process that loaded only the client's modules.
"""
import ast
import importlib
import json
import os
import subprocess
import sys

import eduction
from eduction.errors import EductionError
from helpers import package_sources

ORDER = (
    "errors", "model", "lang", "wire", "store", "worker", "transport", "evaluator", "pipeline", "manager", "config", "cli",
)
SRC = os.path.dirname(os.path.dirname(eduction.__file__))


def imported(source: str) -> set:
    """Every package module that ``source`` imports, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # ``from . import wire`` names its modules, ``from .wire import x`` one
            base = ".".join(filter(None, ("eduction" if node.level else "", node.module)))
            paths = [f"{base}.{alias.name}" for alias in node.names] if base == "eduction" else [base]
        else:
            continue
        out.update(path.split(".")[1] for path in paths if path.startswith("eduction."))
    return out


def upward_imports(sources: dict) -> list:
    """(module, imported) for every import against ``ORDER``, a module outside it included."""
    rank = {module: i for i, module in enumerate(ORDER)}
    return [
        (module, target)
        for module, source in sorted(sources.items())
        if module != "__init__"
        for target in sorted(imported(source))
        if rank.get(target, len(ORDER)) >= rank.get(module, -1)
    ]


def run(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_module_has_a_place_in_the_order():
    assert set(package_sources()) == set(ORDER) | {"__init__"}


def test_the_package_keeps_the_order():
    assert upward_imports(package_sources()) == []


def test_a_planted_upward_import_fails_at_module_level_and_in_a_function():
    sources = package_sources()
    store = sources["store"] + "\nfrom .evaluator import Evaluator\n"
    assert upward_imports(dict(sources, store=store)) == [("store", "evaluator")]
    model = sources["model"] + "\n\ndef planted():\n    from . import wire\n"
    assert upward_imports(dict(sources, model=model)) == [("model", "wire")]


def test_every_public_name_resolves():
    for name in eduction.__all__:
        assert getattr(eduction, name) is not None, name
    assert not hasattr(eduction, "no_such_name")


LOADED = 'print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "eduction")))'


def test_a_store_loads_only_the_modules_below_it():
    code = f"""
import sys
import eduction.store
from eduction import lang, wire
store = eduction.store.DemandStore()
store.put_resource("p", wire.encode_geer(lang.compile_source("x where dimension d; x = #.d; end", "p")))
store.put_resource("m", wire.encode_training_set(wire.TrainingSet(2, {{1: ((0.5, 1.5), 3)}})))
{LOADED}
"""
    expected = ["eduction"] + [f"eduction.{m}" for m in ("errors", "lang", "model", "store", "wire")]
    assert run(code).split() == expected


def test_a_node_with_a_dst_loads_no_evaluator_pipeline_config_or_cli():
    code = f"""
import sys
from eduction.manager import LocalNodeAgent
agent = LocalNodeAgent()
agent.start_tier("dst-1", "DST", {{}})
agent.close()
{LOADED}
"""
    loaded = set(run(code).split())
    assert "eduction.manager" in loaded
    assert loaded.isdisjoint(f"eduction.{m}" for m in ("evaluator", "pipeline", "config", "cli"))


def error_classes(modules) -> dict:
    """``{code: "module.Class"}`` for every ``EductionError`` subclass that ``modules`` define."""
    out = {}
    for name in modules:
        module = importlib.import_module(f"eduction.{name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, EductionError) and cls.__module__ == module.__name__:
                out[cls.__name__] = f"{cls.__module__}.{cls.__name__}"
    return out


RESOLVE = """
import json, sys
import eduction.{client}
from eduction.errors import error_for_code
classes = (type(error_for_code(code, "m")) for code in json.loads(sys.argv[1]))
print(json.dumps({{cls.__name__: f"{{cls.__module__}}.{{cls.__name__}}" for cls in classes}}))
"""


def test_error_codes_resolve_in_a_process_that_loaded_only_its_client():
    """Every code a DST, a node agent or a manager can send names a class its client has loaded."""
    below_transport = ("errors", "model", "lang", "wire", "store", "transport")
    for client, modules in (("transport", below_transport), ("manager", below_transport + ("worker", "manager"))):
        expected = error_classes(modules)
        assert "TransportUnreachable" in expected
        assert json.loads(run(RESOLVE.format(client=client), json.dumps(sorted(expected)))) == expected
