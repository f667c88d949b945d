"""A McCabe ceiling on every function of ``src/eduction``, counted by ``scripts/mccabe.py``.

No function may pass a count of 15, except the three that passed it when
the ceiling was set; none of those may grow past its count.
"""
import ast
import importlib.util
import os

from helpers import package_sources

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CEILING = 15
GRANDFATHERED = {"evaluator.apply_binop": 33, "evaluator.Evaluator._expr": 16, "lang._Parser.primary": 16}


def _mccabe():
    spec = importlib.util.spec_from_file_location("mccabe", os.path.join(ROOT, "scripts", "mccabe.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mccabe = _mccabe()


def over_ceiling(sources: dict) -> list:
    """(name, count) of every function of ``{module: source}`` that passes its ceiling."""
    over = []
    for module, source in sources.items():
        for name, node in mccabe.functions(ast.parse(source)):
            name, count = f"{module}.{name}", mccabe.complexity(node)
            if count > GRANDFATHERED.get(name, CEILING):
                over.append((name, count))
    return over


def branches(n: int) -> str:
    """A function whose McCabe count is ``n``: one path, plus ``n - 1`` ifs."""
    return "def planted(x):\n" + "".join(f"    if x == {i}:\n        return {i}\n" for i in range(n - 1)) + "    return -1\n"


def test_no_function_passes_its_ceiling():
    assert over_ceiling(package_sources()) == []


def test_a_planted_function_of_16_fails_and_one_of_15_passes():
    assert over_ceiling(dict(package_sources(), planted=branches(16))) == [("planted.planted", 16)]
    assert over_ceiling(dict(package_sources(), planted=branches(15))) == []


def test_a_grandfathered_function_may_not_grow():
    sources = package_sources()
    head = "    def primary(self) -> AstNode:\n"
    grown = sources["lang"].replace(head, head + "        if self:\n            pass\n", 1)
    assert grown != sources["lang"]
    assert over_ceiling(dict(sources, lang=grown)) == [("lang._Parser.primary", 17)]
