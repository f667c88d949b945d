#!/usr/bin/env python3
"""Print the most complex functions of ``src/eduction`` by McCabe's measure.

    python3 scripts/mccabe.py [N]      (default: 10)

Stdlib ``ast`` only.  A function's count is 1, plus one for each
``if``/``elif``, ``for``, ``while``, ``except``, conditional expression and
comprehension, plus one for each ``and``/``or`` operand after the first
(McCabe, "A Complexity Measure", IEEE TSE 1976).  A nested function or
class body counts for itself, not for the function around it; a lambda's
branches count for the function that holds it.
"""
import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "eduction")

_BRANCHES = (
    ast.If, ast.For, ast.AsyncFor, ast.While, ast.ExceptHandler, ast.IfExp,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def complexity(func) -> int:
    count, todo = 1, list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, _BRANCHES):
            count += 1
        elif isinstance(node, ast.BoolOp):
            count += len(node.values) - 1
        todo.extend(ast.iter_child_nodes(node))
    return count


def functions(tree, prefix=""):
    """Yield (qualified name, node) for every function, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, prefix + node.name + ".")
        else:
            yield from functions(node, prefix)


def main(argv) -> int:
    top = int(argv[0]) if argv else 10
    rows = []
    for file in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        with open(os.path.join(PACKAGE, file), encoding="utf-8") as f:
            tree = ast.parse(f.read(), file)
        module = file[: -len(".py")]
        for name, node in functions(tree):
            rows.append((complexity(node), f"{module}.{name}", node.lineno, node.end_lineno - node.lineno + 1))
    rows.sort(key=lambda r: (-r[0], r[1]))
    for count, name, line, length in rows[:top]:
        print(f"{count:4}  {name} (line {line}, {length} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
