"""Shared test machinery: deterministic random programs and values, journal cuts, and the package's sources.

The program generator builds closed, analyzable programs by construction
(every referenced identifier defined, every dimension declared, no Call
nodes), then round-trips them through the pretty-printer and compiler so
the tested artifact is a real Geer, not a hand-assembled one.
"""
from __future__ import annotations

import logging
import os
import random
from typing import Tuple

from eduction import lang
from eduction.errors import EductionError
from eduction.evaluator import Evaluator, reference_eval
from eduction.model import Context, make_context
from eduction import wire
from eduction.store import DemandStore, Journal

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "eduction")


def package_sources() -> dict:
    """``{module: source}`` for every module of ``src/eduction``: what the static tests read."""
    sources = {}
    for file in sorted(n for n in os.listdir(PACKAGE) if n.endswith(".py")):
        with open(os.path.join(PACKAGE, file), encoding="utf-8") as f:
            sources[file[: -len(".py")]] = f.read()
    return sources


DIMS = ("d", "e")
IDENTS = ("x", "y", "z")

# dyadic floats keep arithmetic exact, so engine/oracle equality is strict
FLOATS = (0.5, -0.5, 1.5, 2.25, -3.75, 0.0)

CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
ARITH_OPS = ("+", "-", "*", "/", "%")


def gen_leaf(rng: random.Random, idents, dims) -> lang.AstNode:
    roll = rng.random()
    if roll < 0.45:
        return lang.Literal(rng.randint(-4, 8))
    if roll < 0.62:
        return lang.Literal(rng.choice(FLOATS))
    if roll < 0.90 and dims:
        return lang.HashDim(rng.choice(dims))
    return lang.Ident(rng.choice(idents))


def gen_tag_expr(rng: random.Random, dims) -> lang.AstNode:
    # biased toward small Int results so @ navigation mostly stays in range
    roll = rng.random()
    if roll < 0.5:
        return lang.Literal(rng.randint(0, 3))
    if roll < 0.8 and dims:
        return lang.HashDim(rng.choice(dims))
    return lang.Binary("-", lang.HashDim(rng.choice(dims)) if dims else lang.Literal(2), lang.Literal(1))


def gen_cmp(rng: random.Random, depth: int, idents, dims) -> lang.AstNode:
    return lang.Binary(
        rng.choice(CMP_OPS),
        gen_expr(rng, depth - 1, idents, dims),
        gen_expr(rng, depth - 1, idents, dims),
    )


def gen_expr(rng: random.Random, depth: int, idents, dims) -> lang.AstNode:
    if depth <= 0:
        return gen_leaf(rng, idents, dims)
    roll = rng.random()
    if roll < 0.25:
        return gen_leaf(rng, idents, dims)
    if roll < 0.60:
        return lang.Binary(
            rng.choice(ARITH_OPS),
            gen_expr(rng, depth - 1, idents, dims),
            gen_expr(rng, depth - 1, idents, dims),
        )
    if roll < 0.75:
        return lang.If(
            gen_cmp(rng, depth - 1, idents, dims),
            gen_expr(rng, depth - 1, idents, dims),
            gen_expr(rng, depth - 1, idents, dims),
        )
    if roll < 0.90 and dims:
        return lang.At(gen_expr(rng, depth - 1, idents, dims), rng.choice(dims), gen_tag_expr(rng, dims))
    return lang.Binary(
        rng.choice(("&&", "||")),
        gen_cmp(rng, depth - 1, idents, dims),
        gen_cmp(rng, depth - 1, idents, dims),
    )


def gen_program(rng: random.Random, serial: int, max_depth: int = 5, max_dims: int = 2) -> lang.Geer:
    dims = DIMS[: rng.randint(0, max_dims)]
    idents = IDENTS[: rng.randint(1, len(IDENTS))]
    dictionary = {name: gen_expr(rng, max_depth, idents, dims) for name in idents}
    source = lang.pretty_program_parts(lang.Ident(idents[0]), dims, dictionary)
    return lang.compile_source(source, f"rand{serial}")


def gen_context(rng: random.Random, geer: lang.Geer, max_tag: int = 3) -> Context:
    return make_context((d, rng.randint(0, max_tag)) for d in sorted(geer.dimensions))


def outcome_engine(geer: lang.Geer, name: str, ctx: Context, max_depth: int) -> Tuple[str, object]:
    from eduction.evaluator import EvalConfig

    ev = Evaluator(geer, DemandStore(), EvalConfig(max_depth=max_depth))
    try:
        return ("value", ev.eval_demand(name, ctx))
    except EductionError as e:
        return ("error", type(e).__name__)


def outcome_oracle(geer: lang.Geer, name: str, ctx: Context, max_depth: int) -> Tuple[str, object]:
    try:
        return ("value", reference_eval(geer, name, ctx, max_depth=max_depth))
    except EductionError as e:
        return ("error", type(e).__name__)


def outcomes_match(a: Tuple[str, object], b: Tuple[str, object], rel_tol: float = 1e-12) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "error":
        return a[1] == b[1]
    va, vb = a[1], b[1]
    if isinstance(va, bool) or isinstance(vb, bool):
        return va is vb
    if isinstance(va, float) or isinstance(vb, float):
        if type(va) is not type(vb):
            return False
        import math

        return math.isclose(va, vb, rel_tol=rel_tol, abs_tol=0.0) or (va == vb)
    return va == vb


def assert_every_cut_replays_its_whole_records(path, caplog):
    """Cut the journal at ``path`` at every byte offset and reopen it.

    Reopening replays exactly the whole records before the cut, cuts the
    file there, and warns once of the bytes it dropped; a record appended
    after that replays too.
    """
    with open(path, "rb") as f:
        data = f.read()
    frames = list(wire.iter_frames(data))
    assert len(frames) >= 3
    records = [(t, p) for t, p, _ in frames]
    ends = [0] + [end for _, _, end in frames]
    for cut in range(len(data) + 1):
        whole = sum(1 for end in ends[1:] if end <= cut)
        with open(path, "wb") as f:
            f.write(data[:cut])
        caplog.clear()
        replayed = []
        with caplog.at_level(logging.WARNING, logger="eduction.store"):
            journal = Journal(path, lambda t, p: replayed.append((t, p)))
        assert replayed == records[:whole], cut
        assert os.path.getsize(path) == ends[whole], cut
        dropped = cut - ends[whole]
        warned = [f"journal {path}: dropping {dropped} bytes of torn or corrupt tail"] if dropped else []
        assert [r.getMessage() for r in caplog.records] == warned, cut
        journal.append(*records[-1])
        journal.close()
        replayed = []
        Journal(path, lambda t, p: replayed.append((t, p))).close()
        assert replayed == records[:whole] + records[-1:], cut
