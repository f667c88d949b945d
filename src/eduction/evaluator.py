"""Demand generator: eduction over a compiled program.

``Evaluator.eval_demand`` computes an identifier at a context.  Identifier
values are memoized twice: in a per-evaluator local cache and in the shared
warehouse, so nothing is computed twice.  Intensional sub-demands are
evaluated in-process and their results published to the warehouse; only
procedural (``call``) demands queue for workers.

Each identifier body is compiled, on the first demand for it that misses
both the local memo and the warehouse, into one flat Python generator
function (``_compile_body``): every AST node becomes straight-line
statements, and every identifier reference one ``yield (name, ctx)``.  A
body compiles once per program.  The compiled code is cached on the
``Geer``, where every ``dataclasses.replace`` copy shares it, so a fresh
program id compiles nothing; a warm query, all warehouse hits, starts no
body and compiles nothing either.  Every operator goes through
``apply_binop``, looked up at each call: it is the one definition of the
language's operators, for the engine and the oracle alike.

The engine keeps its own demand stack.  Each compiled body runs as a
generator that yields its sub-demands to one driver loop, which holds the
stack, the cycle check and the depth bound, so a chain of demands as deep
as ``max_depth`` needs no Python recursion at all.  The local memo is
keyed by ``(name, ctx.pairs)``.  A local miss goes to the warehouse by its
signature's key (``deposit_key``, ``fulfill_key``): the identifier's
``wire.signature_head``, encoded on its first miss, then the encoded
context, so no signature or ``Demand`` is built per demand.

A cold intensional demand costs two store requests: a deposit that doubles
as the warehouse lookup, then, once the value is computed, a fulfill.  The
store records nothing for an intensional miss, so no claim comes in
between, and an evaluation that raises leaves nothing behind.  Two
generators that compute the same demand concurrently both fulfil it;
determinism makes the values agree, and the store accepts the second
fulfil as an idempotent completion.

Over a ``StoreClient`` the fulfill is written behind: the client owes its
reply and sends it with the next request, so a cold demand costs one round
trip, its deposit.  ``eval_demand`` settles what it owes (``store.sync()``)
before it returns or raises.  An owed fulfil's error wins over the error
that ended the evaluation, because it came first in program order; an
error of the carrier itself drops what is owed and is raised as it is.
Until an owed error is settled the evaluation goes on, so a demand after a
refused fulfil may still reach the store; a ``call`` deposited then is
computed by a worker and memoized.

``reference_eval`` is an independent oracle: a direct recursive interpreter
with no caches and no store, executing procedure calls inline through the
same registry.  The two paths must agree on values and on error classes.

Both paths bound the demand depth by ``max_depth`` (``DepthExceeded``).
Only the oracle raises the Python recursion limit, to fit that many nested
demands, and only while it runs; a ``RecursionError`` in it becomes
``DepthExceeded`` too.  The engine compiles without recursion, and a body
nested deeper than the recursion limit, which neither the parser nor
``wire.decode_geer`` builds, is ``DepthExceeded`` when it is compiled.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import EductionError
from . import lang, wire
from .model import (
    INT64_MAX,
    INT64_MIN,
    Context,
    DemandKind,
    DemandSignature,
    Value,
    value_kind,
    wrap64,
)
from .store import DepositStatus, ProcedureFault, Timeout, gather  # a faulted call raises ProcedureFault
from .worker import ProcedureRegistry, StoreUnreachable
from .lang import UndefinedIdentifier

# the store checks no lease for intensional fulfils, so every generator can
# use the same id
GENERATOR_ID = "dgt"


class EvalError(EductionError):
    pass


class CircularDemand(EvalError):
    pass


class DepthExceeded(EvalError):
    pass


class TypeMismatch(EvalError):
    pass


class DivisionByZero(EvalError):
    pass


class ProcTimeout(EvalError):
    pass


@dataclass
class EvalConfig:
    max_depth: int = 10000
    proc_timeout_ms: int = 30000


_NUMERIC = ("int", "float")


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _int_mod(a: int, b: int) -> int:
    if b == 0:
        raise DivisionByZero("modulo by zero")
    return a - b * _int_div(a, b)


def _float_div(a: float, b: float) -> float:
    if b == 0:
        raise DivisionByZero("division by zero")
    return a / b


def _float_mod(a: float, b: float) -> float:
    if b == 0:
        raise DivisionByZero("modulo by zero")
    return math.fmod(a, b)


# the operators by the operand kinds they take; an Int result wraps to 64 bits
_ORDER = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_EQUALITY = {"==": operator.eq, "!=": operator.ne}
_LOGIC = {"&&": lambda a, b: a and b, "||": lambda a, b: a or b}
_INT_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _int_div, "%": _int_mod}
_FLOAT_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _float_div, "%": _float_mod}
_INT_OPS = {**_INT_ARITH, **_ORDER, **_EQUALITY}


def apply_binop(op: str, a: Value, b: Value) -> Value:
    """Language operator semantics, shared by the engine and the oracle.

    Ints are 64-bit two's complement and wrap; division truncates toward
    zero; ``%`` follows the sign of the dividend; mixing Int and Float
    promotes to Float; ``&&``/``||`` are strict and take Bools.  Two plain
    Ints, the common case, take one table lookup.
    """
    if a.__class__ is int and b.__class__ is int:
        fn = _INT_OPS.get(op)
        if fn is not None:
            r = fn(a, b)
            return r if INT64_MIN <= r <= INT64_MAX else wrap64(r)
    return _typed_binop(op, a, b)


def _typed_binop(op: str, a: Value, b: Value) -> Value:
    """``apply_binop`` for operands of any kind: checks them, then looks the operator up by kind."""
    ka, kb = value_kind(a), value_kind(b)
    if op in _LOGIC:
        if ka != "bool" or kb != "bool":
            raise TypeMismatch(f"{op} needs Bool operands")
        return _LOGIC[op](a, b)
    if op in _EQUALITY:
        if ka != kb and not (ka in _NUMERIC and kb in _NUMERIC):
            raise TypeMismatch(f"{op} on {ka} and {kb}")
        return _EQUALITY[op](a, b)
    for k in (ka, kb):
        if k not in _NUMERIC:
            raise TypeMismatch(f"{op} needs numeric operands, got {k}")
    if op in _ORDER:
        return _ORDER[op](a, b)
    if op not in _INT_ARITH:
        raise TypeMismatch(f"unknown operator {op!r}")
    if ka == "int" and kb == "int":
        return wrap64(_INT_ARITH[op](a, b))
    return _FLOAT_ARITH[op](float(a), float(b))


def _fit_recursion_limit(max_depth: int) -> int:
    """Raise the recursion limit to fit ``max_depth`` nested oracle demands; gives the limit it found.

    A demand takes about five frames through a plain expression; twelve
    leaves room for nesting.  Only ``reference_eval`` recurses per demand,
    so only it calls this, and it puts the found limit back.
    """
    found = sys.getrecursionlimit()
    sys.setrecursionlimit(max(found, 12 * max_depth + 1000))
    return found


_BODY_PAD = " " * 8  # a function's statements, under the factory that closes over its constants
_MAX_PAD = 4 * 40  # an `if` this deep starts a function of its own: Python's tokenizer stops at 100 indents


class _Source:
    """The Python source of one compiled identifier body.

    Every expression's value lands in a temporary ``t<n>``, a navigated
    context in ``c<n>``, and a literal with no literal syntax of its own
    (a NaN, say) in a factory parameter ``k<n>``.  Program text reaches the
    source only as the ``repr`` of a name, a dimension or an Int or finite
    Float.  Operators go through ``apply_binop``, looked up in this module
    each time a body runs.
    """

    def __init__(self):
        self.defs: list = []  # one list of lines per function; the first is the body
        self.consts: list = []
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def literal(self, v) -> str:
        if type(v) is int or (type(v) is float and math.isfinite(v)):
            return repr(v)
        self.consts.append(v)
        return f"k{len(self.consts) - 1}"

    def function(self, ctx: str) -> tuple:
        """A new generator function of ``(ev, ctx)``: its name and its list of lines."""
        name = self.fresh("s")
        lines = [f"    def {name}(ev, {ctx}):", f"{_BODY_PAD}if False: yield  # a generator, even with no demand"]
        self.defs.append(lines)
        return name, lines

    def emit(self, node, c: str, out: list, pad: str):
        """Append to ``out`` the statements that compute ``node`` in context ``c``; return the temporary of its value.

        A generator, so that a deep expression needs no Python recursion: it
        yields ``(node, c, out, pad)`` for each subexpression and is sent
        back that subexpression's temporary.
        """
        t, v = type(node), self.fresh("t")
        if t is lang.Binary:
            a = yield node.left, c, out, pad
            b = yield node.right, c, out, pad
            out.append(f"{pad}{v} = apply_binop({node.op!r}, {a}, {b})")
        elif t is lang.Ident:
            out.append(f"{pad}{v} = yield {node.name!r}, {c}")
        elif t is lang.Literal:
            out.append(f"{pad}{v} = {self.literal(node.value)}")
        elif t is lang.HashDim:
            out.append(f"{pad}{v} = {c}.get({node.dim!r})")
        elif t is lang.If:
            nested = len(pad) >= _MAX_PAD
            if nested:  # this `if` goes in a function of its own, whose `v` is returned to this one's
                name, lines = self.function(c)
                out.append(f"{pad}{v} = yield from {name}(ev, {c})")
                out, pad = lines, _BODY_PAD
            cond = yield node.cond, c, out, pad
            out.append(f"{pad}if {cond} is True:")
            out.append(f"{pad}    {v} = {(yield node.then_expr, c, out, pad + '    ')}")
            out.append(f"{pad}elif {cond} is False:")
            out.append(f"{pad}    {v} = {(yield node.else_expr, c, out, pad + '    ')}")
            out.append(f"{pad}else:")
            out.append(f"{pad}    raise TypeMismatch('if condition must be Bool')")
            if nested:
                out.append(f"{pad}return {v}")
        elif t is lang.At:
            tag, nav = (yield node.tag_expr, c, out, pad), self.fresh("c")
            out.append(f"{pad}if {tag}.__class__ is not int and value_kind({tag}) != 'int':")
            out.append(f"{pad}    raise TypeMismatch('context tags must be Int')")
            out.append(f"{pad}{nav} = {c}.override({node.dim!r}, {tag})")
            return (yield node.expr, nav, out, pad)
        elif t is lang.Call:
            args = []
            for arg in node.args:
                args.append((yield arg, c, out, pad))
            out.append(f"{pad}{v} = ev._procedural({node.proc!r}, ({''.join(a + ', ' for a in args)}))")
        else:
            out.append(f"{pad}raise TypeMismatch({self.literal(f'not an expression: {node!r}')})")
        return v


def _compile_body(name: str, node):
    """Compile the body of identifier ``name`` into a generator function of ``(evaluator, ctx)``.

    The generator yields each sub-demand ``(name, ctx)``, is sent that
    demand's value, and returns its own, just as ``reference_eval``'s
    ``expr`` computes it.  An expression nested deeper than the recursion
    limit, which neither the parser nor ``wire.decode_geer`` builds, is
    ``DepthExceeded``.
    """
    src, limit = _Source(), sys.getrecursionlimit()
    entry, lines = src.function("ctx")
    stack, value = [src.emit(node, "ctx", lines, _BODY_PAD)], None
    while stack:
        try:
            task = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
            continue
        if len(stack) >= limit:
            raise DepthExceeded(f"the body of {name} nests deeper than {limit} expressions")
        stack.append(src.emit(*task))
        value = None
    lines.append(f"{_BODY_PAD}return {value}")
    params = ", ".join(f"k{i}" for i in range(len(src.consts)))
    text = "\n".join([f"def factory({params}):", *(line for d in src.defs for line in d), f"    return {entry}"])
    scope: dict = {}
    exec(compile(text, f"<body of {name}>", "exec"), globals(), scope)
    return scope["factory"](*src.consts)


class Evaluator:
    """Eduction engine for one compiled program.

    ``store`` may be a local DemandStore or a StoreClient over any carrier;
    when absent, identifier results stay in the local cache only.
    Procedural demands always need a store.
    """

    def __init__(self, geer: lang.Geer, store=None, config: Optional[EvalConfig] = None):
        self.geer = geer
        self.store = store
        self.cfg = config or EvalConfig()
        # intensional results keyed by (name, ctx.pairs), exact since tags are
        # Ints; procedural ones by signature bytes, so 0.0 and -0.0 stay apart
        self._local: dict = {}
        self._heads: dict[str, bytes] = {}  # name -> wire.signature_head, encoded on a first local miss
        self._bodies: dict = {}  # name -> compiled body, taken from the program's cache on a first start
        self._chain: dict[tuple, tuple[str, Context]] = {}  # demands being computed, outermost first
        self._computations = 0

    # -- bookkeeping -------------------------------------------------------

    def computation_counter(self) -> int:
        """Identifier-body evaluations actually performed since the last reset."""
        return self._computations

    def reset_counter(self):
        self._computations = 0

    def clear_cache(self):
        self._local.clear()

    # -- evaluation ----------------------------------------------------------

    def eval_demand(self, name: str, ctx: Context) -> Value:
        if name not in self.geer.dictionary:
            raise UndefinedIdentifier(name)
        assert not self._chain, "eval_demand is not reentrant"
        try:
            return self._drive(name, ctx.restrict(self.geer.dimensions))
        finally:
            self._chain.clear()
            if self.store is not None:
                self.store.sync()  # an owed fulfil's error raises here, in place of a later one

    def _drive(self, name: str, ctx: Context) -> Value:
        """Run a demand and all its sub-demands on one explicit stack.

        A frame is ``(key, store key, body)``, where ``body`` is a generator
        of the identifier's compiled body, suspended at the sub-demand it
        yielded.  A demand answered by the local memo or the warehouse sends
        its value straight back, so a warm query starts no body at all.  A
        body starts from ``self._bodies``; a name's first start there takes
        it from the program's cache, compiling it if no copy of the program
        has (``_body``).
        """
        local, chain, store, heads, bodies = self._local, self._chain, self.store, self._heads, self._bodies
        program_id, max_depth = self.geer.program_id, self.cfg.max_depth
        stack: list = []
        try:
            while True:
                # (name, ctx) is a demand: a hit sets `value`, a miss pushes its body
                key = (name, ctx.pairs)
                value = local.get(key)
                if value is None:
                    if key in chain:
                        cycle = [*chain.values(), (name, ctx)]
                        raise CircularDemand(" -> ".join(f"{n}@{c}" for n, c in cycle))
                    if len(stack) >= max_depth:
                        raise DepthExceeded(f"demand depth exceeded {max_depth}")
                    skey = None
                    if store is not None:
                        # the key of DemandSignature(program_id, name, ctx), built from its parts
                        head = heads.get(name)
                        if head is None:
                            head = heads[name] = wire.signature_head(program_id, name, DemandKind.INTENSIONAL)
                        skey = head + wire.encode_context(ctx) + wire.NO_ARGS
                        out = store.deposit_key(skey)
                        if out.status is DepositStatus.ALREADY_COMPUTED:
                            value = local[key] = out.value
                    if value is None:
                        chain[key] = (name, ctx)
                        self._computations += 1
                        body = bodies.get(name) or self._body(name)
                        stack.append((key, skey, body(self, ctx)))
                # send `value` to the innermost body until it demands again;
                # when the outermost body returns, its value is the answer
                while stack:
                    key, skey, body = stack[-1]
                    try:
                        name, ctx = body.send(value)
                        break
                    except StopIteration as done:
                        value = local[key] = done.value
                    stack.pop()
                    del chain[key]
                    if store is not None:
                        store.fulfill_key(skey, value, GENERATOR_ID, False)
                else:
                    return value
        finally:
            # the language has no handler, so an error ends every body on the stack
            while stack:
                stack.pop()[2].close()

    def _body(self, name: str):
        """The compiled body of ``name``: compiled on its first start under this program, then shared.

        The cache lives on the ``Geer``, and every ``dataclasses.replace``
        copy of it shares it, so a fresh program id compiles nothing.  An
        entry holds the AST it was compiled from, so a copy with another
        dictionary compiles its own.
        """
        node, cache = self.geer.dictionary[name], self.geer.compiled
        entry = cache.get(name)
        if entry is None or entry[0] is not node:
            entry = cache[name] = (node, _compile_body(name, node))
        body = self._bodies[name] = entry[1]
        return body

    def _procedural(self, proc: str, args) -> Value:
        if self.store is None:
            raise StoreUnreachable("procedural demands need a demand store")
        sig = DemandSignature(self.geer.program_id, proc, kind=DemandKind.PROCEDURAL, args=args)
        key = sig.key()
        if key in self._local:
            return self._local[key]
        try:
            [value] = gather(self.store, [sig], self.cfg.proc_timeout_ms)
        except Timeout as e:
            raise ProcTimeout(str(e)) from None
        self._local[key] = value
        return value


def reference_eval(
    geer: lang.Geer,
    name: str,
    ctx: Context,
    registry: Optional[ProcedureRegistry] = None,
    max_depth: int = 10000,
) -> Value:
    """Oracle interpreter: plain recursion, no caches, no warehouse, no store.

    Procedure calls run inline through ``registry``.  Raises the same error
    classes as the engine.
    """
    dims = geer.dimensions
    chain: set = set()  # demands being computed

    def demand(name: str, ctx: Context) -> Value:
        if name not in geer.dictionary:
            raise UndefinedIdentifier(name)
        rctx = ctx.restrict(dims)
        link = (name, rctx.pairs)
        if link in chain:
            raise CircularDemand(f"{name}@{rctx}")
        if len(chain) >= max_depth:
            raise DepthExceeded(f"demand depth exceeded {max_depth}")
        chain.add(link)
        try:
            return expr(geer.dictionary[name], rctx)
        finally:
            chain.remove(link)

    def expr(node, ctx: Context) -> Value:
        if isinstance(node, lang.Literal):
            return node.value
        if isinstance(node, lang.Ident):
            return demand(node.name, ctx)
        if isinstance(node, lang.Binary):
            return apply_binop(node.op, expr(node.left, ctx), expr(node.right, ctx))
        if isinstance(node, lang.If):
            cond = expr(node.cond, ctx)
            if value_kind(cond) != "bool":
                raise TypeMismatch("if condition must be Bool")
            return expr(node.then_expr if cond else node.else_expr, ctx)
        if isinstance(node, lang.HashDim):
            return ctx.get(node.dim)
        if isinstance(node, lang.At):
            tag = expr(node.tag_expr, ctx)
            if value_kind(tag) != "int":
                raise TypeMismatch("context tags must be Int")
            return expr(node.expr, ctx.override(node.dim, tag))
        if isinstance(node, lang.Call):
            args = tuple(expr(a, ctx) for a in node.args)
            if registry is None:
                raise StoreUnreachable("no procedure registry for the oracle")
            return registry.invoke(node.proc, args)
        raise TypeMismatch(f"not an expression: {node!r}")

    found = _fit_recursion_limit(max_depth)
    try:
        return demand(name, ctx)
    except RecursionError:
        raise DepthExceeded(f"expressions nest too deep within {max_depth} demands") from None
    finally:
        sys.setrecursionlimit(found)
