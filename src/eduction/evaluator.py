"""Demand generator: eduction over a compiled program.

``Evaluator.eval_demand`` computes an identifier at a context.  Identifier
values are memoized twice: in a per-evaluator local cache and in the shared
warehouse, so nothing is computed twice.  Intensional sub-demands are
evaluated in-process and their results published to the warehouse; only
procedural (``call``) demands queue for workers.

The engine keeps its own demand stack.  Each identifier body runs as a
generator that yields its sub-demands to one driver loop, which holds the
stack, the cycle check and the depth bound, so a chain of demands as deep
as ``max_depth`` needs no more Python recursion than one body does.  The
local memo is keyed by ``(name, ctx.pairs)``.  A local miss goes to the
warehouse by its signature's key (``deposit_key``, ``fulfill_key``): the
identifier's ``wire.signature_head``, encoded on its first miss, then the
encoded context, so no signature or ``Demand`` is built per demand.

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
demands, and only while it runs.  In either path a ``RecursionError`` (an
expression nested deeper than the limit allows within one body) becomes
``DepthExceeded`` too.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import EductionError
from . import lang, wire
from .model import (
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


def apply_binop(op: str, a: Value, b: Value) -> Value:
    """Language operator semantics, shared by the engine and the oracle.

    Ints are 64-bit two's complement and wrap; division truncates toward
    zero; ``%`` follows the sign of the dividend; mixing Int and Float
    promotes to Float; ``&&``/``||`` are strict and take Bools.
    """
    ka, kb = value_kind(a), value_kind(b)
    if op in ("&&", "||"):
        if ka != "bool" or kb != "bool":
            raise TypeMismatch(f"{op} needs Bool operands")
        return (a and b) if op == "&&" else (a or b)
    if op in ("==", "!="):
        if not (ka == kb or (ka in _NUMERIC and kb in _NUMERIC)):
            raise TypeMismatch(f"{op} on {ka} and {kb}")
        eq = a == b
        return eq if op == "==" else not eq
    for k in (ka, kb):
        if k not in _NUMERIC:
            raise TypeMismatch(f"{op} needs numeric operands, got {k}")
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    both_int = ka == "int" and kb == "int"
    if op == "+":
        return wrap64(a + b) if both_int else float(a) + float(b)
    if op == "-":
        return wrap64(a - b) if both_int else float(a) - float(b)
    if op == "*":
        return wrap64(a * b) if both_int else float(a) * float(b)
    if op == "/":
        if b == 0:
            raise DivisionByZero("division by zero")
        if both_int:
            q = abs(a) // abs(b)
            return wrap64(q if (a >= 0) == (b >= 0) else -q)
        return float(a) / float(b)
    if op == "%":
        if b == 0:
            raise DivisionByZero("modulo by zero")
        if both_int:
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return wrap64(a - b * q)
        return math.fmod(float(a), float(b))
    raise TypeMismatch(f"unknown operator {op!r}")


def _fit_recursion_limit(max_depth: int) -> int:
    """Raise the recursion limit to fit ``max_depth`` nested oracle demands; gives the limit it found.

    A demand takes about five frames through a plain expression; twelve
    leaves room for nesting.  Only ``reference_eval`` recurses per demand,
    so only it calls this, and it puts the found limit back.
    """
    found = sys.getrecursionlimit()
    sys.setrecursionlimit(max(found, 12 * max_depth + 1000))
    return found


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
        except RecursionError:
            raise DepthExceeded(f"expressions nest too deep within {self.cfg.max_depth} demands") from None
        finally:
            self._chain.clear()
            if self.store is not None:
                self.store.sync()  # an owed fulfil's error raises here, in place of a later one

    def _drive(self, name: str, ctx: Context) -> Value:
        """Run a demand and all its sub-demands on one explicit stack.

        A frame is ``(key, store key, body)``, where ``body`` is the
        identifier's ``_expr`` generator, suspended at the sub-demand it
        yielded.  A demand answered by the local memo or the warehouse sends
        its value straight back, so a warm query starts no body at all.
        """
        local, chain, store, heads = self._local, self._chain, self.store, self._heads
        program_id, bodies, max_depth = self.geer.program_id, self.geer.dictionary, self.cfg.max_depth
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
                        stack.append((key, skey, self._expr(bodies[name], ctx)))
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

    def _expr(self, node, ctx: Context):
        """Evaluate ``node`` as a generator: it yields each sub-demand
        ``(name, ctx)``, is sent that demand's value, and returns its own."""
        t = type(node)
        if t is lang.Binary:
            # a literal or `#` operand is read in place, with no generator of its own
            left, right = node.left, node.right
            if type(left) is lang.Literal:
                a = left.value
            elif type(left) is lang.HashDim:
                a = ctx.get(left.dim)
            else:
                a = yield from self._expr(left, ctx)
            if type(right) is lang.Literal:
                b = right.value
            elif type(right) is lang.HashDim:
                b = ctx.get(right.dim)
            else:
                b = yield from self._expr(right, ctx)
            return apply_binop(node.op, a, b)
        if t is lang.Ident:
            return (yield node.name, ctx)
        if t is lang.If:
            cond = yield from self._expr(node.cond, ctx)
            if value_kind(cond) != "bool":
                raise TypeMismatch("if condition must be Bool")
            return (yield from self._expr(node.then_expr if cond else node.else_expr, ctx))
        if t is lang.At:
            tag = yield from self._expr(node.tag_expr, ctx)
            if value_kind(tag) != "int":
                raise TypeMismatch("context tags must be Int")
            return (yield from self._expr(node.expr, ctx.override(node.dim, tag)))
        if t is lang.Literal:
            return node.value
        if t is lang.HashDim:
            return ctx.get(node.dim)
        if t is lang.Call:
            args = []
            for arg in node.args:
                args.append((yield from self._expr(arg, ctx)))
            return self._procedural(node.proc, tuple(args))
        raise TypeMismatch(f"not an expression: {node!r}")

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
