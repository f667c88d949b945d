"""Demand generator: eduction over a compiled program.

``Evaluator.eval_demand`` computes an identifier at a context.  Identifier
values are memoized twice: in a per-evaluator local cache and in the shared
warehouse, so nothing is computed twice.  Intensional sub-demands are
evaluated in-process and their results published to the warehouse; only
procedural (``call``) demands queue for workers.

A cold intensional demand costs two store requests: a deposit that doubles
as the warehouse lookup, then, once the value is computed, a fulfill.  The
store records nothing for an intensional miss, so no claim comes in
between, and an evaluation that raises leaves nothing behind.  Two generators that compute the same demand concurrently both
fulfil it; determinism makes the values agree, and the store accepts the
second fulfil as an idempotent completion.

``reference_eval`` is an independent oracle: a direct recursive interpreter
with no caches and no store, executing procedure calls inline through the
same registry.  The two paths must agree on values and on error classes.

The practical demand depth is bounded by the Python recursion limit;
``eval_demand`` raises it enough for a few thousand nested demands, which
covers desk-scale programs.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import EductionError
from . import lang
from .model import (
    Context,
    DemandKind,
    DemandSignature,
    Value,
    pending_demand,
    value_kind,
)
from .store import DepositStatus, ProcedureFault, Timeout  # a faulted call raises ProcedureFault
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
    warehouse_enabled: bool = True


def _wrap64(n: int) -> int:
    return (n + (1 << 63)) % (1 << 64) - (1 << 63)


def _numeric(v: Value, op: str):
    k = value_kind(v)
    if k not in ("int", "float"):
        raise TypeMismatch(f"{op} needs numeric operands, got {k}")
    return v


def apply_binop(op: str, a: Value, b: Value) -> Value:
    """Language operator semantics, shared by the engine and the oracle.

    Ints are 64-bit two's complement and wrap; division truncates toward
    zero; ``%`` follows the sign of the dividend; mixing Int and Float
    promotes to Float; ``&&``/``||`` are strict and take Bools.
    """
    if op in ("&&", "||"):
        if value_kind(a) != "bool" or value_kind(b) != "bool":
            raise TypeMismatch(f"{op} needs Bool operands")
        return (a and b) if op == "&&" else (a or b)
    if op in ("==", "!="):
        ka, kb = value_kind(a), value_kind(b)
        numeric = {"int", "float"}
        if not (ka == kb or (ka in numeric and kb in numeric)):
            raise TypeMismatch(f"{op} on {ka} and {kb}")
        eq = a == b
        return eq if op == "==" else not eq
    if op in ("<", "<=", ">", ">="):
        _numeric(a, op)
        _numeric(b, op)
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
    _numeric(a, op)
    _numeric(b, op)
    both_int = value_kind(a) == "int" and value_kind(b) == "int"
    if op == "+":
        return _wrap64(a + b) if both_int else float(a) + float(b)
    if op == "-":
        return _wrap64(a - b) if both_int else float(a) - float(b)
    if op == "*":
        return _wrap64(a * b) if both_int else float(a) * float(b)
    if op == "/":
        if b == 0:
            raise DivisionByZero("division by zero")
        if both_int:
            q = abs(a) // abs(b)
            return _wrap64(q if (a >= 0) == (b >= 0) else -q)
        return float(a) / float(b)
    if op == "%":
        if b == 0:
            raise DivisionByZero("modulo by zero")
        if both_int:
            q = abs(a) // abs(b)
            q = q if (a >= 0) == (b >= 0) else -q
            return _wrap64(a - b * q)
        return math.fmod(float(a), float(b))
    raise TypeMismatch(f"unknown operator {op!r}")


class Evaluator:
    """Eduction engine for one compiled program.

    ``store`` may be a local DemandStore or a StoreClient over any carrier;
    when absent (or the warehouse is disabled) identifier results stay in
    the local cache only.  Procedural demands always need a store.
    """

    def __init__(self, geer: lang.Geer, store=None, config: Optional[EvalConfig] = None):
        self.geer = geer
        self.store = store
        self.cfg = config or EvalConfig()
        self._local: dict[bytes, Value] = {}
        self._chain: list[bytes] = []
        self._chain_names: list[str] = []
        self._chain_set: set[bytes] = set()
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
        limit = 12 * min(self.cfg.max_depth, 4000) + 1000
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)
        assert not self._chain, "eval_demand is not reentrant"
        try:
            return self._demand(name, ctx.restrict(self.geer.dimensions))
        finally:
            self._chain.clear()
            self._chain_names.clear()
            self._chain_set.clear()

    def _demand(self, name: str, ctx: Context) -> Value:
        if name not in self.geer.dictionary:
            raise UndefinedIdentifier(name)
        sig = DemandSignature(self.geer.program_id, name, ctx, DemandKind.INTENSIONAL)
        key = sig.key()
        if key in self._local:
            return self._local[key]
        if key in self._chain_set:
            chain = " -> ".join(self._chain_names + [f"{name}@{ctx}"])
            raise CircularDemand(chain)
        if len(self._chain) >= self.cfg.max_depth:
            raise DepthExceeded(f"demand depth exceeded {self.cfg.max_depth}")

        use_warehouse = self.cfg.warehouse_enabled and self.store is not None
        if use_warehouse:
            out = self.store.deposit(pending_demand(sig))
            if out.status is DepositStatus.ALREADY_COMPUTED:
                self._local[key] = out.value
                return out.value

        self._chain.append(key)
        self._chain_names.append(f"{name}@{ctx}")
        self._chain_set.add(key)
        try:
            self._computations += 1
            value = self._expr(self.geer.dictionary[name], ctx)
        finally:
            self._chain.pop()
            self._chain_names.pop()
            self._chain_set.discard(key)

        self._local[key] = value
        if use_warehouse:
            self.store.fulfill(sig, value, GENERATOR_ID)
        return value

    def _expr(self, node, ctx: Context) -> Value:
        if isinstance(node, lang.Literal):
            return node.value
        if isinstance(node, lang.Ident):
            return self._demand(node.name, ctx)
        if isinstance(node, lang.Binary):
            left = self._expr(node.left, ctx)
            right = self._expr(node.right, ctx)
            return apply_binop(node.op, left, right)
        if isinstance(node, lang.If):
            cond = self._expr(node.cond, ctx)
            if value_kind(cond) != "bool":
                raise TypeMismatch("if condition must be Bool")
            return self._expr(node.then_expr if cond else node.else_expr, ctx)
        if isinstance(node, lang.HashDim):
            return ctx.get(node.dim)
        if isinstance(node, lang.At):
            tag = self._expr(node.tag_expr, ctx)
            if value_kind(tag) != "int":
                raise TypeMismatch("context tags must be Int")
            return self._expr(node.expr, ctx.override(node.dim, tag))
        if isinstance(node, lang.Call):
            args = tuple(self._expr(a, ctx) for a in node.args)
            return self._procedural(node.proc, args)
        raise TypeMismatch(f"not an expression: {node!r}")

    def _procedural(self, proc: str, args) -> Value:
        if self.store is None:
            raise StoreUnreachable("procedural demands need a demand store")
        sig = DemandSignature(self.geer.program_id, proc, kind=DemandKind.PROCEDURAL, args=args)
        key = sig.key()
        if key in self._local:
            return self._local[key]
        out = self.store.deposit(pending_demand(sig))
        if out.status is DepositStatus.ALREADY_COMPUTED:
            value = out.value
        else:
            try:
                value = self.store.await_result(sig, self.cfg.proc_timeout_ms)
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

    def demand(name: str, ctx: Context, chain: frozenset) -> Value:
        if name not in geer.dictionary:
            raise UndefinedIdentifier(name)
        rctx = ctx.restrict(dims)
        link = (name, rctx.pairs)
        if link in chain:
            raise CircularDemand(f"{name}@{rctx}")
        if len(chain) >= max_depth:
            raise DepthExceeded(f"demand depth exceeded {max_depth}")
        return expr(geer.dictionary[name], rctx, chain | {link})

    def expr(node, ctx: Context, chain: frozenset) -> Value:
        if isinstance(node, lang.Literal):
            return node.value
        if isinstance(node, lang.Ident):
            return demand(node.name, ctx, chain)
        if isinstance(node, lang.Binary):
            return apply_binop(node.op, expr(node.left, ctx, chain), expr(node.right, ctx, chain))
        if isinstance(node, lang.If):
            cond = expr(node.cond, ctx, chain)
            if value_kind(cond) != "bool":
                raise TypeMismatch("if condition must be Bool")
            return expr(node.then_expr if cond else node.else_expr, ctx, chain)
        if isinstance(node, lang.HashDim):
            return ctx.get(node.dim)
        if isinstance(node, lang.At):
            tag = expr(node.tag_expr, ctx, chain)
            if value_kind(tag) != "int":
                raise TypeMismatch("context tags must be Int")
            return expr(node.expr, ctx.override(node.dim, tag), chain)
        if isinstance(node, lang.Call):
            args = tuple(expr(a, ctx, chain) for a in node.args)
            if registry is None:
                raise StoreUnreachable("no procedure registry for the oracle")
            return registry.invoke(node.proc, args)
        raise TypeMismatch(f"not an expression: {node!r}")

    return demand(name, ctx, frozenset())
