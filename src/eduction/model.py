"""Core data model shared by every tier: values, contexts, demands.

Values are plain Python objects: int (64-bit signed on the wire), float,
bool, str, and tuple-of-floats, plus ``Fault``, the result a worker stores
for a procedure that failed.  ``value_kind`` tells the six kinds apart;
bool is checked before int because bool subclasses int.

A context is a finite map from dimension names to integer tags and is the
coordinate at which an identifier is demanded.  Contexts are kept in
canonical ascending name order so that equal contexts always produce
byte-identical encodings.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple, Union

from .errors import EductionError


@dataclass(frozen=True)
class Fault:
    """A procedure's failure, stored where its result would be."""

    code: str
    message: str

    def __str__(self):
        return f"{self.code}: {self.message}"


Value = Union[bool, int, float, str, Tuple[float, ...], Fault]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class DuplicateDimension(EductionError):
    pass


class BadDimensionName(EductionError):
    pass


class MalformedValue(EductionError):
    pass


class MalformedDemand(EductionError):
    pass


def is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.match(name))


def value_kind(v: Value) -> str:
    """One of 'int', 'float', 'bool', 'str', 'floats', 'fault'."""
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, float):
        return "float"
    if isinstance(v, str):
        return "str"
    if isinstance(v, tuple):
        return "floats"
    if isinstance(v, Fault):
        return "fault"
    raise MalformedValue(f"not a value: {v!r}")


def as_float_array(xs: Iterable[float]) -> Tuple[float, ...]:
    return tuple(float(x) for x in xs)


def is_finite_value(v: Value) -> bool:
    """True unless the value carries a NaN or infinity."""
    k = value_kind(v)
    if k == "float":
        return math.isfinite(v)
    if k == "floats":
        return all(math.isfinite(x) for x in v)
    return True


@dataclass(frozen=True)
class Context:
    """Evaluation coordinate: (dimension, tag) pairs in ascending name order."""

    pairs: Tuple[Tuple[str, int], ...] = ()

    def get(self, dim: str) -> int:
        """Tag of ``dim``; absent dimensions sit at the origin, tag 0."""
        for name, tag in self.pairs:
            if name == dim:
                return tag
        return 0

    def override(self, dim: str, tag: int) -> "Context":
        if not is_identifier(dim):
            raise BadDimensionName(dim)
        kept = tuple((n, t) for n, t in self.pairs if n != dim)
        return Context(tuple(sorted(kept + ((dim, int(tag)),))))

    def restrict(self, dims) -> "Context":
        """Drop every dimension not in ``dims``."""
        return Context(tuple((n, t) for n, t in self.pairs if n in dims))

    def as_dict(self) -> dict:
        return dict(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __str__(self):
        inner = ",".join(f"{n}={t}" for n, t in self.pairs)
        return "{" + inner + "}"


def make_context(pairs: Iterable[Tuple[str, int]] = ()) -> Context:
    seen: dict[str, int] = {}
    for dim, tag in pairs:
        if not is_identifier(dim):
            raise BadDimensionName(repr(dim))
        if dim in seen:
            raise DuplicateDimension(dim)
        seen[dim] = int(tag)
    return Context(tuple(sorted(seen.items())))


EMPTY_CONTEXT = Context()


class DemandKind(enum.IntEnum):
    INTENSIONAL = 0
    PROCEDURAL = 1


class DemandState(enum.IntEnum):
    PENDING = 0
    IN_PROCESS = 1
    COMPUTED = 2


@dataclass(frozen=True, eq=False)
class DemandSignature:
    """Identity of a demand and the warehouse cache key.

    Procedural results depend only on the argument values, so procedural
    signatures carry no context; intensional ones carry no arguments.
    Equality is byte equality of the canonical encoding, which keeps
    0.0 and -0.0 apart even though Python compares them equal.
    """

    program_id: str
    name: str
    context: Context = EMPTY_CONTEXT
    kind: DemandKind = DemandKind.INTENSIONAL
    args: Tuple[Value, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if self.kind is DemandKind.PROCEDURAL:
            if len(self.context) != 0:
                raise MalformedDemand("procedural signatures carry no context")
        elif self.args:
            raise MalformedDemand(f"{self.kind.name} signatures carry no arguments")

    def key(self) -> bytes:
        """Canonical byte encoding: signatures are equal iff keys are.

        Encoded on first use and cached.  A signature decoded by
        ``wire.read_signature`` already holds the bytes it was read from,
        so it is never encoded again.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            from . import wire

            cached = wire._encode_signature(self)
            object.__setattr__(self, "_key", cached)
        return cached

    def __eq__(self, other):
        if not isinstance(other, DemandSignature):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        head = f"{self.program_id}:{self.name}:{self.kind.name}"
        if self.kind is DemandKind.PROCEDURAL:
            return head + "(" + ", ".join(repr(a) for a in self.args) + ")"
        return head + str(self.context)


@dataclass(frozen=True)
class Demand:
    """A demand plus its lifecycle state.

    ``lease_expiry`` and ``attempts`` are bookkeeping owned by the demand
    store; they never travel on the wire.  A result is present exactly when
    the state is COMPUTED.
    """

    signature: DemandSignature
    state: DemandState = DemandState.PENDING
    result: Optional[Value] = None
    lease_expiry: Optional[float] = None
    attempts: int = 0

    def __post_init__(self):
        if (self.state is DemandState.COMPUTED) != (self.result is not None):
            raise MalformedDemand("result present iff state is COMPUTED")


def pending_demand(sig: DemandSignature) -> Demand:
    return Demand(sig)
