"""Core data model shared by every tier: values, contexts, demands.

Values are plain Python objects: int (64-bit signed on the wire), float,
bool, str, and tuple-of-floats, plus ``Fault``, the result a worker stores
for a procedure that failed.  ``value_kind`` tells the six kinds apart;
bool is checked before int because bool subclasses int.

A context is a finite map from dimension names to integer tags and is the
coordinate at which an identifier is demanded.  Contexts are kept in
canonical ascending name order so that equal contexts always produce
byte-identical encodings.

The value, context and signature encoders live here, so that
``DemandSignature.key`` imports nothing; ``wire`` decodes what they write.
"""
from __future__ import annotations

import enum
import math
import re
import struct
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


def wrap64(n: int) -> int:
    """Two's-complement wrap to 64 bits, the range of the wire's Int."""
    return (n + (1 << 63)) % (1 << 64) - (1 << 63)


# The one identifier rule of the package.  The lexer, ``make_context`` and the
# wire decoders of contexts and GEER dimensions all check names against it,
# so the compiler never emits a dimension that the runtime refuses.
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENTIFIER)


class DuplicateDimension(EductionError):
    pass


class BadDimensionName(EductionError):
    pass


class MalformedValue(EductionError):
    pass


class MalformedDemand(EductionError):
    pass


def is_identifier(name: str) -> bool:
    return _IDENT_RE.fullmatch(name) is not None


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
        """``dim`` at ``tag``; both were checked where they entered the program."""
        kept = tuple((n, t) for n, t in self.pairs if n != dim)
        return Context(tuple(sorted(kept + ((dim, tag),))))

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
        tag = int(tag)
        if not INT64_MIN <= tag <= INT64_MAX:  # a tag is a wire Int
            raise MalformedValue(f"int out of 64-bit range: {tag}")
        seen[dim] = tag
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

        Encoded on first use and cached.  A signature that
        ``wire.read_signature`` built (every decoder of a signature runs
        it) holds the bytes it was read from, so it is never encoded.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = _encode_signature(self)
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
    """A demand plus its lifecycle state, exactly as it travels on the wire.

    A result is present exactly when the state is COMPUTED.  Leases and
    queue order are the demand store's own bookkeeping.
    """

    signature: DemandSignature
    state: DemandState = DemandState.PENDING
    result: Optional[Value] = None

    def __post_init__(self):
        if (self.state is DemandState.COMPUTED) != (self.result is not None):
            raise MalformedDemand("result present iff state is COMPUTED")


def pending_demand(sig: DemandSignature) -> Demand:
    return Demand(sig)


# --- canonical encodings (``wire`` documents the layout and decodes it) -----

_U32 = struct.Struct(">I")
_TAG_U32 = struct.Struct(">BI")  # a Str or FloatArray tag and its length
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")


def _encode_int(v: int) -> bytes:
    try:
        return _TAG_I64.pack(0, v)
    except struct.error:
        raise MalformedValue(f"int out of 64-bit range: {v}") from None


def _encode_float(v: float) -> bytes:
    return _TAG_F64.pack(1, v)


def _encode_bool(v: bool) -> bytes:
    return b"\x02\x01" if v else b"\x02\x00"


def _encode_str(v: str) -> bytes:
    try:
        raw = v.encode("utf-8")
        return _TAG_U32.pack(3, len(raw)) + raw
    except UnicodeEncodeError as e:
        raise MalformedValue(str(e)) from None
    except struct.error:
        raise MalformedValue("string too long") from None


def _encode_floats(v) -> bytes:
    try:
        return _TAG_U32.pack(4, len(v)) + struct.pack(f">{len(v)}d", *map(float, v))
    except (TypeError, ValueError, OverflowError) as e:
        raise MalformedValue(f"bad float array element: {e}") from None


def _encode_fault(v: Fault) -> bytes:
    if not (isinstance(v.code, str) and isinstance(v.message, str)):
        raise MalformedValue(f"a Fault holds a Str code and a Str message: {v!r}")
    return b"\x05" + encode_value(v.code) + encode_value(v.message)


_ENCODE_KIND = {
    "int": _encode_int,
    "float": _encode_float,
    "bool": _encode_bool,
    "str": _encode_str,
    "floats": _encode_floats,
    "fault": _encode_fault,
}
_ENCODE_TYPE = {
    int: _encode_int,
    float: _encode_float,
    bool: _encode_bool,
    str: _encode_str,
    tuple: _encode_floats,
    list: _encode_floats,
    Fault: _encode_fault,
}


def encode_value(v: Value) -> bytes:
    encode = _ENCODE_TYPE.get(type(v))
    if encode is None:  # a subclass: ``value_kind`` decides, bool ahead of int
        encode = _ENCODE_KIND[value_kind(tuple(v) if isinstance(v, list) else v)]
    return encode(v)


def encode_context(ctx: Context) -> bytes:
    out = [_U32.pack(len(ctx.pairs))]
    for dim, tag in ctx.pairs:
        out.append(encode_value(dim))
        out.append(_encode_int(int(tag)))
    return b"".join(out)


def signature_head(program_id: str, name: str, kind: DemandKind) -> bytes:
    """A signature key's first fields, one per identifier: an intensional key is this, the context and ``NO_ARGS``."""
    return encode_value(program_id) + encode_value(name) + bytes((kind,))


NO_ARGS = _U32.pack(0)  # an intensional signature's argument count


def _encode_signature(sig: DemandSignature) -> bytes:
    """Field-by-field encoding; only ``DemandSignature.key`` calls it."""
    out = [signature_head(sig.program_id, sig.name, sig.kind), encode_context(sig.context), _U32.pack(len(sig.args))]
    out.extend(map(encode_value, sig.args))
    return b"".join(out)
