"""Canonical binary encodings and the framed wire protocol.

All integers are big-endian.  Every decoder is strict: it consumes its
input exactly (``TrailingBytes`` otherwise), rejects out-of-order context
dimensions (``NonCanonicalOrder``), and refuses unknown tag bytes, bool
bytes other than 0x00/0x01 and invalid UTF-8.  That strictness is what
makes encodings canonical: equal structures always produce byte-identical
encodings, and the encoding of a signature is its warehouse key.

A signature is encoded once, by the process that builds it
(``DemandSignature.key``); ``encode_signature`` and every frame that
carries a signature reuse those bytes.  A decoded signature keeps the bytes
it was read from as its key, so a server never re-encodes what it received.
That is sound only because decoding is canonical: the decoders accept no
input that the encoder would not have produced byte for byte.  The engine
builds an intensional key from its parts, starting with ``signature_head``.

Each shape has one encoder and one decoder.  The decoder of a value,
context, signature or demand is a ``_<shape>_at(data, pos)`` that reads at
offsets into its input and returns what it read and the offset past it:
fixed-width fields come out of precompiled ``struct`` formats through
``unpack_from``, and kind, state and message-type bytes are looked up in
tables built once.  ``read_<shape>`` runs it from a ``Reader``'s position,
``decode_<shape>`` over a whole input.  Every check above still holds at
every offset, and each raises the class it always has: truncation, a
value of the wrong kind and a bad kind, state or presence byte
``MalformedEncoding``; an unknown tag, a bad bool byte and invalid UTF-8
``MalformedValue``.  Encoders dispatch on the value's type; a subclass
(an ``IntEnum``, say) goes through ``value_kind``, bool ahead of int.

A signature's checks live in one scan, ``_signature_end``, which builds
nothing and passes a FloatArray over by its length; decoding a signature
is that scan, then a build from the checked bytes.  ``read_key`` is the
scan alone: the kind and key of a signature, for a store that needs no
more.

Value encoding: one tag byte, then the payload.

    0x00  Int         8-byte signed
    0x01  Float       IEEE-754 binary64
    0x02  Bool        1 byte, 0x00 or 0x01
    0x03  Str         4-byte length + UTF-8 bytes
    0x04  FloatArray  4-byte count + count * binary64
    0x05  Fault       Str code + Str message

Context: 4-byte pair count, then (Str dim, Int tag) value encodings in
ascending dimension order.  Signature: Str program id, Str name, kind byte,
context, 4-byte arg count, arg values.  Demand: signature, state byte,
result presence byte (0x01 followed by the value when computed).

Frame: magic ``GDMF``, version 0x01, message-type byte, 4-byte payload
length, payload.  Payloads above 16 MiB are rejected.
"""
from __future__ import annotations

import enum
import struct
from typing import Tuple

from .errors import EductionError
from . import lang
from .model import (
    Context,
    Demand,
    DemandKind,
    DemandSignature,
    DemandState,
    Fault,
    MalformedDemand,
    MalformedValue,
    Value,
    is_identifier,
    value_kind,
)

MAGIC = b"GDMF"
VERSION = 1
HEADER_SIZE = 10  # magic + version + type + payload length
MAX_PAYLOAD = 16 * 1024 * 1024

GEER_MAGIC = b"GEER\x01"


class MsgType(enum.IntEnum):
    DEPOSIT = 0x01
    CLAIM = 0x02
    CLAIM_REPLY = 0x03
    FULFILL = 0x04
    FETCH = 0x05
    FETCH_REPLY = 0x06
    AWAIT = 0x07
    RESOURCE_PUT = 0x08
    RESOURCE_GET = 0x09
    SYSTEM = 0x0A
    STATS = 0x0B
    OK = 0x7E
    ERR = 0x7F


class TrailingBytes(EductionError):
    pass


class MalformedEncoding(EductionError):
    pass


class NonCanonicalOrder(EductionError):
    pass


class ProtocolError(EductionError):
    pass


class Reader:
    """Strict cursor over a byte string: the ``read_*`` functions move ``pos``."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise MalformedEncoding("truncated input")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def expect_done(self):
        _expect_end(self.data, self.pos)


_U32 = struct.Struct(">I")
_TAG_U32 = struct.Struct(">BI")  # a Str or FloatArray tag and its length
_TAG_I64 = struct.Struct(">Bq")
_TAG_F64 = struct.Struct(">Bd")
_HEADER = struct.Struct(">4sBBI")

_KINDS = {int(k): k for k in DemandKind}
_STATES = {int(s): s for s in DemandState}


def _expect_end(data: bytes, end: int):
    if end != len(data):
        raise TrailingBytes(f"{len(data) - end} trailing bytes")


def _decode(at, data: bytes):
    """``at(data, 0)``, which must read all of ``data``.

    The ``_*_at`` readers index and ``unpack_from`` with no bounds check of
    their own: running off the end raises ``IndexError`` or ``struct.error``,
    and here and in ``_cursor`` both become the one truncation error.
    """
    try:
        out, end = at(data, 0)
    except (IndexError, struct.error):
        raise MalformedEncoding("truncated input") from None
    _expect_end(data, end)
    return out


def _cursor(at, r: Reader):
    """``at`` from the cursor's position, which moves past what it read."""
    try:
        out, r.pos = at(r.data, r.pos)
    except (IndexError, struct.error):
        raise MalformedEncoding("truncated input") from None
    return out


# --- values --------------------------------------------------------------


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


def _value_at(data: bytes, pos: int):
    """The value at ``pos`` and the offset past it."""
    tag = data[pos]
    if tag == 0x00:
        return _TAG_I64.unpack_from(data, pos)[1], pos + 9
    if tag == 0x03:
        return _str_at(data, pos)
    if tag == 0x01:
        return _TAG_F64.unpack_from(data, pos)[1], pos + 9
    if tag == 0x02:
        b = data[pos + 1]
        if b > 1:
            raise MalformedValue(f"bad bool byte {b:#04x}")
        return b == 1, pos + 2
    if tag == 0x04:
        end = _floats_end(data, pos)
        return struct.unpack_from(f">{(end - pos - 5) >> 3}d", data, pos + 5), end
    if tag == 0x05:
        code, pos = _str_at(data, pos + 1)
        message, pos = _str_at(data, pos)
        return Fault(code, message), pos
    raise MalformedValue(f"unknown value tag {tag:#04x}")


def _floats_end(data: bytes, pos: int) -> int:
    """The offset past the FloatArray at ``pos``: any 8 bytes are a binary64, so only its length is checked."""
    end = pos + 5 + 8 * _TAG_U32.unpack_from(data, pos)[1]
    if end > len(data):  # checked before a format for its floats is built
        raise MalformedEncoding("truncated input")
    return end


def _value_end(data: bytes, pos: int) -> int:
    """The offset past the value at ``pos``, checked as ``_value_at`` checks it; a FloatArray is not unpacked."""
    if data[pos] == 0x04:
        return _floats_end(data, pos)
    return _value_at(data, pos)[1]


def _str_at(data: bytes, pos: int):
    """The Str at ``pos`` and the offset past it; any other value is refused."""
    if data[pos] != 0x03:
        _value_at(data, pos)  # a malformed value raises its own error first
        raise MalformedEncoding("expected a Str value")
    start = pos + 5
    end = start + _TAG_U32.unpack_from(data, pos)[1]
    if end > len(data):
        raise MalformedEncoding("truncated input")
    try:
        return data[start:end].decode("utf-8"), end
    except UnicodeDecodeError as e:
        raise MalformedValue(str(e)) from None


def _int_at(data: bytes, pos: int):
    """The Int at ``pos`` and the offset past it; any other value is refused."""
    if data[pos] != 0x00:
        _value_at(data, pos)
        raise MalformedEncoding("expected an Int value")
    return _TAG_I64.unpack_from(data, pos)[1], pos + 9


def read_value(r: Reader) -> Value:
    return _cursor(_value_at, r)


def decode_value(data: bytes) -> Value:
    return _decode(_value_at, data)


def values_equal(a: Value, b: Value) -> bool:
    """Byte equality of canonical encodings (distinguishes 0.0 from -0.0)."""
    return encode_value(a) == encode_value(b)


def read_str(r: Reader) -> str:
    return _cursor(_str_at, r)


def read_int(r: Reader) -> int:
    return _cursor(_int_at, r)


# --- contexts, signatures, demands ---------------------------------------


def encode_context(ctx: Context) -> bytes:
    out = [_U32.pack(len(ctx.pairs))]
    for dim, tag in ctx.pairs:
        out.append(encode_value(dim))
        out.append(_encode_int(int(tag)))
    return b"".join(out)


def _context_end(data: bytes, pos: int, add=None) -> int:
    """The offset past the context at ``pos``, every check made; ``add`` gets each pair, if given.

    Each pair is read whole, its Str and then its Int, before its name is
    checked, so a bad tag raises ahead of a bad name.
    """
    count = _U32.unpack_from(data, pos)[0]
    pos += 4
    prev = ""  # below every identifier
    for _ in range(count):
        dim, pos = _str_at(data, pos)
        tag, pos = _int_at(data, pos)
        if not is_identifier(dim):
            raise MalformedEncoding(f"bad dimension name {dim!r}")
        if dim <= prev:
            raise NonCanonicalOrder(f"dimension {dim!r} after {prev!r}")
        prev = dim
        if add is not None:
            add((dim, tag))
    return pos


def _context_at(data: bytes, pos: int):
    pairs = []
    end = _context_end(data, pos, pairs.append)
    return Context(tuple(pairs)), end


def read_context(r: Reader) -> Context:
    return _cursor(_context_at, r)


def decode_context(data: bytes) -> Context:
    return _decode(_context_at, data)


def encode_signature(sig: DemandSignature) -> bytes:
    """The signature's key: its canonical encoding, made at most once."""
    return sig.key()


def signature_head(program_id: str, name: str, kind: DemandKind) -> bytes:
    """A signature key's first fields, one per identifier: an intensional key is this, the context and ``NO_ARGS``."""
    return encode_value(program_id) + encode_value(name) + bytes((kind,))


NO_ARGS = _U32.pack(0)  # an intensional signature's argument count


def _encode_signature(sig: DemandSignature) -> bytes:
    """Field-by-field encoding; only ``DemandSignature.key`` calls it."""
    out = [signature_head(sig.program_id, sig.name, sig.kind), encode_context(sig.context), _U32.pack(len(sig.args))]
    out.extend(map(encode_value, sig.args))
    return b"".join(out)


def _signature_end(data: bytes, pos: int):
    """The kind of the signature at ``pos`` and the offset past it.

    The one place a signature is checked: every check, in the order the
    fields are read, each raising its one class; a kind that carries the
    other kind's context or arguments is ``MalformedEncoding``.  Nothing is
    built, and a FloatArray argument is passed over by its length.
    """
    pos = _str_at(data, pos)[1]  # program id
    pos = _str_at(data, pos)[1]  # name
    kind = _KINDS.get(data[pos])
    if kind is None:
        raise MalformedEncoding(f"unknown demand kind {data[pos]:#04x}")
    bare = pos + 5  # where an empty context ends
    pos = _context_end(data, pos + 1)
    has_context = pos != bare
    argc = _U32.unpack_from(data, pos)[0]
    pos += 4
    for _ in range(argc):
        pos = _value_end(data, pos)
    if kind is DemandKind.PROCEDURAL:
        if has_context:
            raise MalformedEncoding("procedural signatures carry no context")
    elif argc:
        raise MalformedEncoding(f"{kind.name} signatures carry no arguments")
    return kind, pos


def _signature_from(data: bytes, pos: int, kind: DemandKind, end: int) -> DemandSignature:
    """The signature at ``data[pos:end]``, which ``_signature_end`` accepted, built from its fields."""
    program_id, p = _str_at(data, pos)
    name, p = _str_at(data, p)
    ctx, p = _context_at(data, p + 1)
    argc = _U32.unpack_from(data, p)[0]
    p += 4
    args = []
    for _ in range(argc):
        arg, p = _value_at(data, p)
        args.append(arg)
    sig = DemandSignature(program_id, name, ctx, kind, args)
    # the bytes read are canonical, so they are the key: no re-encoding
    object.__setattr__(sig, "_key", bytes(data[pos:end]))
    return sig


def _signature_at(data: bytes, pos: int):
    kind, end = _signature_end(data, pos)
    return _signature_from(data, pos, kind, end), end


def read_signature(r: Reader) -> DemandSignature:
    return _cursor(_signature_at, r)


def read_key(r: Reader) -> Tuple[DemandKind, bytes]:
    """The kind and key of the signature at the cursor, checked as ``read_signature`` checks it.

    No signature is built: a store that needs only the key reads this.
    """
    start = r.pos
    kind = _cursor(_signature_end, r)
    return kind, r.data[start : r.pos]


def signature_of_key(kind: DemandKind, key: bytes) -> DemandSignature:
    """The signature whose kind and key ``read_key`` gave, built from those bytes."""
    return _signature_from(key, 0, kind, len(key))


def decode_signature(data: bytes) -> DemandSignature:
    return _decode(_signature_at, data)


def encode_demand(d: Demand) -> bytes:
    if d.result is None:
        return d.signature.key() + bytes((d.state, 0))
    return d.signature.key() + bytes((d.state, 1)) + encode_value(d.result)


def _demand_at(data: bytes, pos: int):
    sig, pos = _signature_at(data, pos)
    state = _STATES.get(data[pos])
    if state is None:
        raise MalformedEncoding(f"unknown demand state {data[pos]:#04x}")
    presence = data[pos + 1]
    if presence > 1:
        raise MalformedEncoding(f"bad result presence byte {presence:#04x}")
    result = None
    pos += 2
    if presence:
        result, pos = _value_at(data, pos)
    try:
        return Demand(sig, state, result), pos
    except MalformedDemand as e:
        raise MalformedEncoding(str(e)) from None


def read_demand(r: Reader) -> Demand:
    return _cursor(_demand_at, r)


def decode_demand(data: bytes) -> Demand:
    return _decode(_demand_at, data)


# --- compiled programs ----------------------------------------------------

_NODE_TAGS = {lang.Literal: 0, lang.Ident: 1, lang.Binary: 2, lang.If: 3, lang.At: 4, lang.HashDim: 5, lang.Call: 6}
_OP_CODES = {op: i for i, op in enumerate(lang.BINARY_OPS)}


def _encode_ast(node) -> bytes:
    tag = _NODE_TAGS.get(type(node))
    if tag == 0:
        return b"\x00" + encode_value(node.value)
    if tag == 1:
        return b"\x01" + encode_value(node.name)
    if tag == 2:
        return b"\x02" + bytes([_OP_CODES[node.op]]) + _encode_ast(node.left) + _encode_ast(node.right)
    if tag == 3:
        return b"\x03" + _encode_ast(node.cond) + _encode_ast(node.then_expr) + _encode_ast(node.else_expr)
    if tag == 4:
        return b"\x04" + encode_value(node.dim) + _encode_ast(node.expr) + _encode_ast(node.tag_expr)
    if tag == 5:
        return b"\x05" + encode_value(node.dim)
    if tag == 6:
        parts = [b"\x06", encode_value(node.proc), len(node.args).to_bytes(4, "big")]
        parts.extend(_encode_ast(a) for a in node.args)
        return b"".join(parts)
    raise MalformedEncoding(f"not an AST node: {node!r}")


def _read_ast(r: Reader):
    tag = r.u8()
    if tag == 0:
        v = read_value(r)
        if value_kind(v) not in ("int", "float"):
            raise MalformedEncoding("literals are Int or Float")
        return lang.Literal(v)
    if tag == 1:
        return lang.Ident(read_str(r))
    if tag == 2:
        code = r.u8()
        if code >= len(lang.BINARY_OPS):
            raise MalformedEncoding(f"unknown operator code {code}")
        return lang.Binary(lang.BINARY_OPS[code], _read_ast(r), _read_ast(r))
    if tag == 3:
        return lang.If(_read_ast(r), _read_ast(r), _read_ast(r))
    if tag == 4:
        dim = read_str(r)
        return lang.At(_read_ast(r), dim, _read_ast(r))
    if tag == 5:
        return lang.HashDim(read_str(r))
    if tag == 6:
        proc = read_str(r)
        argc = r.u32()
        return lang.Call(proc, tuple(_read_ast(r) for _ in range(argc)))
    raise MalformedEncoding(f"unknown AST tag {tag:#04x}")


def encode_geer(geer: lang.Geer) -> bytes:
    out = [GEER_MAGIC, encode_value(geer.program_id)]
    out.append(len(geer.source_digest).to_bytes(4, "big"))
    out.append(geer.source_digest)
    dims = sorted(geer.dimensions)
    out.append(len(dims).to_bytes(4, "big"))
    out.extend(encode_value(d) for d in dims)
    names = sorted(geer.dictionary)
    out.append(len(names).to_bytes(4, "big"))
    for name in names:
        out.append(encode_value(name))
        out.append(_encode_ast(geer.dictionary[name]))
    out.append(_encode_ast(geer.root_expr))
    return b"".join(out)


def decode_geer(data: bytes) -> lang.Geer:
    try:
        r = Reader(data)
        if r.take(5) != GEER_MAGIC:
            raise MalformedEncoding("bad geer magic")
        program_id = read_str(r)
        digest = r.take(r.u32())
        dims = []
        for _ in range(r.u32()):
            d = read_str(r)
            if not is_identifier(d):
                raise MalformedEncoding(f"bad dimension name {d!r}")
            dims.append(d)
        dictionary = {}
        for _ in range(r.u32()):
            name = read_str(r)
            if name in dictionary:
                raise MalformedEncoding(f"duplicate dictionary entry {name!r}")
            dictionary[name] = _read_ast(r)
        root = _read_ast(r)
        r.expect_done()
        lang.check_references(root, dictionary, dims)
        return lang.Geer(program_id, frozenset(dims), dictionary, root, digest)
    except EductionError as e:
        raise lang.MalformedGeer(str(e)) from None


# --- frames ----------------------------------------------------------------


def encode_frame(msg_type: MsgType, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise MalformedEncoding(f"payload of {len(payload)} bytes exceeds the 16 MiB cap")
    return _HEADER.pack(MAGIC, VERSION, msg_type, len(payload)) + payload


_MSG_TYPES = {int(t): t for t in MsgType}


def parse_header(header: bytes) -> Tuple[MsgType, int]:
    if len(header) != HEADER_SIZE:
        raise ProtocolError("short frame header")
    magic, version, type_byte, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    msg_type = _MSG_TYPES.get(type_byte)
    if msg_type is None:
        raise ProtocolError(f"unknown message type {type_byte:#04x}")
    if length > MAX_PAYLOAD:
        raise MalformedEncoding(f"declared payload of {length} bytes exceeds the 16 MiB cap")
    return msg_type, length


def parse_frame(data: bytes) -> Tuple[MsgType, bytes]:
    """Parse exactly one frame; the input must contain nothing else."""
    msg_type, length = parse_header(data[:HEADER_SIZE])
    if len(data) != HEADER_SIZE + length:
        raise ProtocolError(f"frame length mismatch: declared {length}, got {len(data) - HEADER_SIZE}")
    return msg_type, data[HEADER_SIZE:]


def iter_frames(data: bytes):
    """Yield (msg_type, payload, end_offset) for each complete frame.

    Stops silently at a truncated tail so a half-written final record can be
    discarded; any other malformation raises.
    """
    pos = 0
    while pos < len(data):
        if pos + HEADER_SIZE > len(data):
            return
        msg_type, length = parse_header(data[pos : pos + HEADER_SIZE])
        if pos + HEADER_SIZE + length > len(data):
            return
        payload = data[pos + HEADER_SIZE : pos + HEADER_SIZE + length]
        pos += HEADER_SIZE + length
        yield msg_type, payload, pos
