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
input that the encoder would not have produced byte for byte.

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
    INT64_MAX,
    INT64_MIN,
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
    """Strict cursor over a byte string."""

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

    def done(self) -> bool:
        return self.pos == len(self.data)

    def expect_done(self):
        if not self.done():
            raise TrailingBytes(f"{len(self.data) - self.pos} trailing bytes")


# --- values --------------------------------------------------------------


def encode_value(v: Value) -> bytes:
    if isinstance(v, list):
        v = tuple(v)
    kind = value_kind(v)
    if kind == "int":
        if not INT64_MIN <= v <= INT64_MAX:
            raise MalformedValue(f"int out of 64-bit range: {v}")
        return b"\x00" + v.to_bytes(8, "big", signed=True)
    if kind == "float":
        return b"\x01" + struct.pack(">d", v)
    if kind == "bool":
        return b"\x02" + (b"\x01" if v else b"\x00")
    if kind == "str":
        try:
            raw = v.encode("utf-8")
        except UnicodeEncodeError as e:
            raise MalformedValue(str(e)) from None
        if len(raw) > 0xFFFFFFFF:
            raise MalformedValue("string too long")
        return b"\x03" + len(raw).to_bytes(4, "big") + raw
    if kind == "fault":
        if not (isinstance(v.code, str) and isinstance(v.message, str)):
            raise MalformedValue(f"a Fault holds a Str code and a Str message: {v!r}")
        return b"\x05" + encode_value(v.code) + encode_value(v.message)
    try:
        body = struct.pack(f">{len(v)}d", *map(float, v))
    except (TypeError, ValueError, OverflowError) as e:
        raise MalformedValue(f"bad float array element: {e}") from None
    return b"\x04" + len(v).to_bytes(4, "big") + body


def read_value(r: Reader) -> Value:
    tag = r.u8()
    if tag == 0x00:
        return int.from_bytes(r.take(8), "big", signed=True)
    if tag == 0x01:
        return struct.unpack(">d", r.take(8))[0]
    if tag == 0x02:
        b = r.u8()
        if b not in (0, 1):
            raise MalformedValue(f"bad bool byte {b:#04x}")
        return b == 1
    if tag == 0x03:
        n = r.u32()
        try:
            return r.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedValue(str(e)) from None
    if tag == 0x04:
        n = r.u32()
        raw = r.take(8 * n)
        return tuple(struct.unpack(f">{n}d", raw)) if n else ()
    if tag == 0x05:
        return Fault(read_str(r), read_str(r))
    raise MalformedValue(f"unknown value tag {tag:#04x}")


def decode_value(data: bytes) -> Value:
    r = Reader(data)
    v = read_value(r)
    r.expect_done()
    return v


def values_equal(a: Value, b: Value) -> bool:
    """Byte equality of canonical encodings (distinguishes 0.0 from -0.0)."""
    return encode_value(a) == encode_value(b)


def read_str(r: Reader) -> str:
    v = read_value(r)
    if value_kind(v) != "str":
        raise MalformedEncoding("expected a Str value")
    return v


def read_int(r: Reader) -> int:
    v = read_value(r)
    if value_kind(v) != "int":
        raise MalformedEncoding("expected an Int value")
    return v


# --- contexts, signatures, demands ---------------------------------------


def encode_context(ctx: Context) -> bytes:
    out = [len(ctx.pairs).to_bytes(4, "big")]
    for dim, tag in ctx.pairs:
        out.append(encode_value(dim))
        out.append(encode_value(int(tag)))
    return b"".join(out)


def read_context(r: Reader) -> Context:
    count = r.u32()
    pairs = []
    prev = None
    for _ in range(count):
        dim = read_str(r)
        tag = read_int(r)
        if not is_identifier(dim):
            raise MalformedEncoding(f"bad dimension name {dim!r}")
        if prev is not None and dim <= prev:
            raise NonCanonicalOrder(f"dimension {dim!r} after {prev!r}")
        prev = dim
        pairs.append((dim, tag))
    return Context(tuple(pairs))


def decode_context(data: bytes) -> Context:
    r = Reader(data)
    ctx = read_context(r)
    r.expect_done()
    return ctx


def encode_signature(sig: DemandSignature) -> bytes:
    """The signature's key: its canonical encoding, made at most once."""
    return sig.key()


def _encode_signature(sig: DemandSignature) -> bytes:
    """Field-by-field encoding; only ``DemandSignature.key`` calls it."""
    out = [
        encode_value(sig.program_id),
        encode_value(sig.name),
        bytes([int(sig.kind)]),
        encode_context(sig.context),
        len(sig.args).to_bytes(4, "big"),
    ]
    out.extend(encode_value(a) for a in sig.args)
    return b"".join(out)


def read_signature(r: Reader) -> DemandSignature:
    start = r.pos
    program_id = read_str(r)
    name = read_str(r)
    kind_byte = r.u8()
    try:
        kind = DemandKind(kind_byte)
    except ValueError:
        raise MalformedEncoding(f"unknown demand kind {kind_byte:#04x}") from None
    ctx = read_context(r)
    argc = r.u32()
    args = tuple(read_value(r) for _ in range(argc))
    try:
        sig = DemandSignature(program_id, name, ctx, kind, args)
    except MalformedDemand as e:
        raise MalformedEncoding(str(e)) from None
    # the bytes just read are canonical, so they are the key: no re-encoding
    object.__setattr__(sig, "_key", bytes(r.data[start : r.pos]))
    return sig


def decode_signature(data: bytes) -> DemandSignature:
    r = Reader(data)
    sig = read_signature(r)
    r.expect_done()
    return sig


def encode_demand(d: Demand) -> bytes:
    out = [encode_signature(d.signature), bytes([int(d.state)])]
    if d.result is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        out.append(encode_value(d.result))
    return b"".join(out)


def read_demand(r: Reader) -> Demand:
    sig = read_signature(r)
    state_byte = r.u8()
    try:
        state = DemandState(state_byte)
    except ValueError:
        raise MalformedEncoding(f"unknown demand state {state_byte:#04x}") from None
    presence = r.u8()
    if presence not in (0, 1):
        raise MalformedEncoding(f"bad result presence byte {presence:#04x}")
    result = read_value(r) if presence else None
    try:
        return Demand(sig, state, result)
    except MalformedDemand as e:
        raise MalformedEncoding(str(e)) from None


def decode_demand(data: bytes) -> Demand:
    r = Reader(data)
    d = read_demand(r)
    r.expect_done()
    return d


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
    return MAGIC + bytes([VERSION, int(msg_type)]) + len(payload).to_bytes(4, "big") + payload


def parse_header(header: bytes) -> Tuple[MsgType, int]:
    if len(header) != HEADER_SIZE:
        raise ProtocolError("short frame header")
    if header[:4] != MAGIC:
        raise ProtocolError(f"bad magic {header[:4]!r}")
    if header[4] != VERSION:
        raise ProtocolError(f"unsupported version {header[4]}")
    try:
        msg_type = MsgType(header[5])
    except ValueError:
        raise ProtocolError(f"unknown message type {header[5]:#04x}") from None
    length = int.from_bytes(header[6:10], "big")
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
