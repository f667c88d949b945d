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

Each shape has one reader, ``read_<shape>(data, pos)``: it reads the shape
at an offset into its input and returns what it read and the offset past
it.  Fixed-width fields come out of precompiled ``struct`` formats through
``unpack_from``, and kind, state and message-type bytes are looked up in
tables built once.  ``decode_<shape>`` runs the reader over a whole input.
The readers make no bounds check of their own: ``decode_fields``, which
runs a row of readers over a whole input, is the one place where running
off the end becomes ``MalformedEncoding("truncated input")`` and anything
left over ``TrailingBytes``.  A row whose tail its caller reads ends with
``read_rest``.  Every other check holds at every offset, and each raises
the class it always has: a value of the wrong kind and a bad kind, state
or presence byte ``MalformedEncoding``; an unknown tag, a bad bool byte
and invalid UTF-8 ``MalformedValue``.  A value, context, signature and
demand each have one encoder; a value's dispatches on its type, and a
subclass (an ``IntEnum``, say) goes through ``value_kind``, bool ahead of
int.  The value, context and signature encoders live in ``model`` and are
exported here under the same names.

A signature is read in one pass, ``_signature_end``, which makes every
check and hands its context pairs and arguments to a caller that asks for
them.  ``read_signature`` builds from those, so each byte is checked once.
``read_key`` asks for none: it builds nothing and passes a FloatArray over
by its length, and gives the kind and key of a signature, for a store that
needs no more.

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
result presence byte (0x01 followed by the value when computed).  Bytes
(a resource, a JSON body): 4-byte length, then the bytes.

A resource is a GEER (a compiled program) or a TSET (a speaker model):
magic ``TSET\x02``, 4-byte window count (0 when empty), 4-byte subject
count, then per subject in id order an 8-byte signed id, an 8-byte sample
count and a FloatArray mean.

Frame: magic ``GDMF``, version 0x01, message-type byte, 4-byte payload
length, payload.  Payloads above 16 MiB are rejected.
"""
from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import EductionError
from . import lang
from .model import (
    NO_ARGS,
    _TAG_F64,
    _TAG_I64,
    _TAG_U32,
    _U32,
    Context,
    Demand,
    DemandKind,
    DemandSignature,
    DemandState,
    Fault,
    MalformedDemand,
    MalformedValue,
    Value,
    _encode_signature,
    as_float_array,
    encode_context,
    encode_value,
    is_identifier,
    signature_head,
    value_kind,
)

MAGIC = b"GDMF"
VERSION = 1
HEADER_SIZE = 10  # magic + version + type + payload length
MAX_PAYLOAD = 16 * 1024 * 1024

GEER_MAGIC = b"GEER\x01"
TSET_MAGIC = b"TSET\x02"
_SUBJECT = struct.Struct(">qQ")  # a TSET subject's id and sample count


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


_HEADER = struct.Struct(">4sBBI")

_KINDS = {int(k): k for k in DemandKind}
_STATES = {int(s): s for s in DemandState}


def decode_fields(data: bytes, *readers) -> list:
    """Each of ``readers`` in turn, from the start of ``data`` to its end: what each read.

    The ``read_<shape>`` readers index and ``unpack_from`` with no bounds
    check of their own: running off the end raises ``IndexError`` or
    ``struct.error``, and here both become the one truncation error.
    """
    out = []
    pos = 0
    try:
        for read in readers:
            field, pos = read(data, pos)
            out.append(field)
    except (IndexError, struct.error):
        raise MalformedEncoding("truncated input") from None
    if pos != len(data):
        raise TrailingBytes(f"{len(data) - pos} trailing bytes")
    return out


def read_u8(data: bytes, pos: int):
    """The byte at ``pos``, as an int, and the offset past it."""
    return data[pos], pos + 1


def read_rest(data: bytes, pos: int):
    """Every byte from ``pos`` on, whatever they hold, and the end of ``data``."""
    return data[pos:], len(data)


# --- values --------------------------------------------------------------


def read_value(data: bytes, pos: int):
    """The value at ``pos`` and the offset past it."""
    tag = data[pos]
    if tag == 0x00:
        return _TAG_I64.unpack_from(data, pos)[1], pos + 9
    if tag == 0x03:
        return read_str(data, pos)
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
        code, pos = read_str(data, pos + 1)
        message, pos = read_str(data, pos)
        return Fault(code, message), pos
    raise MalformedValue(f"unknown value tag {tag:#04x}")


def _floats_end(data: bytes, pos: int) -> int:
    """The offset past the FloatArray at ``pos``: any 8 bytes are a binary64, so only its length is checked."""
    end = pos + 5 + 8 * _TAG_U32.unpack_from(data, pos)[1]
    if end > len(data):  # checked before a format for its floats is built
        raise MalformedEncoding("truncated input")
    return end


def _value_end(data: bytes, pos: int) -> int:
    """The offset past the value at ``pos``, checked as ``read_value`` checks it; a FloatArray is not unpacked."""
    if data[pos] == 0x04:
        return _floats_end(data, pos)
    return read_value(data, pos)[1]


def read_str(data: bytes, pos: int):
    """The Str at ``pos`` and the offset past it; any other value is refused."""
    if data[pos] != 0x03:
        read_value(data, pos)  # a malformed value raises its own error first
        raise MalformedEncoding("expected a Str value")
    start = pos + 5
    end = start + _TAG_U32.unpack_from(data, pos)[1]
    if end > len(data):
        raise MalformedEncoding("truncated input")
    try:
        return data[start:end].decode("utf-8"), end
    except UnicodeDecodeError as e:
        raise MalformedValue(str(e)) from None


def read_int(data: bytes, pos: int):
    """The Int at ``pos`` and the offset past it; any other value is refused."""
    if data[pos] != 0x00:
        read_value(data, pos)
        raise MalformedEncoding("expected an Int value")
    return _TAG_I64.unpack_from(data, pos)[1], pos + 9


def read_bytes(data: bytes, pos: int):
    """The bytes at ``pos``, a 4-byte length and then that many, and the offset past them."""
    start = pos + 4
    end = start + _U32.unpack_from(data, pos)[0]
    if end > len(data):  # a slice past the end would not raise
        raise MalformedEncoding("truncated input")
    return data[start:end], end


def decode_value(data: bytes) -> Value:
    return decode_fields(data, read_value)[0]


def values_equal(a: Value, b: Value) -> bool:
    """Byte equality of canonical encodings (distinguishes 0.0 from -0.0)."""
    return encode_value(a) == encode_value(b)


# --- contexts, signatures, demands ---------------------------------------


def _context_end(data: bytes, pos: int, add=None) -> int:
    """The offset past the context at ``pos``, every check made; ``add`` gets each pair, if given.

    Each pair is read whole, its Str and then its Int, before its name is
    checked, so a bad tag raises ahead of a bad name.
    """
    count = _U32.unpack_from(data, pos)[0]
    pos += 4
    prev = ""  # below every identifier
    for _ in range(count):
        dim, pos = read_str(data, pos)
        tag, pos = read_int(data, pos)
        if not is_identifier(dim):
            raise MalformedEncoding(f"bad dimension name {dim!r}")
        if dim <= prev:
            raise NonCanonicalOrder(f"dimension {dim!r} after {prev!r}")
        prev = dim
        if add is not None:
            add((dim, tag))
    return pos


def read_context(data: bytes, pos: int):
    pairs = []
    end = _context_end(data, pos, pairs.append)
    return Context(tuple(pairs)), end


def decode_context(data: bytes) -> Context:
    return decode_fields(data, read_context)[0]


def encode_signature(sig: DemandSignature) -> bytes:
    """The signature's key: its canonical encoding, made at most once."""
    return sig.key()


PENDING = bytes((DemandState.PENDING, 0))  # a demand's state and presence bytes: PENDING, no result


def _signature_end(data: bytes, pos: int, add_pair=None, add_arg=None):
    """The program id, name and kind of the signature at ``pos``, and the offset past it.

    The one place a signature is checked: every check, in the order the
    fields are read, each raising its one class; a kind that carries the
    other kind's context or arguments is ``MalformedEncoding``.  ``add_pair``
    gets each context pair and ``add_arg`` each argument, if given; without
    ``add_arg`` a FloatArray argument is passed over by its length.
    """
    program_id, pos = read_str(data, pos)
    name, pos = read_str(data, pos)
    kind = _KINDS.get(data[pos])
    if kind is None:
        raise MalformedEncoding(f"unknown demand kind {data[pos]:#04x}")
    bare = pos + 5  # where an empty context ends
    pos = _context_end(data, pos + 1, add_pair)
    has_context = pos != bare
    argc = _U32.unpack_from(data, pos)[0]
    pos += 4
    for _ in range(argc):
        if add_arg is None:
            pos = _value_end(data, pos)
        else:
            arg, pos = read_value(data, pos)
            add_arg(arg)
    if kind is DemandKind.PROCEDURAL:
        if has_context:
            raise MalformedEncoding("procedural signatures carry no context")
    elif argc:
        raise MalformedEncoding(f"{kind.name} signatures carry no arguments")
    return program_id, name, kind, pos


def read_signature(data: bytes, pos: int):
    pairs, args = [], []
    program_id, name, kind, end = _signature_end(data, pos, pairs.append, args.append)
    sig = DemandSignature(program_id, name, Context(tuple(pairs)), kind, args)
    # the bytes read are canonical, so they are the key: no re-encoding
    object.__setattr__(sig, "_key", bytes(data[pos:end]))
    return sig, end


def read_key(data: bytes, pos: int):
    """The kind and key of the signature at ``pos``, checked as ``read_signature`` checks it, and the offset past it.

    No signature is built: a store that needs only the key reads this.
    """
    _, _, kind, end = _signature_end(data, pos)
    return (kind, data[pos:end]), end


def decode_signature(data: bytes) -> DemandSignature:
    return decode_fields(data, read_signature)[0]


def encode_demand(d: Demand) -> bytes:
    if d.result is None:
        return d.signature.key() + bytes((d.state, 0))
    return d.signature.key() + bytes((d.state, 1)) + encode_value(d.result)


def read_demand(data: bytes, pos: int):
    sig, pos = read_signature(data, pos)
    state = _STATES.get(data[pos])
    if state is None:
        raise MalformedEncoding(f"unknown demand state {data[pos]:#04x}")
    presence = data[pos + 1]
    if presence > 1:
        raise MalformedEncoding(f"bad result presence byte {presence:#04x}")
    result = None
    pos += 2
    if presence:
        result, pos = read_value(data, pos)
    try:
        return Demand(sig, state, result), pos
    except MalformedDemand as e:
        raise MalformedEncoding(str(e)) from None


def decode_demand(data: bytes) -> Demand:
    return decode_fields(data, read_demand)[0]


# --- resources: compiled programs and models -------------------------------

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


def _read_ast(data: bytes, pos: int):
    tag = data[pos]
    pos += 1
    if tag == 0:
        v, pos = read_value(data, pos)
        if value_kind(v) not in ("int", "float"):
            raise MalformedEncoding("literals are Int or Float")
        return lang.Literal(v), pos
    if tag == 1:
        name, pos = read_str(data, pos)
        return lang.Ident(name), pos
    if tag == 2:
        code = data[pos]
        if code >= len(lang.BINARY_OPS):
            raise MalformedEncoding(f"unknown operator code {code}")
        left, pos = _read_ast(data, pos + 1)
        right, pos = _read_ast(data, pos)
        return lang.Binary(lang.BINARY_OPS[code], left, right), pos
    if tag == 3:
        cond, pos = _read_ast(data, pos)
        then_expr, pos = _read_ast(data, pos)
        else_expr, pos = _read_ast(data, pos)
        return lang.If(cond, then_expr, else_expr), pos
    if tag == 4:
        dim, pos = read_str(data, pos)
        expr, pos = _read_ast(data, pos)
        tag_expr, pos = _read_ast(data, pos)
        return lang.At(expr, dim, tag_expr), pos
    if tag == 5:
        dim, pos = read_str(data, pos)
        return lang.HashDim(dim), pos
    if tag == 6:
        proc, pos = read_str(data, pos)
        argc = _U32.unpack_from(data, pos)[0]
        pos += 4
        args = []
        for _ in range(argc):
            arg, pos = _read_ast(data, pos)
            args.append(arg)
        return lang.Call(proc, tuple(args)), pos
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


def _read_geer(data: bytes, pos: int):
    if struct.unpack_from("5s", data, pos)[0] != GEER_MAGIC:
        raise MalformedEncoding("bad geer magic")
    program_id, pos = read_str(data, pos + 5)
    digest, pos = read_bytes(data, pos)
    dims = []
    count = _U32.unpack_from(data, pos)[0]
    pos += 4
    for _ in range(count):
        d, pos = read_str(data, pos)
        if not is_identifier(d):
            raise MalformedEncoding(f"bad dimension name {d!r}")
        dims.append(d)
    dictionary = {}
    count = _U32.unpack_from(data, pos)[0]
    pos += 4
    for _ in range(count):
        name, pos = read_str(data, pos)
        if name in dictionary:
            raise MalformedEncoding(f"duplicate dictionary entry {name!r}")
        dictionary[name], pos = _read_ast(data, pos)
    root, pos = _read_ast(data, pos)
    return lang.Geer(program_id, frozenset(dims), dictionary, root, digest), pos


def decode_geer(data: bytes) -> lang.Geer:
    try:
        geer = decode_fields(data, _read_geer)[0]
        lang.check_references(geer.root_expr, geer.dictionary, geer.dimensions)
        return geer
    except (EductionError, RecursionError) as e:  # both readers recurse once per AST level
        raise lang.MalformedGeer(str(e)) from None


@dataclass
class TrainingSet:
    """Per-subject running means: the speaker pipeline's model."""

    windows: Optional[int] = None
    subjects: dict = field(default_factory=dict)  # subject_id -> (mean tuple, count)


def encode_training_set(ts: TrainingSet) -> bytes:
    out = [TSET_MAGIC, (ts.windows or 0).to_bytes(4, "big")]
    out.append(len(ts.subjects).to_bytes(4, "big"))
    for subject_id in sorted(ts.subjects):
        mean, count = ts.subjects[subject_id]
        out.append(int(subject_id).to_bytes(8, "big", signed=True))
        out.append(int(count).to_bytes(8, "big"))
        out.append(encode_value(as_float_array(mean)))
    return b"".join(out)


def decode_training_set(data: bytes) -> TrainingSet:
    return decode_fields(data, _read_training_set)[0]


def _read_training_set(data: bytes, pos: int):
    if struct.unpack_from("5s", data, pos)[0] != TSET_MAGIC:
        raise MalformedEncoding("bad training-set magic")
    windows, n_subjects = struct.unpack_from(">II", data, pos + 5)
    pos += 13
    subjects = {}
    for _ in range(n_subjects):
        subject_id, count = _SUBJECT.unpack_from(data, pos)
        mean, pos = read_value(data, pos + 16)
        if not isinstance(mean, tuple):
            raise MalformedEncoding("subject mean must be a FloatArray")
        subjects[subject_id] = (mean, count)
    return TrainingSet(windows=windows or None, subjects=subjects), pos


def validate_resource(data: bytes) -> None:
    """Refuse a resource that is not a whole GEER or TSET, each checked by its own decoder."""
    if data[:5] == GEER_MAGIC:
        decode_geer(data)
    elif data[:5] == TSET_MAGIC:
        decode_training_set(data)
    else:
        raise lang.MalformedGeer("unknown resource payload")


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
