"""Canonical encodings, framing, and their strictness."""
import dataclasses
import enum
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from eduction import lang, pipeline as P, transport, wire
from eduction.errors import EductionError
from eduction.store import DemandStore, DepositStatus
from eduction.model import (
    INT64_MAX,
    INT64_MIN,
    Context,
    Demand,
    DemandKind,
    DemandSignature,
    DemandState,
    EMPTY_CONTEXT,
    Fault,
    MalformedDemand,
    MalformedValue,
    is_identifier,
    make_context,
    value_kind,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
values = st.one_of(
    st.booleans(),
    int64s,
    finite_floats,
    st.text(max_size=40),
    st.lists(finite_floats, max_size=8).map(tuple),
    st.builds(Fault, st.text(max_size=12), st.text(max_size=40)),
)
dim_names = st.sampled_from(["d", "e", "f", "t0"])
contexts = st.dictionaries(dim_names, int64s, max_size=3).map(lambda m: make_context(m.items()))
idents = st.sampled_from(["x", "y", "fact", "fib2"])


@st.composite
def signatures(draw):
    kind = draw(st.sampled_from(list(DemandKind)))
    if kind is DemandKind.PROCEDURAL:
        args = tuple(draw(st.lists(values, max_size=3)))
        return DemandSignature(draw(idents), draw(idents), kind=kind, args=args)
    return DemandSignature(draw(idents), draw(idents), draw(contexts), kind)


@st.composite
def demands(draw):
    sig = draw(signatures())
    if draw(st.booleans()):
        return Demand(sig, DemandState.COMPUTED, draw(values))
    return Demand(sig, draw(st.sampled_from([DemandState.PENDING, DemandState.IN_PROCESS])), None)


class TestValueCodec:
    def test_int_zero_is_tag_and_eight_zero_bytes(self):
        assert wire.encode_value(0) == b"\x00" + b"\x00" * 8

    def test_bool_true_encoding(self):
        assert wire.encode_value(True) == b"\x02\x01"

    @given(values)
    def test_roundtrip(self, v):
        out = wire.decode_value(wire.encode_value(v))
        assert type(out) is type(v)
        if isinstance(v, float):
            assert (math.isnan(out) and math.isnan(v)) or out == v
        else:
            assert out == v

    def test_trailing_bytes_rejected(self):
        with pytest.raises(wire.TrailingBytes):
            wire.decode_value(wire.encode_value(1) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(MalformedValue):
            wire.decode_value(b"\x09\x00")

    def test_noncanonical_bool_byte_rejected(self):
        with pytest.raises(MalformedValue):
            wire.decode_value(b"\x02\x02")

    def test_int_out_of_range_rejected(self):
        with pytest.raises(Exception):
            wire.encode_value(2**63)

    def test_float_array_overflow_is_malformed(self):
        with pytest.raises(MalformedValue):
            wire.encode_value((10**400,))

    def test_fault_encoding(self):
        assert wire.encode_value(Fault("E", "m")) == b"\x05" + wire.encode_value("E") + wire.encode_value("m")
        assert wire.decode_value(b"\x05" + wire.encode_value("E") + wire.encode_value("m")) == Fault("E", "m")

    def test_fault_parts_must_be_str(self):
        for code, message in ((1, "m"), ("E", True)):
            with pytest.raises(wire.MalformedEncoding):
                wire.decode_value(b"\x05" + wire.encode_value(code) + wire.encode_value(message))
            with pytest.raises(MalformedValue):
                wire.encode_value(Fault(code, message))

    def test_signed_zero_distinct_bytes(self):
        assert wire.encode_value(0.0) != wire.encode_value(-0.0)
        assert not wire.values_equal(0.0, -0.0)
        assert wire.values_equal(1.0, 1.0)


class TestContextCodec:
    def test_empty_context_is_four_zero_bytes(self):
        assert wire.encode_context(EMPTY_CONTEXT) == b"\x00\x00\x00\x00"

    @given(contexts)
    def test_roundtrip(self, ctx):
        data = wire.encode_context(ctx)
        assert wire.read_context(data, 0) == (ctx, len(data))

    def test_out_of_order_pairs_rejected(self):
        good = wire.encode_context(make_context([("d", 1), ("e", 2)]))
        # swap the two (dim, tag) pairs after the count
        body = good[4:]
        first_len = 4 + 1 + struct.unpack(">I", body[1:5])[0] + 9
        swapped = good[:4] + body[first_len:] + body[:first_len]
        with pytest.raises(wire.NonCanonicalOrder):
            wire.read_context(swapped, 0)

    def test_duplicate_dim_rejected(self):
        pair = wire.encode_context(make_context([("d", 1)]))[4:]
        data = b"\x00\x00\x00\x02" + pair + pair
        with pytest.raises(wire.NonCanonicalOrder):
            wire.read_context(data, 0)


class TestSignatureDemandCodec:
    @given(signatures())
    def test_signature_roundtrip(self, sig):
        data = wire.encode_signature(sig)
        out = wire.decode_signature(data)
        assert out == sig
        # a decoded key is the input itself, so check the decoded fields
        assert wire._encode_signature(out) == data

    @given(signatures())
    def test_key_equals_encoding(self, sig):
        assert sig.key() == wire.encode_signature(sig) == wire._encode_signature(sig)

    @given(demands())
    def test_demand_roundtrip(self, d):
        out = wire.decode_demand(wire.encode_demand(d))
        assert out.signature == d.signature
        assert wire._encode_signature(out.signature) == d.signature.key()
        assert out.state is d.state
        if d.result is None:
            assert out.result is None
        else:
            assert wire.values_equal(out.result, d.result)

    def test_bad_kind_byte_rejected(self):
        raw = bytearray(wire.encode_signature(DemandSignature("p", "x")))
        # kind byte sits right after the two length-prefixed strings
        kind_at = 5 + 1 + 5 + 1
        assert raw[kind_at] == 0
        raw[kind_at] = 7
        with pytest.raises(wire.MalformedEncoding):
            wire.decode_signature(bytes(raw))

    @pytest.mark.parametrize(
        "tail, message",
        [
            (b"\x07\x00", "unknown demand state 0x07"),
            (b"\x00\x02", "bad result presence byte 0x02"),
            (b"\x02\x00", "COMPUTED"),
        ],
        ids=["state", "presence", "computed-without-result"],
    )
    def test_bad_demand_bytes_rejected(self, tail, message):
        data = wire.encode_signature(DemandSignature("p", "x")) + tail
        with pytest.raises(wire.MalformedEncoding, match=message):
            wire.decode_demand(data)


# Any 8 bytes as a float: NaN payloads, infinities, subnormals, -0.0.
raw_floats = st.binary(min_size=8, max_size=8).map(lambda b: struct.unpack(">d", b)[0])
big_arrays = st.binary(min_size=8 * 512, max_size=8 * 512).map(lambda b: struct.unpack(">512d", b))
raw_values = st.one_of(values, raw_floats, st.lists(raw_floats, max_size=4).map(tuple), big_arrays)


@st.composite
def wide_signatures(draw):
    """Signatures over every value shape, a 512-float FloatArray included."""
    if draw(st.booleans()):
        args = tuple(draw(st.lists(raw_values, max_size=3)))
        return DemandSignature(draw(st.text(max_size=6)), draw(idents), kind=DemandKind.PROCEDURAL, args=args)
    kind = draw(st.sampled_from([k for k in DemandKind if k is not DemandKind.PROCEDURAL]))
    return DemandSignature(draw(st.text(max_size=6)), draw(idents), draw(contexts), kind)


@st.composite
def mutations(draw, data: bytes):
    """``data`` with a few bytes overwritten, inserted or deleted."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["set", "set", "set", "insert", "delete"]))
        at = draw(st.integers(0, len(out)))
        if op == "delete" and at < len(out):
            del out[at]
        elif op == "insert":
            out.insert(at, draw(st.integers(0, 255)))
        elif at < len(out):
            out[at] = draw(st.integers(0, 255))
    return bytes(out)


def assert_canonical_if_accepted(data: bytes) -> bool:
    try:
        sig = wire.decode_signature(data)
    except EductionError:
        return False
    # the key of a decoded signature is ``data`` itself; that is sound only
    # if the fresh encoder gives back exactly the accepted bytes, also for
    # the same signature built anew (``make_context`` sorts the dimensions)
    assert sig.key() == data
    assert wire._encode_signature(sig) == data
    rebuilt = DemandSignature(sig.program_id, sig.name, make_context(sig.context), sig.kind, sig.args)
    assert wire._encode_signature(rebuilt) == data
    return True


class TestCanonicalDecode:
    @settings(max_examples=200)
    @given(st.data())
    def test_accepted_mutations_reencode_to_themselves(self, data):
        encoded = wire.encode_signature(data.draw(wide_signatures()))
        for _ in range(8):
            assert_canonical_if_accepted(data.draw(mutations(encoded)))

    @pytest.mark.parametrize(
        "sig",
        [
            DemandSignature("p", "x", make_context([("d", 3), ("e", -1)])),
            DemandSignature(
                "pé", "f", kind=DemandKind.PROCEDURAL, args=(True, -7, 2.5, "ü!", (0.0, -1.5), Fault("E", "m"))
            ),
        ],
        ids=["intensional", "procedural"],
    )
    def test_every_single_byte_change(self, sig):
        encoded = sig.key()
        accepted = 0
        for at in range(len(encoded)):
            for b in range(256):
                if b != encoded[at]:
                    accepted += assert_canonical_if_accepted(encoded[:at] + bytes([b]) + encoded[at + 1 :])
        assert accepted > len(encoded)  # the sweep is not vacuous

    def test_bit_flips_in_a_512_float_signature(self):
        floats = struct.unpack(">512d", bytes(range(256)) * 16)  # NaNs, subnormals and all
        encoded = DemandSignature("p", "fe", kind=DemandKind.PROCEDURAL, args=(floats, 7)).key()
        accepted = 0
        for at in range(len(encoded)):
            for flip in (0x01, 0x80):
                accepted += assert_canonical_if_accepted(encoded[:at] + bytes([encoded[at] ^ flip]) + encoded[at + 1 :])
        assert accepted >= 2 * 8 * 512


def reference_encode_value(v):
    """Value encoder before FloatArrays were packed in one call."""
    if isinstance(v, list):
        v = tuple(v)
    if isinstance(v, tuple):
        body = b"".join(struct.pack(">d", float(x)) for x in v)
        return b"\x04" + len(v).to_bytes(4, "big") + body
    return wire.encode_value(v)


def reference_encode_signature(sig):
    out = [
        reference_encode_value(sig.program_id),
        reference_encode_value(sig.name),
        bytes([int(sig.kind)]),
        wire.encode_context(sig.context),
        len(sig.args).to_bytes(4, "big"),
    ]
    out.extend(reference_encode_value(a) for a in sig.args)
    return b"".join(out)


def bits(pattern: int) -> float:
    return struct.unpack(">d", pattern.to_bytes(8, "big"))[0]


EDGE_ARRAYS = [
    (),
    (-0.0, 0.0),
    (bits(0x7FF0000000000001), bits(0xFFF8000000000000), bits(0x7FF8DEADBEEF0001), math.nan),
    (5e-324, -5e-324, bits(0x000FFFFFFFFFFFFF), 2.2250738585072014e-308),
    (math.inf, -math.inf, 1.7976931348623157e308),
    (1, -3, 0, 2**53 + 1, 2**63 - 1),
    (True, False, 1.5, True),
    [0.25, 7],
]


class TestFloatArrayBytes:
    @pytest.mark.parametrize("array", EDGE_ARRAYS, ids=range(len(EDGE_ARRAYS)))
    def test_edge_arrays_match_reference(self, array):
        assert wire.encode_value(array) == reference_encode_value(array)
        sig = DemandSignature("p", "f", kind=DemandKind.PROCEDURAL, args=(tuple(array), 1))
        assert wire.encode_signature(sig) == reference_encode_signature(sig)
        d = Demand(sig, DemandState.COMPUTED, array)
        assert wire.encode_demand(d) == reference_encode_signature(sig) + b"\x02\x01" + reference_encode_value(array)

    @given(st.lists(st.one_of(raw_floats, int64s, st.booleans()), max_size=600))
    def test_any_array_matches_reference(self, xs):
        assert wire.encode_value(tuple(xs)) == reference_encode_value(tuple(xs))

    @given(wide_signatures())
    def test_signatures_match_reference(self, sig):
        assert wire.encode_signature(sig) == reference_encode_signature(sig)
        assert wire.encode_demand(Demand(sig)) == reference_encode_signature(sig) + b"\x00\x00"

    @pytest.mark.parametrize("array", [(10**400,), ("x",), (None,), (1.0, object())])
    def test_bad_elements_are_malformed(self, array):
        with pytest.raises(MalformedValue):
            wire.encode_value(array)


class TestGeerCodec:
    SRC = """
    fact where
        dimension d;
        fact = if #.d == 0 then 1 else #.d * (fact @.d (#.d - 1));
        limit = 20;
    end
    """

    def test_roundtrip_preserves_structure(self):
        geer = lang.compile_source(self.SRC, "facts")
        out = wire.decode_geer(wire.encode_geer(geer))
        assert out.program_id == geer.program_id
        assert out.dimensions == geer.dimensions
        assert out.dictionary.keys() == geer.dictionary.keys()
        assert lang.pretty_program(out) == lang.pretty_program(geer)
        assert out.source_digest == geer.source_digest

    def test_roundtrip_with_calls(self):
        src = "y where dimension d; y = call add2(call neg(#.d), x); x = call mul2(2, 3); end"
        geer = lang.compile_source(src, "calls")
        data = wire.encode_geer(geer)
        out = wire.decode_geer(data)
        assert lang.pretty_program(out) == lang.pretty_program(geer)
        assert wire.encode_geer(out) == data

    def test_encoding_is_deterministic(self):
        geer = lang.compile_source(self.SRC, "facts")
        assert wire.encode_geer(geer) == wire.encode_geer(geer)

    def test_bad_magic_rejected(self):
        data = wire.encode_geer(lang.compile_source(self.SRC, "facts"))
        with pytest.raises(lang.MalformedGeer):
            wire.decode_geer(b"XXXX\x01" + data[5:])

    def test_truncation_rejected(self):
        data = wire.encode_geer(lang.compile_source(self.SRC, "facts"))
        with pytest.raises(lang.MalformedGeer):
            wire.decode_geer(data[:-1])

    def test_open_dictionary_rejected(self):
        geer = lang.compile_source(self.SRC, "facts")
        data = wire.encode_geer(geer)
        # corrupt the program by renaming 'fact' references is fiddly; instead
        # hand-build a geer whose root references a missing identifier
        bad = lang.Geer(
            program_id="p",
            dimensions=frozenset(),
            dictionary={"x": lang.Ident("ghost")},
            root_expr=lang.Ident("x"),
            source_digest=geer.source_digest,
        )
        with pytest.raises(lang.MalformedGeer):
            wire.decode_geer(wire.encode_geer(bad))


def geer_bytes(dims=(), entries=(), root=b"\x00" + wire.encode_value(1)) -> bytes:
    """A GEER blob built field by field, so a test can put in what no compiler emits."""
    out = [wire.GEER_MAGIC, wire.encode_value("p"), (0).to_bytes(4, "big"), len(dims).to_bytes(4, "big")]
    out.extend(wire.encode_value(d) for d in dims)
    out.append(len(entries).to_bytes(4, "big"))
    for name, ast in entries:
        out += [wire.encode_value(name), ast]
    return b"".join(out + [root])


class TestGeerDecodeRejects:
    ONE = b"\x00" + wire.encode_value(1)

    def test_hand_built_geer_decodes(self):
        geer = wire.decode_geer(geer_bytes(("d",), (("x", self.ONE),), b"\x01" + wire.encode_value("x")))
        assert geer.dimensions == {"d"} and geer.dictionary == {"x": lang.Literal(1)}

    @pytest.mark.parametrize(
        "data, message",
        [
            (geer_bytes(root=b"\x00" + wire.encode_value("s")), "literals are Int or Float"),
            (geer_bytes(root=bytes([2, len(lang.BINARY_OPS)]) + ONE + ONE), "unknown operator code 13"),
            (geer_bytes(root=b"\x07"), "unknown AST tag 0x07"),
            (geer_bytes(dims=("é",)), "bad dimension name 'é'"),
            (geer_bytes(entries=(("x", ONE), ("x", ONE))), "duplicate dictionary entry 'x'"),
        ],
        ids=["str-literal", "operator-code", "ast-tag", "dimension-name", "duplicate-entry"],
    )
    def test_rejected(self, data, message):
        with pytest.raises(lang.MalformedGeer) as e:
            wire.decode_geer(data)
        assert message in str(e.value)


class TestFraming:
    def test_header_layout(self):
        frame = wire.encode_frame(wire.MsgType.DEPOSIT, b"abc")
        assert frame[:4] == b"GDMF"
        assert frame[4] == 1
        assert frame[5] == 0x01
        assert frame[6:10] == (3).to_bytes(4, "big")
        assert frame[10:] == b"abc"

    def test_parse_frame_roundtrip(self):
        t, payload = wire.parse_frame(wire.encode_frame(wire.MsgType.STATS, b""))
        assert t is wire.MsgType.STATS and payload == b""

    def test_bad_magic_rejected(self):
        frame = bytearray(wire.encode_frame(wire.MsgType.OK, b""))
        frame[0] ^= 0xFF
        with pytest.raises(wire.ProtocolError):
            wire.parse_frame(bytes(frame))

    def test_bad_version_rejected(self):
        frame = bytearray(wire.encode_frame(wire.MsgType.OK, b""))
        frame[4] = 2
        with pytest.raises(wire.ProtocolError):
            wire.parse_frame(bytes(frame))

    def test_unknown_type_rejected(self):
        frame = bytearray(wire.encode_frame(wire.MsgType.OK, b""))
        frame[5] = 0x55
        with pytest.raises(wire.ProtocolError):
            wire.parse_frame(bytes(frame))

    def test_length_mismatch_rejected(self):
        frame = wire.encode_frame(wire.MsgType.OK, b"xy")
        with pytest.raises(wire.ProtocolError):
            wire.parse_frame(frame[:-1])
        with pytest.raises(wire.ProtocolError):
            wire.parse_frame(frame + b"z")

    def test_payload_cap(self):
        header = b"GDMF\x01\x7e" + (wire.MAX_PAYLOAD + 1).to_bytes(4, "big")
        with pytest.raises(wire.MalformedEncoding):
            wire.parse_header(header)

    def test_iter_frames_splits_concatenation(self):
        frames = [
            wire.encode_frame(wire.MsgType.DEPOSIT, b"a"),
            wire.encode_frame(wire.MsgType.FULFILL, b"bb"),
            wire.encode_frame(wire.MsgType.OK, b""),
        ]
        data = b"".join(frames)
        out = list(wire.iter_frames(data))
        assert [(t, p) for t, p, _ in out] == [
            (wire.MsgType.DEPOSIT, b"a"),
            (wire.MsgType.FULFILL, b"bb"),
            (wire.MsgType.OK, b""),
        ]
        assert out[-1][2] == len(data)

    def test_iter_frames_stops_at_truncated_tail(self):
        good = wire.encode_frame(wire.MsgType.DEPOSIT, b"a")
        torn = wire.encode_frame(wire.MsgType.FULFILL, b"bb")[:-1]
        out = list(wire.iter_frames(good + torn))
        assert len(out) == 1 and out[0][2] == len(good)


# --- the Reader-chain codec, kept as the reference -------------------------
# A copy of the decoders and field-by-field encoders that read through
# ``Reader.take``/``u8``/``u32`` before the codec read at offsets.  The
# offset-reading codec must accept exactly what these accept, give equal
# values with byte-equal keys, raise the same error classes, and encode the
# same bytes.


class ChainReader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if n < 0 or self.pos + n > len(self.data):
            raise wire.MalformedEncoding("truncated input")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return int.from_bytes(self.take(4), "big")

    def expect_done(self):
        if self.pos != len(self.data):
            raise wire.TrailingBytes(f"{len(self.data) - self.pos} trailing bytes")


def chain_encode_value(v):
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
        return b"\x05" + chain_encode_value(v.code) + chain_encode_value(v.message)
    try:
        body = struct.pack(f">{len(v)}d", *map(float, v))
    except (TypeError, ValueError, OverflowError) as e:
        raise MalformedValue(f"bad float array element: {e}") from None
    return b"\x04" + len(v).to_bytes(4, "big") + body


def chain_read_value(r):
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
        return Fault(chain_read_str(r), chain_read_str(r))
    raise MalformedValue(f"unknown value tag {tag:#04x}")


def chain_read_str(r):
    v = chain_read_value(r)
    if value_kind(v) != "str":
        raise wire.MalformedEncoding("expected a Str value")
    return v


def chain_read_int(r):
    v = chain_read_value(r)
    if value_kind(v) != "int":
        raise wire.MalformedEncoding("expected an Int value")
    return v


def chain_encode_context(ctx):
    out = [len(ctx.pairs).to_bytes(4, "big")]
    for dim, tag in ctx.pairs:
        out.append(chain_encode_value(dim))
        out.append(chain_encode_value(int(tag)))
    return b"".join(out)


def chain_read_context(r):
    count = r.u32()
    pairs = []
    prev = None
    for _ in range(count):
        dim = chain_read_str(r)
        tag = chain_read_int(r)
        if not is_identifier(dim):
            raise wire.MalformedEncoding(f"bad dimension name {dim!r}")
        if prev is not None and dim <= prev:
            raise wire.NonCanonicalOrder(f"dimension {dim!r} after {prev!r}")
        prev = dim
        pairs.append((dim, tag))
    return Context(tuple(pairs))


def chain_encode_signature(sig):
    out = [
        chain_encode_value(sig.program_id),
        chain_encode_value(sig.name),
        bytes([int(sig.kind)]),
        chain_encode_context(sig.context),
        len(sig.args).to_bytes(4, "big"),
    ]
    out.extend(chain_encode_value(a) for a in sig.args)
    return b"".join(out)


def chain_read_signature(r):
    start = r.pos
    program_id = chain_read_str(r)
    name = chain_read_str(r)
    kind_byte = r.u8()
    try:
        kind = DemandKind(kind_byte)
    except ValueError:
        raise wire.MalformedEncoding(f"unknown demand kind {kind_byte:#04x}") from None
    ctx = chain_read_context(r)
    argc = r.u32()
    args = tuple(chain_read_value(r) for _ in range(argc))
    try:
        sig = DemandSignature(program_id, name, ctx, kind, args)
    except MalformedDemand as e:
        raise wire.MalformedEncoding(str(e)) from None
    object.__setattr__(sig, "_key", bytes(r.data[start : r.pos]))
    return sig


def chain_encode_demand(d):
    out = [chain_encode_signature(d.signature), bytes([int(d.state)])]
    if d.result is None:
        out.append(b"\x00")
    else:
        out.append(b"\x01")
        out.append(chain_encode_value(d.result))
    return b"".join(out)


def chain_read_demand(r):
    sig = chain_read_signature(r)
    state_byte = r.u8()
    try:
        state = DemandState(state_byte)
    except ValueError:
        raise wire.MalformedEncoding(f"unknown demand state {state_byte:#04x}") from None
    presence = r.u8()
    if presence not in (0, 1):
        raise wire.MalformedEncoding(f"bad result presence byte {presence:#04x}")
    result = chain_read_value(r) if presence else None
    try:
        return Demand(sig, state, result)
    except MalformedDemand as e:
        raise wire.MalformedEncoding(str(e)) from None


def chain_encode_frame(msg_type, payload):
    if len(payload) > wire.MAX_PAYLOAD:
        raise wire.MalformedEncoding(f"payload of {len(payload)} bytes exceeds the 16 MiB cap")
    return wire.MAGIC + bytes([wire.VERSION, int(msg_type)]) + len(payload).to_bytes(4, "big") + payload


def chain_parse_header(header):
    if len(header) != wire.HEADER_SIZE:
        raise wire.ProtocolError("short frame header")
    if header[:4] != wire.MAGIC:
        raise wire.ProtocolError(f"bad magic {header[:4]!r}")
    if header[4] != wire.VERSION:
        raise wire.ProtocolError(f"unsupported version {header[4]}")
    try:
        msg_type = wire.MsgType(header[5])
    except ValueError:
        raise wire.ProtocolError(f"unknown message type {header[5]:#04x}") from None
    length = int.from_bytes(header[6:10], "big")
    if length > wire.MAX_PAYLOAD:
        raise wire.MalformedEncoding(f"declared payload of {length} bytes exceeds the 16 MiB cap")
    return msg_type, length


def chain_decode(read, data):
    r = ChainReader(data)
    out = read(r)
    r.expect_done()
    return out


def outcome(fn, *args):
    """``("ok", result)``, or ``("err", class)`` for whatever ``fn`` raised."""
    try:
        return "ok", fn(*args)
    except Exception as e:  # the class is what the two codecs must agree on
        return "err", type(e)


def same_value(a, b) -> bool:
    """Equal values, NaN payloads and -0.0 included: same type, same bytes."""
    floats_inside = type(a) is not tuple or all(type(x) is float for x in a + b)
    return type(a) is type(b) and floats_inside and chain_encode_value(a) == chain_encode_value(b)


def same_signature(a, b) -> bool:
    return (
        a.key() == b.key()
        and type(a.key()) is bytes
        and (a.program_id, a.name, a.kind, a.context.pairs) == (b.program_id, b.name, b.kind, b.context.pairs)
        and len(a.args) == len(b.args)
        and all(same_value(x, y) for x, y in zip(a.args, b.args))
    )


def same_demand(a, b) -> bool:
    if not (same_signature(a.signature, b.signature) and a.state is b.state):
        return False
    return a.result is b.result is None or (b.result is not None and same_value(a.result, b.result))


SHAPES = {  # shape -> (offset-reading decoder, reference decoder, equality)
    "value": (wire.decode_value, lambda d: chain_decode(chain_read_value, d), same_value),
    "context": (wire.decode_context, lambda d: chain_decode(chain_read_context, d), lambda a, b: a.pairs == b.pairs),
    "signature": (wire.decode_signature, lambda d: chain_decode(chain_read_signature, d), same_signature),
    "demand": (wire.decode_demand, lambda d: chain_decode(chain_read_demand, d), same_demand),
}


def scan_signature(data: bytes):
    """The scan a store reads keys with: the signature's kind and key, nothing built."""
    return wire.decode_fields(data, wire.read_key, wire.read_rest)[0]


def chain_scan_signature(data: bytes):
    """What the scan must give: the reference reader's kind and the bytes it consumed."""
    r = ChainReader(data)
    sig = chain_read_signature(r)
    return sig.kind, bytes(data[: r.pos])


def assert_decoders_agree(shape: str, data: bytes):
    new, ref, equal = SHAPES[shape]
    got, want = outcome(new, data), outcome(ref, data)
    assert got[0] == want[0], (data, got, want)
    if got[0] == "err":
        assert got[1] is want[1], (data, got, want)
    else:
        assert equal(got[1], want[1]), (data, got, want)
    if shape in ("signature", "demand"):  # both start with a signature: the scan of it accepts, ends and raises alike
        scanned, want = outcome(scan_signature, data), outcome(chain_scan_signature, data)
        assert scanned == want, (data, scanned, want)


class Level(enum.IntEnum):
    LOW = -3
    HIGH = 1 << 40


class Name(str):
    pass


class Weight(float):
    pass


class Floats(tuple):
    pass


class FloatList(list):
    pass


class Failure(Fault):
    pass


# every value shape: raw floats carry NaN payloads, infinities and -0.0
shaped_values = st.one_of(
    raw_values,
    st.sampled_from([Level.LOW, Level.HIGH, DemandKind.PROCEDURAL, DemandState.COMPUTED, True, False, -0.0]),
    st.builds(Fault, st.text(max_size=8), st.text(max_size=8)),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=12),
)
# encoder inputs, the refused ones included
encoder_inputs = st.one_of(
    shaped_values,
    st.lists(st.one_of(raw_floats, int64s, st.booleans()), max_size=5),
    st.sampled_from(
        [2**63, -(2**63) - 1, "\ud800", "a\udfffb", Fault(1, "m"), Fault("E", None), ("x",), (None,), (10**400,), None, {}, b"x"]
    ),
    st.sampled_from([Name("dé"), Weight(-0.0), Floats((1.0, 2)), FloatList([0.5, True]), Failure("E", Name("m"))]),
)


@st.composite
def shaped_signatures(draw):
    if draw(st.booleans()):
        args = tuple(draw(st.lists(shaped_values, max_size=3)))
        return DemandSignature(draw(st.text(max_size=6)), draw(idents), kind=DemandKind.PROCEDURAL, args=args)
    return DemandSignature(draw(st.text(max_size=6)), draw(idents), draw(contexts), DemandKind.INTENSIONAL)


@st.composite
def shaped_demands(draw):
    sig = draw(shaped_signatures())
    if draw(st.booleans()):
        return Demand(sig, DemandState.COMPUTED, draw(shaped_values))
    return Demand(sig, draw(st.sampled_from([DemandState.PENDING, DemandState.IN_PROCESS])))


@st.composite
def corruptions(draw, data: bytes):
    """``data`` truncated, or with a few bytes overwritten, inserted or deleted."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    return draw(mutations(data))


class TestOffsetCodecMatchesChain:
    """The offset-reading codec against the Reader-chain reference above."""

    @settings(max_examples=300)
    @given(encoder_inputs)
    def test_value_encoder(self, v):
        got, want = outcome(wire.encode_value, v), outcome(chain_encode_value, v)
        assert got == want

    @settings(max_examples=150)
    @given(st.data())
    def test_values(self, data):
        encoded = chain_encode_value(data.draw(shaped_values))
        assert_decoders_agree("value", encoded)
        for _ in range(6):
            assert_decoders_agree("value", data.draw(corruptions(encoded)))

    @given(st.data())
    def test_contexts(self, data):
        ctx = data.draw(contexts)
        encoded = chain_encode_context(ctx)
        assert wire.encode_context(ctx) == encoded
        assert_decoders_agree("context", encoded)
        for _ in range(6):
            assert_decoders_agree("context", data.draw(corruptions(encoded)))

    @settings(max_examples=150)
    @given(st.data())
    def test_signatures(self, data):
        sig = data.draw(shaped_signatures())
        encoded = chain_encode_signature(sig)
        assert wire._encode_signature(sig) == encoded
        assert_decoders_agree("signature", encoded)
        for _ in range(6):
            assert_decoders_agree("signature", data.draw(corruptions(encoded)))

    @settings(max_examples=150)
    @given(st.data())
    def test_demands(self, data):
        d = data.draw(shaped_demands())
        encoded = chain_encode_demand(d)
        assert wire.encode_demand(d) == encoded
        assert_decoders_agree("demand", encoded)
        for _ in range(6):
            assert_decoders_agree("demand", data.draw(corruptions(encoded)))

    @settings(max_examples=300)
    @given(st.sampled_from(list(SHAPES)), st.binary(max_size=48))
    def test_arbitrary_bytes(self, shape, data):
        assert_decoders_agree(shape, data)

    def test_a_512_float_signature_and_demand(self):
        floats = struct.unpack(">512d", bytes(range(256)) * 16)  # NaNs, subnormals and all
        sig = DemandSignature("p", "fe", kind=DemandKind.PROCEDURAL, args=(floats, Level.HIGH, Fault("E", "m")))
        d = Demand(sig, DemandState.COMPUTED, floats)
        assert wire._encode_signature(sig) == chain_encode_signature(sig)
        assert wire.encode_demand(d) == chain_encode_demand(d)
        encoded = chain_encode_demand(d)
        for cut in range(0, len(encoded), 97):
            assert_decoders_agree("demand", encoded[:cut])
        assert_decoders_agree("demand", encoded)

    SWEPT = {  # one encoding per shape, every value kind among them
        "value": [Fault("E", "m"), (0.5, -0.0), True],
        "context": [make_context([("d", 3), ("e", -1), ("t0", 1 << 40)])],
        "signature": [
            DemandSignature("p", "x", make_context([("d", 3), ("e", -1)])),
            DemandSignature("pé", "f", kind=DemandKind.PROCEDURAL, args=(True, -7, 2.5, "ü!", (0.0, -1.5), Fault("E", "m"))),
        ],
        "demand": [
            Demand(DemandSignature("p", "x", make_context([("d", 3)])), DemandState.COMPUTED, (1.5, 2.0)),
            Demand(DemandSignature("p", "x", make_context([("d", 3)])), DemandState.IN_PROCESS),
            Demand(DemandSignature("p", "g", kind=DemandKind.PROCEDURAL, args=(False,)), DemandState.COMPUTED, "r"),
        ],
    }
    ENCODERS = {
        "value": chain_encode_value,
        "context": chain_encode_context,
        "signature": chain_encode_signature,
        "demand": chain_encode_demand,
    }

    @pytest.mark.parametrize("shape", list(SWEPT))
    def test_every_byte_changed_inserted_or_deleted(self, shape):
        """Each position: all 255 other bytes, an insertion of 0x00, 0x01, 0x02, 0x03, 0xff, a deletion, a truncation."""
        for item in self.SWEPT[shape]:
            encoded = self.ENCODERS[shape](item)
            assert_decoders_agree(shape, encoded)
            for at in range(len(encoded) + 1):
                head, tail = encoded[:at], encoded[at:]
                assert_decoders_agree(shape, head)
                assert_decoders_agree(shape, head + tail[1:])
                for b in (0x00, 0x01, 0x02, 0x03, 0xFF):
                    assert_decoders_agree(shape, head + bytes((b,)) + tail)
                if tail:
                    for b in range(256):
                        assert_decoders_agree(shape, head + bytes((b,)) + tail[1:])

    @given(st.sampled_from(list(wire.MsgType)), st.binary(max_size=64))
    def test_frames(self, msg_type, payload):
        frame = wire.encode_frame(msg_type, payload)
        assert frame == chain_encode_frame(msg_type, payload)
        assert wire.parse_header(frame[: wire.HEADER_SIZE]) == chain_parse_header(frame[: wire.HEADER_SIZE])

    @settings(max_examples=300)
    @given(st.one_of(st.binary(min_size=10, max_size=10), st.binary(max_size=12).map(lambda b: b"GDMF\x01" + b)))
    def test_headers(self, header):
        assert outcome(wire.parse_header, header) == outcome(chain_parse_header, header)


def full_decoder_request(store, msg_type, payload):
    """A request that names a signature, served by decoding it in full: the reference for the keyed path."""
    MsgType = wire.MsgType
    if msg_type is MsgType.DEPOSIT:
        out = store.deposit(chain_decode(chain_read_demand, payload))
        body = bytes((out.status.value,))
        if out.status is DepositStatus.ALREADY_COMPUTED:
            body += chain_encode_value(out.value)
        return MsgType.OK, body
    if msg_type is MsgType.FETCH:
        state, value = store.fetch(chain_decode(chain_read_signature, payload))
        return MsgType.FETCH_REPLY, bytes([int(state)]) + (b"\x00" if value is None else b"\x01" + chain_encode_value(value))
    r = ChainReader(payload)
    sig = chain_read_signature(r)
    if msg_type is MsgType.AWAIT:
        timeout_ms = chain_read_int(r)
        r.expect_done()
        return MsgType.OK, chain_encode_value(store.await_result(sig, timeout_ms))
    value = chain_read_value(r)
    worker = chain_read_str(r)
    r.expect_done()
    store.fulfill(sig, value, worker)
    return MsgType.OK, b""


class TestKeyedDispatch:
    """The store serves each request that names a signature from its key: the same reply as a full decode, every time."""

    @staticmethod
    def bases(msg_type):
        """Valid requests of this type for the swept signatures and demands."""
        swept = TestOffsetCodecMatchesChain.SWEPT
        sigs = swept["signature"]
        if msg_type is wire.MsgType.DEPOSIT:
            return [wire.encode_demand(Demand(s)) for s in sigs] + [wire.encode_demand(d) for d in swept["demand"]]
        if msg_type is wire.MsgType.FULFILL:
            return [s.key() + wire.encode_value(v) + wire.encode_value("w") for s, v in zip(sigs, swept["value"])]
        if msg_type is wire.MsgType.FETCH:
            return [s.key() for s in sigs]
        return [s.key() + wire.encode_value(0) for s in sigs]  # AWAIT

    @classmethod
    def payloads(cls, *msg_types):
        """Requests of these types, each valid one and then every byte of it changed, dropped or cut at."""
        for msg_type in msg_types:
            for base in cls.bases(msg_type):
                yield msg_type, base
                for at in range(len(base) + 1):
                    head, tail = base[:at], base[at:]
                    yield msg_type, head
                    yield msg_type, head + tail[1:]
                    if tail:
                        for b in range(256):
                            yield msg_type, head + bytes((b,)) + tail[1:]

    @staticmethod
    def assert_same_replies(requests) -> set:
        """Serve ``requests`` on two stores, keyed and by full decode; the error codes they answered."""
        keyed, full = DemandStore(), DemandStore()
        codes = set()
        for msg_type, payload in requests:
            got = transport.dispatch_store_request(keyed, msg_type, payload)
            want = transport.answer(full_decoder_request, full, msg_type, payload)
            assert got == want, (msg_type, payload)
            if got[0] is wire.MsgType.ERR:
                codes.add(wire.read_value(got[1], 0)[0])
        assert keyed.stats() == full.stats()
        return codes

    def test_every_byte_changed_or_cut(self):
        MsgType = wire.MsgType
        codes = self.assert_same_replies(self.payloads(MsgType.DEPOSIT, MsgType.FULFILL))
        # values to find, and no deposit, so nothing is queued and no AWAIT waits
        seeds = [(MsgType.FULFILL, p) for p in self.bases(MsgType.FULFILL)]
        codes |= self.assert_same_replies(seeds + list(self.payloads(MsgType.FETCH, MsgType.AWAIT)))
        # the corpus reaches every refusal of the decoders and of the store
        refusals = {"MalformedEncoding", "MalformedValue", "NonCanonicalOrder", "TrailingBytes", "MalformedDemand"}
        assert refusals | {"NotFound", "ProcedureFault"} <= codes

    @settings(max_examples=150)
    @given(st.data())
    def test_mutated_shapes(self, data):
        sig = data.draw(shaped_signatures())
        deposit = wire.encode_demand(data.draw(shaped_demands()))
        fulfil = sig.key() + chain_encode_value(data.draw(shaped_values)) + wire.encode_value("w")
        requests = [(wire.MsgType.FULFILL, fulfil), (wire.MsgType.FULFILL, data.draw(corruptions(fulfil)))]
        for msg_type, payload in ((wire.MsgType.FETCH, sig.key()), (wire.MsgType.AWAIT, sig.key() + wire.encode_value(0))):
            requests += [(msg_type, payload), (msg_type, data.draw(corruptions(payload)))]
        self.assert_same_replies(requests)  # before any deposit: an AWAIT never waits
        self.assert_same_replies([(wire.MsgType.DEPOSIT, deposit), (wire.MsgType.DEPOSIT, data.draw(corruptions(deposit)))])

    def test_builds_no_signature_it_does_not_queue(self, tmp_path, monkeypatch):
        sig = DemandSignature("p", "x", make_context([("d", 3), ("e", -1)]))
        deposit = wire.encode_demand(Demand(sig))
        fulfil = sig.key() + wire.encode_value(6) + wire.encode_value("dgt")
        proc = DemandSignature("p", "fe", kind=DemandKind.PROCEDURAL, args=((0.5,) * 64,))
        proc_deposit = wire.encode_demand(Demand(proc))
        proc_fulfil = proc.key() + wire.encode_value(1.5) + wire.encode_value("w")
        log = tmp_path / "store.log"
        store, procs = DemandStore(log_path=str(log)), DemandStore()
        OK, DEPOSIT, FULFILL = wire.MsgType.OK, wire.MsgType.DEPOSIT, wire.MsgType.FULFILL
        assert transport.dispatch_store_request(procs, DEPOSIT, proc_deposit) == (OK, b"\x00")
        assert procs.claim("w", 60000).signature == proc  # queued: the one signature built

        def built(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        for cls in (DemandSignature, Context, Demand):
            monkeypatch.setattr(cls, "__init__", built)
        with pytest.raises(AssertionError):
            DemandSignature("p", "x")  # the patch holds
        assert transport.dispatch_store_request(store, DEPOSIT, deposit) == (OK, b"\x00")
        assert transport.dispatch_store_request(store, FULFILL, fulfil) == (OK, b"")
        assert transport.dispatch_store_request(store, FULFILL, fulfil) == (OK, b"")  # idempotent
        assert transport.dispatch_store_request(store, DEPOSIT, deposit) == (OK, b"\x01" + wire.encode_value(6))
        # a procedural fulfil, a deposit that hits, a fetch and an await need no signature either
        value = wire.encode_value(1.5)
        assert transport.dispatch_store_request(procs, FULFILL, proc_fulfil) == (OK, b"")
        assert transport.dispatch_store_request(procs, DEPOSIT, proc_deposit) == (OK, b"\x01" + value)
        assert transport.dispatch_store_request(procs, wire.MsgType.FETCH, proc.key()) == (wire.MsgType.FETCH_REPLY, b"\x02\x01" + value)
        assert transport.dispatch_store_request(procs, wire.MsgType.AWAIT, proc.key() + wire.encode_value(0)) == (OK, value)
        store.close()
        # the log holds the received bytes, and reopening it builds nothing either
        assert log.read_bytes() == wire.encode_frame(FULFILL, fulfil[: -len(wire.encode_value("dgt"))])
        reopened = DemandStore(log_path=str(log))
        assert reopened.deposit_key(sig.key()).value == 6
        reopened.close()


class HugeUtf8(str):
    """A Str whose UTF-8 form claims more bytes than a 4-byte length holds."""

    class Bytes(bytes):
        def __len__(self):
            return 1 << 32

    def encode(self, *args):
        return self.Bytes()


class TestRefusals:
    """Branches of the codec that no other test takes, each with its error class."""

    def test_unencodable_str(self):
        with pytest.raises(MalformedValue):
            wire.encode_value("\ud800")
        with pytest.raises(MalformedValue):
            DemandSignature("p", "\ud800").key()

    def test_str_longer_than_its_length_field(self):
        with pytest.raises(MalformedValue, match="too long"):
            wire.encode_value(HugeUtf8("x"))

    def test_frame_payload_cap(self):
        at_cap = bytes(wire.MAX_PAYLOAD)
        assert len(wire.encode_frame(wire.MsgType.OK, at_cap)) == wire.HEADER_SIZE + wire.MAX_PAYLOAD
        with pytest.raises(wire.MalformedEncoding, match="16 MiB"):
            wire.encode_frame(wire.MsgType.OK, at_cap + b"\x00")
        header = b"GDMF\x01\x7e" + wire.MAX_PAYLOAD.to_bytes(4, "big")
        assert wire.parse_header(header) == (wire.MsgType.OK, wire.MAX_PAYLOAD)

    @pytest.mark.parametrize("header", [b"", b"GDMF\x01", b"GDMF\x01\x7e\x00\x00\x00\x00\x00"], ids=["empty", "5", "11"])
    def test_header_of_the_wrong_size(self, header):
        with pytest.raises(wire.ProtocolError, match="short frame header"):
            wire.parse_header(header)

    def test_iter_frames_stops_at_a_torn_header(self):
        good = wire.encode_frame(wire.MsgType.DEPOSIT, b"a")
        out = list(wire.iter_frames(good + good[:5]))
        assert [(t, p, end) for t, p, end in out] == [(wire.MsgType.DEPOSIT, b"a", len(good))]

    def test_encode_geer_refuses_what_is_not_a_node(self):
        geer = lang.compile_source("x where x = 1; end", "p")
        with pytest.raises(wire.MalformedEncoding, match="not an AST node"):
            wire.encode_geer(dataclasses.replace(geer, root_expr="x"))


def sweep(base: bytes):
    """``base``, then every cut of it, and each of its bytes dropped or changed to every value."""
    yield base
    for at in range(len(base) + 1):
        head, tail = base[:at], base[at:]
        yield head
        if tail:
            yield head + tail[1:]
            for b in range(256):
                yield head + bytes((b,)) + tail[1:]


def decodes_or_refuses(decode, base: bytes):
    """``decode`` takes ``base``, and every input of its sweep it decodes or refuses with an ``EductionError``."""
    decode(base)
    for data in sweep(base):
        try:
            decode(data)
        except EductionError:
            pass


def not_internal(reply) -> bool:
    reply_type, body = reply
    return reply_type is not wire.MsgType.ERR or wire.read_value(body, 0)[0] != "InternalError"


class TestEveryDecoderRefusesCleanly:
    """Each decoder over every cut, dropped byte and changed byte of a valid input: a result or an ``EductionError``.

    The readers bounds-check nothing themselves, so an ``IndexError`` or a
    ``struct.error`` here is a reader run outside ``wire.decode_fields``.
    """

    GEER = wire.encode_geer(
        lang.compile_source("x where dimension d; x = if #.d < 1 then 0.5 else call f(y @.d 1); y = x; end", "p")
    )
    TSET = P.encode_training_set(P.TrainingSet(windows=2, subjects={1: ((0.5, 1.5), 3), -2: ((2.0, -0.0), 1)}))
    KEY = DemandSignature("p", "x", make_context([("d", 3)])).key()
    PROC_KEY = DemandSignature("p", "f", kind=DemandKind.PROCEDURAL, args=(1, "a")).key()

    class NoWaitStore(DemandStore):
        def claim(self, worker_id, lease_ms, wait_ms=0):
            return super().claim(worker_id, lease_ms, 0)  # a changed wait must not stall the sweep

    REQUESTS = {
        wire.MsgType.CLAIM: wire.encode_value("w") + wire.encode_value(60000) + wire.encode_value(0),
        wire.MsgType.RESOURCE_PUT: wire.encode_value("p") + len(GEER).to_bytes(4, "big") + GEER,
        wire.MsgType.RESOURCE_GET: wire.encode_value("p"),
        wire.MsgType.STATS: b"\x00",  # the valid request is empty, so its sweep starts one byte long
    }

    @pytest.mark.parametrize("msg_type", list(REQUESTS), ids=lambda t: t.name)
    def test_store_requests(self, msg_type):
        store = self.NoWaitStore()
        store.deposit(Demand(DemandSignature("p", "f", kind=DemandKind.PROCEDURAL, args=(1,))))
        store.put_resource("p", self.GEER)
        for payload in sweep(self.REQUESTS[msg_type]):
            assert not_internal(transport.dispatch_store_request(store, msg_type, payload)), payload

    def test_system_payload(self):
        payload = bytes((1,)) + transport.encode_system_reply({"a": [1, "é"], "b": None})
        for data in sweep(payload):
            assert not_internal(transport.dispatch_system_request({1: lambda body: body}, wire.MsgType.SYSTEM, data)), data

    def test_err_body(self):
        for body in sweep(wire.encode_value("NotFound") + wire.encode_value("no such key")):
            client = transport.StoreClient(transport.InProcAgent(lambda t, p, body=body: (wire.MsgType.ERR, body)))
            with pytest.raises(EductionError):
                client.stats()

    @pytest.mark.parametrize(
        "decode, base",
        [(wire.decode_geer, GEER), (P.decode_training_set, TSET)],
        ids=["geer", "tset"],
    )
    def test_resources(self, decode, base):
        decodes_or_refuses(decode, base)

    @pytest.mark.parametrize(
        "msg_type, record",
        [
            (wire.MsgType.FULFILL, KEY + wire.encode_value(6)),
            (wire.MsgType.RESOURCE_PUT, wire.encode_value("m") + len(TSET).to_bytes(4, "big") + TSET),
            (wire.MsgType.DEPOSIT, PROC_KEY + b"\x00\x00"),
        ],
        ids=["fulfill", "resource-put", "deposit"],
    )
    def test_replayed_records(self, msg_type, record):
        decodes_or_refuses(lambda data: DemandStore()._replay(msg_type, data), record)

    def test_a_length_past_the_end_is_truncation(self):
        """A slice past the end raises nothing, so ``read_bytes`` checks its length itself."""
        with pytest.raises(wire.MalformedEncoding, match="truncated input"):
            wire.decode_fields(wire.encode_value("p") + (3).to_bytes(4, "big") + b"ab", wire.read_str, wire.read_bytes)
