"""Canonical encodings, framing, and their strictness."""
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from eduction import lang, wire
from eduction.errors import EductionError
from eduction.model import (
    Demand,
    DemandKind,
    DemandSignature,
    DemandState,
    EMPTY_CONTEXT,
    Fault,
    MalformedValue,
    make_context,
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
        r = wire.Reader(wire.encode_context(ctx))
        assert wire.read_context(r) == ctx
        r.expect_done()

    def test_out_of_order_pairs_rejected(self):
        good = wire.encode_context(make_context([("d", 1), ("e", 2)]))
        # swap the two (dim, tag) pairs after the count
        body = good[4:]
        first_len = 4 + 1 + struct.unpack(">I", body[1:5])[0] + 9
        swapped = good[:4] + body[first_len:] + body[:first_len]
        with pytest.raises(wire.NonCanonicalOrder):
            wire.read_context(wire.Reader(swapped))

    def test_duplicate_dim_rejected(self):
        pair = wire.encode_context(make_context([("d", 1)]))[4:]
        data = b"\x00\x00\x00\x02" + pair + pair
        with pytest.raises(wire.NonCanonicalOrder):
            wire.read_context(wire.Reader(data))


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
