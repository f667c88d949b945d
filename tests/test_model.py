"""Values, contexts, signatures, demands."""
import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from eduction.model import (
    Context,
    Demand,
    DemandKind,
    DemandSignature,
    DemandState,
    EMPTY_CONTEXT,
    BadDimensionName,
    DuplicateDimension,
    INT64_MAX,
    INT64_MIN,
    MalformedDemand,
    as_float_array,
    is_finite_value,
    make_context,
    pending_demand,
    value_kind,
)

dims = st.sampled_from(["d", "e", "f", "time", "x1"])
tags = st.integers(min_value=-(2**40), max_value=2**40)


class TestContext:
    def test_pairs_sorted_regardless_of_insertion_order(self):
        a = make_context([("e", 2), ("d", 1)])
        b = make_context([("d", 1), ("e", 2)])
        assert a.pairs == (("d", 1), ("e", 2))
        assert a == b and hash(a) == hash(b)

    def test_get_defaults_to_zero(self):
        assert make_context([("d", 5)]).get("e") == 0
        assert EMPTY_CONTEXT.get("d") == 0

    def test_override_is_persistent(self):
        base = make_context([("d", 1)])
        assert base.override("d", 9).get("d") == 9
        assert base.get("d") == 1
        assert base.override("e", 3).pairs == (("d", 1), ("e", 3))

    def test_restrict_drops_undeclared(self):
        ctx = make_context([("d", 1), ("e", 2), ("f", 3)])
        assert ctx.restrict({"d", "f"}).pairs == (("d", 1), ("f", 3))
        assert ctx.restrict(set()) == EMPTY_CONTEXT

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(DuplicateDimension):
            make_context([("d", 1), ("d", 2)])

    def test_bad_dimension_name_rejected(self):
        with pytest.raises(BadDimensionName):
            make_context([("9d", 1)])
        with pytest.raises(BadDimensionName):
            make_context([("", 1)])

    def test_str_form(self):
        assert str(make_context([("e", 2), ("d", 1)])) == "{d=1,e=2}"
        assert str(EMPTY_CONTEXT) == "{}"

    @given(st.dictionaries(dims, tags, max_size=4))
    def test_roundtrip_dict(self, mapping):
        ctx = make_context(mapping.items())
        assert ctx.as_dict() == mapping
        assert list(ctx) == sorted(mapping.items())


class TestValues:
    def test_value_kind_orders_bool_before_int(self):
        assert value_kind(True) == "bool"
        assert value_kind(1) == "int"
        assert value_kind(1.0) == "float"
        assert value_kind("s") == "str"
        assert value_kind((1.0, 2.0)) == "floats"

    def test_finiteness(self):
        assert is_finite_value(1.5) and is_finite_value((0.0, -1.0))
        assert not is_finite_value(float("nan"))
        assert not is_finite_value(float("inf"))
        assert not is_finite_value((1.0, float("nan")))

    def test_as_float_array_coerces(self):
        assert as_float_array([1, 2]) == (1.0, 2.0)
        assert all(isinstance(x, float) for x in as_float_array([1, 2]))


class TestSignature:
    def test_equality_is_key_equality(self):
        a = DemandSignature("p", "x", make_context([("d", 1)]))
        b = DemandSignature("p", "x", make_context([("d", 1)]))
        c = DemandSignature("p", "x", make_context([("d", 2)]))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a.key() == b.key() != c.key()

    def test_signed_zero_floats_are_distinct_procedural_keys(self):
        # byte equality of the canonical encoding, not numeric equality
        a = DemandSignature("p", "f", kind=DemandKind.PROCEDURAL, args=(0.0,))
        b = DemandSignature("p", "f", kind=DemandKind.PROCEDURAL, args=(-0.0,))
        assert a != b and a.key() != b.key()

    def test_procedural_signatures_are_context_free(self):
        with pytest.raises(MalformedDemand):
            DemandSignature(
                "p", "f", make_context([("d", 1)]), DemandKind.PROCEDURAL, args=(1,)
            )

    def test_intensional_signatures_carry_no_args(self):
        with pytest.raises(MalformedDemand):
            DemandSignature("p", "x", EMPTY_CONTEXT, DemandKind.INTENSIONAL, args=(1,))

    def test_str_is_informative(self):
        s = str(DemandSignature("prog", "x", make_context([("d", 4)])))
        assert "prog" in s and "x" in s and "d=4" in s


class TestDemand:
    def test_computed_requires_result(self):
        sig = DemandSignature("p", "x")
        with pytest.raises(MalformedDemand):
            Demand(sig, DemandState.COMPUTED, None)
        with pytest.raises(MalformedDemand):
            Demand(sig, DemandState.PENDING, 42)

    def test_pending_demand_shape(self):
        d = pending_demand(DemandSignature("p", "x"))
        assert d.state is DemandState.PENDING
        assert d.result is None
        # exactly what travels on the wire: leases are the store's bookkeeping
        assert [f.name for f in dataclasses.fields(d)] == ["signature", "state", "result"]


def test_int64_bounds():
    assert INT64_MIN == -(2**63) and INT64_MAX == 2**63 - 1
    assert math.isfinite(float(INT64_MAX))
