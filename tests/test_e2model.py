from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from ricmerge import wire
from ricmerge.e2model import (
    DuplicateKpiError,
    KpiDemand,
    SubscriptionItem,
    SubscriptionRequest,
    decompose,
    request_fingerprint,
)


def request(xapp, node, items):
    return SubscriptionRequest(xapp, node, tuple(SubscriptionItem(*i) for i in items))


class TestDecompose:
    def test_single_item(self):
        demands = decompose(request(1, 1, [("a", 10)]))
        assert len(demands) == 1
        d = demands[0]
        assert (d.xapp, d.node, d.kpi, d.period_ms, d.sensitivity_ms) == (1, 1, "a", 10, None)

    def test_field_copy_preserves_order(self):
        demands = decompose(request(1, 1, [("a", 10), ("b", 20, 5)]))
        assert [d.kpi for d in demands] == ["a", "b"]
        assert demands[1].sensitivity_ms == 5

    def test_item_that_is_not_a_subscription_item_rejected_by_name(self):
        # ``decompose`` does not check again, so an object that merely has
        # the item's fields (here an unchecked 0 ms period) must not pass.
        class Lookalike:
            kpi, period_ms, sensitivity_ms = "b", 0, None

            def __repr__(self):
                return "Lookalike(b, 0 ms)"

        with pytest.raises(TypeError, match=r"not a SubscriptionItem: Lookalike\(b, 0 ms\)"):
            SubscriptionRequest(1, 1, (SubscriptionItem("a", 10), Lookalike()))
        with pytest.raises(TypeError, match=r"not a SubscriptionItem: \('a', 10\)"):
            SubscriptionRequest(1, 1, (("a", 10),))

    def test_duplicate_kpi_rejected_with_offender(self):
        with pytest.raises(DuplicateKpiError) as exc:
            request(1, 1, [("a", 10), ("a", 20)])
        assert exc.value.kpi == "a"


class TestFingerprint:
    def test_same_content_from_two_xapps_collides(self):
        a = request(1, 1, [("a", 10), ("b", 20)])
        b = request(2, 1, [("a", 10), ("b", 20)])
        assert request_fingerprint(a) == request_fingerprint(b)

    def test_period_change_differs(self):
        a = request(1, 1, [("a", 10)])
        b = request(1, 1, [("a", 20)])
        assert request_fingerprint(a) != request_fingerprint(b)

    def test_item_order_differs(self):
        a = request(1, 1, [("a", 10), ("b", 10)])
        b = request(1, 1, [("b", 10), ("a", 10)])
        assert request_fingerprint(a) != request_fingerprint(b)

    def test_sensitivity_presence_differs(self):
        a = request(1, 1, [("a", 10, None)])
        b = request(1, 1, [("a", 10, 1)])
        assert request_fingerprint(a) != request_fingerprint(b)

    def test_node_id_is_in_the_key_and_xapp_id_is_not(self):
        key = request_fingerprint(request(9, 2, [("ab", 10), ("c", 20, 5)]))
        assert key == request_fingerprint(request(1, 2, [("ab", 10), ("c", 20, 5)]))
        assert key != request_fingerprint(request(9, 3, [("ab", 10), ("c", 20, 5)]))


kpi_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8
)
items_strategy = st.lists(
    st.tuples(kpi_names, st.integers(1, 1000), st.none() | st.integers(1, 1000)),
    min_size=1,
    max_size=5,
    unique_by=lambda i: i[0],
)
requests_strategy = st.builds(
    request, st.integers(0, 5), st.integers(0, 5), items_strategy
)


def content_bytes(req):
    """The request's node and items as subscribe-frame bytes under one fixed
    sender, so the xApp id is left out as the whole-request key leaves it out."""
    return wire.encode(wire.Subscribe(0, req.node, req.items))


@given(requests_strategy, requests_strategy)
def test_fingerprint_equality_tracks_wire_bytes(a, b):
    """Identical subscriptions are byte-identical ones: keys are equal
    exactly when the node and items encode to the same bytes."""
    assert (request_fingerprint(a) == request_fingerprint(b)) == (
        content_bytes(a) == content_bytes(b)
    )


@given(requests_strategy)
def test_decompose_is_lossless(req):
    demands = decompose(req)
    assert all((d.xapp, d.node) == (req.xapp, req.node) for d in demands)
    rebuilt = tuple(
        SubscriptionItem(d.kpi, d.period_ms, d.sensitivity_ms) for d in demands
    )
    assert rebuilt == req.items


@given(requests_strategy)
def test_decompose_equals_the_validating_constructor(req):
    """``decompose`` writes the slots without ``KpiDemand.__init__``; its
    demands are indistinguishable from the constructor's and stay frozen."""
    demands = decompose(req)
    built = [
        KpiDemand(req.xapp, req.node, item.kpi, item.period_ms, item.sensitivity_ms)
        for item in req.items
    ]
    assert demands == built
    assert [hash(d) for d in demands] == [hash(d) for d in built]
    assert [repr(d) for d in demands] == [repr(d) for d in built]
    assert all(type(d) is KpiDemand for d in demands)
    with pytest.raises(FrozenInstanceError):
        demands[0].period_ms = 1


class TestValidation:
    def test_empty_items_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionRequest(1, 1, ())

    def test_period_bounds(self):
        with pytest.raises(ValueError):
            SubscriptionItem("a", 0)
        with pytest.raises(ValueError):
            SubscriptionItem("a", 3_600_001)

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            request(-1, 0, [("a", 10)])

    def test_empty_kpi_rejected(self):
        with pytest.raises(ValueError):
            SubscriptionItem("", 10)
