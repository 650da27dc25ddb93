"""Flow key layout: KeyScope concatenates the selected slots, left-aligned."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm.extractor import KeyScope


def test_flow_key_single_field_left_aligned():
    scope = KeyScope([(0, 32)])
    assert scope.key([0x0A000001] + [0] * 7) == 0x0A000001 << 96


def test_flow_key_concatenation_order():
    scope = KeyScope([(0, 16), (1, 8)])
    assert scope.key([0x1234, 0x56] + [0] * 6) == 0x123456 << (128 - 24)


def test_empty_scope_rejected():
    with pytest.raises(ValueError):
        KeyScope([])


def test_scope_width_bound():
    with pytest.raises(ValueError):
        KeyScope([(i % 8, 32) for i in range(5)])


def test_src_and_dst_scopes_differ():
    # source and destination station ids in separate slots
    h = [0x020000AA, 0x020000BB] + [0] * 6
    src_key = KeyScope([(0, 32)]).key(h)
    dst_key = KeyScope([(1, 32)]).key(h)
    assert src_key != dst_key


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flow_key_injective_over_field_values(data):
    widths = data.draw(
        st.lists(st.integers(min_value=1, max_value=32), min_size=1, max_size=4)
    )
    scope = KeyScope(list(enumerate(widths)))
    vals_a = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
    vals_b = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
    key_a = scope.key(vals_a + [0] * (8 - len(vals_a)))
    key_b = scope.key(vals_b + [0] * (8 - len(vals_b)))
    if vals_a == vals_b:
        assert key_a == key_b
    else:
        assert key_a != key_b
