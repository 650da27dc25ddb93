import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm.extractor import FieldSpec, KeyScope, extract, extract_field

from helpers import build_frame


def test_first_byte():
    rec = extract(b"\x45\x00\x00", [FieldSpec(0, 8, 0xFF)])
    assert rec.h[0] == 0x45
    assert not rec.truncated


def test_null_mask_zeroes_field():
    rec = extract(b"\xff\xff", [FieldSpec(0, 8, 0x0)])
    assert rec.h[0] == 0


def test_ipv4_source_from_frame():
    frame = build_frame(ip_src=0x0A000001, ip_dst=0xC0A80101)
    # independent check: bytes 26..30 hold the IPv4 source
    expected = int.from_bytes(frame[26:30], "big")
    assert expected == 0x0A000001
    rec = extract(frame, [FieldSpec(26 * 8, 32)])
    assert rec.h[0] == expected


def test_unaligned_field():
    # bits 4..12 of 0xAB CD: 0xBC
    value, truncated = extract_field(b"\xab\xcd", FieldSpec(4, 8, 0xFF))
    assert (value, truncated) == (0xBC, False)


def test_short_packet_reads_zero_and_flags():
    rec = extract(b"\x01", [FieldSpec(0, 8), FieldSpec(8, 16)])
    assert rec.h[0] == 1
    assert rec.h[1] == 0
    assert rec.truncated


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
    frame = build_frame(
        eth_src=b"\x02\x00\x00\x00\x00\xaa", eth_dst=b"\x02\x00\x00\x00\x00\xbb"
    )
    # lower 32 bits of each MAC land in separate slots
    rec = extract(frame, [FieldSpec(8 * 8, 32), FieldSpec(2 * 8, 32)])
    src_key = KeyScope([(0, 32)]).key(rec.h)
    dst_key = KeyScope([(1, 32)]).key(rec.h)
    assert src_key != dst_key


def test_extract_is_pure():
    frame = build_frame()
    specs = [FieldSpec(26 * 8, 32), FieldSpec(30 * 8, 32)]
    assert extract(frame, specs).h == extract(frame, specs).h


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
