import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm.alu import parse_selector, selector_name
from flowfsm.conditions import CmpOp, ConditionSpec, evaluate


def spec(op, lhs, rhs):
    return ConditionSpec(op, parse_selector(lhs), parse_selector(rhs))


R = [0, 0, 0, 0]
G = [0, 0, 0, 0]
H = [0] * 8


def test_port_scan_threshold_case():
    # R0 >= G0 with R0=25, G0=20
    bits = evaluate([spec(CmpOp.GE, "R0", "G0")], [25, 0, 0, 0], [20, 0, 0, 0], H)
    assert bits == 0b1


def test_reflexive_equality_always_true():
    bits = evaluate([spec(CmpOp.EQ, "R1", "R1")], R, G, H)
    assert bits == 0b1


def test_token_bucket_window_case():
    # Tmin=800 in R0, Tmax=1100 in R1, now=1010 in H6
    specs = [spec(CmpOp.GE, "H6", "R0"), spec(CmpOp.LE, "H6", "R1")]
    h = [0] * 8
    h[6] = 1010
    bits = evaluate(specs, [800, 1100, 0, 0], G, h)
    assert bits & 0b11 == 0b11


def test_unconfigured_slots_read_zero():
    bits = evaluate([spec(CmpOp.EQ, "R0", "R0")], R, G, H)
    assert bits == 0b1


def test_slot_order_is_bit_order():
    specs = [
        spec(CmpOp.EQ, "R0", "G1"),  # false: 0 == 5
        spec(CmpOp.LT, "R0", "G1"),  # true
    ]
    bits = evaluate(specs, R, [0, 5, 0, 0], H)
    assert bits == 0b10


def test_operand_parsing():
    # comparator operands use the update unit's selector encoding
    assert parse_selector("R3") == 3
    assert parse_selector("g2") == 6
    assert parse_selector("H7") == 15
    assert selector_name(14) == "H6"
    for bad in ("R4", "G9", "H8", "X0", "R", ""):
        with pytest.raises(ValueError):
            parse_selector(bad)


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(0, 2**32 - 1),
    b=st.integers(0, 2**32 - 1),
)
def test_comparison_trichotomy(a, b):
    r = [a, b, 0, 0]
    results = {
        op: evaluate([spec(op, "R0", "R1")], r, G, H) == 1
        for op in CmpOp
    }
    assert sum((results[CmpOp.LT], results[CmpOp.EQ], results[CmpOp.GT])) == 1
    assert results[CmpOp.GE] == (results[CmpOp.GT] or results[CmpOp.EQ])
    assert results[CmpOp.LE] == (results[CmpOp.LT] or results[CmpOp.EQ])


def test_evaluation_pure():
    specs = [spec(CmpOp.GT, "H0", "G0")]
    h = [7] + [0] * 7
    g = [3, 0, 0, 0]
    assert evaluate(specs, R, g, h) == evaluate(specs, R, g, h) == 0b1
