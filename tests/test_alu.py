import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowfsm.alu import (
    AluRuntime,
    Instruction,
    Opcode,
    decode,
    encode,
    exec_avg,
    exec_basic,
    exec_ewma,
    exec_var,
    execute_tuple,
    format_instruction,
    parse_instruction,
    validate_tuple,
)

WORD = 0xFFFFFFFF


# --- basic instruction set -------------------------------------------------


@pytest.mark.parametrize(
    "op,in1,in2,expected",
    [
        (Opcode.ADD, 3, 4, 7),
        (Opcode.ADD, WORD, 1, 0),  # wrap
        (Opcode.SUB, 3, 5, 0xFFFFFFFE),  # wrap below zero
        (Opcode.SUBI, 3, 5, 0xFFFFFFFE),
        (Opcode.MUL, 0x10000, 0x10000, 0),  # wrap
        (Opcode.DIV, 7, 2, 3),  # truncation
        (Opcode.XOR, 0b1100, 0b1010, 0b0110),
        (Opcode.AND, 0b1100, 0b1010, 0b1000),
        (Opcode.OR, 0b1100, 0b1010, 0b1110),
        (Opcode.NOT, 0, 0, WORD),
        (Opcode.LSL, 1, 4, 16),
        (Opcode.LSL, 1, 33, 2),  # shift amount mod 32
        (Opcode.LSR, 16, 4, 1),
        (Opcode.ROR, 0x00000001, 1, 0x80000000),
        (Opcode.ROR, 0x12345678, 0, 0x12345678),
        (Opcode.ROR, 0x12345678, 32, 0x12345678),
    ],
)
def test_basic_ops(op, in1, in2, expected):
    assert exec_basic(op, in1, in2) == expected


def test_division_by_zero_totalized():
    rt = AluRuntime()
    assert exec_basic(Opcode.DIV, 5, 0, rt) == 0
    assert rt.div_zero == 1


def test_hw_faithful_division_narrows_operands():
    rt = AluRuntime(hw16_div=True)
    # dividend truncated to 16 bits: 0x10004 -> 4
    assert exec_basic(Opcode.DIV, 0x10004, 2, rt) == 2
    # divisor truncated to 16 bits: 0x10000 -> 0 -> division by zero
    assert exec_basic(Opcode.DIV, 8, 0x10000, rt) == 0
    assert rt.div_zero == 1


# --- running mean ------------------------------------------------------------


def test_avg_first_sample():
    assert exec_avg(0, 0, 10) == (1, 10)


def test_avg_second_sample_is_true_mean():
    assert exec_avg(1, 10, 20) == (2, 15)


def test_avg_fixed_point_at_mean():
    assert exec_avg(9, 42, 42) == (10, 42)


def test_avg_negative_difference_truncates_toward_zero():
    # diff = -5, divisor 2 -> step -2 (not -3)
    assert exec_avg(1, 10, 5) == (2, 8)


def test_avg_matches_replay_and_true_mean():
    from flowfsm.harness.oracles import running_mean, true_mean

    rng = random.Random(11)
    for _ in range(50):
        values = [rng.randrange(0, 1 << 16) for _ in range(rng.randrange(1, 400))]
        count, mean = 0, 0
        for x in values:
            count, mean = exec_avg(count, mean, x)
        assert (count, mean) == running_mean(values)
        assert abs(mean - true_mean(values)) <= len(values)


# --- running variance --------------------------------------------------------


def test_var_first_sample_snapshot_semantics():
    assert exec_var(0, 0, 0, 10) == (1, 10, 100)


def test_var_zero_residual():
    count, mean, var = exec_var(4, 7, 0, 7)
    assert (mean, var) == (7, 0)


def test_var_constant_stream_decays_monotonically():
    count = mean = var = 0
    history = []
    for _ in range(100):
        count, mean, var = exec_var(count, mean, var, 100)
        history.append(var)
    assert history[0] == 100 * 100
    for prev, cur in zip(history[1:], history[2:]):
        assert cur <= prev


# --- decayed accumulator ------------------------------------------------------


def test_ewma_decay_then_add():
    assert exec_ewma(100, 8, 102, 1) == (102, 3)  # 8 >> 2 + 1


def test_ewma_no_elapsed_time_accumulates():
    assert exec_ewma(50, 6, 50, 5) == (50, 11)


def test_ewma_31_tick_shift():
    assert exec_ewma(0, 1 << 31, 31, 0) == (31, 1)


def test_ewma_32_ticks_clear_history():
    assert exec_ewma(0, WORD, 32, 0) == (32, 0)
    assert exec_ewma(0, WORD, 4000, 7) == (4000, 7)


def test_ewma_time_running_backwards_counts_violation():
    rt = AluRuntime()
    assert exec_ewma(100, 8, 90, 1, rt) == (90, 9)  # treated as zero elapsed
    assert rt.time_violations == 1


# time steps: small ones, backwards included, and gaps that clear the history
EWMA_STEPS = st.one_of(st.integers(-40, 40), st.integers(32, 1 << 20))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(EWMA_STEPS, st.integers(0, WORD)), max_size=60))
@example([(5, 1 << 31), (31, 1), (-3, 2), (0, WORD), (32, 3)])
def test_ewma_replay_equals_the_accumulator_oracle(moves):
    from flowfsm.harness.oracles import ewma_accumulator

    events, t = [], 0
    for step, x in moves:
        t = min(max(t + step, 0), WORD)
        events.append((t, x))
    rt = AluRuntime()
    last = acc = 0
    for n, (t, x) in enumerate(events, start=1):
        last, acc = exec_ewma(last, acc, t, x, rt)
        assert (last, acc) == ewma_accumulator(events[:n])
    times = [0] + [t for t, _ in events]
    assert rt.time_violations == sum(b < a for a, b in zip(times, times[1:]))


# --- tuples -------------------------------------------------------------------


def ins(text):
    return parse_instruction(text)


def test_tuple_snapshot_semantics():
    r, g = execute_tuple(
        [ins("ADDI R0 R0 1"), ins("SUB R1 R0 G0")],
        [5, 0, 0, 0],
        [2, 0, 0, 0],
        [0] * 8,
    )
    assert r[0] == 6
    assert r[1] == 3  # reads pre-update R0 = 5


def test_empty_tuple_identity():
    r, g = execute_tuple([], [1, 2, 3, 4], [5, 6, 7, 8], [0] * 8)
    assert r == [1, 2, 3, 4]
    assert g == [5, 6, 7, 8]


def test_nop_does_nothing():
    r, g = execute_tuple([ins("NOP")], [1, 2, 3, 4], [5, 6, 7, 8], [0] * 8)
    assert (r, g) == ([1, 2, 3, 4], [5, 6, 7, 8])


def test_tuple_writes_commit_together():
    h = [0] * 8
    h[6] = 1000
    r, g = execute_tuple(
        [ins("SUB R0 H6 G2"), ins("ADD R1 H6 G1")],
        [0, 0, 0, 0],
        [300, 100, 100, 0],
        h,
    )
    assert (r[0], r[1]) == (900, 1100)


def test_duplicate_destination_rejected():
    problems = validate_tuple([ins("ADDI R0 R0 1"), ins("ADD R0 R1 R2")])
    assert any("R0" in p for p in problems)


def test_stat_instruction_destinations():
    assert ins("AVG R0 R1 H5").destinations() == (0, 1)
    assert ins("VAR R0 R1 R2 H5").destinations() == (0, 1, 2)
    assert ins("EWMA R2 R0 H6 G2").destinations() == (2, 0)


def test_header_slot_not_writable():
    with pytest.raises(ValueError):
        Instruction(Opcode.ADD, (8, 0, 1))
    with pytest.raises(ValueError):
        parse_instruction("AVG H0 R1 R2")


def test_tuple_length_bound():
    tup = [ins(f"ADDI R{i % 4} R0 1") for i in range(4)] + [
        ins("ADD G0 R0 R1"),
        ins("ADD G1 R0 R1"),
    ]
    problems = validate_tuple(tup)
    assert any("max 5" in p for p in problems)


# --- encode / decode / parse ---------------------------------------------------


def test_known_encoding():
    # ADD R0 <- R0 + G1: opcode 0x10, out 0, in1 0, in2 5 (G1)
    word = encode(ins("ADD R0 R0 G1"))
    assert word == 0x10005000
    assert decode(word) == ins("ADD R0 R0 G1")


def test_parse_hex_form():
    assert parse_instruction("0x10005000") == ins("ADD R0 R0 G1")


def test_parse_rejects_garbage():
    for bad in ("", "FROB R0", "ADD R0 R0", "ADDI R0 R0 65536", "ADD R0 R0 H9"):
        with pytest.raises(ValueError):
            parse_instruction(bad)


def test_format_roundtrip():
    for text in ("NOP", "NOT R1 H3", "ADD G2 R0 H7", "LSR R3 R3 31",
                 "AVG R0 R1 H5", "VAR R0 R1 R2 H5", "EWMA R2 R0 H6 G2"):
        assert format_instruction(parse_instruction(text)) == text


def random_instruction(rng):
    opcode = rng.choice(list(Opcode))
    from flowfsm.alu import _LAYOUT

    nsel, has_imm, nout = _LAYOUT[opcode]
    sel = tuple(
        rng.randrange(0, 8) if i < nout else rng.randrange(0, 16)
        for i in range(nsel)
    )
    imm = rng.randrange(0, 1 << 16) if has_imm else None
    return Instruction(opcode, sel, imm)


def test_encode_decode_roundtrip_randomized():
    rng = random.Random(99)
    for _ in range(5000):
        instruction = random_instruction(rng)
        assert decode(encode(instruction)) == instruction


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_encode_decode_roundtrip_property(data):
    from flowfsm.alu import _LAYOUT

    opcode = data.draw(st.sampled_from(list(Opcode)))
    nsel, has_imm, nout = _LAYOUT[opcode]
    sel = tuple(
        data.draw(st.integers(0, 7 if i < nout else 15)) for i in range(nsel)
    )
    imm = data.draw(st.integers(0, 0xFFFF)) if has_imm else None
    instruction = Instruction(opcode, sel, imm)
    assert decode(encode(instruction)) == instruction


# --- permutation invariance -----------------------------------------------------


def random_disjoint_tuple(rng):
    """Up to 5 instructions with pairwise-distinct destinations."""
    dests = list(range(8))
    rng.shuffle(dests)
    instrs = []
    while len(instrs) < 5 and dests:
        kind = rng.randrange(0, 6)
        if kind == 0 and len(dests) >= 3:
            d = [dests.pop() for _ in range(3)]
            instrs.append(
                Instruction(Opcode.VAR, (*d, rng.randrange(0, 16)))
            )
        elif kind == 1 and len(dests) >= 2:
            d1, d2 = dests.pop(), dests.pop()
            if rng.random() < 0.5:
                instrs.append(Instruction(Opcode.AVG, (d1, d2, rng.randrange(16))))
            else:
                instrs.append(
                    Instruction(
                        Opcode.EWMA,
                        (d1, d2, rng.randrange(16), rng.randrange(16)),
                    )
                )
        else:
            op = rng.choice(
                [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.XOR,
                 Opcode.ADDI, Opcode.SUBI, Opcode.LSR, Opcode.ROR, Opcode.NOT]
            )
            from flowfsm.alu import _LAYOUT

            nsel, has_imm, _ = _LAYOUT[op]
            sel = (dests.pop(),) + tuple(
                rng.randrange(0, 16) for _ in range(nsel - 1)
            )
            imm = rng.randrange(0, 1 << 16) if has_imm else None
            instrs.append(Instruction(op, sel, imm))
    return instrs


def test_tuple_permutation_invariance():
    rng = random.Random(5)
    for _ in range(100):
        instrs = random_disjoint_tuple(rng)
        if validate_tuple(instrs):
            continue  # builder produced an over-long tuple; skip
        r = [rng.getrandbits(32) for _ in range(4)]
        g = [rng.getrandbits(32) for _ in range(4)]
        h = [rng.getrandbits(32) for _ in range(8)]
        base = execute_tuple(instrs, r, g, h, AluRuntime())
        for _ in range(5):
            shuffled = instrs[:]
            rng.shuffle(shuffled)
            assert execute_tuple(shuffled, r, g, h, AluRuntime()) == base
