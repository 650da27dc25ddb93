"""The step an engine generates from its program, against the interpreted
reference step in ``helpers``: same verdict rows, same stored contexts,
globals, ALU counters and transition counts, packet by packet."""

import random
import re

import pytest
import yaml

from flowfsm import engine as engine_mod
from flowfsm import programs
from flowfsm.alu import Opcode
from flowfsm.engine import Engine

from helpers import (
    ReferenceStep,
    flow_key,
    patched_doc,
    program_config,
    stored_contexts,
    trace_row,
)

# Every opcode, shift amounts of 32 and more, a division by a zero
# immediate, G destinations, statistics instructions on G and on the
# scratch register R4, and an update scope that differs from the lookup
# scope. States S0..S6 have one row each, so a random state picks the
# tuple; the rows of S7 depend on the condition bits and a match field.
EVERY_OPCODE = """
name: every_opcode
timestamp_unit: ticks
ports: 4
fields:
  - {name: a, slot: 0, width: 32, source: a}
  - {name: b, slot: 1, width: 32, source: b}
  - {name: c, slot: 2, width: 32, source: c}
  - {name: d, slot: 3, width: 16, source: d}
  - {name: ts, slot: 6, width: 32, source: ts}
lookup_scope: [a, d]
update_scope: [b]
states: {S0: 0, S1: 1, S2: 2, S3: 3, S4: 4, S5: 5, S6: 6, S7: 7}
globals: {G1: 5, G2: 7}
flow_scratch: {R4: G0}
conditions:
  - {name: C0, op: GT, lhs: R0, rhs: G1}
  - {name: C1, op: GE, lhs: R4, rhs: a}
  - {name: C2, op: EQ, lhs: b, rhs: c}
  - {name: C3, op: LE, lhs: G3, rhs: R1}
  - {name: C4, op: LT, lhs: R2, rhs: ts}
  - {name: C5, op: GT, lhs: G2, rhs: R4}
match_fields: [c]
management_period: 50
rows:
  - {state: S0, priority: 20, next: S1, action: "fwd:1",
     update: ["NOT R0 a", "XOR R1 R2 G1", "AND R2 R3 b", "OR R3 R0 G2", "ADD G1 R1 c"]}
  - {state: S1, priority: 19, next: S2, action: drop,
     update: ["SUB R0 R1 a", "MUL R1 R2 G3", "DIV R2 R3 b", "ADDI R3 R0 7",
              "SUBI G2 G1 9"]}
  - {state: S2, priority: 18, next: S3, action: "fwd:2",
     update: ["MULI R0 a 3", "DIVI R1 R2 0", "LSL R2 R1 33", "LSR R3 R0 40",
              "ROR G1 R2 35"]}
  - {state: S3, priority: 17, next: S4, action: flood,
     update: ["AVG R0 R1 a", "VAR R2 R3 R4 b"]}
  - {state: S4, priority: 16, next: S5, action: "dscp:10:fwd:3",
     update: ["EWMA R0 R1 ts b", "DIVI R2 c 5", "ROR R3 d 0", "DIV G3 a R4",
              "LSL G2 R4 1"]}
  - {state: S5, priority: 15, next: _stay, action: "fwd:4",
     update: ["NOP", "ADDI R4 R4 1", "EWMA G1 G2 ts R0"]}
  - {state: S6, priority: 14, next: S0, action: none, update: ["AVG G1 G3 R4"]}
  - {state: S7, cond: {C0: 1, C2: 0}, priority: 13, next: S0, action: "fwd:1",
     update: ["NOP"]}
  - {state: S7, match: {c: "0x1/0x1"}, priority: 12, next: S6, action: drop}
  - {priority: 0, next: _stay, action: none}
"""

# One state per division or statistics instruction, so that a packet's
# stored state picks the instruction and its registers pick the edge.
ALU_EDGES = """
name: alu_edges
timestamp_unit: ticks
ports: 4
fields:
  - {name: a, slot: 0, width: 32, source: a}
  - {name: b, slot: 1, width: 32, source: b}
  - {name: c, slot: 2, width: 32, source: c}
lookup_scope: [a]
states: {VAR: 0, AVG: 1, EWMA: 2, DIV: 3, DIVI: 4}
rows:
  - {state: VAR, priority: 5, next: _stay, action: none, update: ["VAR R0 R1 R2 b"]}
  - {state: AVG, priority: 4, next: _stay, action: none, update: ["AVG R0 R1 b"]}
  - {state: EWMA, priority: 3, next: _stay, action: none, update: ["EWMA R0 R1 c b"]}
  - {state: DIV, priority: 2, next: _stay, action: none,
     update: ["DIV R0 R1 b", "DIV G0 c R2"]}
  - {state: DIVI, priority: 1, next: _stay, action: none,
     update: ["DIVI R0 R1 0", "DIVI R1 R2 3"]}
  - {priority: 0, next: _stay, action: none}
"""

M32 = 0xFFFFFFFF
# (state, registers R0..R3, header values b and c) of one packet each
EDGE_PACKETS = [
    # the count wraps to 0: both VAR divisions and the AVG one are by zero
    ("VAR", [M32, 5, 9, 0], 3, 0),
    ("VAR", [M32, 0x12345, M32, 0], 0, 0),
    ("AVG", [M32, 5, 0, 0], 3, 0),
    # the count is 0x10000, 0 in 16 bits; the numerator is negative
    ("VAR", [0xFFFF, 100000, 7, 0], 3, 0),
    ("AVG", [0xFFFF, 100000, 0, 0], 3, 0),
    ("VAR", [0x1FFFF, 3, 0x23456, 0], 0x20000, 0),
    # negative numerators whose magnitude is wider than 16 bits
    ("AVG", [2, 0x12345, 0, 0], 1, 0),
    ("VAR", [6, 0x54321, 0x30000, 0], 0x10001, 0),
    ("VAR", [6, 1, 0x30000, 0], 0x10001, 0),
    # by zero, and by a value that is 0 in 16 bits
    ("DIV", [0, 77, 0, 0], 0, 9),
    ("DIV", [0, 0x30007, 0x10000, 0], 0x10000, 0x20005),
    ("DIV", [0, 100, 3, 0], 7, 50),
    ("DIVI", [0, 0x12345, 0x10005, 0], 0, 0),
    # time runs backwards; the delta is 31, 32 and more
    ("EWMA", [1000, 0xFFFF, 0, 0], 5, 10),
    ("EWMA", [0, M32, 0, 0], 5, 31),
    ("EWMA", [0, M32, 0, 0], 5, 32),
    ("EWMA", [3, M32, 0, 0], M32, 1 << 40),
]

NAMES = programs.BUNDLED + ("synthetic", "every_opcode")

# register and header values around the edges of the ALU's arithmetic
EDGES = (0, 1, 2, 3, 4, 5, 9, 32, 0xFFFF, 0x10000, 0x7FFFFFFF, 0xFFFFFFFF)


def config_of(name):
    if name == "every_opcode":
        return programs.loads(EVERY_OPCODE)
    if name == "alu_edges":
        return programs.loads(ALU_EDGES)
    return program_config(name)


def word(rng):
    return rng.choice(EDGES) if rng.random() < 0.4 else rng.getrandbits(32)


def transition_counts(engine):
    """(pre-state label, row index) -> packets, of every transition taken."""
    return {
        (pre, row_idx): n
        for (*_, pre, _, row_idx), n in zip(engine.transitions, engine._counts)
        if n
    }


def observed(engine, counts=None):
    """What a packet may change: the stored contexts, the globals, the ALU
    counters and the transition counts, the engine's own unless ``counts``
    are given."""
    contexts = dict(stored_contexts(engine.context))
    return (
        contexts,
        list(engine.g),
        engine.alu.div_zero,
        engine.alu.time_violations,
        transition_counts(engine) if counts is None else dict(counts),
    )


def test_every_opcode_program_uses_every_opcode():
    rows = config_of("every_opcode").transition_rows()
    assert {ins.opcode for row in rows for ins in row.instructions} == set(Opcode)


@pytest.mark.parametrize("hazard", [0, 2])
@pytest.mark.parametrize("hw16_div", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_generated_step_equals_the_interpreter(name, hw16_div, hazard):
    config = config_of(name)
    rng = random.Random(f"{name}-{hw16_div}-{hazard}")
    engine, reference = (
        Engine(config, seed=3, hazard_window=hazard, hw16_div=hw16_div)
        for _ in range(2)
    )
    interpreted = ReferenceStep(reference, config)
    codes = sorted(set(config.states.values()))
    nregs = engine.context.num_registers
    scope = [config.field_by_name(n).slot for n in config.lookup_scope]
    flows = [[word(rng) for _ in range(8)] for _ in range(4)]
    ts = rng.randrange(100)
    for _ in range(300):
        h = [word(rng) for _ in range(8)]
        for slot in scope:
            h[slot] = rng.choice(flows)[slot]
        # the same random context for this packet's flow, and the same
        # random globals, on both engines
        if rng.random() < 0.5:
            state = rng.choice(codes)
            regs = [word(rng) for _ in range(nregs)]
            key = flow_key(config, config.lookup_scope, h)
            for e in (engine, reference):
                e.context.write_back(key, (state, *regs))
        if rng.random() < 0.2:
            g = [word(rng) for _ in range(4)]
            for e in (engine, reference):
                e.g[:] = g
        ts += rng.choice((0, 1, 7, 30, 61, 400))
        verdict = engine.process_packet((list(h), ts))
        assert verdict == interpreted.process_packet((list(h), ts))
        assert observed(engine) == observed(reference, interpreted.counts)
    engine.flush()
    interpreted.flush()
    assert observed(engine) == observed(reference, interpreted.counts)
    assert engine.stats.to_dict() == interpreted.stats()
    if name == "every_opcode":
        # the random inputs reach the edge cases the program was written for
        assert engine.alu.div_zero > 0 and engine.alu.time_violations > 0
        taken = {row for _, row in transition_counts(engine)}
        assert taken == set(range(len(config.transition_rows())))


@pytest.mark.parametrize("hazard", [0, 2])
@pytest.mark.parametrize("hw16_div", [False, True])
def test_guarded_alu_lines_equal_the_interpreter_at_the_edges(hw16_div, hazard):
    """Divisions by zero, wrapped counts and backward or long time gaps,
    each forced by one packet: the inlined instructions give the registers,
    globals and counters that ``alu.execute_tuple`` gives."""
    config = config_of("alu_edges")
    engine, reference = (
        Engine(config, seed=3, hazard_window=hazard, hw16_div=hw16_div)
        for _ in range(2)
    )
    interpreted = ReferenceStep(reference, config)
    for flow, (state, regs, b, c) in enumerate(EDGE_PACKETS):
        h = [flow, b, c, 0, 0, 0, 0, 0]
        key = flow_key(config, config.lookup_scope, h)
        for e in (engine, reference):
            e.context.write_back(key, (config.states[state], *regs))
            e.g[:] = [flow, 1, 2, 3]
        verdict = engine.process_packet((list(h), flow))
        assert verdict == interpreted.process_packet((list(h), flow))
        assert observed(engine) == observed(reference, interpreted.counts)
    engine.flush()
    interpreted.flush()
    assert observed(engine) == observed(reference, interpreted.counts)
    assert engine.stats.to_dict() == interpreted.stats()
    # two per VAR by a zero count, one per AVG, DIV and DIVI by zero; with
    # 16-bit division, also those by a count or divisor that is 0 in 16 bits
    assert engine.alu.div_zero == (15 if hw16_div else 8)
    assert engine.alu.time_violations == 1


@pytest.mark.parametrize("name", NAMES)
def test_generated_source_holds_no_program_text(name):
    """Labels, action text, column names and the program name reach the
    step and the binder as values: each source is made of fixed names and
    integers only. The step calls no ALU helper, and the binder's success
    path has no loop."""
    config = config_of(name)
    for hazard in (0, 1):
        for hw16_div in (False, True):
            source = Engine(config, hazard_window=hazard, hw16_div=hw16_div).step_source
            for text in (config.name, *config.states):
                assert text not in source.replace("process_packet", "")
            assert '"' not in source and "'" not in source
            assert "exec_" not in source and "udiv(" not in source
    source = programs.make_binder(config).source
    for text in (config.name, *config.states, *{f.source for f in config.fields} - {"ts"}):
        assert not re.search(rf"\b{re.escape(text)}\b", source)
    assert '"' not in source and "'" not in source
    assert "for " not in source and "while " not in source


def test_engine_holds_no_alu_helper():
    names = ("exec_avg", "exec_var", "exec_ewma", "_udiv", "udiv")
    assert not any(hasattr(engine_mod, name) for name in names)


def test_engines_and_binders_of_one_layout_share_no_state():
    """Engines and binders built from one source text each run it in a
    namespace of their own: packets through one engine leave the other's
    stats and globals as built, and each binder reads its own columns."""
    config = config_of("c45_classifier")
    used, fresh = Engine(config, seed=3), Engine(config, seed=3)
    assert used.step_source == fresh.step_source
    built = (fresh.stats.to_dict(), list(fresh.g))
    bind = programs.make_binder(config)
    for ts in range(0, 200, 7):
        row = {"ts": ts, "ip_src": ts % 5, "ip_dst": 9, "pkt_len": 60 + ts}
        used.process_packet(bind(trace_row(row), ts // 7))
    assert used.stats.packets == 29
    assert (fresh.stats.to_dict(), list(fresh.g)) == built

    # long_flow with its columns renamed: the same (slot, width) layout
    doc = patched_doc("long_flow", ("fields",), [
        {"name": "x", "slot": 0, "width": 32, "source": "u"},
        {"name": "ip_dst", "slot": 1, "width": 32, "source": "v"},
    ])
    doc["lookup_scope"] = doc["update_scope"] = ["x", "ip_dst"]
    renamed = programs.make_binder(programs.loads(yaml.safe_dump(doc)))
    bind = programs.make_binder(programs.bundled_program("long_flow"))
    assert renamed.source == bind.source
    assert renamed(trace_row({"ts": 4, "u": 1, "v": 2}), 0) == ([1, 2, 0, 0, 0, 0, 0, 0], 4)
    assert bind(trace_row({"ts": 5, "ip_src": 3, "ip_dst": 4}), 0) == ([3, 4, 0, 0, 0, 0, 0, 0], 5)
