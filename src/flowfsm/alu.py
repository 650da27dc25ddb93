"""Register-update instruction set and its executor.

Each state transition carries a tuple of up to five 32-bit instructions
that rewrite per-flow registers (R0..R3) and global registers (G0..G3).
All instructions in a tuple execute in parallel: every right-hand side is
evaluated against the register/header snapshot taken before the tuple
runs, and all writes commit together. This matters for the multi-line
statistics instructions below, whose recurrences are defined against the
pre-update snapshot; a sequential top-to-bottom reading would, for
example, make the moving-average decay always see zero elapsed time.

Arithmetic is unsigned 32-bit with wrap-around; division is unsigned and
truncating, with division by zero yielding 0 and bumping a counter. An
optional hardware-faithful mode narrows every dividend and divisor to 16
bits before dividing.

Instruction encoding (32 bits, declared normative for this artifact):

    bits 31..24  opcode
    bits 23..20  selector A
    bits 19..16  selector B
    bits 15..12  selector C   (register forms only)
    bits 11..8   selector D   (four-operand forms only)
    bits 15..0   immediate    (immediate forms only; exclusive with C/D)

Selector encoding: R0..R3 = 0..3, G0..G3 = 4..7, H0..H7 = 8..15. Output
and in/out selectors must address R or G; header slots are read-only. The
comparison block (:mod:`flowfsm.conditions`) names its operands with the
same selectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

WORD = 0xFFFFFFFF

SEL_R_BASE = 0
SEL_G_BASE = 4
SEL_H_BASE = 8
NUM_SELECTORS = 16
# the header slots H0..H7 a packet's fields are bound to
NUM_HEADER_SLOTS = NUM_SELECTORS - SEL_H_BASE


# an error message quotes at most this many characters of a value
ECHO_CHARS = 40


def echo(value: object) -> str:
    """A program or trace value for an error message: a string by its
    ``repr``, a mapping or a list by its kind alone, anything else by its
    ``str``, with an integer past the int-to-str digit limit in hex. The
    text is whole when it has at most ECHO_CHARS characters, else its
    first ECHO_CHARS and its length."""
    if isinstance(value, (dict, list)):
        return "a mapping" if isinstance(value, dict) else "a list"
    render: Callable[[str], str] = repr if isinstance(value, str) else str
    try:
        text = value if isinstance(value, str) else str(value)
    except ValueError:  # more digits than int-to-str conversion allows
        text = hex(value)  # type: ignore[arg-type]
    if len(text) <= ECHO_CHARS:
        return render(text)
    return f"{render(text[:ECHO_CHARS])}... ({len(text)} characters)"


class Opcode(enum.IntEnum):
    NOP = 0x00
    NOT = 0x01
    XOR = 0x02
    AND = 0x03
    OR = 0x04
    ADD = 0x10
    SUB = 0x11
    MUL = 0x12
    DIV = 0x13
    ADDI = 0x18
    SUBI = 0x19
    MULI = 0x1A
    DIVI = 0x1B
    LSL = 0x20
    LSR = 0x21
    ROR = 0x22
    AVG = 0x30
    VAR = 0x31
    EWMA = 0x32


# opcode -> (selector count, has immediate, how many leading selectors are
# written). AVG/VAR/EWMA selectors are in-out in table order.
_LAYOUT: dict[Opcode, tuple[int, bool, int]] = {
    Opcode.NOP: (0, False, 0),
    Opcode.NOT: (2, False, 1),
    Opcode.XOR: (3, False, 1),
    Opcode.AND: (3, False, 1),
    Opcode.OR: (3, False, 1),
    Opcode.ADD: (3, False, 1),
    Opcode.SUB: (3, False, 1),
    Opcode.MUL: (3, False, 1),
    Opcode.DIV: (3, False, 1),
    Opcode.ADDI: (2, True, 1),
    Opcode.SUBI: (2, True, 1),
    Opcode.MULI: (2, True, 1),
    Opcode.DIVI: (2, True, 1),
    Opcode.LSL: (2, True, 1),
    Opcode.LSR: (2, True, 1),
    Opcode.ROR: (2, True, 1),
    Opcode.AVG: (3, False, 2),
    Opcode.VAR: (4, False, 3),
    Opcode.EWMA: (4, False, 2),
}

MAX_TUPLE_LEN = 5


@dataclass
class AluRuntime:
    """Execution-mode flags and totalized-edge-case counters."""

    hw16_div: bool = False
    div_zero: int = 0
    time_violations: int = 0


_DEFAULT_RT = AluRuntime()


def selector_name(sel: int) -> str:
    if sel < SEL_G_BASE:
        return f"R{sel}"
    if sel < SEL_H_BASE:
        return f"G{sel - SEL_G_BASE}"
    return f"H{sel - SEL_H_BASE}"


def parse_selector(token: str) -> int:
    token = token.strip().upper()
    bases = {
        "R": (SEL_R_BASE, 4),
        "G": (SEL_G_BASE, 4),
        "H": (SEL_H_BASE, NUM_HEADER_SLOTS),
    }
    if len(token) >= 2 and token[0] in bases and token[1:].isdigit():
        base, limit = bases[token[0]]
        idx = int(token[1:])
        if idx < limit:
            return base + idx
    raise ValueError(f"unknown register selector {echo(token)}")


def read_selector(
    sel: int, r: Sequence[int], g: Sequence[int], h: Sequence[int]
) -> int:
    """Value of the register or header slot that selector ``sel`` names."""
    if sel < SEL_G_BASE:
        return r[sel - SEL_R_BASE]
    if sel < SEL_H_BASE:
        return g[sel - SEL_G_BASE]
    return h[sel - SEL_H_BASE]


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction: opcode, selector operands, optional imm."""

    opcode: Opcode
    sel: tuple[int, ...] = ()
    imm: Optional[int] = None

    def __post_init__(self) -> None:
        nsel, has_imm, nout = _LAYOUT[self.opcode]
        if len(self.sel) != nsel:
            raise ValueError(
                f"{self.opcode.name} takes {nsel} selectors, got {len(self.sel)}"
            )
        if has_imm:
            if self.imm is None:
                raise ValueError(f"{self.opcode.name} requires an immediate")
            if not 0 <= self.imm <= 0xFFFF:
                raise ValueError("immediate must fit in 16 bits")
        elif self.imm is not None:
            raise ValueError(f"{self.opcode.name} takes no immediate")
        for s in self.sel:
            if not 0 <= s < NUM_SELECTORS:
                raise ValueError(f"selector {s} out of range")
        for s in self.sel[:nout]:
            if s >= SEL_H_BASE:
                raise ValueError(
                    f"{self.opcode.name} cannot write header slot {selector_name(s)}"
                )

    def destinations(self) -> tuple[int, ...]:
        """Selectors this instruction writes."""
        return self.sel[: _LAYOUT[self.opcode][2]]


def encode(ins: Instruction) -> int:
    word = int(ins.opcode) << 24
    shift = 20
    for s in ins.sel:
        word |= s << shift
        shift -= 4
    if ins.imm is not None:
        word |= ins.imm
    return word


def decode(word: int) -> Instruction:
    if not 0 <= word <= 0xFFFFFFFF:
        raise ValueError("instruction word must fit in 32 bits")
    try:
        opcode = Opcode((word >> 24) & 0xFF)
    except ValueError as exc:
        raise ValueError(f"unknown opcode 0x{(word >> 24) & 0xFF:02x}") from exc
    nsel, has_imm, _ = _LAYOUT[opcode]
    sel = tuple((word >> (20 - 4 * i)) & 0xF for i in range(nsel))
    imm = word & 0xFFFF if has_imm else None
    return Instruction(opcode, sel, imm)


def parse_instruction(
    text: str, resolve: Optional[Callable[[str], str]] = None
) -> Instruction:
    """Parse mnemonic form ("ADD R0 R0 G1") or packed hex ("0x10010400").

    ``resolve`` maps program-level operand aliases (field names) onto
    canonical selector tokens before parsing.
    """
    text = text.strip()
    if text.lower().startswith("0x") and " " not in text:
        return decode(int(text, 16))
    tokens = text.split()
    if not tokens:
        raise ValueError("empty instruction")
    try:
        opcode = Opcode[tokens[0].upper()]
    except KeyError as exc:
        raise ValueError(f"unknown mnemonic {echo(tokens[0])}") from exc
    nsel, has_imm, _ = _LAYOUT[opcode]
    args = tokens[1:]
    if len(args) != nsel + (1 if has_imm else 0):
        raise ValueError(
            f"{opcode.name} expects {nsel + (1 if has_imm else 0)} operands"
        )
    sel = []
    for tok in args[:nsel]:
        if resolve is not None:
            tok = resolve(tok)
        sel.append(parse_selector(tok))
    imm = int(args[nsel], 0) if has_imm else None
    return Instruction(opcode, tuple(sel), imm)


def format_instruction(ins: Instruction) -> str:
    parts = [ins.opcode.name] + [selector_name(s) for s in ins.sel]
    if ins.imm is not None:
        parts.append(str(ins.imm))
    return " ".join(parts)


def validate_tuple(instrs: Sequence[Instruction]) -> list[str]:
    """Structural problems of an instruction tuple, empty when valid."""
    problems = []
    if len(instrs) > MAX_TUPLE_LEN:
        problems.append(f"tuple has {len(instrs)} instructions (max {MAX_TUPLE_LEN})")
    seen: set[int] = set()
    for ins in instrs:
        for dest in ins.destinations():
            if dest in seen:
                problems.append(
                    f"destination {selector_name(dest)} written more than once"
                )
            seen.add(dest)
    return problems


def _udiv(num: int, den: int, rt: AluRuntime) -> int:
    if rt.hw16_div:
        num &= 0xFFFF
        den &= 0xFFFF
    if den == 0:
        rt.div_zero += 1
        return 0
    return num // den


def _sdiv_trunc(num: int, den: int, rt: AluRuntime) -> int:
    """Truncating signed division (den unsigned) used by avg/var."""
    if rt.hw16_div:
        num = -((-num) & 0xFFFF) if num < 0 else num & 0xFFFF
        den &= 0xFFFF
    if den == 0:
        rt.div_zero += 1
        return 0
    q = abs(num) // den
    return -q if num < 0 else q


def exec_basic(
    opcode: int, in1: int, in2_or_imm: int, rt: AluRuntime = _DEFAULT_RT
) -> int:
    """Logic / arithmetic / shift result, totalized over all inputs."""
    op = int(opcode)
    if op == 0x10 or op == 0x18:  # ADD / ADDI
        return (in1 + in2_or_imm) & WORD
    if op == 0x11 or op == 0x19:  # SUB / SUBI
        return (in1 - in2_or_imm) & WORD
    if op == 0x12 or op == 0x1A:  # MUL / MULI
        return (in1 * in2_or_imm) & WORD
    if op == 0x13 or op == 0x1B:  # DIV / DIVI
        return _udiv(in1, in2_or_imm, rt)
    if op == 0x01:  # NOT
        return ~in1 & WORD
    if op == 0x02:  # XOR
        return in1 ^ in2_or_imm
    if op == 0x03:  # AND
        return in1 & in2_or_imm
    if op == 0x04:  # OR
        return in1 | in2_or_imm
    if op == 0x20:  # LSL
        return (in1 << (in2_or_imm % 32)) & WORD
    if op == 0x21:  # LSR
        return in1 >> (in2_or_imm % 32)
    if op == 0x22:  # ROR
        amt = in2_or_imm % 32
        return ((in1 >> amt) | (in1 << (32 - amt))) & WORD
    raise ValueError(f"opcode 0x{op:02x} is not a basic instruction")


def exec_avg(
    io1: int, io2: int, in1: int, rt: AluRuntime = _DEFAULT_RT
) -> tuple[int, int]:
    """Running-mean step: io1 sample count, io2 mean, in1 new sample.

    Both lines read the pre-update snapshot, so the divisor is the new
    sample count. The intermediate difference is signed; the division
    truncates toward zero.
    """
    count = (io1 + 1) & WORD
    mean = (io2 + _sdiv_trunc(in1 - io2, count, rt)) & WORD
    return count, mean


def exec_var(
    io1: int, io2: int, io3: int, in1: int, rt: AluRuntime = _DEFAULT_RT
) -> tuple[int, int, int]:
    """Running mean-and-variance step; io3 carries the variance estimate.

    All three lines see the pre-update snapshot: the variance line uses
    the old mean and the old count. The squared difference wraps mod 2^32
    like every other arithmetic result.
    """
    count = (io1 + 1) & WORD
    mean = (io2 + _sdiv_trunc(in1 - io2, count, rt)) & WORD
    sq = ((in1 - io2) * (in1 - io2)) & WORD
    var = (io3 + _sdiv_trunc(sq - io3, count, rt)) & WORD
    return count, mean, var


def exec_ewma(
    io1: int, io2: int, in1: int, in2: int, rt: AluRuntime = _DEFAULT_RT
) -> tuple[int, int]:
    """Exponentially decayed accumulator with base-1/2 decay per tick.

    io1 holds the previous sample time, io2 the accumulator; in1 is the
    current time, in2 the sample. The elapsed time is taken against the
    pre-update io1; each elapsed tick halves the accumulator (a right
    shift), then the sample is added. Time running backwards counts as
    zero elapsed ticks and is tallied.
    """
    delta = in1 - io1
    if delta < 0:
        rt.time_violations += 1
        delta = 0
    decayed = io2 >> delta if delta < 32 else 0
    return in1 & WORD, (decayed + in2) & WORD


_STATS_EXEC = {Opcode.AVG: exec_avg, Opcode.VAR: exec_var, Opcode.EWMA: exec_ewma}


def execute_tuple(
    instrs: Sequence[Instruction],
    r: Sequence[int],
    g: Sequence[int],
    h: Sequence[int],
    rt: AluRuntime = _DEFAULT_RT,
) -> tuple[list[int], list[int]]:
    """Run a validated tuple against a snapshot; returns (r', g').

    Every instruction reads the same pre-tuple snapshot and all writes
    commit together, so the result is independent of instruction order
    (tuples never write one destination twice).
    """
    writes: list[tuple[int, int]] = []
    for ins in instrs:
        op, sel = ins.opcode, ins.sel
        if op == Opcode.NOP:
            continue
        vals = [read_selector(s, r, g, h) for s in sel]
        if op in _STATS_EXEC:  # every operand is a selector
            writes.extend(zip(sel, _STATS_EXEC[op](*vals, rt)))
        else:
            if ins.imm is not None:
                operand = ins.imm
            else:
                operand = vals[2] if len(sel) > 2 else 0  # NOT has no second input
            writes.append((sel[0], exec_basic(op, vals[1], operand, rt)))
    r2 = list(r)
    g2 = list(g)
    for dest, value in writes:
        if dest < SEL_G_BASE:
            r2[dest] = value
        else:
            g2[dest - SEL_G_BASE] = value
    return r2, g2
