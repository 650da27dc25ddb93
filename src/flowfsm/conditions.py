"""Programmable comparison block.

Up to eight comparators each evaluate one arithmetic comparison between
two operands of the register file the update unit reads: the per-flow
registers (R0..R3), the global registers (G0..G3) and the header slots
(H0..H7), named by the update unit's 4-bit selectors
(:func:`flowfsm.alu.parse_selector`). The outcomes pack into an 8-bit
vector, bit i for comparator i; unconfigured slots read as 0. All
comparisons are unsigned 32-bit: programs that need signed deltas must
encode them.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Sequence

from .alu import read_selector

NUM_CONDITIONS = 8


class CmpOp(enum.IntEnum):
    GT = 0
    GE = 1
    EQ = 2
    LE = 3
    LT = 4


# comparison of each CmpOp, indexed by its value
_COMPARE = (operator.gt, operator.ge, operator.eq, operator.le, operator.lt)


@dataclass(frozen=True)
class ConditionSpec:
    """One configured comparator: lhs <op> rhs, operands as selectors."""

    op: CmpOp
    lhs: int
    rhs: int


def evaluate(
    specs: Sequence[ConditionSpec],
    r: Sequence[int],
    g: Sequence[int],
    h: Sequence[int],
) -> int:
    """Condition bit vector (bit i = comparator i) for one packet."""
    bits = 0
    for i, spec in enumerate(specs):
        a = read_selector(spec.lhs, r, g, h)
        b = read_selector(spec.rhs, r, g, h)
        if _COMPARE[spec.op](a, b):
            bits |= 1 << i
    return bits

