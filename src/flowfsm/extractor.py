"""Packet records and flow key construction.

A packet reaches the engine as its eight 32-bit operand slots H0..H7,
bound from trace columns by the program's field bindings, plus its
timestamp. Selected slots concatenate, left-aligned and zero-padded, into
a 128-bit flow key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

FLOW_KEY_WIDTH = 128
NUM_HEADER_SLOTS = 8


@dataclass(slots=True)
class PacketRecord:
    """What the engine reads of one packet: ``h``, the eight 32-bit
    header-field values, and the timestamp ``ts``."""

    h: list[int]
    ts: int


class KeyScope:
    """Ordered list of (slot, width) pairs forming the flow key.

    Values concatenate in scope order, first field in the most significant
    bits, zero-padded on the right to 128 bits. The layout is injective
    over the field value tuple as long as the total width fits.
    """

    def __init__(self, parts: Sequence[tuple[int, int]]):
        if not parts:
            raise ValueError("flow key scope must not be empty")
        total = 0
        for slot, width in parts:
            if not 0 <= slot < NUM_HEADER_SLOTS:
                raise ValueError(f"slot {slot} out of range")
            if not 0 < width <= 32:
                raise ValueError(f"width {width} out of range")
            total += width
        if total > FLOW_KEY_WIDTH:
            raise ValueError(f"scope width {total} exceeds {FLOW_KEY_WIDTH} bits")
        self.parts = tuple(parts)
        self._pad = FLOW_KEY_WIDTH - total
        self._layout = tuple((slot, width, (1 << width) - 1) for slot, width in parts)

    def key(self, h: Sequence[int]) -> int:
        k = 0
        for slot, width, mask in self._layout:
            k = (k << width) | (h[slot] & mask)
        return k << self._pad

    def __eq__(self, other: object) -> bool:
        return isinstance(other, KeyScope) and self.parts == other.parts

    def __repr__(self) -> str:
        return f"KeyScope({list(self.parts)!r})"

