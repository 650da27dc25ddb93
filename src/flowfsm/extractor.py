"""Header field extraction and flow key construction.

Fields are cut out of a raw frame by offset/mask rules: the offset (in
bits) selects where the field starts, the field is read right-aligned and
then ANDed with a mask of up to 32 bits. Up to eight such values populate
the operand slots H0..H7 of a packet record. Selected slots concatenate,
left-aligned and zero-padded, into a 128-bit flow key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

FLOW_KEY_WIDTH = 128
NUM_HEADER_SLOTS = 8
WORD_MASK = 0xFFFFFFFF


@dataclass(frozen=True)
class FieldSpec:
    """Offset/mask rule for one header field.

    offset is in bits from the start of the frame; width is the number of
    bits read (<= 32); mask is applied after the bits are right-aligned.
    """

    offset: int
    width: int
    mask: int = WORD_MASK

    def __post_init__(self) -> None:
        if not 0 < self.width <= 32:
            raise ValueError("field width must be 1..32 bits")
        if self.offset < 0:
            raise ValueError("field offset must be non-negative")
        if not 0 <= self.mask <= WORD_MASK:
            raise ValueError("mask must fit in 32 bits")


@dataclass(slots=True)
class PacketRecord:
    """What the engine reads of one packet.

    ``h`` holds the eight 32-bit header-field values. ``truncated`` is set
    when a field spec reached past the end of the frame (the field reads
    as zero in that case).
    """

    h: list[int]
    ts: int
    truncated: bool = False


def extract_field(raw: bytes, spec: FieldSpec) -> tuple[int, bool]:
    """Read one field from a frame; returns (value, truncated)."""
    first = spec.offset // 8
    bit_off = spec.offset % 8
    nbytes = (bit_off + spec.width + 7) // 8
    if first + nbytes > len(raw):
        return 0, True
    chunk = int.from_bytes(raw[first : first + nbytes], "big")
    shift = nbytes * 8 - bit_off - spec.width
    value = (chunk >> shift) & ((1 << spec.width) - 1)
    return value & spec.mask, False


def extract(
    raw: bytes, specs: Sequence[Optional[FieldSpec]], *, ts: int = 0
) -> PacketRecord:
    """Build a PacketRecord from a raw frame.

    ``specs`` maps slot index to FieldSpec; None slots read as zero. Short
    frames never fail: out-of-range reads produce 0 and flag the record.
    """
    if len(specs) > NUM_HEADER_SLOTS:
        raise ValueError("at most 8 header slots")
    h = [0] * NUM_HEADER_SLOTS
    truncated = False
    for slot, spec in enumerate(specs):
        if spec is None:
            continue
        value, cut = extract_field(raw, spec)
        h[slot] = value
        truncated = truncated or cut
    return PacketRecord(h, ts, truncated)


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
        self.total_width = total
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

