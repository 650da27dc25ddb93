"""Prioritized ternary (value/mask) match tables.

A :class:`TernaryTable` stores fixed-width entries, each a value/mask pair
with an explicit priority and an opaque payload. Lookup returns the payload
of the highest-priority entry whose masked bits equal the key, mimicking a
content-addressable match stage. It backs the wildcard fallback of the
flow context store; the state-transition table is compiled by the engine
into per-state dispatch tables instead.

The backing implementation is a priority-sorted rule list; matching cost is
linear in the entry count, which is fine at the configured capacities
(tens to a few hundred entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional


class TcamError(Exception):
    """Base class for ternary table errors."""


class WidthMismatchError(TcamError):
    """Entry or key width does not match the table width."""


class TableFullError(TcamError):
    """Insert attempted on a table at capacity."""


class DuplicatePriorityError(TcamError):
    """An entry with the same priority already exists."""


class UnknownHandleError(TcamError):
    """Remove attempted with a handle that is not in the table."""


@dataclass(frozen=True)
class TernaryEntry:
    """One match rule: (value, mask, priority) plus an opaque payload.

    ``mask`` bits set to 1 must match; 0 bits are don't-care. The stored
    value is normalized so that don't-care bits are zero.
    """

    value: int
    mask: int
    priority: int
    payload: Any


class TernaryTable:
    """Fixed-width prioritized wildcard-match table.

    Priorities are explicit unsigned integers supplied by the caller and
    must be unique within one table; ties are rejected at insert rather
    than resolved silently. Lookups are deterministic for a fixed entry
    set.
    """

    def __init__(self, width: int, capacity: int):
        if width <= 0:
            raise ValueError("width must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.width = width
        self.capacity = capacity
        self._limit = (1 << width) - 1
        self._by_handle: dict[int, TernaryEntry] = {}
        self._priorities: set[int] = set()
        self._next_handle = 0
        # (value, mask, payload) sorted by descending priority
        self._match_seq: list[tuple[int, int, Any]] = []

    def __len__(self) -> int:
        return len(self._by_handle)

    def _check_width(self, word: int, what: str) -> None:
        if word < 0 or word > self._limit:
            raise WidthMismatchError(
                f"{what} 0x{word:x} does not fit in {self.width} bits"
            )

    def _rebuild(self) -> None:
        ordered = sorted(
            self._by_handle.values(), key=lambda e: e.priority, reverse=True
        )
        self._match_seq = [(e.value, e.mask, e.payload) for e in ordered]

    def insert(self, value: int, mask: int, priority: int, payload: Any) -> int:
        """Add an entry and return a handle usable with :meth:`remove`."""
        self._check_width(value, "value")
        self._check_width(mask, "mask")
        if priority < 0:
            raise ValueError("priority must be unsigned")
        if len(self._by_handle) >= self.capacity:
            raise TableFullError(f"table holds {self.capacity} entries")
        if priority in self._priorities:
            raise DuplicatePriorityError(f"priority {priority} already in use")
        entry = TernaryEntry(value & mask, mask, priority, payload)
        handle = self._next_handle
        self._next_handle += 1
        self._by_handle[handle] = entry
        self._priorities.add(priority)
        self._rebuild()
        return handle

    def lookup(self, key: int) -> Optional[Any]:
        """Payload of the highest-priority matching entry, or None."""
        self._check_width(key, "key")
        for value, mask, payload in self._match_seq:
            if key & mask == value:
                return payload
        return None

    def remove(self, handle: int) -> None:
        entry = self._by_handle.pop(handle, None)
        if entry is None:
            raise UnknownHandleError(f"no entry with handle {handle}")
        self._priorities.discard(entry.priority)
        self._rebuild()

    def entries(self) -> Iterator[TernaryEntry]:
        """Entries in descending priority order (for audits and oracles)."""
        return iter(
            sorted(self._by_handle.values(), key=lambda e: e.priority, reverse=True)
        )
