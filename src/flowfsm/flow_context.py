"""Per-flow context storage.

Exact-match contexts live in one key -> context dict, placed as in a
d-left hash table: d independent subtables, each hashed with its own
seed, with insertion going to the least-loaded candidate bucket (leftmost
subtable on ties). Only the per-bucket load counts are kept, plus each
context's home bucket so that its eviction releases the right count; a
key whose candidate buckets are all full is dropped and counted. A
lookup miss is not an error: it scans the wildcard fallbacks (value/mask
rules over the key, mainly to seed protocol-specific default states) in
descending priority and takes the first match, else synthesizes the
default context (state 0, all registers zero). Neither allocates: an
entry is only allocated when a non-default context is written back, so
idle traffic costs no table space.

Housekeeping reclaims stale entries with a two-step activity flag: a
periodic scan demotes ACTIVE entries to INACTIVE and deletes entries that
stayed INACTIVE a full cycle (i.e. were not touched by any lookup or
write-back in between). A scan visits only the stored entries.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

DEFAULT_STATE = 0
NUM_FLOW_REGISTERS = 4


class Activity(enum.IntEnum):
    INACTIVE = 0
    ACTIVE = 1


@dataclass(slots=True)
class FlowContext:
    """State label plus the four per-flow registers."""

    state: int = DEFAULT_STATE
    r: list[int] = field(default_factory=lambda: [0] * NUM_FLOW_REGISTERS)
    activity: Activity = Activity.ACTIVE
    # flat index (subtable * buckets + bucket) of the bucket holding a
    # stored context; -1 for synthesized ones
    home: int = -1


class FlowContextTable:
    """d-left hash store of flow contexts with wildcard fallbacks.

    One engine instance owns one table; there is no internal locking.
    Hash seeds are fixed per instance and exposed for reproducibility.
    """

    def __init__(
        self,
        *,
        subtables: int = 4,
        buckets: int = 1024,
        bucket_depth: int = 1,
        seed: int = 0,
        num_registers: int = NUM_FLOW_REGISTERS,
    ):
        if subtables < 1 or buckets < 1 or bucket_depth < 1:
            raise ValueError("table geometry must be positive")
        self.subtables = subtables
        self.buckets = buckets
        self.bucket_depth = bucket_depth
        self.num_registers = num_registers
        self.capacity = subtables * buckets * bucket_depth
        self.seeds = tuple(
            (seed ^ (0x9E3779B9 * (i + 1))) & 0xFFFFFFFFFFFFFFFF
            for i in range(subtables)
        )
        self._seed_bytes = [s.to_bytes(8, "little") for s in self.seeds]
        self._contexts: dict[int, FlowContext] = {}
        # entries per bucket, indexed like FlowContext.home
        self._load = [0] * (subtables * buckets)
        # (value & mask, mask, priority, state, registers), descending priority
        self._fallbacks: list[tuple[int, int, int, int, tuple[int, ...]]] = []
        self.high_water = 0
        self.evictions = 0
        self.table_full_drops = 0

    def _positions(self, key: int) -> tuple[int, ...]:
        """Candidate bucket of ``key`` in each subtable."""
        kb = key.to_bytes(16, "big")
        return tuple(
            int.from_bytes(hashlib.blake2b(kb, digest_size=8, key=sb).digest(), "little")
            % self.buckets
            for sb in self._seed_bytes
        )

    def add_fallback(
        self,
        value: int,
        mask: int,
        priority: int,
        state: int,
        registers: Optional[Sequence[int]] = None,
    ) -> None:
        """Install a wildcard context rule matched on lookup misses.

        Priorities are unique and the rule count bounded; the program
        loader checks both.
        """
        regs = tuple(registers) if registers is not None else ()
        if len(regs) > self.num_registers:
            raise ValueError(f"fallback allows {self.num_registers} register values")
        regs += (0,) * (self.num_registers - len(regs))
        self._fallbacks.append((value & mask, mask, priority, state, regs))
        self._fallbacks.sort(key=lambda rule: rule[2], reverse=True)

    def lookup_context(self, key: int) -> FlowContext:
        """Context for a flow key; never fails.

        Exact hits are touched ACTIVE. Misses fall through to the
        highest-priority matching fallback and finally to the default
        context; neither allocates. The returned object is owned by the
        table on exact hits: callers must treat it as read-only and publish
        changes via write_back.
        """
        ctx = self._contexts.get(key)
        if ctx is not None:
            ctx.activity = Activity.ACTIVE
            return ctx
        for value, mask, _, state, registers in self._fallbacks:
            if key & mask == value:
                return FlowContext(state, list(registers))
        return FlowContext(r=[0] * self.num_registers)

    def write_back(self, key: int, state: int, registers: Sequence[int]) -> bool:
        """Store a context under a key.

        Existing entries are updated in place. A default-valued context
        (state 0, all registers zero) is not allocated for an absent key,
        so flows that never leave the default state occupy nothing. When
        all candidate buckets are full the context is dropped and counted;
        processing continues.
        """
        ctx = self._contexts.get(key)
        if ctx is not None:
            ctx.state = state
            ctx.r[:] = registers
            ctx.activity = Activity.ACTIVE
            return True
        if state == DEFAULT_STATE and not any(registers):
            return True
        load = self._load
        home = -1
        best_load = self.bucket_depth
        for sub, bucket in enumerate(self._positions(key)):
            candidate = sub * self.buckets + bucket
            if load[candidate] < best_load:
                best_load = load[candidate]
                home = candidate
        if home < 0:
            self.table_full_drops += 1
            return False
        load[home] += 1
        self._contexts[key] = FlowContext(state, list(registers), home=home)
        if len(self._contexts) > self.high_water:
            self.high_water = len(self._contexts)
        return True

    def housekeep(self, now: int = 0) -> int:
        """One management scan: demote ACTIVE, reclaim INACTIVE.

        Returns the number of entries evicted. ``now`` is informational
        (the scan is flag-driven, not timestamp-driven).
        """
        stale = []
        for key, ctx in self._contexts.items():
            if ctx.activity == Activity.ACTIVE:
                ctx.activity = Activity.INACTIVE
            else:
                stale.append(key)
        for key in stale:
            self._load[self._contexts.pop(key).home] -= 1
        self.evictions += len(stale)
        return len(stale)

    def get(self, key: int) -> Optional[FlowContext]:
        """Exact-match peek without touching the activity flag."""
        return self._contexts.get(key)

    @property
    def occupancy(self) -> int:
        """Number of stored contexts."""
        return len(self._contexts)
