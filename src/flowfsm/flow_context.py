"""Per-flow context storage.

Exact-match contexts live in one key -> context dict, placed as in a
d-left hash table: d subtables, with insertion going to the least-loaded
candidate bucket (leftmost subtable on ties). One keyed hash of the key
gives all d candidate buckets: a blake2b digest of 8·d bytes, keyed with
every subtable's seed, split into d words. The store keeps the keys of
each bucket in use, at most ``bucket_depth`` of them, so it never holds
more than d × buckets × depth contexts; a key whose candidate buckets are
all full is dropped and counted. A lookup miss is not an error: it scans
the wildcard fallbacks (value/mask rules over the key, mainly to seed
protocol-specific default states) in descending priority and takes the
first match, else the default context (state 0, all registers zero).
Neither allocates: a miss returns a context built once, and an entry is
only allocated when a non-default context is written back, so idle
traffic costs no table space.

Contexts age without a scan. Each one is stamped with the management
period of its last lookup hit or write-back and stays live through the
next period. An expired context reads as absent. An insert counts the
live keys of its candidate buckets, at most d × ``bucket_depth`` checks,
and rewrites only the bucket it picks, dropping that bucket's expired
contexts; when the inserted key still has an expired entry in another
candidate bucket, that entry leaves it too. Live counts for the current
and previous periods give occupancy, the high-water mark and evictions
(inserts no longer live) in O(1).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from operator import mod
from typing import Optional, Sequence

DEFAULT_STATE = 0
NUM_FLOW_REGISTERS = 4


@dataclass(slots=True)
class FlowContext:
    """State label plus the four per-flow registers."""

    state: int = DEFAULT_STATE
    r: list[int] = field(default_factory=lambda: [0] * NUM_FLOW_REGISTERS)
    # period of the last lookup hit or write-back; None for a fallback or
    # default context, which is not stored
    epoch: Optional[int] = None


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
        # the keyed hash state, copied per key: keying costs a compression
        self._hasher = hashlib.blake2b(
            digest_size=8 * subtables,
            key=b"".join(s.to_bytes(8, "little") for s in self.seeds),
        )
        self._words = struct.Struct(f"<{subtables:d}Q").unpack
        self._moduli = (buckets,) * subtables
        self._contexts: dict[int, FlowContext] = {}
        # subtable * buckets + bucket -> keys stored there, expired or not;
        # tuples, which the cyclic GC does not track
        self._members: dict[int, tuple[int, ...]] = {}
        # (value & mask, mask, priority, context), descending priority; the
        # contexts a miss returns are built once and never stored
        self._fallbacks: list[tuple[int, int, int, FlowContext]] = []
        self._default = FlowContext(r=[0] * num_registers)
        # the current period, and the live contexts stamped before and in it
        self.epoch = 0
        self._live_prev = 0
        self._live_now = 0
        self._inserts = 0
        self.high_water = 0
        self.table_full_drops = 0

    def _positions(self, key: int) -> tuple[int, ...]:
        """Candidate bucket of ``key`` in each subtable."""
        h = self._hasher.copy()
        h.update(key.to_bytes(16, "big"))
        return tuple(map(mod, self._words(h.digest()), self._moduli))

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
        regs = list(registers) if registers is not None else []
        if len(regs) > self.num_registers:
            raise ValueError(f"fallback allows {self.num_registers} register values")
        regs += [0] * (self.num_registers - len(regs))
        self._fallbacks.append((value & mask, mask, priority, FlowContext(state, regs)))
        self._fallbacks.sort(key=lambda rule: rule[2], reverse=True)

    def advance(self, epoch: int) -> None:
        """Start management period ``epoch``: a later one, or any while the
        table is empty. The current period again changes nothing."""
        if epoch != self.epoch:
            self._live_prev = self._live_now if epoch == self.epoch + 1 else 0
            self._live_now = 0
            self.epoch = epoch

    def _touch(self, ctx: FlowContext) -> bool:
        """Stamp a stored context with the current period; False if it
        has expired."""
        if ctx.epoch != self.epoch - 1:
            return False
        ctx.epoch = self.epoch
        self._live_prev -= 1
        self._live_now += 1
        return True

    def lookup_context(self, key: int) -> FlowContext:
        """Context for a flow key; never fails.

        Exact hits are stamped with the current period. Misses, expired
        contexts included, fall through to the highest-priority matching
        fallback and finally to the default context; neither allocates.
        The returned object is owned by the table on exact hits, which
        are the contexts whose ``epoch`` is not None: a caller may update
        one in place, and must publish any other change via write_back.
        A miss returns a context shared by every miss it matches, which
        callers must not modify.
        """
        ctx = self._contexts.get(key)
        if ctx is not None and (ctx.epoch == self.epoch or self._touch(ctx)):
            return ctx
        for value, mask, _, fallback in self._fallbacks:
            if key & mask == value:
                return fallback
        return self._default

    def write_back(self, key: int, state: int, registers: Sequence[int]) -> bool:
        """Store a context under a key.

        Live entries are updated in place. A default-valued context
        (state 0, all registers zero) is not allocated for an absent or
        expired key, so flows that never leave the default state occupy
        nothing. When all candidate buckets are full the context is
        dropped and counted; processing continues.
        """
        contexts = self._contexts
        ctx = contexts.get(key)
        epoch = self.epoch
        if ctx is not None and (ctx.epoch == epoch or self._touch(ctx)):
            ctx.state = state
            if registers is not ctx.r:
                ctx.r[:] = registers
            return True
        if state == DEFAULT_STATE and not any(registers):
            return True
        # ctx is None, or the key's own expired entry, which one of its
        # candidate buckets still lists
        members = self._members
        buckets = self.buckets
        floor = epoch - 1
        positions = self._positions(key)
        home = -1
        best = self.bucket_depth
        index = 0
        for bucket in positions:
            live = 0
            for k in members.get(index + bucket, ()):
                if contexts[k].epoch >= floor:
                    live += 1
            if live < best:
                best = live
                home = index + bucket
                if not live:  # no later bucket can be less loaded
                    break
            index += buckets
        if home < 0:
            self.table_full_drops += 1
            return False
        keys = members.get(home, ())
        if best < len(keys):
            kept = []
            for k in keys:
                if contexts[k].epoch >= floor:
                    kept.append(k)
                else:
                    del contexts[k]
            keys = tuple(kept)
        if ctx is not None and key in contexts:
            # its expired entry is in another candidate bucket, where it
            # would count as a live load once the key is stored again
            for sub, bucket in enumerate(positions):
                old = members.get(sub * buckets + bucket, ())
                if key in old:
                    members[sub * buckets + bucket] = tuple(k for k in old if k != key)
                    break
        members[home] = keys + (key,)
        contexts[key] = FlowContext(state, list(registers), epoch)
        self._inserts += 1
        self._live_now += 1
        live = self._live_prev + self._live_now
        if live > self.high_water:
            self.high_water = live
        return True

    def get(self, key: int) -> Optional[FlowContext]:
        """Exact-match peek at a live context, without stamping it."""
        ctx = self._contexts.get(key)
        return ctx if ctx is not None and ctx.epoch >= self.epoch - 1 else None

    @property
    def occupancy(self) -> int:
        """Number of live contexts."""
        return self._live_prev + self._live_now

    @property
    def evictions(self) -> int:
        """Stored contexts that have expired."""
        return self._inserts - self.occupancy
