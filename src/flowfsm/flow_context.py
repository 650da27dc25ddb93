"""Per-flow context storage.

Exact-match contexts are placed as in a d-left hash table: d subtables,
with insertion going to the least-loaded candidate bucket (leftmost
subtable on ties). One keyed hash of the key gives all d candidate
buckets: a blake2b digest of 8·d bytes, keyed with every subtable's seed,
split into d words. The store keeps the keys of each bucket in use, at
most ``bucket_depth`` of them, so it never holds more than d × buckets ×
depth contexts; a key whose candidate buckets are all full is dropped and
counted. A lookup miss is not an error: it scans the wildcard fallbacks
(value/mask rules over the key, mainly to seed protocol-specific default
states) in descending priority and takes the first match, else the
default context (state 0, all registers zero). Neither allocates: a miss
returns a context built once, and an entry is only allocated when a
non-default context is written back, so idle traffic costs no table space.

A context is the tuple ``(state, r0, ..., r_{n-1})``: four flow registers,
then one per ``flow_scratch`` alias. Stored, fallback and default contexts
are such tuples. An update stores a new one; the engine's step puts a hit's
straight into the current generation's dict. The cyclic GC untracks a
tuple of ints once a collection has seen it, so it does not walk the store.

Contexts age by generation, without a scan: one key -> context dict holds
those written or hit in the current management period, another those of
the previous period not hit since, and a hit moves a context from the
second to the first. The next period clears the second and swaps the
two; any other period change clears both. So the store holds only live
contexts. A bucket may still list an expired key until an insert scans
it: an insert keeps in each candidate bucket the keys that a generation
holds, at most d × ``bucket_depth`` checks, and drops the rest.
"""

from __future__ import annotations

import hashlib
import struct
from operator import mod
from typing import Optional, Sequence

NUM_FLOW_REGISTERS = 4
Context = tuple[int, ...]  # (state, r0, ..., r_{n-1})


def context_bytes(num_registers: int) -> int:
    """Bytes a stored context with ``num_registers`` registers takes at
    most, with its key and its share of the bucket lists, whatever 32-bit
    values its registers hold. By tracemalloc on CPython 3.11, with every
    context written in one period and hit in the next, so that both
    generations' dicts are sized for all of them, and the dicts just past
    a growth step: 560 bytes with four full-width registers and 603 with
    five, about 43 more per register."""
    return 400 + 48 * num_registers


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
        # the two generations, the same two dicts for the table's life
        self._now: dict[int, Context] = {}
        self._prev: dict[int, Context] = {}
        # subtable * buckets + bucket -> keys stored there, expired or not;
        # tuples, which the cyclic GC does not track
        self._members: dict[int, tuple[int, ...]] = {}
        # (value & mask, mask, priority, context), descending priority; the
        # contexts a miss returns are built once
        self._fallbacks: list[tuple[int, int, int, Context]] = []
        self._default: Context = (0,) * (1 + num_registers)
        self.epoch = 0  # the current period
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
        regs = tuple(registers or ())
        if len(regs) > self.num_registers:
            raise ValueError(f"fallback allows {self.num_registers} register values")
        ctx = (state, *regs) + (0,) * (self.num_registers - len(regs))
        self._fallbacks.append((value & mask, mask, priority, ctx))
        self._fallbacks.sort(key=lambda rule: rule[2], reverse=True)

    def advance(self, epoch: int) -> None:
        """Start management period ``epoch``. The next period expires the
        contexts not hit in the current one, any other expires them all,
        and the current period again changes nothing."""
        if epoch != self.epoch:
            expired = self._prev
            expired.clear()
            if epoch == self.epoch + 1:
                self._prev, self._now = self._now, expired
            else:
                self._now.clear()
            self.epoch = epoch

    def lookup_context(self, key: int) -> Context:
        """Context for a flow key; never fails.

        An exact hit in the previous generation moves to the current one.
        A miss falls through to the highest-priority matching fallback and
        finally to the default context; neither allocates.
        """
        ctx = self._now.get(key)
        if ctx is None:
            ctx = self._prev.pop(key, None)
            if ctx is None:
                for value, mask, _, fallback in self._fallbacks:
                    if key & mask == value:
                        return fallback
                return self._default
            self._now[key] = ctx
        return ctx

    def write_back(self, key: int, ctx: Context) -> bool:
        """Store the context ``ctx`` under a key.

        A live entry is replaced, and moves to the current generation. A
        default-valued context (state 0, all registers zero) is not
        allocated for an absent key, so flows that never leave the default
        state occupy nothing. When all candidate buckets are full the
        context is dropped and counted; processing continues.
        """
        now, prev = self._now, self._prev
        if key in now or prev.pop(key, None):  # a context is never empty
            now[key] = ctx
            return True
        if not any(ctx):
            return True
        # a candidate bucket may still list the key itself, expired
        members = self._members
        buckets = self.buckets
        home = -1
        best = self.bucket_depth
        index = 0
        for bucket in self._positions(key):
            slot = index + bucket
            keys = members.get(slot, ())
            if keys:
                keys = members[slot] = tuple([k for k in keys if k in now or k in prev])
            if len(keys) < best:
                best = len(keys)
                home = slot
                home_keys = keys
            index += buckets
        if home < 0:
            self.table_full_drops += 1
            return False
        members[home] = home_keys + (key,)
        now[key] = ctx
        self._inserts += 1
        live = len(now) + len(prev)
        if live > self.high_water:
            self.high_water = live
        return True

    def get(self, key: int) -> Optional[Context]:
        """Exact-match peek at a live context; it does not move it."""
        return self._now.get(key) or self._prev.get(key)  # a context is never empty

    @property
    def occupancy(self) -> int:
        """Number of live contexts, all of them stored."""
        return len(self._now) + len(self._prev)

    @property
    def evictions(self) -> int:
        """Inserted contexts that have expired."""
        return self._inserts - self.occupancy
