"""Per-packet processing engine.

One engine instance runs one program over one packet stream. Each packet
goes through the same fixed sequence: flow context lookup, condition
evaluation, transition-table match on state / condition bits / selected
header fields, action emission, parallel register update, and context
write-back under the (possibly different) update key. The transition
match goes through a per-state table indexed by the condition bits, built
on the state's first packet, so a packet checks field patterns only on the
few rows left for its (state, bits) pair. Housekeeping of the context
table fires whenever the packet clock crosses a management-period
boundary, before the packet is processed.

Sequential semantics are strict by default: the verdict of packet i sees
every update of packets before i, including back-to-back packets of the
same flow. An opt-in hazard window of W packets delays update visibility
to study pipelined-hardware behaviour: the W packets after packet i still
read the contexts and globals from before i's update, and packet i+W+1 is
the first to see it. It is off for all normal runs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .alu import AluRuntime, Instruction, compile_plan, execute_plan
from .conditions import evaluate_compiled
from .extractor import KeyScope, PacketRecord
from .flow_context import FlowContextTable
from .stats import RunStats

COND_BITS = 8

# one verdict row per packet, as process_packet returns it
VERDICT_COLUMNS = (
    "seq",
    "ts",
    "action",
    "pre_state",
    "post_state",
    "row_id",
    "cond_bits",
)

# condition bits as 8 binary digits, condition 0 rightmost
_COND_TEXT = tuple(f"{bits:0{COND_BITS}b}" for bits in range(1 << COND_BITS))


class EngineError(Exception):
    pass


class NonMonotoneTimestampError(EngineError):
    """Trace timestamps must be non-decreasing."""


class ActionKind(enum.IntEnum):
    NONE = 0
    DROP = 1
    FORWARD = 2
    FLOOD = 3
    SET_DSCP = 4  # rewrite DSCP, then forward


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    port: int = 0
    dscp: int = 0


def format_action(action: Action) -> str:
    if action.kind == ActionKind.NONE:
        return "none"
    if action.kind == ActionKind.DROP:
        return "drop"
    if action.kind == ActionKind.FLOOD:
        return "flood"
    if action.kind == ActionKind.FORWARD:
        return f"fwd:{action.port}"
    return f"dscp:{action.dscp}:fwd:{action.port}"


def parse_action(text: str) -> Action:
    """Parse "none" | "drop" | "flood" | "fwd:P" | "dscp:V:fwd:P"."""
    text = text.strip().lower()
    if text == "none":
        return Action(ActionKind.NONE)
    if text == "drop":
        return Action(ActionKind.DROP)
    if text == "flood":
        return Action(ActionKind.FLOOD)
    parts = text.split(":")
    if len(parts) == 2 and parts[0] == "fwd":
        return Action(ActionKind.FORWARD, port=int(parts[1], 0))
    if len(parts) == 4 and parts[0] == "dscp" and parts[2] == "fwd":
        return Action(ActionKind.SET_DSCP, port=int(parts[3], 0), dscp=int(parts[1], 0))
    raise ValueError(f"unknown action {text!r}")


@dataclass(frozen=True)
class XfsmRow:
    """One compiled transition.

    The match side is a ternary pattern over the current state label, the
    condition bit vector and the configured match fields. ``next_state``
    of None means "stay in the current state" (used by catch-all rows).
    """

    state: tuple[int, int]  # (value, mask) over 16 bits
    cond: tuple[int, int]  # (value, mask) over 8 bits
    fields: tuple[tuple[int, int], ...]  # per match field, 32 bits each
    priority: int
    next_state: Optional[int]
    action: Action
    instructions: tuple[Instruction, ...]


class _Labels(dict):
    """State code -> label; codes without a label read as ``state_<code>``."""

    def __missing__(self, code: int) -> str:
        return f"state_{code}"


def _first_match(candidates: tuple, h: Sequence[int]) -> int:
    """Index of the first row in ``candidates`` whose field patterns all
    match ``h``; the last candidate has none, so one always does."""
    for row_idx, patterns in candidates:
        for slot, value, mask in patterns:
            if h[slot] & mask != value:
                break
        else:
            return row_idx


class Engine:
    """One programmed packet-processing stage."""

    def __init__(
        self,
        *,
        name: str,
        state_labels: Mapping[int, str],
        lookup_scope: KeyScope,
        update_scope: KeyScope,
        compiled_conditions: Sequence[tuple[int, int, int, int, int]],
        rows: Sequence[XfsmRow],
        match_slots: Sequence[int],
        context: FlowContextTable,
        globals_init: Sequence[int],
        management_period: int,
        scratch_slots: Sequence[int] = (),
        hazard_window: int = 0,
        alu_runtime: Optional[AluRuntime] = None,
        seed: int = 0,
    ):
        self.name = name
        self._labels = _Labels(state_labels)
        self._lookup_scope = lookup_scope
        self._update_scope = update_scope
        self._same_scope = lookup_scope == update_scope
        self._conds = tuple(compiled_conditions)
        self._rows = list(rows)
        self._match_slots = tuple(match_slots)
        self.context = context
        self.g = list(globals_init)
        self._period = management_period
        self._next_boundary: Optional[int] = None
        # donated global slots backing extra per-flow scratch registers:
        # scratch i is stored as flow register 4+i but addressed through
        # global selector scratch_slots[i]
        self._scratch = tuple(scratch_slots)
        self.hazard_window = hazard_window
        self._pending: deque[tuple[int, int, int, list[int], list[int]]] = deque()
        self.alu = alu_runtime if alu_runtime is not None else AluRuntime()
        self._seq = 0
        self._last_ts: Optional[int] = None
        # row indices in descending priority: the order a TCAM resolves them
        self._by_priority = sorted(
            range(len(self._rows)), key=lambda i: self._rows[i].priority, reverse=True
        )
        # state -> 256 entries indexed by condition bits, built on the
        # state's first packet; see _dispatch_for
        self._dispatch: dict[int, list] = {}
        # per-row constants kept out of the per-packet path:
        # (action text, next state or None to stay, ALU plan)
        self._row_consts = [
            (format_action(row.action), row.next_state, compile_plan(row.instructions))
            for row in self._rows
        ]
        self._stats = RunStats(
            program=name,
            seed=seed,
            hash_seeds=context.seeds,
            hazard_window=hazard_window,
            hw_faithful_div=self.alu.hw16_div,
        )
        # (pre-state code, row index) -> packets
        self._transition_counts: dict[tuple[int, int], int] = {}

    @property
    def stats(self) -> RunStats:
        """Current counter snapshot (live view, refreshed on access)."""
        s = self._stats
        s.occupancy = self.context.occupancy
        s.high_water = self.context.high_water
        s.evictions = self.context.evictions
        s.table_full_drops = self.context.table_full_drops
        s.div_zero = self.alu.div_zero
        s.ewma_time_violations = self.alu.time_violations
        s.packets = 0
        s.actions = {}
        s.transitions = {}
        for (state, row_idx), n in self._transition_counts.items():
            s.packets += n
            action = self._rows[row_idx].action.kind.name.lower()
            s.actions[action] = s.actions.get(action, 0) + n
            key = f"{self._labels[state]}#{row_idx}"
            s.transitions[key] = s.transitions.get(key, 0) + n
        return s

    def _dispatch_for(self, state: int) -> list:
        """The 256-entry row dispatch of one state.

        Entry ``bits`` is the index of the row that matches (state, bits)
        with the highest priority when that row matches every packet.
        Otherwise it is a tuple of (row index, field patterns) candidates in
        descending priority, ending with the first candidate that has no
        field pattern. Field patterns are (slot, value, mask) triples.
        """
        live = []
        for idx in self._by_priority:
            row = self._rows[idx]
            (sv, sm), (cv, cm) = row.state, row.cond
            if state & sm == sv & sm:
                patterns = tuple(
                    (slot, fv & fm, fm)
                    for slot, (fv, fm) in zip(self._match_slots, row.fields)
                    if fm
                )
                live.append((idx, cv & cm, cm, patterns))
        table: list = []
        for bits in range(1 << COND_BITS):
            candidates = []
            for idx, cv, cm, patterns in live:
                if bits & cm == cv:
                    candidates.append((idx, patterns))
                    if not patterns:
                        break
            if candidates[0][1]:
                table.append(tuple(candidates))
            else:
                table.append(candidates[0][0])
        self._dispatch[state] = table
        return table

    def match_row(self, state: int, bits: int, h: Sequence[int]) -> int:
        """Index of the highest-priority row matching the state, the
        condition bits and the match fields of ``h``."""
        table = self._dispatch.get(state)
        if table is None:
            table = self._dispatch_for(state)
        entry = table[bits]
        return entry if entry.__class__ is int else _first_match(entry, h)

    def _flush_pending(self, upto_seq: int) -> None:
        pending = self._pending
        while pending and pending[0][0] <= upto_seq:
            _, key, state, r, g = pending.popleft()
            self.context.write_back(key, state, r)
            self.g = g

    def flush(self) -> None:
        """Apply all delayed updates (hazard-window mode only)."""
        self._flush_pending(1 << 62)

    def process_packet(self, record: PacketRecord) -> tuple:
        """Run one packet through the stage; returns its verdict row, the
        values of :data:`VERDICT_COLUMNS` in order."""
        seq = self._seq
        self._seq = seq + 1
        ts = record.ts
        context = self.context
        hazard = self.hazard_window

        # housekeeping runs between packets, when the clock crosses a
        # management-period boundary
        period = self._period
        if period:
            if self._next_boundary is None:
                self._next_boundary = (ts // period + 1) * period
            while ts >= self._next_boundary:
                if not context.occupancy:
                    # a scan of an empty table changes nothing, so the
                    # boundaries up to ts are skipped arithmetically
                    self._next_boundary = (ts // period + 1) * period
                    break
                context.housekeep(self._next_boundary)
                self._next_boundary += period
        if hazard:
            self._flush_pending(seq)

        h = record.h
        lookup_key = self._lookup_scope.key(h)
        ctx = context.lookup_context(lookup_key)
        # read before the write-back below, which may update ctx in place
        state = ctx.state
        r = ctx.r
        g = self.g
        scratch = self._scratch
        if scratch:
            g_view = list(g)
            for i, slot in enumerate(scratch):
                g_view[slot] = r[4 + i]
        else:
            g_view = g
        bits = evaluate_compiled(self._conds, r, g_view, h) if self._conds else 0

        row_idx = self.match_row(state, bits, h)
        action_str, next_state, plan = self._row_consts[row_idx]
        if next_state is None:
            next_state = state
        if plan:
            r2, g2 = execute_plan(plan, r, g_view, h, self.alu)
        else:
            r2, g2 = list(r), g_view
        if scratch:
            for i, slot in enumerate(scratch):
                r2[4 + i] = g2[slot]
                g2[slot] = g[slot]  # the true global is untouched by scratch writes

        update_key = lookup_key if self._same_scope else self._update_scope.key(h)
        if hazard:
            # the next `hazard` packets still read the old context
            self._pending.append((seq + hazard + 1, update_key, next_state, r2, list(g2)))
        else:
            context.write_back(update_key, next_state, r2)
            self.g = g2

        counts = self._transition_counts
        tkey = (state, row_idx)
        counts[tkey] = counts.get(tkey, 0) + 1

        labels = self._labels
        return (
            seq, ts, action_str, labels[state], labels[next_state], row_idx,
            _COND_TEXT[bits],
        )

    def run_trace(self, records: Iterable[PacketRecord]) -> Iterator[tuple]:
        """Process a packet stream, enforcing the time-order contract."""
        for record in records:
            if self._last_ts is not None and record.ts < self._last_ts:
                raise NonMonotoneTimestampError(
                    f"timestamp {record.ts} after {self._last_ts}"
                )
            self._last_ts = record.ts
            yield self.process_packet(record)
        if self.hazard_window:
            self.flush()
