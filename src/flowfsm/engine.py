"""Per-packet processing engine.

One engine instance runs one program over one packet stream. Each packet
goes through the same fixed sequence: flow context lookup, condition
evaluation, transition-table match on state / condition bits / selected
header fields, action emission, parallel register update, and context
write-back under the (possibly different) update key. Housekeeping of the
context table fires whenever the packet clock crosses a management-period
boundary, before the packet is processed.

Sequential semantics are strict by default: the verdict of packet i sees
every update of packets before i, including back-to-back packets of the
same flow. An opt-in hazard window delays update visibility by a fixed
number of packets to study pipelined-hardware behaviour; it is off for all
normal runs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .alu import AluRuntime, Instruction, compile_plan, execute_plan
from .conditions import evaluate_compiled
from .extractor import KeyScope, PacketRecord
from .flow_context import FlowContextTable
from .stats import RunStats
from .tcam import TernaryTable

STATE_BITS = 16
COND_BITS = 8
FIELD_BITS = 32


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

    def match_key(self) -> tuple[int, int]:
        """(value, mask) of this row in the packed table layout."""
        value = (self.state[0] << COND_BITS) | self.cond[0]
        mask = (self.state[1] << COND_BITS) | self.cond[1]
        for fv, fm in self.fields:
            value = (value << FIELD_BITS) | fv
            mask = (mask << FIELD_BITS) | fm
        return value, mask


@dataclass(slots=True)
class PacketVerdict:
    """Observability record emitted for every processed packet."""

    seq: int
    ts: int
    action: Action
    action_str: str
    pre_state: str
    post_state: str
    row_id: int
    cond_bits: int
    registers: tuple[int, ...]
    global_registers: tuple[int, ...]


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
        xfsm_capacity: int = 128,
        ports: int = 4,
        scratch_slots: Sequence[int] = (),
        hazard_window: int = 0,
        alu_runtime: Optional[AluRuntime] = None,
        seed: int = 0,
        partitionable: bool = False,
    ):
        self.name = name
        self._labels = dict(state_labels)
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
        self.ports = ports
        # donated global slots backing extra per-flow scratch registers:
        # scratch i is stored as flow register 4+i but addressed through
        # global selector scratch_slots[i]
        self._scratch = tuple(scratch_slots)
        self.hazard_window = hazard_window
        self._pending: deque[tuple[int, int, int, list[int], list[int]]] = deque()
        self.alu = alu_runtime if alu_runtime is not None else AluRuntime()
        self._seq = 0
        self._last_ts: Optional[int] = None
        width = STATE_BITS + COND_BITS + FIELD_BITS * len(self._match_slots)
        self.xfsm = TernaryTable(width=width, capacity=max(xfsm_capacity, len(rows)))
        for idx, row in enumerate(self._rows):
            value, mask = row.match_key()
            self.xfsm.insert(value, mask, row.priority, idx)
        # per-row constants kept out of the per-packet path
        self._row_plans = [compile_plan(row.instructions) for row in self._rows]
        self._row_action_str = [format_action(row.action) for row in self._rows]
        self._row_action_name = [
            row.action.kind.name.lower() for row in self._rows
        ]
        if not any(
            r.state[1] == 0 and r.cond[1] == 0 and all(m == 0 for _, m in r.fields)
            for r in self._rows
        ):
            raise EngineError("program has no catch-all transition row")
        self._stats = RunStats(
            program=name,
            seed=seed,
            hash_seeds=context.seeds,
            hazard_window=hazard_window,
            hw_faithful_div=self.alu.hw16_div,
            partitionable=partitionable,
        )
        self._transition_counts: dict[tuple[str, int], int] = {}

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
        s.transitions = {
            f"{label}#{row}": n for (label, row), n in self._transition_counts.items()
        }
        return s

    def _commit(self, key: int, state: int, r: list[int], g: list[int]) -> None:
        self.context.write_back(key, state, r)
        self.g = g

    def _flush_pending(self, upto_seq: int) -> None:
        while self._pending and self._pending[0][0] <= upto_seq:
            _, key, state, r, g = self._pending.popleft()
            self._commit(key, state, r, g)

    def flush(self) -> None:
        """Apply all delayed updates (hazard-window mode only)."""
        self._flush_pending(1 << 62)

    def process_packet(self, record: PacketRecord) -> PacketVerdict:
        seq = self._seq
        self._seq += 1
        ts = record.ts

        # housekeeping runs between packets, when the clock crosses a
        # management-period boundary
        if self._period:
            if self._next_boundary is None:
                self._next_boundary = (ts // self._period + 1) * self._period
            while ts >= self._next_boundary:
                if not self.context.occupancy:
                    # a scan of an empty table changes nothing, so the
                    # boundaries up to ts are skipped arithmetically
                    self._next_boundary = (ts // self._period + 1) * self._period
                    break
                self.context.housekeep(self._next_boundary)
                self._next_boundary += self._period
        if self.hazard_window:
            self._flush_pending(seq - self.hazard_window)

        h = record.h
        lookup_key = self._lookup_scope.key(h)
        ctx = self.context.lookup_context(lookup_key)
        # read before the commit below, which may update ctx in place
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

        key = (state << COND_BITS) | bits
        for slot in self._match_slots:
            key = (key << FIELD_BITS) | h[slot]
        row_idx = self.xfsm.lookup(key)
        if row_idx is None:  # unreachable: catch-all row checked at build
            raise EngineError("transition table miss despite catch-all row")
        row = self._rows[row_idx]

        next_state = row.next_state if row.next_state is not None else state
        plan = self._row_plans[row_idx]
        if plan:
            r2, g2 = execute_plan(plan, r, g_view, h, self.alu)
        else:
            r2, g2 = list(r), g_view
        if scratch:
            for i, slot in enumerate(scratch):
                r2[4 + i] = g2[slot]
                g2[slot] = g[slot]  # the true global is untouched by scratch writes

        update_key = lookup_key if self._same_scope else self._update_scope.key(h)
        if self.hazard_window:
            self._pending.append(
                (seq + self.hazard_window, update_key, next_state, r2, list(g2))
            )
        else:
            self._commit(update_key, next_state, r2, g2)

        stats = self._stats
        stats.packets += 1
        if record.truncated:
            stats.truncated_fields += 1
        action_name = self._row_action_name[row_idx]
        stats.actions[action_name] = stats.actions.get(action_name, 0) + 1
        pre_label = self._labels.get(state, f"state_{state}")
        tkey = (pre_label, row_idx)
        counts = self._transition_counts
        counts[tkey] = counts.get(tkey, 0) + 1

        return PacketVerdict(
            seq=seq,
            ts=ts,
            action=row.action,
            action_str=self._row_action_str[row_idx],
            pre_state=pre_label,
            post_state=self._labels.get(next_state, f"state_{next_state}"),
            row_id=row_idx,
            cond_bits=bits,
            registers=tuple(r2),
            global_registers=tuple(g2),
        )

    def run_trace(self, records: Iterable[PacketRecord]) -> Iterator[PacketVerdict]:
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


Binder = Callable[[Mapping[str, object], int], PacketRecord]

