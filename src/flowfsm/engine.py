"""Per-packet processing engine.

One engine instance runs one program over one packet stream. Each packet
goes through the same fixed sequence: flow context lookup, condition
evaluation, transition-table match on state / condition bits / selected
header fields, action emission, parallel register update, and context
write-back under the (possibly different) update key. When the packet
clock crosses a management-period boundary, the step tells the context
table the new period before it processes the packet; the table ages its
contexts from that alone, by dropping the generation of contexts that
went unused for a whole period, so no packet scans the table.

A packet reaches the step as the pair ``(h, ts)``: ``h``, the values of
the eight 32-bit header slots H0..H7 that the program's fields bind from
trace columns, and the timestamp ``ts``. A flow key is 128 bits wide: the
fields of a key scope concatenate in scope order, the first in the most
significant bits, each masked to its width, zero-padded on the right.

An engine is built from a validated :class:`~flowfsm.programs.ProgramConfig`
in one compile stage, the only one between the program and the packets,
and no packet builds or grows any of what it makes. It computes the key
layout of the lookup and update scopes once, as (slot, mask, shift)
triples, and builds the flow context table with the program's fallbacks
packed by the lookup layout. It resolves the transition table for every
declared state: the state's dispatch has one entry per condition bits,
which names a transition, one (pre-state, row) pair, or for rows with
field patterns the few candidate transitions left for that (state, bits)
pair. Each transition's constants are resolved once: action text, next
state (a stay is the pre-state), ALU tuple, both state labels and the row
index. From these it generates one function, installed as its
``process_packet``. The step is the one check that ``ts`` does not run
backwards, in the branch that already compares it with the next period
boundary; its error names the packet by the ``seq`` of its verdict. It
packs the flow keys with constant shifts and masks, evaluates the
comparators as one bit-vector expression, reads the transition off the
state's dispatch, and runs its ALU tuple as straight-line code that reads
every operand before it writes any, so the tuple still commits in
parallel. A context is the tuple ``(state, r0, ..., r_{n-1})``, unpacked
at lookup and rebuilt by the update. When the lookup and update scopes
agree and no hazard window is set, the step stores a hit's new context in
the table's current generation itself; only a miss goes through
``write_back``, which may insert.
Scratch aliases, the management period, the hazard window, the 16-bit
division mode and whether the key scopes agree are settled at build time.
The divisions and the statistics instructions are emitted as guarded
lines too, which count division by zero and backward time where the ALU
helpers do, so the step calls no function of :mod:`flowfsm.alu`.
:meth:`Engine.run_trace` maps the step over the records. The source holds
only integers and fixed names: labels, action text and the program name
reach it as values. Each engine runs it in a namespace of its own and
copies what it reads of the program, so engines built from one config
share no state. :func:`conditions.evaluate` and :func:`alu.execute_tuple`,
with its ``alu.exec_*`` helpers, interpret the same primitives from their
descriptions and serve as the reference for the generated step.

Sequential semantics are strict by default: the verdict of packet i sees
every update of packets before i, including back-to-back packets of the
same flow. An opt-in hazard window of W packets delays update visibility
to study pipelined-hardware behaviour: the W packets after packet i still
read the contexts and globals from before i's update, and packet i+W+1 is
the first to see it. It is off for all normal runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .alu import (
    NUM_HEADER_SLOTS,
    SEL_G_BASE,
    SEL_H_BASE,
    AluRuntime,
    Instruction,
    Opcode,
)
from .conditions import NUM_CONDITIONS
from .flow_context import NUM_FLOW_REGISTERS, Context, FlowContextTable
from .stats import RunStats

if TYPE_CHECKING:  # programs imports this module
    from .programs import ProgramConfig

FLOW_KEY_WIDTH = 128
# a scope's flow key: the OR of (h[slot] & mask) << shift over its fields
KeyLayout = tuple[tuple[int, int, int], ...]

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
_COND_TEXT = tuple(
    f"{bits:0{NUM_CONDITIONS}b}" for bits in range(1 << NUM_CONDITIONS)
)

# the first word of an action's canonical text -> the kind the stats count
# it under; the loader accepts these words and no others
ACTION_KINDS = {
    "none": "none",
    "drop": "drop",
    "fwd": "forward",
    "flood": "flood",
    "dscp": "set_dscp",  # rewrite DSCP, then forward
}

# comparator operators, indexed by conditions.CmpOp
_CMP_OPS = (">", ">=", "==", "<=", "<")

# the result of each one-line instruction over its first input {a} and its
# second input or immediate {b}, as alu.exec_basic computes it; the
# compiler folds the shift amounts, which are always immediates
_ONE_LINE = {
    Opcode.NOT: "~{a} & 0xFFFFFFFF",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.ADD: "({a} + {b}) & 0xFFFFFFFF",
    Opcode.SUB: "({a} - {b}) & 0xFFFFFFFF",
    Opcode.MUL: "({a} * {b}) & 0xFFFFFFFF",
    Opcode.ADDI: "({a} + {b}) & 0xFFFFFFFF",
    Opcode.SUBI: "({a} - {b}) & 0xFFFFFFFF",
    Opcode.MULI: "({a} * {b}) & 0xFFFFFFFF",
    Opcode.LSL: "({a} << ({b} % 32)) & 0xFFFFFFFF",
    Opcode.LSR: "{a} >> ({b} % 32)",
    Opcode.ROR: "(({a} >> ({b} % 32)) | ({a} << (32 - {b} % 32))) & 0xFFFFFFFF",
}


def _guarded(
    ins: Instruction, args: Sequence[str], n: int, hw16: bool
) -> tuple[list[str], list[str]]:
    """(result names, lines) of instruction ``n`` of a tuple when it is a
    division or a statistics instruction, over its operand expressions
    ``args`` in selector order.

    The lines branch where :func:`alu._udiv`, :func:`alu._sdiv_trunc` and
    :func:`alu.exec_ewma` do, and compute and count what they compute and
    count: a zero divisor adds one to ``rt.div_zero`` per division (two
    for VAR), and time running backwards adds one to
    ``rt.time_violations``. With ``hw16`` every divisor and dividend is
    narrowed to 16 bits, a negative dividend by its magnitude.
    """
    op = ins.opcode
    narrow = " & 0xFFFF" if hw16 else ""

    def quotient(num: str, den: str) -> str:
        # truncating signed division by a positive divisor
        return f"(({num}{narrow}) // {den} if {num} >= 0 else -((-{num}{narrow}) // {den}))"

    if op == Opcode.DIVI:
        if ins.imm == 0:
            return [f"t{n:d}"], [f"t{n:d} = 0", "rt.div_zero += 1"]
        return [f"t{n:d}"], [f"t{n:d} = ({args[1]}{narrow}) // {ins.imm:d}"]
    if op == Opcode.DIV:
        return [f"t{n:d}"], [
            f"d{n:d} = {args[2]}{narrow}",
            f"if d{n:d}:",
            f"    t{n:d} = ({args[1]}{narrow}) // d{n:d}",
            "else:",
            f"    t{n:d} = 0",
            "    rt.div_zero += 1",
        ]
    outs = [f"t{n:d}_{k:d}" for k in range(len(ins.destinations()))]
    if op == Opcode.EWMA:
        io1, io2, in1, in2 = args
        return outs, [
            f"{outs[0]} = {in1} & 0xFFFFFFFF",
            f"p{n:d} = {in1} - {io1}",
            f"if p{n:d} < 0:",
            f"    {outs[1]} = ({io2} + {in2}) & 0xFFFFFFFF",
            "    rt.time_violations += 1",
            f"elif p{n:d} < 32:",
            f"    {outs[1]} = (({io2} >> p{n:d}) + {in2}) & 0xFFFFFFFF",
            "else:",
            f"    {outs[1]} = {in2} & 0xFFFFFFFF",
        ]
    # AVG and VAR: the new count is the divisor of the mean (and variance)
    io1, io2, in1 = args[0], args[1], args[-1]
    den = f"d{n:d}" if hw16 else outs[0]
    lines = [f"{outs[0]} = ({io1} + 1) & 0xFFFFFFFF"]
    if hw16:
        lines.append(f"{den} = {outs[0]} & 0xFFFF")
    lines.append(f"p{n:d} = {in1} - {io2}")
    fits = [f"    {outs[1]} = ({io2} + {quotient(f'p{n:d}', den)}) & 0xFFFFFFFF"]
    by_zero = [f"    {outs[1]} = {io2} & 0xFFFFFFFF"]
    if op == Opcode.VAR:
        io3 = args[2]
        lines.append(f"q{n:d} = (p{n:d} * p{n:d} & 0xFFFFFFFF) - {io3}")
        fits.append(f"    {outs[2]} = ({io3} + {quotient(f'q{n:d}', den)}) & 0xFFFFFFFF")
        by_zero.append(f"    {outs[2]} = {io3} & 0xFFFFFFFF")
    by_zero.append(f"    rt.div_zero += {len(outs) - 1:d}")
    return outs, [*lines, f"if {den}:", *fits, "else:", *by_zero]


class NonMonotoneTimestampError(Exception):
    """Packet timestamps must be non-decreasing."""


class OptionError(ValueError):
    """An option or parameter outside the values it takes, such as a
    negative hazard window."""


def key_layout(parts: Iterable[tuple[int, int]]) -> KeyLayout:
    """The layout of a scope given as (slot, width) pairs in scope order."""
    layout, shift = [], FLOW_KEY_WIDTH
    for slot, width in parts:
        shift -= width
        layout.append((slot, (1 << width) - 1, shift))
    return tuple(layout)


def pack_key(layout: KeyLayout, h: Sequence[int]) -> int:
    """The flow key of header slot values ``h`` under ``layout``."""
    key = 0
    for slot, mask, shift in layout:
        key |= (h[slot] & mask) << shift
    return key


def _first_match(candidates: tuple, h: Sequence[int]) -> int:
    """The first transition in ``candidates`` whose field patterns all
    match ``h``; the last candidate has none, so one always does."""
    for transition, patterns in candidates:
        for slot, value, mask in patterns:
            if h[slot] & mask != value:
                break
        else:
            return transition


@functools.cache
def _matching_bits(value: int, mask: int) -> tuple[int, ...]:
    """The condition bits that equal ``value`` under ``mask``."""
    return tuple(bits for bits in range(1 << NUM_CONDITIONS) if bits & mask == value)


class Engine:
    """One programmed packet-processing stage, compiled from a validated
    program."""

    def __init__(
        self,
        config: ProgramConfig,
        *,
        seed: int = 0,
        hazard_window: int = 0,
        hw16_div: bool = False,
    ):
        if hazard_window < 0:
            raise OptionError(f"hazard window {hazard_window} is negative")
        self.name = config.name
        states = config.states
        fields = {f.name: f for f in config.fields}

        def layout(names: Sequence[str]) -> KeyLayout:
            return key_layout((fields[n].slot, fields[n].width) for n in names)

        self._lookup_key = layout(config.lookup_scope)
        self._update_key = layout(config.update_scope)
        self._same_scope = self._lookup_key == self._update_key
        sizes = config.table_sizes
        self.context = FlowContextTable(
            subtables=sizes.context_subtables,
            buckets=sizes.context_buckets,
            bucket_depth=sizes.bucket_depth,
            seed=seed,
            num_registers=NUM_FLOW_REGISTERS + len(config.flow_scratch),
        )
        for fb in config.context_fallback:
            # the pattern as header slot values, packed by the lookup layout
            value = [0] * NUM_HEADER_SLOTS
            mask = [0] * NUM_HEADER_SLOTS
            for name, (v, m) in fb.match:
                slot = fields[name].slot
                value[slot], mask[slot] = v, m
            self.context.add_fallback(
                pack_key(self._lookup_key, value),
                pack_key(self._lookup_key, mask),
                fb.priority,
                states[fb.state],
                fb.registers,
            )
        self._conds = tuple(spec for _, spec in config.conditions)
        self.g = list(config.globals_init)
        self._period = config.management_period
        # donated global slots backing extra per-flow scratch registers:
        # scratch i is stored as flow register 4+i but addressed through
        # global selector scratch[i]
        self._scratch = tuple(slot for _, slot in config.flow_scratch)
        self.hazard_window = hazard_window
        # the delayed (key, context, globals) updates, oldest first
        self._pending: deque[tuple[int, Context, list[int]]] = deque()
        self.alu = AluRuntime(hw16_div=hw16_div)
        # each row resolved once into its match side, (row index, state
        # code or None for any, the condition bits it matches, (slot, value,
        # mask) field patterns), in descending priority: the order a TCAM
        # resolves them; and into the index of its ALU tuple in `plans`.
        # Rows with equal tuples share their generated code
        cond_pos = {name: i for i, (name, _) in enumerate(config.conditions)}
        rows = config.transition_rows()
        plans: list[tuple[Instruction, ...]] = [()]
        plan_of, matches = [], []
        for idx, row in enumerate(rows):
            cval = cmask = 0
            for cname, bit in row.cond:
                cmask |= 1 << cond_pos[cname]
                cval |= bit << cond_pos[cname]
            patterns = tuple(
                (fields[name].slot, v & m, m) for name, (v, m) in row.match if m
            )
            state = None if row.state is None else states[row.state]
            matches.append((row.priority, idx, state, _matching_bits(cval, cmask), patterns))
            plan = tuple(i for i in row.instructions if i.opcode != Opcode.NOP)
            if plan not in plans:
                plans.append(plan)
            plan_of.append(plans.index(plan))
        matches.sort(key=lambda m: m[0], reverse=True)
        # one transition per (pre-state, row) pair that a dispatch entry
        # names: (action text, next state, index into `plans`, pre-state
        # label, post-state label, row index). Each state's dispatch has one
        # entry per condition bits: the transition of the row that matches
        # (state, bits) with the highest priority when that row matches every
        # packet, else a tuple of (transition, field patterns) candidates in
        # descending priority, ending with the first that has no pattern.
        # Rows are taken in descending priority: one with field patterns is
        # a candidate of each unresolved entry it matches, and one without
        # resolves them
        self.transitions: list[tuple[str, int, int, str, str, int]] = []
        self.dispatch: dict[int, list] = {}
        labels = {code: label for label, code in states.items()}
        for label, state in states.items():
            table: list = [None] * (1 << NUM_CONDITIONS)
            unresolved = set(range(len(table)))
            # the candidates so far of the unresolved entries that have one
            candidates: dict[int, list] = {}
            for _, idx, st, matching, patterns in matches:
                hits = unresolved.intersection(matching) if st in (None, state) else ()
                if not hits:
                    continue
                t = len(self.transitions)
                candidate = (t, patterns)
                row = rows[idx]
                nxt = state if row.next_state is None else states[row.next_state]
                self.transitions.append((row.action, nxt, plan_of[idx], label, labels[nxt], idx))
                if patterns:
                    for bits in hits:
                        candidates.setdefault(bits, []).append(candidate)
                    continue
                unresolved -= hits
                for bits in hits:
                    table[bits] = t
                for bits in hits & candidates.keys():
                    table[bits] = (*candidates.pop(bits), candidate)
                if not unresolved:
                    break
            self.dispatch[state] = table
        # packets per transition
        self._counts = [0] * len(self.transitions)
        self._stats = RunStats(
            program=self.name,
            seed=seed,
            hash_seeds=self.context.seeds,
            hazard_window=hazard_window,
            hw_faithful_div=hw16_div,
        )
        self.process_packet = self._generate_step(plans, any(m[4] for m in matches))

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
        s.packets = sum(self._counts)
        s.actions = {}
        s.transitions = {}
        for (action, _, _, pre, _, row_idx), n in zip(self.transitions, self._counts):
            if n:
                kind = ACTION_KINDS[action.split(":", 1)[0]]
                s.actions[kind] = s.actions.get(kind, 0) + n
                s.transitions[f"{pre}#{row_idx}"] = n
        return s

    def flush(self) -> None:
        """Apply all delayed updates (hazard-window mode only)."""
        pending = self._pending
        while pending:
            key, ctx, g = pending.popleft()
            self.context.write_back(key, ctx)
            self.g[:] = g

    def process_packet(self, record: tuple[list[int], int]) -> tuple:
        """Run one packet, the pair ``(h, ts)``, through the stage; returns
        its verdict row, the values of :data:`VERDICT_COLUMNS` in order.
        Every engine shadows this with the step :meth:`_generate_step`
        compiles for its program."""
        raise NotImplementedError("engines run their generated step")

    def _generate_step(
        self, plans: Sequence[tuple[Instruction, ...]], patterns: bool
    ) -> Callable[[tuple[list[int], int]], tuple]:
        """Compile the program into its per-packet step.

        ``plans`` are the distinct ALU tuples, the empty one first; the
        step branches on a transition's index into them. Only when
        ``patterns`` (some row has a field pattern) can a dispatch entry be
        a tuple of candidates. The step reads the lookup,
        write-back and period methods off ``self.context`` on each call, so
        a wrapper installed on the table after the build sees them. The
        first packet starts the table's first period. The time-order error
        and its message reach the step as values.
        """
        scratch = self._scratch
        hazard = self.hazard_window
        flow_regs = [f"r{i:d}" for i in range(self.context.num_registers)]
        slots: set[int] = set()

        def selector(sel: int) -> str:
            if sel < SEL_G_BASE:
                return f"r{sel:d}"
            if sel < SEL_H_BASE:
                index = sel - SEL_G_BASE
                if index in scratch:
                    return f"r{NUM_FLOW_REGISTERS + scratch.index(index):d}"
                return f"g[{index:d}]"
            slots.add(sel - SEL_H_BASE)
            return f"h{sel - SEL_H_BASE:d}"

        def key(layout: KeyLayout) -> str:
            return " | ".join(
                f"({selector(SEL_H_BASE + slot)} & {mask:#x}) << {shift:d}"
                for slot, mask, shift in layout
            )

        def update(plan: tuple[Instruction, ...]) -> list[str]:
            """Lines that run one ALU tuple: every result lands in a
            temporary before the new context is assembled from them."""
            lines, regs, globs = [], list(flow_regs), {}
            for n, ins in enumerate(plan):
                args = [selector(s) for s in ins.sel]
                if ins.opcode in _ONE_LINE:
                    if ins.imm is not None:
                        b = f"{ins.imm:d}"
                    else:
                        b = args[2] if len(args) > 2 else ""
                    outs = [f"t{n:d}"]
                    expr = _ONE_LINE[ins.opcode].format(a=args[1], b=b)
                    lines.append(f"{outs[0]} = {expr}")
                else:
                    outs, guarded = _guarded(ins, args, n, self.alu.hw16_div)
                    lines += guarded
                for dest, value in zip(ins.destinations(), outs):
                    bank, index = divmod(dest, 4)
                    if bank == 1 and index in scratch:
                        bank, index = 0, NUM_FLOW_REGISTERS + scratch.index(index)
                    if bank == 0:
                        regs[index] = value
                    else:
                        globs[index] = value
            lines.append(f"ctx = (nxt, {', '.join(regs)})")
            if hazard:
                gn = (globs.get(k, f"g[{k:d}]") for k in range(len(self.g)))
                lines.append(f"gn = [{', '.join(gn)}]")
            else:
                lines.extend(f"g[{k:d}] = {v}" for k, v in globs.items())
            return lines

        # the period branch leaves boundary above every ts seen, so only a
        # packet that does not take it can be out of order
        body = [
            "h, ts = record",
            "if ts >= boundary:",
            f"    epoch = ts // {self._period:d}",
            "    context.advance(epoch)",
            f"    boundary = (epoch + 1) * {self._period:d}",
            "elif ts < last:",
            "    raise order_error(order_text.format(seq, ts, last))",
            "last = ts",
            "pseq = seq",
            "seq = pseq + 1",
        ]
        if hazard:
            # one update queued a packet: packet p applies packet p - hazard - 1's
            body += [
                f"if len(pending) > {hazard:d}:",
                "    ukey, uctx, ug = pending.popleft()",
                "    context.write_back(ukey, uctx)",
                "    g[:] = ug",
            ]
        lookup_key = key(self._lookup_key)
        update_key = key(self._update_key)
        bits = " | ".join(
            f"({selector(c.lhs)} {_CMP_OPS[c.op]} {selector(c.rhs)}) << {i:d}"
            for i, c in enumerate(self._conds)
        )
        blocks = [update(plan) for plan in plans]
        body += [f"h{s:d} = h[{s:d}]" for s in sorted(slots)]
        body += [
            f"key = {lookup_key}",
            f"state, {', '.join(flow_regs)} = context.lookup_context(key)",
            f"bits = {bits or '0'}",
            "t = dispatch[state][bits]",
        ]
        if patterns:
            body += ["if t.__class__ is tuple:", "    t = first_match(t, h)"]
        body.append("action, nxt, plan, pre, post, row_idx = transitions[t]")
        for i, lines in enumerate(blocks):
            body.append(f"{'elif' if i else 'if'} plan == {i:d}:")
            body += ["    " + line for line in lines]
        if hazard:
            ukey = "key" if self._same_scope else update_key
            body.append(f"pending.append(({ukey}, ctx, gn))")
        elif self._same_scope:
            # a hit leaves its key in the current generation: replace it there
            body += [
                "now = context._now",
                "if key in now:",
                "    now[key] = ctx",
                "else:",
                "    context.write_back(key, ctx)",
            ]
        else:
            body.append(f"context.write_back({update_key}, ctx)")
        body += [
            "counts[t] += 1",
            "return (pseq, ts, action, pre, post, row_idx, cond_text[bits])",
        ]
        source = "\n".join(
            [
                "def make(boundary, last):",
                "    seq = 0",
                "    def process_packet(record):",
                "        nonlocal seq, boundary, last",
                *("        " + line for line in body),
                "    return process_packet",
                "",
            ]
        )
        namespace = {
            "context": self.context,
            "g": self.g,
            "rt": self.alu,
            "counts": self._counts,
            "transitions": self.transitions,
            "cond_text": _COND_TEXT,
            "dispatch": self.dispatch,
            "first_match": _first_match,
            "order_error": NonMonotoneTimestampError,
            "order_text": "packet {}: timestamp {} after {}",
            "pending": self._pending,
        }
        exec(compile(source, "<flowfsm step>", "exec"), namespace)
        self.step_source = source  # for inspection and tests
        return namespace["make"](-math.inf, -math.inf)

    def run_trace(self, records: Iterable[tuple[list[int], int]]) -> Iterator[tuple]:
        """The verdict of each ``(h, ts)`` record, lazily; the step enforces
        time order. In hazard mode the updates still delayed are applied
        once the records run out."""
        verdicts = map(self.process_packet, records)
        if self.hazard_window:
            # flush returns None, the sentinel, so it adds no verdict
            return itertools.chain(verdicts, iter(self.flush, None))
        return verdicts
