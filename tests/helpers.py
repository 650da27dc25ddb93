"""Shared test utilities: reference models and config helpers.

The reference models here are deliberately simple re-implementations used
as oracles; they must not call into the package's table or ALU code.
``RefContextModel`` takes only the hash that places keys in buckets from
the table, ``flow_key`` packs keys from the layout docs/SCHEMA.md
documents, and ``packed_rows`` with ``row_key`` pose the transition match
as one ternary lookup for ``scan_lookup``. ``ReferenceStep`` picks the
transition with that linear scan, never with the engine's dispatch, and
checks the rest of the generated step against the package's own
interpreters of the conditions and the ALU, which are tested on their own.
``reference_bind`` binds a trace row with a plain loop over the fields,
finding each column by a scan of the row's header, and
``reference_read_trace`` reads a trace one cell at a time. ``trace_row``
puts a row the generators make as a dict in the ``(columns, values)`` form
the reader yields and the binder takes.
"""

from __future__ import annotations

import collections
import copy
import csv
import dataclasses
import math
import sys

import yaml

from flowfsm import programs
from flowfsm.alu import NUM_HEADER_SLOTS, execute_tuple
from flowfsm.conditions import NUM_CONDITIONS, evaluate
from flowfsm.engine import ACTION_KINDS
from flowfsm.harness.traceio import TraceFormatError
from flowfsm.programs import BindError, echo


def scan_lookup(entries, key):
    """Linear-scan ternary match oracle: entries are (value, mask, prio, payload)."""
    best = None
    for value, mask, priority, payload in entries:
        if key & mask == value & mask:
            if best is None or priority > best[0]:
                best = (priority, payload)
    return best[1] if best else None


def packed_rows(config):
    """The program's transition rows as (value, mask, priority, row index)
    entries over the key ``row_key`` packs: 16-bit state, 8 condition bits
    (condition i at bit i), then one 32-bit word per match field."""
    cond_pos = {name: i for i, (name, _) in enumerate(config.conditions)}
    entries = []
    for idx, row in enumerate(config.transition_rows()):
        if row.state is None:
            value = mask = 0
        else:
            value, mask = config.states[row.state], 0xFFFF
        cval = cmask = 0
        for name, bit in row.cond:
            cval |= bit << cond_pos[name]
            cmask |= 1 << cond_pos[name]
        value, mask = value << 8 | cval, mask << 8 | cmask
        match = dict(row.match)
        for name in config.match_fields:
            fv, fm = match.get(name, (0, 0))
            value, mask = value << 32 | fv, mask << 32 | fm
        entries.append((value, mask, row.priority, idx))
    return entries


def row_key(config, state, bits, h):
    """The key a packet in ``state`` with condition bits ``bits`` and header
    slot values ``h`` presents to the ``packed_rows`` entries."""
    key = state << 8 | bits
    for name in config.match_fields:
        key = key << 32 | h[config.field_by_name(name).slot]
    return key


def flow_key(config, scope, h):
    """The 128-bit flow key of header slot values ``h`` under ``scope``, a
    list of the config's field names: each field's value, cut to its
    width, in scope order, the first field in the most significant bits,
    zero-padded on the right."""
    key = width = 0
    for name in scope:
        field = config.field_by_name(name)
        key = key << field.width | h[field.slot] % (1 << field.width)
        width += field.width
    return key << (128 - width)


def trace_row(row):
    """A dict row, as the trace generators make them, as the pair
    ``(columns, values)`` that ``traceio.read_trace`` yields."""
    return tuple(row), tuple(row.values())


def reference_bind(config, row, seq):
    """The record ``(h, ts)`` of trace row ``row``, a ``(columns, values)``
    pair, as packet ``seq``, bound one field at a time in field order,
    each column found by a scan of the header: the oracle for the binder
    ``programs.make_binder`` generates, with the error texts it gives."""
    columns, values = row

    def value_of(column):
        for name, value in zip(columns, values):
            if name == column:
                return value
        raise BindError(f"packet {seq}: missing column {echo(column)}")

    h = [0] * NUM_HEADER_SLOTS
    for field in config.fields:
        value = value_of(field.source)
        if value >> field.width:  # negative, or wider than the field
            raise BindError(
                f"packet {seq}: column {echo(field.source)} value "
                f"{echo(value)} does not fit in {field.width} bits"
            )
        h[field.slot] = value
    return h, value_of("ts")


def not_utf8(char):
    """The message for a byte that did not decode, as ``surrogateescape``
    reads it."""
    return f"byte 0x{ord(char) - 0xDC00:02x} is not UTF-8"


def reference_read_trace(path):
    """Trace reader oracle: one ``csv.reader`` row at a time, every cell
    parsed on its own. The header must name each column once, a row must
    have one cell per header column and every cell must be an integer;
    rows are numbered from 2 without counting blank lines. The file is
    UTF-8 after an optional byte order mark, and a byte that is not fails
    the header or its cell. No column is required and time order is not
    checked. Each row is the pair ``(columns, values)``: one header tuple
    for every row, and the row's ints in header order."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise TraceFormatError(f"{path}: empty trace")
    header = tuple(rows[0])
    for name in header:
        for char in name:
            if "\udc80" <= char <= "\udcff":
                raise TraceFormatError(f"{path}: header {not_utf8(char)}")
    for i, name in enumerate(header):
        if header.index(name) != i:
            raise TraceFormatError(f"{path}: column {name!r} appears twice")
    for lineno, cells in enumerate([row for row in rows[1:] if row], start=2):
        where = f"{path}:{lineno}"
        if len(cells) != len(header):
            raise TraceFormatError(f"{where}: {len(cells)} cells, header has {len(header)}")
        out = []
        for key, value in zip(header, cells):
            try:
                out.append(int(value, 0))
            except ValueError:
                for char in value:
                    if "\udc80" <= char <= "\udcff":
                        raise TraceFormatError(
                            f"{where} column {key!r}: {not_utf8(char)}"
                        ) from None
                shown = repr(value)
                if len(value) > 40:
                    shown = f"{value[:40]!r}... ({len(value)} characters)"
                digits = value.strip().lstrip("+-").replace("_", "")
                limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
                if digits.isdecimal() and 0 < limit < len(digits):
                    reason = f"has more than {limit} digits"
                else:
                    reason = "is not an integer"
                raise TraceFormatError(f"{where} column {key!r}: {shown} {reason}") from None
        yield header, tuple(out)


class ReferenceStep:
    """The per-packet step of an engine, interpreted: the oracle for the
    step the engine generates from its program.

    It runs on the engine's own context table, globals and ALU counters,
    and counts its packets per (pre-state label, row index) in ``counts``
    of its own, with ``conditions.evaluate`` for the conditions and
    ``alu.execute_tuple`` for the register update. It picks the transition
    with a linear scan of all rows for the highest-priority match
    (``scan_lookup`` over ``packed_rows``) and packs the flow keys with
    ``flow_key``, so neither shares code with the engine. It reads the
    rows, the state labels, the key scopes and the management period from
    ``config``, the program the engine was built from. It keeps its own
    packet clock and period clock, and tells the table each new management
    period. In hazard mode it delays each update in a queue of its own,
    stamped with the packet that first sees it, which :meth:`flush` drains.
    """

    def __init__(self, engine, config):
        self.engine = engine
        self.config = config
        self.seq = 0
        self.epoch = None
        # (first packet to see it, update key, state, registers, globals)
        self.pending = collections.deque()
        states = config.states
        self.labels = {code: label for label, code in states.items()}
        # (pre-state label, row index) -> packets
        self.counts = collections.Counter()
        self.entries = packed_rows(config)
        self.rows = [
            (
                row.action,
                None if row.next_state is None else states[row.next_state],
                row.instructions,
            )
            for row in config.transition_rows()
        ]

    def process_packet(self, record):
        engine = self.engine
        context = engine.context
        config = self.config
        seq = self.seq
        self.seq = seq + 1
        h, ts = record
        if ts // config.management_period != self.epoch:
            self.epoch = ts // config.management_period
            context.advance(self.epoch)
        hazard = engine.hazard_window
        if hazard:
            self.flush(seq)

        ctx = context.lookup_context(flow_key(config, config.lookup_scope, h))
        state, r, g = ctx[0], list(ctx[1:]), engine.g
        # scratch i is flow register 4+i, addressed as global scratch[i]
        g_view = list(g)
        for i, slot in enumerate(engine._scratch):
            g_view[slot] = r[4 + i]
        bits = evaluate(engine._conds, r, g_view, h)
        row_idx = scan_lookup(self.entries, row_key(config, state, bits, h))
        action, next_state, instructions = self.rows[row_idx]
        if next_state is None:
            next_state = state
        r2, g2 = execute_tuple(instructions, r, g_view, h, engine.alu)
        for i, slot in enumerate(engine._scratch):
            r2[4 + i] = g2[slot]
            g2[slot] = g[slot]

        update_key = flow_key(config, config.update_scope, h)
        if hazard:
            self.pending.append((seq + hazard + 1, update_key, next_state, r2, g2))
        else:
            context.write_back(update_key, (next_state, *r2))
            g[:] = g2
        labels = self.labels
        self.counts[labels[state], row_idx] += 1
        return (
            seq, ts, action, labels[state], labels[next_state], row_idx,
            f"{bits:0{NUM_CONDITIONS}b}",
        )

    def flush(self, upto_seq=math.inf):
        """Apply the delayed updates that packet ``upto_seq`` sees, or all."""
        pending = self.pending
        while pending and pending[0][0] <= upto_seq:
            _, key, state, r, g = pending.popleft()
            self.engine.context.write_back(key, (state, *r))
            self.engine.g[:] = g

    def stats(self):
        """The engine's stats document, with the packet, action and
        transition counts taken from ``counts``."""
        doc = self.engine.stats.to_dict()
        rows = self.config.transition_rows()
        actions = collections.Counter()
        for (_, row_idx), n in self.counts.items():
            actions[ACTION_KINDS[rows[row_idx].action.split(":")[0]]] += n
        doc["packets"] = sum(self.counts.values())
        doc["actions"] = dict(sorted(actions.items()))
        doc["transitions"] = dict(sorted(
            (f"{label}#{row_idx}", n) for (label, row_idx), n in self.counts.items()
        ))
        return doc


class RefContextModel:
    """Plain-dict reference for the flow context store.

    Mirrors the contract: default synthesis, wildcard fallback, write-back
    elision of default contexts, in-place updates, d-left placement (the
    least-loaded candidate bucket with room, leftmost on ties, else a
    counted drop) and housekeeping scans that clear the touched flag of
    every entry and evict the entries no lookup or write-back touched
    since the previous scan. Only the candidate buckets come from the
    package: ``positions`` is the table's hash.
    """

    def __init__(self, positions, depth, num_registers=4):
        self.positions = positions
        self.depth = depth
        self.num_registers = num_registers
        # key -> [state, regs list, touched flag, (subtable, bucket)]
        self.entries = {}
        self.loads = {}  # (subtable, bucket) -> entries
        self.fallbacks = []  # (value, mask, priority, state, regs)
        self.evictions = 0
        self.high_water = 0
        self.table_full_drops = 0

    @classmethod
    def of(cls, table):
        """A model with the geometry and the hash of ``table``."""
        return cls(table._positions, table.bucket_depth, table.num_registers)

    def add_fallback(self, value, mask, priority, state, regs=None):
        regs = list(regs or [])
        regs += [0] * (self.num_registers - len(regs))
        self.fallbacks.append((value, mask, priority, state, regs))

    def lookup(self, key):
        entry = self.entries.get(key)
        if entry is not None:
            entry[2] = True
            return entry[0], tuple(entry[1])
        best = None
        for value, mask, priority, state, regs in self.fallbacks:
            if key & mask == value & mask:
                if best is None or priority > best[0]:
                    best = (priority, state, regs)
        if best is not None:
            return best[1], tuple(best[2])
        return 0, (0,) * self.num_registers

    def write_back(self, key, state, regs):
        entry = self.entries.get(key)
        if entry is not None:
            entry[:3] = state, list(regs), True
            return True
        if state == 0 and not any(regs):
            return True
        homes = list(enumerate(self.positions(key)))
        loads = [self.loads.get(home, 0) for home in homes]
        room = [i for i in range(len(homes)) if loads[i] < self.depth]
        if not room:
            self.table_full_drops += 1
            return False
        # min keeps the first of equal loads: the leftmost subtable
        home = homes[min(room, key=loads.__getitem__)]
        self.loads[home] = self.loads.get(home, 0) + 1
        self.entries[key] = [state, list(regs), True, home]
        self.high_water = max(self.high_water, len(self.entries))
        return True

    def housekeep(self):
        evicted = [k for k, e in self.entries.items() if not e[2]]
        for k in evicted:
            self.loads[self.entries.pop(k)[3]] -= 1
        for e in self.entries.values():
            e[2] = False
        self.evictions += len(evicted)
        return len(evicted)

    @property
    def occupancy(self):
        return len(self.entries)


def stored_contexts(table):
    """(key, context) for every context that any dict of ``table`` but its
    bucket lists holds, whatever the dicts are called: what the store keeps
    in memory."""
    return [
        (key, ctx)
        for value in vars(table).values()
        if isinstance(value, dict) and value is not table._members
        for key, ctx in value.items()
    ]


def token_bucket_config(burst, q):
    """Bundled token-bucket program re-parameterized for (burst, q)."""
    cfg = programs.bundled_program("token_bucket")
    return dataclasses.replace(
        cfg,
        globals_init=(
            (burst * q) & 0xFFFFFFFF,
            q,
            ((burst - 2) * q) % (1 << 32),
            0,
        ),
    )


def window_bound_holds(times, burst, q):
    """Check every time window obeys count <= burst + floor(T / q).

    Equivalent pairwise form: for all i <= j over forwarded times t,
    j - i + 1 <= burst + floor((t_j - t_i) / q), which for integer ticks
    is t_j - t_i >= q * (j - i + 1 - burst). Substituting u_k = t_k - q*k
    turns that into u_j >= max_{i<=j} u_i + q*(1 - burst), checkable with
    one prefix-max sweep.
    """
    prefix_max = None
    for k, t in enumerate(times):
        u = t - q * k
        if prefix_max is not None and u < prefix_max + q * (1 - burst):
            return False
        prefix_max = u if prefix_max is None or u > prefix_max else prefix_max
    return True


def window_bound_brute(times, burst, q, max_pairs=40000):
    """Direct quadratic version of the window bound, for cross-checking."""
    n = len(times)
    checked = 0
    for i in range(n):
        for j in range(i, n):
            if times[j] - times[i] < q * (j - i + 1 - burst):
                return False
            checked += 1
            if checked >= max_pairs:
                return True
    return True


def bundled_doc(name):
    """Parsed YAML document of a bundled program, or of the synthetic one
    below for "synthetic", for tests to mutate."""
    if name == "synthetic":
        return yaml.safe_load(SYNTHETIC_PROGRAM)
    return yaml.safe_load(programs.bundled_path(name).read_text())


def deep_tree_program(depth):
    """c45_classifier's text with its classifier tree replaced by a chain
    of ``depth`` conditions, in flow style, and room for its rows."""
    text = programs.bundled_path("c45_classifier").read_text()
    chain = "{condition: C1, if_true: {class: WEB}, if_false: " * depth
    chain += "{class: P2P}" + "}" * depth
    head = text[: text.index("  tree:\n")]
    return f"{head}  tree: {chain}\ntable_sizes: {{xfsm: 512}}\n"


DELETE = object()


def patched_doc(base, path, value):
    """Copy of a bundled document with the item at ``path`` set (or deleted).

    ``path`` is a tuple of mapping keys and list indices from the top level.
    """
    doc = copy.deepcopy(bundled_doc(base))
    node = doc
    for step in path[:-1]:
        node = node[step]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


# Program that covers what no bundled program has: a masked fallback on a
# scope field narrower than 32 bits, fallback registers, a "0x02/0x02" row
# match, a row without an id, and a flow scratch register.
SYNTHETIC_PROGRAM = """
name: synthetic
timestamp_unit: ticks
ports: 8
fields:
  - {name: ip_src, slot: 0, width: 32, source: ip_src}
  - {name: ip_proto, slot: 1, width: 8, source: ip_proto}
  - {name: tcp_flags, slot: 2, width: 8, source: tcp_flags}
lookup_scope: [ip_src, ip_proto]
states: {DEFAULT: 0, MONITOR: 1, SEEN: 2}
globals: {G0: 5}
flow_scratch: {R4: G1}
conditions:
  - {name: C0, op: GE, lhs: R0, rhs: G0}
match_fields: [tcp_flags]
rows:
  - {id: syn, state: MONITOR, match: {tcp_flags: "0x02/0x02"}, priority: 3,
     next: SEEN, action: "fwd:2", update: ["ADDI R4 R4 1"]}
  - {state: "*", cond: {C0: 1}, priority: 2, next: _stay, action: drop}
  - {id: any, priority: 1, action: "fwd:1", update: ["ADDI R0 R0 1"]}
context_fallback:
  - {priority: 2, state: MONITOR, match: {ip_proto: "0x06/0x0f"},
     registers: [1, 2, 3, 4]}
  - {priority: 1, state: SEEN, match: {ip_src: "0x0a000000/0xff000000"}}
"""

def program_config(name):
    """A bundled program, or the synthetic one below for "synthetic"."""
    if name == "synthetic":
        return programs.loads(SYNTHETIC_PROGRAM)
    return programs.bundled_program(name)


# One document per loader gap: (base program, path, value, location of the
# expected problem).
LOOSE_FALLBACK = {"state": "LONG", "match": {"ip_dst": 7}}
GAP_CASES = {
    "fallback_without_priority": (
        "long_flow", ("context_fallback",), [LOOSE_FALLBACK], "context_fallback[0]"
    ),
    "fallback_negative_priority": (
        "long_flow",
        ("context_fallback",),
        [{**LOOSE_FALLBACK, "priority": -1}],
        "context_fallback[0]",
    ),
    "fallback_negative_register": (
        "long_flow",
        ("context_fallback",),
        [{**LOOSE_FALLBACK, "priority": 1, "registers": [0, -5]}],
        "context_fallback[0].registers",
    ),
    "fallback_wide_register": (
        "long_flow",
        ("context_fallback",),
        [{**LOOSE_FALLBACK, "priority": 1, "registers": [2**40]}],
        "context_fallback[0].registers",
    ),
    "tree_leaf_port": (
        "c45_classifier",
        ("classifier_tree", "tree", "if_true", "action"),
        "fwd:9",
        "classifier_tree.tree.if_true",
    ),
    # a DSCP value is 6 bits wide, and a port number is an integer
    "row_dscp_range": (
        "long_flow",
        ("rows", 1, "action"),
        "dscp:999:fwd:1",
        "rows[1] (id=crossed).action.dscp: 999 outside 0..63",
    ),
    "tree_leaf_dscp_range": (
        "c45_classifier",
        ("classifier_tree", "tree", "if_true", "action"),
        "dscp:-5:fwd:1",
        "classifier_tree.tree.if_true.action.dscp: -5 outside 0..63",
    ),
    "row_port_not_an_integer": (
        "long_flow",
        ("rows", 0, "action"),
        "fwd:1.5",
        "rows[0] (id=count).action.port: expected an integer, got '1.5'",
    ),
    # unhashable values where the loader tests membership
    "scope_entry_mapping": (
        "long_flow", ("lookup_scope",), [{"a": 1}], "lookup_scope[0]: expected a name, got a mapping"
    ),
    "scope_entry_list": (
        "long_flow", ("update_scope",), ["ip_src", ["ip_dst"]], "update_scope[1]"
    ),
    "timestamp_unit_list": ("long_flow", ("timestamp_unit",), [], "timestamp_unit: expected a name, got a list"),
}
