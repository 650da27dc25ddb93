"""Shared test utilities: reference models and config helpers.

The reference models here are deliberately simple re-implementations used
as oracles; they must not call into the package's table or ALU code.
"""

from __future__ import annotations

import copy
import csv
import dataclasses

import yaml

from flowfsm import programs
from flowfsm.engine import NonMonotoneTimestampError
from flowfsm.harness.traceio import TraceFormatError


def scan_lookup(entries, key):
    """Linear-scan ternary match oracle: entries are (value, mask, prio, payload)."""
    best = None
    for value, mask, priority, payload in entries:
        if key & mask == value & mask:
            if best is None or priority > best[0]:
                best = (priority, payload)
    return best[1] if best else None


def reference_read_trace(path):
    """Trace reader oracle: one ``csv.DictReader`` row at a time, every cell
    parsed on its own. Empty, missing and extra cells are skipped; rows are
    numbered from 2 without counting blank lines."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise TraceFormatError(f"{path}: empty trace")
        if "ts" not in reader.fieldnames:
            raise TraceFormatError(f"{path}: missing required column 'ts'")
        last_ts = None
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            out = {}
            for key, value in row.items():
                if value is None or value == "" or key is None:
                    continue
                try:
                    out[key] = int(value, 0)
                except ValueError:
                    raise TraceFormatError(
                        f"{where} column {key!r}: {value!r} is not an integer"
                    ) from None
            if "ts" not in out:
                raise TraceFormatError(f"{where}: missing ts value")
            ts = out["ts"]
            if last_ts is not None and ts < last_ts:
                raise NonMonotoneTimestampError(f"{where}: timestamp {ts} after {last_ts}")
            last_ts = ts
            yield out


class RefContextModel:
    """Plain-dict reference for the flow context store.

    Mirrors the contract: default synthesis, wildcard fallback, write-back
    elision of default contexts, in-place updates, ACTIVE/INACTIVE
    housekeeping with eviction on the second idle scan.
    """

    def __init__(self, num_registers=4):
        self.num_registers = num_registers
        self.entries = {}  # key -> [state, regs list, active flag]
        self.fallbacks = []  # (value, mask, priority, state, regs)
        self.evictions = 0

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
            entry[0] = state
            entry[1] = list(regs)
            entry[2] = True
            return
        if state == 0 and not any(regs):
            return
        self.entries[key] = [state, list(regs), True]

    def housekeep(self):
        evicted = [k for k, e in self.entries.items() if not e[2]]
        for k in evicted:
            del self.entries[k]
        for e in self.entries.values():
            e[2] = False
        self.evictions += len(evicted)
        return len(evicted)


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
}
