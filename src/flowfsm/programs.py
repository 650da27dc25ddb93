"""Program configuration: schema, loader, validator and engine builder.

A program is a YAML document that declares header-field bindings, flow-key
scopes, state labels, initial global registers, the comparator set, and
the transition rows with their actions and register-update tuples. The
loader validates everything it can up front and reports every violation
with its location, so a broken config fails in one round trip.

See docs/SCHEMA.md for the field-by-field reference and a worked listing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import yaml

from . import alu, conditions
from .engine import FLOW_KEY_WIDTH, Action, ActionKind, Engine
from .engine import format_action, parse_action

TIMESTAMP_UNITS = {
    "seconds": 1,
    "milliseconds": 1_000,
    "microseconds": 1_000_000,
    "ticks": 1_000,
}

STAY = "_stay"

# libyaml's parser where PyYAML was built with it; same documents, ~9x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

FIELD_MASK = 0xFFFFFFFF

TOP_LEVEL_KEYS = (
    "name",
    "description",
    "timestamp_unit",
    "ports",
    "fields",
    "lookup_scope",
    "update_scope",
    "states",
    "globals",
    "flow_scratch",
    "conditions",
    "match_fields",
    "rows",
    "context_fallback",
    "classifier_tree",
    "table_sizes",
    "management_period",
)


# keys of the entries of each list section, and of classifier-tree nodes;
# fields, context_fallback and table_sizes use their dataclass fields
CONDITION_KEYS = ("name", "op", "lhs", "rhs")
ROW_KEYS = ("id", "state", "cond", "match", "priority", "next", "action", "update")
TREE_KEYS = ("gate", "in_state", "base_priority", "tree")
TREE_NODE_KEYS = ("condition", "if_true", "if_false")
TREE_LEAF_KEYS = ("class", "action")


class ProgramError(Exception):
    pass


class ProgramParseError(ProgramError):
    """The file is not a well-formed program document."""


class ProgramValidationError(ProgramError):
    """One or more semantic violations; all are listed."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__(
            "invalid program:\n" + "\n".join(f"  - {p}" for p in self.problems)
        )


@dataclass(frozen=True)
class FieldDef:
    """One operand slot binding: slot ``slot`` holds the ``width``-bit
    value of the trace column ``source`` (metadata such as ``ts`` and
    ``in_port`` included)."""

    name: str
    slot: int
    width: int
    source: str


@dataclass(frozen=True)
class RowDef:
    """One declarative transition row (label-level, before compilation)."""

    state: Optional[str]  # None matches any state
    cond: tuple[tuple[str, int], ...]  # constrained condition bits only
    match: tuple[tuple[str, tuple[int, int]], ...]  # (field, (value, mask))
    priority: int
    next_state: Optional[str]  # None = stay in current state
    action: Action
    instructions: tuple[alu.Instruction, ...]
    row_id: Optional[str] = None


@dataclass(frozen=True)
class FallbackDef:
    """Wildcard context entry matched when the exact lookup misses."""

    priority: int
    state: str
    match: tuple[tuple[str, tuple[int, int]], ...]
    registers: tuple[int, int, int, int] = (0, 0, 0, 0)


@dataclass(frozen=True)
class TreeLeaf:
    state: str
    action: Action


@dataclass(frozen=True)
class TreeNode:
    condition: str
    if_true: Union["TreeNode", TreeLeaf]
    if_false: Union["TreeNode", TreeLeaf]


@dataclass(frozen=True)
class ClassifierTree:
    """Binary decision tree expanded into transition rows at build time.

    The tree applies in ``in_state`` when the ``gate`` condition is true;
    each root-to-leaf path becomes one row carrying the leaf's target
    state and action. Keeping the tree as data makes retrained trees a
    drop-in config change.
    """

    gate: str
    in_state: str
    base_priority: int
    root: Union[TreeNode, TreeLeaf]

    def rows(self) -> tuple[RowDef, ...]:
        """One row per root-to-leaf path, leftmost (all-true) path first,
        with priorities counting up from ``base_priority``."""
        paths: list[tuple[tuple[tuple[str, int], ...], TreeLeaf]] = []

        def walk(node: Union[TreeNode, TreeLeaf], path: tuple) -> None:
            if isinstance(node, TreeLeaf):
                paths.append((path, node))
            else:
                walk(node.if_true, path + ((node.condition, 1),))
                walk(node.if_false, path + ((node.condition, 0),))

        walk(self.root, ((self.gate, 1),))
        return tuple(
            RowDef(
                state=self.in_state,
                cond=path,
                match=(),
                priority=self.base_priority + j,
                next_state=leaf.state,
                action=leaf.action,
                instructions=(),
            )
            for j, (path, leaf) in enumerate(paths)
        )


# the flow-context store keeps a key list for every bucket that has held
# a flow
MAX_CONTEXT_BUCKETS = 1 << 22
# one blake2b digest of at most 64 bytes gives a new flow's candidate
# bucket in every subtable, 8 bytes each; d-left balance barely improves
# past a few choices
MAX_CONTEXT_SUBTABLES = 8
# an insert counts the live keys of its candidate buckets, so it costs up
# to subtables * depth key checks; hardware buckets hold a few cells
MAX_BUCKET_DEPTH = 8


@dataclass(frozen=True)
class TableSizes:
    context_subtables: int = 4
    context_buckets: int = 1024
    bucket_depth: int = 1
    context_fallback: int = 32
    xfsm: int = 128


@dataclass
class ProgramConfig:
    name: str
    timestamp_unit: str
    ports: int
    fields: tuple[FieldDef, ...]
    lookup_scope: tuple[str, ...]
    update_scope: tuple[str, ...]
    states: dict[str, int]
    globals_init: tuple[int, int, int, int]
    conditions: tuple[tuple[str, conditions.ConditionSpec], ...]
    match_fields: tuple[str, ...]
    rows: tuple[RowDef, ...]
    # positive: the loader replaces 0 by one second of ticks
    management_period: int
    context_fallback: tuple[FallbackDef, ...] = ()
    classifier_tree: Optional[ClassifierTree] = None
    table_sizes: TableSizes = dc_field(default_factory=TableSizes)
    # extra per-flow scratch registers, each addressed through a donated
    # (otherwise unused) global selector slot: (alias name, G slot index)
    flow_scratch: tuple[tuple[str, int], ...] = ()

    def transition_rows(self) -> tuple[RowDef, ...]:
        """Explicit rows, then tree-expanded decision rows; the position is
        the verdict's row id."""
        tree = self.classifier_tree
        return self.rows + (tree.rows() if tree is not None else ())

    def field_by_name(self, name: str) -> FieldDef:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def partitionable(self) -> bool:
        """True when flows can be processed on independent instances.

        Requires identical lookup and update scopes and no writes to the
        shared global registers anywhere in the program (writes to donated
        scratch slots are per-flow and do not count).
        """
        if self.lookup_scope != self.update_scope:
            return False
        donated = {alu.SEL_G_BASE + slot for _, slot in self.flow_scratch}
        for row in self.rows:
            for ins in row.instructions:
                for d in ins.destinations():
                    if d >= alu.SEL_G_BASE and d not in donated:
                        return False
        return True


# ---------------------------------------------------------------------------
# parsing helpers


def _to_int(value: object, where: str, problems: list[str]) -> int:
    if isinstance(value, bool):
        problems.append(f"{where}: expected integer, got boolean")
        return 0
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
    problems.append(f"{where}: expected integer, got {value!r}")
    return 0


def _u32(value: object, where: str, problems: list[str]) -> int:
    """A 32-bit register value."""
    v = _to_int(value, where, problems)
    if not 0 <= v <= FIELD_MASK:
        problems.append(f"{where}: value does not fit in 32 bits")
    return v & FIELD_MASK


def _expect(
    value: object, kind: type, where: str, problems: list[str], required: bool = False
):
    """``value`` if it is a ``kind`` (list or dict), else report it and use an
    empty one. ``required`` also rejects an empty value."""
    if isinstance(value, kind) and (value or not required):
        return value
    what = "list" if kind is list else "mapping"
    problems.append(f"{where}: expected a {'non-empty ' if required else ''}{what}")
    return kind()


def _keys(cls: type) -> tuple[str, ...]:
    """The field names of a dataclass, which are also its document keys."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _known_keys(
    item: Mapping, keys: Sequence[str], where: str, problems: list[str]
) -> None:
    """Report each key of ``item`` outside ``keys``, so that typos fail."""
    for key in sorted(set(item) - set(keys), key=str):
        problems.append(f"{where}: unknown key {key!r}")


def _entries(doc: Mapping, key: str, problems: list[str], required: bool = False):
    """Yield (index, location, entry) for each mapping in the list ``doc[key]``;
    other items are reported at ``key[i]``."""
    for i, item in enumerate(_expect(doc.get(key, []), list, key, problems, required)):
        where = f"{key}[{i}]"
        if isinstance(item, dict):
            yield i, where, item
        else:
            problems.append(f"{where}: expected a mapping")


def _priority(item: Mapping, where: str, seen: set[int], problems: list[str]) -> int:
    """The entry's ``priority``: required, non-negative and unique in ``seen``."""
    priority = _to_int(item.get("priority", -1), f"{where}.priority", problems)
    if priority < 0:
        problems.append(f"{where}: priority must be a non-negative integer")
    elif priority in seen:
        problems.append(f"{where}: duplicate priority {priority}")
    seen.add(priority)
    return priority


def _action(text: object, where: str, ports: int, problems: list[str]) -> Action:
    """Parse an action; forwarding actions must name a port in 1..ports."""
    try:
        action = parse_action(str(text))
    except ValueError as exc:
        problems.append(f"{where}: {exc}")
        return Action(ActionKind.NONE)
    if action.kind in (ActionKind.FORWARD, ActionKind.SET_DSCP) and not (
        1 <= action.port <= ports
    ):
        problems.append(f"{where}: port {action.port} outside 1..{ports}")
    return action


def _parse_pattern(
    value: object, width: int, where: str, problems: list[str]
) -> tuple[int, int]:
    """value/mask pattern: int (exact), "*" (any) or "VALUE/MASK"; value and
    mask must fit in the field's ``width`` bits."""
    full = (1 << width) - 1
    text = value.strip() if isinstance(value, str) else None
    if text == "*":
        return 0, 0
    sub: list[str] = []
    if isinstance(value, int) and not isinstance(value, bool):
        v, m = value, full
    elif text is not None and "/" in text:
        left, right = text.split("/", 1)
        v = _to_int(left.strip(), where, sub)
        m = _to_int(right.strip(), where, sub)
    elif text is not None:
        v, m = _to_int(text, where, sub), full
        if sub:
            sub = [f"{where}: bad match pattern {value!r}"]
    else:
        sub = [f"{where}: bad match pattern {value!r}"]
    if sub:
        problems.extend(sub)
        return 0, 0
    if not (0 <= v <= full and 0 <= m <= full):
        problems.append(f"{where}: pattern {value!r} does not fit in {width} bits")
    return v & m, m


def _format_pattern(pattern: tuple[int, int], width: int) -> object:
    value, mask = pattern
    full = (1 << width) - 1
    if mask == 0:
        return "*"
    if mask == full:
        return value
    return f"0x{value:x}/0x{mask:x}"


def _match(
    item: Mapping,
    where: str,
    widths: Mapping[str, int],
    allowed: str,
    problems: list[str],
) -> tuple[tuple[str, tuple[int, int]], ...]:
    """The entry's ``match`` patterns over the fields in ``widths`` (name to
    pattern width), which the document lists under ``allowed``."""
    patterns = []
    for name, text in _expect(
        item.get("match", {}), dict, f"{where}.match", problems
    ).items():
        name = str(name)
        if name not in widths:
            problems.append(f"{where}: field {name!r} is not listed in {allowed}")
            continue
        at = f"{where}.match.{name}"
        patterns.append((name, _parse_pattern(text, widths[name], at, problems)))
    return tuple(patterns)


# ---------------------------------------------------------------------------
# loading


def loads(text: str, source: str = "<string>") -> ProgramConfig:
    """Parse and validate a program document from a string."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ProgramParseError(f"{source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProgramParseError(f"{source}: program document must be a mapping")
    return _build(doc, source)


def load(path: Union[str, Path]) -> ProgramConfig:
    """Load and validate a program file."""
    path = Path(path)
    return loads(path.read_text(), str(path))


def _build(doc: dict, source: str) -> ProgramConfig:
    problems: list[str] = []

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name: required non-empty string")
        name = "<unnamed>"

    unit = doc.get("timestamp_unit", "microseconds")
    if not isinstance(unit, str) or unit not in TIMESTAMP_UNITS:
        problems.append(
            f"timestamp_unit: {unit!r} not one of {sorted(TIMESTAMP_UNITS)}"
        )
        unit = "microseconds"

    ports = _to_int(doc.get("ports", 4), "ports", problems)
    if not 1 <= ports < 64:
        problems.append(f"ports: {ports} outside 1..63")
        ports = 4

    # --- fields ---------------------------------------------------------
    fields: list[FieldDef] = []
    seen_names: set[str] = set()
    seen_slots: set[int] = set()
    for _, where, item in _entries(doc, "fields", problems):
        _known_keys(item, _keys(FieldDef), where, problems)
        fname = item.get("name")
        if not isinstance(fname, str) or not fname:
            problems.append(f"{where}: missing name")
            continue
        if fname in seen_names:
            problems.append(f"{where}: duplicate field name {fname!r}")
        seen_names.add(fname)
        slot = _to_int(item.get("slot", -1), f"{where}.slot", problems)
        if not 0 <= slot < alu.NUM_HEADER_SLOTS:
            last = alu.NUM_HEADER_SLOTS - 1
            problems.append(f"{where}: slot {slot} outside 0..{last}")
        elif slot in seen_slots:
            problems.append(f"{where}: slot {slot} already bound")
        seen_slots.add(slot)
        width = _to_int(item.get("width", 32), f"{where}.width", problems)
        if not 1 <= width <= 32:
            problems.append(f"{where}: width {width} outside 1..32")
            width = 32
        src = item.get("source")
        if not isinstance(src, str) or not src:
            problems.append(f"{where}: source must name a trace column")
        fields.append(FieldDef(fname, slot, width, src))

    field_map = {f.name: f for f in fields}

    def widths(names: Sequence[str]) -> dict[str, int]:
        """Match pattern width of each field (32 for unknown ones)."""
        return {n: field_map[n].width if n in field_map else 32 for n in names}

    def scope_of(key: str) -> tuple[str, ...]:
        names = []
        total = 0
        for i, n in enumerate(_expect(doc.get(key), list, key, problems, required=True)):
            if not isinstance(n, str):
                problems.append(f"{key}[{i}]: expected a field name, got {n!r}")
                continue
            names.append(n)
            if n not in field_map:
                problems.append(f"{key}: unknown field {n!r}")
            else:
                total += field_map[n].width
        if total > FLOW_KEY_WIDTH:
            problems.append(f"{key}: widths sum to {total} > {FLOW_KEY_WIDTH} bits")
        return tuple(names)

    lookup_scope = scope_of("lookup_scope")
    update_scope = (
        scope_of("update_scope") if "update_scope" in doc else lookup_scope
    )

    # --- states ---------------------------------------------------------
    states: dict[str, int] = {}
    raw_states = _expect(doc.get("states"), dict, "states", problems, required=True)
    for label, code in raw_states.items():
        code = _to_int(code, f"states.{label}", problems)
        if not 0 <= code < (1 << 16):
            problems.append(f"states.{label}: code {code} outside 16 bits")
        if code in states.values():
            problems.append(f"states.{label}: duplicate code {code}")
        states[str(label)] = code
    if states and 0 not in states.values():
        problems.append("states: a state with code 0 (the default) is required")

    # --- globals --------------------------------------------------------
    gvals = [0, 0, 0, 0]
    raw_globals = _expect(doc.get("globals", {}), dict, "globals", problems)
    for key, value in raw_globals.items():
        k = str(key).upper()
        if k in ("G0", "G1", "G2", "G3"):
            gvals[int(k[1])] = _u32(value, f"globals.{k}", problems)
        else:
            problems.append(f"globals: unknown register {key!r}")

    # --- per-flow scratch registers --------------------------------------
    scratch: list[tuple[str, int]] = []
    raw_scratch = _expect(doc.get("flow_scratch", {}), dict, "flow_scratch", problems)
    donated: set[int] = set()
    for alias, gname in raw_scratch.items():
        alias = str(alias)
        where = f"flow_scratch.{alias}"
        if alias in field_map:
            problems.append(f"{where}: alias collides with field {alias!r}")
        try:
            sel = alu.parse_selector(str(gname))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if not alu.SEL_G_BASE <= sel < alu.SEL_H_BASE:
            problems.append(f"{where}: only global slots G0..G3 can be donated")
            continue
        slot = sel - alu.SEL_G_BASE
        if slot in donated:
            problems.append(f"{where}: G{slot} already donated")
        donated.add(slot)
        if gvals[slot] != 0:
            problems.append(
                f"{where}: G{slot} carries a global init value and cannot be donated"
            )
        scratch.append((alias, slot))

    # --- operand aliases and conditions ---------------------------------
    scratch_alias = {alias: f"G{slot}" for alias, slot in scratch}

    def resolve_token(token: str) -> str:
        if token in field_map:
            return f"H{field_map[token].slot}"
        if token in scratch_alias:
            return scratch_alias[token]
        return token

    cond_list: list[tuple[str, conditions.ConditionSpec]] = []
    cond_names: dict[str, int] = {}
    for i, where, item in _entries(doc, "conditions", problems):
        _known_keys(item, CONDITION_KEYS, where, problems)
        if i == conditions.NUM_CONDITIONS:
            problems.append(
                f"conditions: at most {conditions.NUM_CONDITIONS} conditions fit "
                "the comparator slots"
            )
        cname = str(item.get("name", f"C{i}"))
        if cname in cond_names:
            problems.append(f"{where}: duplicate condition name {cname!r}")
        op_txt = str(item.get("op", "")).upper()
        try:
            op = conditions.CmpOp[op_txt]
        except KeyError:
            problems.append(f"{where}: unknown comparison {op_txt!r}")
            op = conditions.CmpOp.EQ
        try:
            lhs = alu.parse_selector(resolve_token(str(item.get("lhs", ""))))
            rhs = alu.parse_selector(resolve_token(str(item.get("rhs", ""))))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        cond_names[cname] = i
        cond_list.append((cname, conditions.ConditionSpec(op, lhs, rhs)))

    # --- match fields ----------------------------------------------------
    match_fields = tuple(
        str(n)
        for n in _expect(doc.get("match_fields", []), list, "match_fields", problems)
    )
    for n in match_fields:
        if n not in field_map:
            problems.append(f"match_fields: unknown field {n!r}")
    if len(match_fields) > 4:
        problems.append("match_fields: at most 4 fields fit the row match budget")

    # --- rows -------------------------------------------------------------
    rows: list[RowDef] = []
    priorities: set[int] = set()
    row_widths = widths(match_fields)
    for i, where, item in _entries(doc, "rows", problems, required=True):
        rid = item.get("id")
        if rid is not None:
            rid = str(rid)
            where = f"rows[{i}] (id={rid})"
        _known_keys(item, ROW_KEYS, where, problems)
        state = item.get("state", "*")
        if state in ("*", None):
            state = None
        else:
            state = str(state)
            if state not in states:
                problems.append(f"{where}: unknown state {state!r}")
        cond_pat: list[tuple[str, int]] = []
        for cname, bit in _expect(
            item.get("cond", {}), dict, f"{where}.cond", problems
        ).items():
            cname = str(cname)
            if cname not in cond_names:
                problems.append(f"{where}: unknown condition {cname!r}")
                continue
            if bit in ("*", None):
                continue
            bit = _to_int(bit, f"{where}.cond.{cname}", problems)
            if bit not in (0, 1):
                problems.append(f"{where}: condition {cname} must be 0, 1 or '*'")
                continue
            cond_pat.append((cname, bit))
        match_pat = _match(item, where, row_widths, "match_fields", problems)
        priority = _priority(item, where, priorities, problems)
        nxt = item.get("next", STAY)
        if nxt == STAY or nxt is None:
            nxt = None
        else:
            nxt = str(nxt)
            if nxt not in states:
                problems.append(f"{where}: next state {nxt!r} not declared")
        action = _action(item.get("action", "none"), where, ports, problems)
        instrs: list[alu.Instruction] = []
        raw_update = _expect(item.get("update", []), list, f"{where}.update", problems)
        for j, text in enumerate(raw_update):
            try:
                instrs.append(alu.parse_instruction(str(text), resolve_token))
            except ValueError as exc:
                problems.append(f"{where}.update[{j}]: {exc}")
        for msg in alu.validate_tuple(instrs):
            problems.append(f"{where}: {msg}")
        rows.append(
            RowDef(
                state=state,
                cond=tuple(cond_pat),
                match=match_pat,
                priority=priority,
                next_state=nxt,
                action=action,
                instructions=tuple(instrs),
                row_id=rid,
            )
        )

    if rows and not any(
        r.state is None and not r.cond and not r.match for r in rows
    ):
        problems.append("rows: a catch-all row (state '*', no cond/match) is required")

    # --- context fallback --------------------------------------------------
    fallback: list[FallbackDef] = []
    fb_priorities: set[int] = set()
    scope_widths = widths(lookup_scope)
    for _, where, item in _entries(doc, "context_fallback", problems):
        _known_keys(item, _keys(FallbackDef), where, problems)
        st = str(item.get("state", ""))
        if st not in states:
            problems.append(f"{where}: unknown state {st!r}")
        prio = _priority(item, where, fb_priorities, problems)
        pats = _match(item, where, scope_widths, "lookup_scope", problems)
        regs = item.get("registers", [])
        if not isinstance(regs, list) or len(regs) > 4:
            problems.append(f"{where}: registers must be a list of up to 4 values")
            regs = []
        regs = [
            _u32(v, f"{where}.registers[{i}]", problems) for i, v in enumerate(regs)
        ]
        regs += [0] * (4 - len(regs))
        fallback.append(FallbackDef(prio, st, pats, tuple(regs)))

    # --- classifier tree ----------------------------------------------------
    tree: Optional[ClassifierTree] = None
    if doc.get("classifier_tree") is not None:
        tree = _parse_tree(doc["classifier_tree"], states, cond_names, ports, problems)
    tree_rows = tree.rows() if tree is not None else ()
    for row in tree_rows:
        if row.priority in priorities:
            problems.append(
                f"classifier_tree: expanded priority {row.priority} collides "
                "with an explicit row"
            )

    # --- sizes and period --------------------------------------------------
    raw_sizes = _expect(doc.get("table_sizes", {}), dict, "table_sizes", problems)
    _known_keys(raw_sizes, _keys(TableSizes), "table_sizes", problems)
    size_kwargs = {}
    for key in _keys(TableSizes):
        if key in raw_sizes:
            v = _to_int(raw_sizes[key], f"table_sizes.{key}", problems)
            if v < 1:
                problems.append(f"table_sizes.{key}: must be positive")
                v = 1
            size_kwargs[key] = v
    sizes = TableSizes(**size_kwargs)
    if sizes.context_subtables > MAX_CONTEXT_SUBTABLES:
        problems.append(
            f"table_sizes.context_subtables: {sizes.context_subtables} exceeds "
            f"the cap of {MAX_CONTEXT_SUBTABLES}"
        )
    if sizes.bucket_depth > MAX_BUCKET_DEPTH:
        problems.append(
            f"table_sizes.bucket_depth: {sizes.bucket_depth} exceeds "
            f"the cap of {MAX_BUCKET_DEPTH}"
        )
    buckets = sizes.context_subtables * sizes.context_buckets
    if buckets > MAX_CONTEXT_BUCKETS:
        problems.append(
            f"table_sizes: context_subtables * context_buckets = {buckets} "
            f"exceeds the cap of {MAX_CONTEXT_BUCKETS} buckets"
        )
    total_rows = len(rows) + len(tree_rows)
    if total_rows > sizes.xfsm:
        problems.append(
            f"rows: {total_rows} rows exceed the transition table capacity "
            f"({sizes.xfsm})"
        )
    if len(fallback) > sizes.context_fallback:
        problems.append(
            f"context_fallback: {len(fallback)} entries exceed capacity "
            f"({sizes.context_fallback})"
        )

    period = _to_int(
        doc.get("management_period", 0), "management_period", problems
    )
    if period < 0:
        problems.append("management_period: must be non-negative")
        period = 0
    if period == 0:
        period = TIMESTAMP_UNITS.get(unit, 1_000_000)

    for key in sorted(set(doc) - set(TOP_LEVEL_KEYS), key=str):
        problems.append(f"unknown top-level key {key!r}")

    if problems:
        raise ProgramValidationError([f"{source}: {p}" for p in problems])

    return ProgramConfig(
        name=name,
        timestamp_unit=unit,
        ports=ports,
        fields=tuple(fields),
        lookup_scope=lookup_scope,
        update_scope=update_scope,
        states=states,
        globals_init=tuple(gvals),  # type: ignore[arg-type]
        conditions=tuple(cond_list),
        match_fields=match_fields,
        rows=tuple(rows),
        context_fallback=tuple(fallback),
        classifier_tree=tree,
        table_sizes=sizes,
        management_period=period,
        flow_scratch=tuple(scratch),
    )


def _parse_tree(
    raw: object,
    states: dict[str, int],
    cond_names: dict[str, int],
    ports: int,
    problems: list[str],
) -> Optional[ClassifierTree]:
    def walk(node: object, where: str) -> Union[TreeNode, TreeLeaf, None]:
        if not isinstance(node, dict):
            problems.append(f"{where}: expected a mapping")
            return None
        if "class" in node:
            _known_keys(node, TREE_LEAF_KEYS, where, problems)
            st = str(node.get("class", ""))
            if st not in states:
                problems.append(f"{where}: unknown state {st!r}")
            action = _action(node.get("action", "none"), where, ports, problems)
            return TreeLeaf(st, action)
        _known_keys(node, TREE_NODE_KEYS, where, problems)
        cname = str(node.get("condition", ""))
        if cname not in cond_names:
            problems.append(f"{where}: unknown condition {cname!r}")
        t = walk(node.get("if_true"), where + ".if_true")
        f = walk(node.get("if_false"), where + ".if_false")
        if t is None or f is None:
            return None
        return TreeNode(cname, t, f)

    if not isinstance(raw, dict):
        problems.append("classifier_tree: expected a mapping")
        return None
    _known_keys(raw, TREE_KEYS, "classifier_tree", problems)
    gate = str(raw.get("gate", ""))
    if gate not in cond_names:
        problems.append(f"classifier_tree.gate: unknown condition {gate!r}")
    in_state = str(raw.get("in_state", ""))
    if in_state not in states:
        problems.append(f"classifier_tree.in_state: unknown state {in_state!r}")
    base = _to_int(raw.get("base_priority", -1), "classifier_tree.base_priority", problems)
    if base < 0:
        problems.append("classifier_tree.base_priority: must be non-negative")
    root = walk(raw.get("tree"), "classifier_tree.tree")
    if root is None or gate not in cond_names or in_state not in states or base < 0:
        return None
    return ClassifierTree(gate, in_state, base, root)


# ---------------------------------------------------------------------------
# compilation

# the engine compiles a validated program once, when it is built. These two
# aliases are the names the benchmark under perfbench/ calls; nothing else
# does, and they go once it calls Engine and transition_rows directly
build_engine = Engine
compile_rows = ProgramConfig.transition_rows


# ---------------------------------------------------------------------------
# trace-row binding


class BindError(ProgramError):
    """The trace rows do not carry what the program needs."""


# an error message quotes at most this many characters of a trace value
ECHO_CHARS = 40


def echo(text: str, render: Callable[[str], str] = str) -> str:
    """``text`` for an error message, rendered by ``render``: whole when it
    has at most ECHO_CHARS characters, else its first ECHO_CHARS and its
    length."""
    if len(text) <= ECHO_CHARS:
        return render(text)
    return f"{render(text[:ECHO_CHARS])}... ({len(text)} characters)"


def _int_text(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # more digits than int-to-str conversion allows
        return hex(value)


def make_binder(
    config: ProgramConfig,
) -> Callable[[Mapping[str, int], int], tuple[list[int], int]]:
    """Build the trace-row to packet-record binding for one program: a
    record is the pair ``(h, ts)`` of the header slot values and the
    timestamp.

    Every field reads the trace column its ``source`` names, metadata
    such as ``ts`` and ``in_port`` included. A missing column, or a value
    that is negative or wider than its field, raises :class:`BindError`.
    """
    slots = alu.NUM_HEADER_SLOTS
    column_binds = [(f.slot, f.source, f.width) for f in config.fields]

    def bind(row: Mapping[str, int], seq: int) -> tuple[list[int], int]:
        h = [0] * slots
        try:
            for slot, column, width in column_binds:
                value = row[column]
                if value >> width:  # negative, or wider than the field
                    raise BindError(
                        f"trace row {seq}: column {column!r} value "
                        f"{echo(_int_text(value))} does not fit in {width} bits"
                    )
                h[slot] = value
        except KeyError:
            raise BindError(f"trace row {seq}: missing column {column!r}") from None
        return h, row["ts"]  # ts presence checked at ingestion

    return bind


# ---------------------------------------------------------------------------
# serialization and bundled programs


def _tree_doc(node: Union[TreeNode, TreeLeaf]) -> dict:
    if isinstance(node, TreeLeaf):
        return {"class": node.state, "action": format_action(node.action)}
    return {
        "condition": node.condition,
        "if_true": _tree_doc(node.if_true),
        "if_false": _tree_doc(node.if_false),
    }


def _match_doc(config: ProgramConfig, match: tuple) -> dict:
    return {
        name: _format_pattern(pat, config.field_by_name(name).width)
        for name, pat in match
    }


def serialize(config: ProgramConfig) -> str:
    """Canonical YAML form; load(serialize(c)) == c."""
    tree = config.classifier_tree
    doc = {
        "name": config.name,
        "timestamp_unit": config.timestamp_unit,
        "ports": config.ports,
        "fields": [dataclasses.asdict(f) for f in config.fields],
        "lookup_scope": list(config.lookup_scope),
        "update_scope": list(config.update_scope),
        "states": dict(config.states),
        "globals": {f"G{i}": v for i, v in enumerate(config.globals_init)},
        "flow_scratch": {alias: f"G{slot}" for alias, slot in config.flow_scratch},
        "conditions": [
            {
                "name": name,
                "op": spec.op.name,
                "lhs": alu.selector_name(spec.lhs),
                "rhs": alu.selector_name(spec.rhs),
            }
            for name, spec in config.conditions
        ],
        "match_fields": list(config.match_fields),
        "rows": [
            {
                "id": row.row_id,
                "state": "*" if row.state is None else row.state,
                "cond": dict(row.cond),
                "match": _match_doc(config, row.match),
                "priority": row.priority,
                "next": STAY if row.next_state is None else row.next_state,
                "action": format_action(row.action),
                "update": [alu.format_instruction(i) for i in row.instructions],
            }
            for row in config.rows
        ],
        "context_fallback": [
            {
                "priority": fb.priority,
                "state": fb.state,
                "match": _match_doc(config, fb.match),
                "registers": list(fb.registers),
            }
            for fb in config.context_fallback
        ],
        "classifier_tree": None
        if tree is None
        else {
            "gate": tree.gate,
            "in_state": tree.in_state,
            "base_priority": tree.base_priority,
            "tree": _tree_doc(tree.root),
        },
        "table_sizes": dataclasses.asdict(config.table_sizes),
        "management_period": config.management_period,
    }
    return yaml.safe_dump(doc, sort_keys=False)


BUNDLED = (
    "long_flow",
    "load_balance",
    "port_scan",
    "c45_classifier",
    "token_bucket",
    "mac_learning",
)


def bundled_path(name: str) -> Path:
    """Filesystem path of a bundled program config."""
    if name not in BUNDLED:
        raise KeyError(f"no bundled program {name!r}")
    return Path(str(resources.files("flowfsm").joinpath("data", f"{name}.yaml")))


def bundled_program(name: str) -> ProgramConfig:
    return load(bundled_path(name))

