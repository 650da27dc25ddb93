"""Program configuration: schema, loader, validator and engine builder.

A program is a YAML document that declares header-field bindings, flow-key
scopes, state labels, initial global registers, the comparator set, and
the transition rows with their actions and register-update tuples. The
loader reads the YAML subset docs/SCHEMA.md gives in one pass, then
validates everything it can and reports each violation with its location.

See docs/SCHEMA.md for the field-by-field reference and a worked listing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dc_field
from importlib import resources
from pathlib import Path
from typing import Callable, Container, Mapping, NoReturn, Optional, Sequence, Union

import yaml

from . import alu, conditions
from .engine import ACTION_KINDS, FLOW_KEY_WIDTH, Engine

TIMESTAMP_UNITS = {
    "seconds": 1,
    "milliseconds": 1_000,
    "microseconds": 1_000_000,
    "ticks": 1_000,
}

STAY = "_stay"

# libyaml's parser where PyYAML was built with it; same documents, ~9x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_TAG = "tag:yaml.org,2002:"
_YAML_SCALARS = yaml.constructor.SafeConstructor()
_YAML_CORE_SCALARS = {_YAML_TAG + kind for kind in ("int", "float", "bool", "null")}

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
    action: str  # canonical text, as _action returns it
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
    action: str


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


# subtables * buckets * depth, each at most flow_context.context_bytes(n)
MAX_CONTEXTS = 1 << 22
# one blake2b digest of at most 64 bytes gives a new flow's candidate
# bucket in every subtable, 8 bytes each; d-left balance barely improves
# past a few choices
MAX_CONTEXT_SUBTABLES = 8
# an insert counts the live keys of its candidate buckets and reclaims
# their expired ones in the same pass, so it costs up to subtables * depth
# key checks; hardware buckets hold a few cells
MAX_BUCKET_DEPTH = 8
# the engine builds a 256-entry dispatch per state before the first packet,
# each entry holding up to every row as a candidate, so states * rows bounds
# the build: 64 states of 512 rows take under a second and about 40 MB
# (CPython 3.11 on a 2-vCPU x86-64 host)
MAX_STATES = 64
MAX_XFSM_ROWS = 512
# a flow-table miss scans the fallbacks in priority order
MAX_CONTEXT_FALLBACK = 64
# conditions on a classifier-tree path: loading, expanding, comparing and
# serializing a tree recurse per level, within Python's recursion limit
MAX_TREE_DEPTH = 256
# ticks in a management period: the step's source holds the period, and a
# 64-bit tick count (over 500,000 years of microseconds) outlasts any trace
MAX_PERIOD = (1 << 64) - 1
# YAML collections nested in one another. The loader keeps its own stack,
# no check recurses into a value, and MAX_TREE_DEPTH stops the one walk
# that recurses: this refuses, while reading, a nesting no program needs
MAX_YAML_NESTING = 2048
# YAML nodes, an alias counting the nodes it stands for: ten times the
# 25,206 of the largest program the other caps accept (512 full rows)
MAX_YAML_NODES = 1 << 18


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


def _int(
    value: object, where: str, problems: list[str], lo: int, hi: Optional[int] = None
) -> Optional[int]:
    """``value`` as an integer in ``lo..hi`` (``hi`` None: no upper bound):
    an int, or a string that ``int(text, 0)`` reads. Anything else, a
    missing value (None) included, is one problem at ``where``, and None."""
    if type(value) is str:
        try:
            value = int(value, 0)
        except ValueError:
            pass
    if type(value) is not int:  # bool is not an integer here
        got = "nothing" if value is None else echo(value)
        problems.append(f"{where}: expected an integer, got {got}")
        return None
    if value < lo or hi is not None and value > hi:
        span = f"outside {lo}..{hi}" if hi is not None else f"below {lo}"
        problems.append(f"{where}: {echo(value)} {span}")
        return None
    return value


def _text(value: object, where: str, problems: list[str]) -> Optional[str]:
    """A name: the text of a scalar as ``str`` gives it (a label 1 is
    ``"1"``). A mapping, a list or an integer past the int-to-str digit
    limit is one problem at ``where``, and None."""
    if not isinstance(value, (dict, list)):
        try:
            return str(value)
        except ValueError:  # more digits than int-to-str conversion allows
            pass
    problems.append(f"{where}: expected a name, got {echo(value)}")
    return None


def _name(
    value: object, where: str, problems: list[str], known: Container, what: str
) -> Optional[str]:
    """The name ``_text`` reads, reported at ``where`` unless ``known`` holds it."""
    text = _text(value, where, problems)
    if text is not None and text not in known:
        problems.append(f"{where}: unknown {what} {echo(text)}")
    return text


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
    for key in item:
        if key not in keys:
            problems.append(f"{where}: unknown key {echo(key)}")


def _entries(doc: Mapping, key: str, problems: list[str], required: bool = False):
    """Yield (index, location, entry) for each mapping in the list ``doc[key]``;
    other items are reported at ``key[i]``."""
    for i, item in enumerate(_expect(doc.get(key, []), list, key, problems, required)):
        where = f"{key}[{i}]"
        if isinstance(item, dict):
            yield i, where, item
        else:
            problems.append(f"{where}: expected a mapping")


def _priority(item: Mapping, where: str, seen: set[int], problems: list[str]) -> Optional[int]:
    """The entry's ``priority``: required, non-negative and unique in ``seen``."""
    priority = _int(item.get("priority"), f"{where}.priority", problems, 0)
    if priority in seen:
        problems.append(f"{where}: duplicate priority {echo(priority)}")
    elif priority is not None:
        seen.add(priority)
    return priority


def _action(value: object, where: str, ports: int, problems: list[str]) -> str:
    """The canonical text of an action: ``none``, ``drop``, ``flood``,
    ``fwd:P`` or ``dscp:V:fwd:P``, read regardless of case and surrounding
    whitespace, with P a port in 1..ports and V a DSCP value in 0..63."""
    text = _text(value, f"{where}.action", problems)
    if text is None:
        return "none"
    verb, *words = text.strip().lower().split(":")
    if not words and verb in ACTION_KINDS and verb not in ("fwd", "dscp"):
        return verb
    if verb == "fwd" and len(words) == 1:
        port = _int(words[0], f"{where}.action.port", problems, 1, ports)
        return f"fwd:{port}"
    if verb == "dscp" and len(words) == 3 and words[1] == "fwd":
        dscp = _int(words[0], f"{where}.action.dscp", problems, 0, 63)
        port = _int(words[2], f"{where}.action.port", problems, 1, ports)
        return f"dscp:{dscp}:fwd:{port}"
    problems.append(f"{where}: unknown action {echo(text)}")
    return "none"


def _parse_pattern(
    value: object, width: int, where: str, problems: list[str]
) -> tuple[int, int]:
    """value/mask pattern: int (exact), "*" (any) or "VALUE/MASK"; value and
    mask must fit in the field's ``width`` bits. A bad pattern is one
    problem, that of its first bad part."""
    full = (1 << width) - 1
    if isinstance(value, str) and value.strip() == "*":
        return 0, 0
    parts = value.split("/", 1) if isinstance(value, str) and "/" in value else [value, full]
    bad: list[str] = []
    v, m = (_int(part, where, bad, 0, full) for part in parts)
    if bad:
        problems.append(bad[0])
        return 0, 0
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
    for key, text in _expect(
        item.get("match", {}), dict, f"{where}.match", problems
    ).items():
        name = _text(key, f"{where}.match", problems)
        if name is None:
            continue
        if name not in widths:
            problems.append(f"{where}: field {echo(name)} is not listed in {allowed}")
            continue
        at = f"{where}.match.{name}"
        patterns.append((name, _parse_pattern(text, widths[name], at, problems)))
    return tuple(patterns)


# ---------------------------------------------------------------------------
# loading


def _read_yaml(text: str, source: str) -> object:
    """The document ``yaml.safe_load(text)`` builds, None for an empty
    stream, read in one pass over the parser's events on an explicit
    stack. docs/SCHEMA.md lists what it refuses, and why."""

    def refuse(event: yaml.Event, problem: str) -> NoReturn:
        line = event.start_mark.line + 1
        raise ProgramParseError(f"{source}:{line}: {problem.replace(_YAML_TAG, '!!')}")

    loader = _YAML_LOADER(text)
    get_event, resolve = loader.get_event, loader.resolve
    construct, str_tag = _YAML_SCALARS.yaml_constructors, _YAML_TAG + "str"
    try:
        get_event()  # the stream's start
        if loader.check_event(yaml.StreamEndEvent):
            return None
        get_event()  # the document's start
        anchors: dict = {}  # anchor: (value, the nodes it stands for), None while open
        stack: list = []  # [collection, start event, nodes before, a mapping's key]
        nodes = 0
        while True:
            event = get_event()
            kind = type(event)
            if kind is yaml.ScalarEvent:
                tag, value = event.tag, event.value
                if tag is None or tag == "!":
                    tag = resolve(yaml.ScalarNode, value, event.implicit)
                if tag in _YAML_CORE_SCALARS:
                    try:
                        value = construct[tag](_YAML_SCALARS, yaml.ScalarNode(tag, value))
                    except (ValueError, LookupError):
                        refuse(event, f"the scalar is not a valid {tag}")
                elif tag != str_tag:
                    refuse(event, f"a scalar tagged {tag} is not accepted")
                start, nodes = event, nodes + 1
                if event.anchor is not None:
                    anchors[event.anchor] = (value, 1)
            elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
                mapping = kind is yaml.MappingStartEvent
                if event.tag not in (None, "!", _YAML_TAG + ("map" if mapping else "seq")):
                    refuse(event, f"a collection tagged {event.tag} is not accepted")
                if len(stack) == MAX_YAML_NESTING:
                    refuse(event, f"collections nested more than {MAX_YAML_NESTING} levels deep")
                if event.anchor is not None:
                    anchors[event.anchor] = None
                stack.append([{} if mapping else [], event, nodes])
                continue
            elif kind is yaml.AliasEvent:
                if anchors.get(event.anchor) is None:  # undefined, or recursive
                    refuse(event, f"alias *{event.anchor} names no finished node")
                value, count = anchors[event.anchor]
                start, nodes = event, nodes + count
            else:  # a collection's end
                value, start, before = stack.pop()
                nodes += 1
                if start.anchor is not None:
                    anchors[start.anchor] = (value, nodes - before)
            if nodes > MAX_YAML_NODES:
                refuse(event, f"more than {MAX_YAML_NODES} nodes, aliases expanded")
            if not stack:
                break
            frame = stack[-1]
            if type(frame[0]) is list:
                frame[0].append(value)
            elif len(frame) == 4:  # the value of the mapping's key
                frame[0][frame.pop()] = value
            elif isinstance(value, (dict, list)):
                refuse(start, "a mapping key must be a scalar")
            elif value in frame[0]:
                refuse(start, f"mapping key {echo(value)} is given twice")
            else:
                frame.append(value)
        get_event()  # the document's end
        if not loader.check_event(yaml.StreamEndEvent):
            refuse(get_event(), "a second document is not accepted")
        return value
    finally:
        loader.dispose()


def loads(text: str, source: str = "<string>") -> ProgramConfig:
    """Parse and validate a program document from a string."""
    try:
        doc = _read_yaml(text, source)
    except yaml.MarkedYAMLError as exc:  # a syntax error
        line = exc.problem_mark.line + 1
        raise ProgramParseError(f"{source}:{line}: {exc.problem}") from None
    except yaml.reader.ReaderError as exc:  # a character YAML does not allow
        # the parsers count its position in characters or in UTF-8 bytes;
        # either way it is the character's first occurrence
        line = text.count("\n", 0, text.index(chr(exc.character))) + 1
        problem = f"unacceptable character #x{exc.character:04x}: {exc.reason}"
        raise ProgramParseError(f"{source}:{line}: {problem}") from None
    if not isinstance(doc, dict):
        raise ProgramParseError(f"{source}: program document must be a mapping")
    return _build(doc, source)


def load(path: Union[str, Path]) -> ProgramConfig:
    """Load and validate a program file: UTF-8 text, a byte order mark
    before it skipped."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        byte = exc.object[exc.start]
        raise ProgramParseError(f"{path}:{line}: byte {byte:#04x} is not UTF-8") from None
    return loads(text, str(path))


def _build(doc: dict, source: str) -> ProgramConfig:
    problems: list[str] = []

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name: required non-empty string")
        name = "<unnamed>"

    unit = _text(doc.get("timestamp_unit", "microseconds"), "timestamp_unit", problems)
    if unit is not None and unit not in TIMESTAMP_UNITS:
        problems.append(f"timestamp_unit: {echo(unit)} not one of {sorted(TIMESTAMP_UNITS)}")
    unit = unit if unit in TIMESTAMP_UNITS else "microseconds"

    ports = _int(doc.get("ports", 4), "ports", problems, 1, 63) or 4

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
            problems.append(f"{where}: duplicate field name {echo(fname)}")
        seen_names.add(fname)
        slot = _int(item.get("slot"), f"{where}.slot", problems, 0, alu.NUM_HEADER_SLOTS - 1)
        if slot in seen_slots:
            problems.append(f"{where}: slot {echo(slot)} already bound")
        elif slot is not None:
            seen_slots.add(slot)
        width = _int(item.get("width", 32), f"{where}.width", problems, 1, 32) or 32
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
            n = _name(n, f"{key}[{i}]", problems, field_map, "field")
            if n in field_map:
                total += field_map[n].width
            if n is not None:
                names.append(n)
        if total > FLOW_KEY_WIDTH:
            problems.append(f"{key}: widths sum to {total} > {FLOW_KEY_WIDTH} bits")
        return tuple(names)

    lookup_scope = scope_of("lookup_scope")
    update_scope = (
        scope_of("update_scope") if "update_scope" in doc else lookup_scope
    )

    # --- states ---------------------------------------------------------
    # a label whose code is bad maps to None: it is declared, with no code
    states: dict[str, Optional[int]] = {}
    raw_states = _expect(doc.get("states"), dict, "states", problems, required=True)
    for key, value in raw_states.items():
        label = _text(key, "states", problems)
        if label is None:
            continue
        code = _int(value, f"states.{label}", problems, 0, 0xFFFF)
        if code is not None and code in states.values():
            problems.append(f"states.{label}: duplicate code {echo(code)}")
        states[label] = code
    if states and 0 not in states.values() and None not in states.values():
        problems.append("states: a state with code 0 (the default) is required")
    if len(states) > MAX_STATES:
        problems.append(f"states: {len(states)} states exceed the cap of {MAX_STATES}")

    # --- globals --------------------------------------------------------
    gvals = [0, 0, 0, 0]
    raw_globals = _expect(doc.get("globals", {}), dict, "globals", problems)
    for key, value in raw_globals.items():
        k = _text(key, "globals", problems)
        if k is None:
            continue
        if k.upper() in ("G0", "G1", "G2", "G3"):
            where = f"globals.{k.upper()}"
            gvals[int(k[1])] = _int(value, where, problems, 0, FIELD_MASK) or 0
        else:
            problems.append(f"globals: unknown register {echo(k)}")

    # --- per-flow scratch registers --------------------------------------
    scratch: list[tuple[str, int]] = []
    raw_scratch = _expect(doc.get("flow_scratch", {}), dict, "flow_scratch", problems)
    donated: set[int] = set()
    for key, gname in raw_scratch.items():
        alias = _text(key, "flow_scratch", problems)
        if alias is None:
            continue
        where = f"flow_scratch.{alias}"
        if alias in field_map:
            problems.append(f"{where}: alias collides with field {echo(alias)}")
        gname = _text(gname, where, problems)
        if gname is None:
            continue
        try:
            sel = alu.parse_selector(gname)
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
        cname = _text(item.get("name", f"C{i}"), f"{where}.name", problems)
        if cname in cond_names:
            problems.append(f"{where}: duplicate condition name {echo(cname)}")
        elif cname is not None:
            cond_names[cname] = i
        op_txt = _text(item.get("op", ""), f"{where}.op", problems)
        lhs = _text(item.get("lhs", ""), f"{where}.lhs", problems)
        rhs = _text(item.get("rhs", ""), f"{where}.rhs", problems)
        if op_txt is None or lhs is None or rhs is None:
            continue
        try:
            op = conditions.CmpOp[op_txt.upper()]
        except KeyError:
            problems.append(f"{where}: unknown comparison {echo(op_txt.upper())}")
            op = conditions.CmpOp.EQ
        try:
            lhs, rhs = (alu.parse_selector(resolve_token(token)) for token in (lhs, rhs))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        cond_list.append((cname, conditions.ConditionSpec(op, lhs, rhs)))

    # --- match fields ----------------------------------------------------
    match_fields = []
    raw_match = _expect(doc.get("match_fields", []), list, "match_fields", problems)
    for i, key in enumerate(raw_match):
        n = _name(key, f"match_fields[{i}]", problems, field_map, "field")
        if n is not None:
            match_fields.append(n)
    if len(match_fields) > 4:
        problems.append("match_fields: at most 4 fields fit the row match budget")

    # --- rows -------------------------------------------------------------
    rows: list[RowDef] = []
    priorities: set[int] = set()
    row_widths = widths(match_fields)
    for i, where, item in _entries(doc, "rows", problems, required=True):
        rid = item.get("id")
        if rid is not None:
            rid = _text(rid, f"{where}.id", problems)
            where = where if rid is None else f"{where} (id={rid})"
        _known_keys(item, ROW_KEYS, where, problems)
        state = item.get("state", "*")
        if state in ("*", None):
            state = None
        else:
            state = _name(state, f"{where}.state", problems, states, "state")
        cond_pat: list[tuple[str, int]] = []
        for key, bit in _expect(
            item.get("cond", {}), dict, f"{where}.cond", problems
        ).items():
            cname = _name(key, f"{where}.cond", problems, cond_names, "condition")
            if cname not in cond_names or bit in ("*", None):
                continue
            bit = _int(bit, f"{where}.cond.{cname}", problems, 0, 1)
            if bit is not None:
                cond_pat.append((cname, bit))
        match_pat = _match(item, where, row_widths, "match_fields", problems)
        priority = _priority(item, where, priorities, problems)
        nxt = item.get("next", STAY)
        if nxt == STAY or nxt is None:
            nxt = None
        else:
            nxt = _name(nxt, f"{where}.next", problems, states, "state")
        action = _action(item.get("action", "none"), where, ports, problems)
        instrs: list[alu.Instruction] = []
        raw_update = _expect(item.get("update", []), list, f"{where}.update", problems)
        for j, value in enumerate(raw_update):
            text = _text(value, f"{where}.update[{j}]", problems)
            if text is None:
                continue
            try:
                instrs.append(alu.parse_instruction(text, resolve_token))
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
        st = _name(item.get("state", ""), f"{where}.state", problems, states, "state")
        prio = _priority(item, where, fb_priorities, problems)
        pats = _match(item, where, scope_widths, "lookup_scope", problems)
        regs = item.get("registers", [])
        if not isinstance(regs, list) or len(regs) > 4:
            problems.append(f"{where}: registers must be a list of up to 4 values")
            regs = []
        regs = [
            _int(v, f"{where}.registers[{i}]", problems, 0, FIELD_MASK) or 0
            for i, v in enumerate(regs)
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
                f"classifier_tree: expanded priority {echo(row.priority)} collides "
                "with an explicit row"
            )

    # --- sizes and period --------------------------------------------------
    raw_sizes = _expect(doc.get("table_sizes", {}), dict, "table_sizes", problems)
    _known_keys(raw_sizes, _keys(TableSizes), "table_sizes", problems)
    size_kwargs = {}
    for key in _keys(TableSizes):
        if key in raw_sizes:
            v = _int(raw_sizes[key], f"table_sizes.{key}", problems, 1)
            if v is not None:
                size_kwargs[key] = v
    sizes = TableSizes(**size_kwargs)
    for key, cap in (
        ("context_subtables", MAX_CONTEXT_SUBTABLES),
        ("bucket_depth", MAX_BUCKET_DEPTH),
        ("context_fallback", MAX_CONTEXT_FALLBACK),
        ("xfsm", MAX_XFSM_ROWS),
    ):
        if getattr(sizes, key) > cap:
            problems.append(
                f"table_sizes.{key}: {echo(getattr(sizes, key))} exceeds the cap of {cap}"
            )
    contexts = sizes.context_subtables * sizes.context_buckets * sizes.bucket_depth
    if contexts > MAX_CONTEXTS:
        problems.append(
            f"table_sizes: context_subtables * context_buckets * bucket_depth = "
            f"{echo(contexts)} exceeds the cap of {MAX_CONTEXTS} contexts"
        )
    total_rows = len(rows) + len(tree_rows)
    if total_rows > sizes.xfsm:
        problems.append(
            f"rows: {total_rows} rows exceed the transition table capacity "
            f"({echo(sizes.xfsm)})"
        )
    if len(fallback) > sizes.context_fallback:
        problems.append(
            f"context_fallback: {len(fallback)} entries exceed capacity "
            f"({echo(sizes.context_fallback)})"
        )

    period = _int(doc.get("management_period", 0), "management_period", problems, 0, MAX_PERIOD)
    period = period or TIMESTAMP_UNITS[unit]

    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            problems.append(f"unknown top-level key {echo(key)}")

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
        match_fields=tuple(match_fields),
        rows=tuple(rows),
        context_fallback=tuple(fallback),
        classifier_tree=tree,
        table_sizes=sizes,
        management_period=period,
        flow_scratch=tuple(scratch),
    )


def _parse_tree(
    raw: object,
    states: Mapping[str, Optional[int]],
    cond_names: dict[str, int],
    ports: int,
    problems: list[str],
) -> Optional[ClassifierTree]:
    too_deep = f"classifier_tree.tree: a path holds more than {MAX_TREE_DEPTH} conditions"

    def walk(node: object, where: str, depth: int) -> Union[TreeNode, TreeLeaf, None]:
        if not isinstance(node, dict):
            problems.append(f"{where}: expected a mapping")
            return None
        if "class" in node:
            _known_keys(node, TREE_LEAF_KEYS, where, problems)
            st = _name(node.get("class"), f"{where}.class", problems, states, "state")
            action = _action(node.get("action", "none"), where, ports, problems)
            return TreeLeaf(st, action)
        if depth == MAX_TREE_DEPTH:
            if too_deep not in problems:
                problems.append(too_deep)
            return None
        _known_keys(node, TREE_NODE_KEYS, where, problems)
        at = f"{where}.condition"
        cname = _name(node.get("condition", ""), at, problems, cond_names, "condition")
        t = walk(node.get("if_true"), where + ".if_true", depth + 1)
        f = walk(node.get("if_false"), where + ".if_false", depth + 1)
        if t is None or f is None:
            return None
        return TreeNode(cname, t, f)

    if not isinstance(raw, dict):
        problems.append("classifier_tree: expected a mapping")
        return None
    where = "classifier_tree"
    _known_keys(raw, TREE_KEYS, where, problems)
    gate = _name(raw.get("gate", ""), f"{where}.gate", problems, cond_names, "condition")
    in_state = _name(raw.get("in_state", ""), f"{where}.in_state", problems, states, "state")
    base = _int(raw.get("base_priority"), f"{where}.base_priority", problems, 0)
    root = walk(raw.get("tree"), f"{where}.tree", 0)
    if root is None or gate not in cond_names or in_state not in states or base is None:
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


# an error message quotes at most this many characters of a value
ECHO_CHARS = 40


def echo(value: object) -> str:
    """A program or trace value for an error message: a string by its
    ``repr``, a mapping or a list by its kind alone, anything else by its
    ``str``, with an integer past the int-to-str digit limit in hex. The
    text is whole when it has at most ECHO_CHARS characters, else its
    first ECHO_CHARS and its length."""
    if isinstance(value, (dict, list)):
        return "a mapping" if isinstance(value, dict) else "a list"
    render: Callable[[str], str] = repr if isinstance(value, str) else str
    try:
        text = value if isinstance(value, str) else str(value)
    except ValueError:  # more digits than int-to-str conversion allows
        text = hex(value)  # type: ignore[arg-type]
    if len(text) <= ECHO_CHARS:
        return render(text)
    return f"{render(text[:ECHO_CHARS])}... ({len(text)} characters)"


def make_binder(
    config: ProgramConfig,
) -> Callable[[Mapping[str, int], int], tuple[list[int], int]]:
    """Build the trace-row to packet-record binding for one program: a
    record is the pair ``(h, ts)`` of the header slot values and the
    timestamp.

    Every field reads the trace column its ``source`` names, metadata
    such as ``ts`` and ``in_port`` included, and the record's timestamp is
    the ``ts`` column. A missing column, or a value that is negative or
    wider than its field, raises :class:`BindError` naming the packet by
    ``seq``, the number its verdict carries. The error is that of the
    first failing field in field order, then of a missing ``ts``.

    The binder is a function generated for the program's (slot, width)
    layout, as the engine's step is: it reads every column in one ``try``,
    checks every width with one OR of ``value >> width`` terms, and builds
    ``h`` as one list display. The column names reach it as values, so
    its source, exposed as the binder's ``source`` attribute, holds no
    program text. Only a row that fails goes through the per-field loop,
    which raises the error.
    """
    slots = alu.NUM_HEADER_SLOTS
    column_binds = [(f.slot, f.source, f.width) for f in config.fields]

    def bind_loop(row: Mapping[str, int], seq: int) -> tuple[list[int], int]:
        h = [0] * slots
        try:
            for slot, column, width in column_binds:
                value = row[column]
                if value >> width:  # negative, or wider than the field
                    raise BindError(
                        f"packet {seq}: column {echo(column)} value "
                        f"{echo(value)} does not fit in {width} bits"
                    )
                h[slot] = value
            return h, row["ts"]
        except KeyError as exc:
            raise BindError(f"packet {seq}: missing column {echo(exc.args[0])}") from None

    n = len(column_binds)
    h = ["0"] * slots
    for i, (slot, _, _) in enumerate(column_binds):
        h[slot] = f"v{i:d}"
    columns = [column for _, column, _ in column_binds]
    if "ts" in columns:  # a field already reads the ts column
        read_ts, names = f"ts = v{columns.index('ts'):d}", ""
    else:
        read_ts, names = "ts = row[cts]", "cts, "
        columns.append("ts")
    body = [
        "try:",
        *(f"    v{i:d} = row[c{i:d}]" for i in range(n)),
        f"    {read_ts}",
        "except KeyError:",
        "    return bind_loop(row, seq)",
    ]
    if column_binds:
        wide = " | ".join(f"v{i:d} >> {w:d}" for i, (_, _, w) in enumerate(column_binds))
        body += [f"if {wide}:", "    return bind_loop(row, seq)"]
    body.append(f"return [{', '.join(h)}], ts")
    source = "\n".join(
        [
            "def make(columns, bind_loop):",
            f"    {''.join(f'c{i:d}, ' for i in range(n))}{names}= columns",
            "    def bind(row, seq):",
            *("        " + line for line in body),
            "    return bind",
            "",
        ]
    )
    namespace: dict = {}
    exec(compile(source, "<flowfsm binder>", "exec"), namespace)
    bind = namespace["make"](columns, bind_loop)
    bind.source = source  # for inspection and tests
    return bind


# ---------------------------------------------------------------------------
# serialization and bundled programs


def _tree_doc(node: Union[TreeNode, TreeLeaf]) -> dict:
    if isinstance(node, TreeLeaf):
        return {"class": node.state, "action": node.action}
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
                "action": row.action,
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

