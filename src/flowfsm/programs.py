"""Program configuration: schema, loader, serializer and trace-row binder.

A program is a YAML document that declares header-field bindings, flow-key
scopes, state labels, initial global registers, the comparator set, and
the transition rows with their actions and register-update tuples. The
loader reads the YAML subset docs/SCHEMA.md gives in one pass, reads each
section against its table in the schema, then checks the sections against
one another and reports each violation with its location. The engine
compiles the program it returns.

See docs/SCHEMA.md for the field-by-field reference and a worked listing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Container, Mapping, NoReturn, Optional, Sequence, Union

import yaml

from . import alu, conditions
from .alu import echo
from .engine import ACTION_KINDS, FLOW_KEY_WIDTH, Engine

TIMESTAMP_UNITS = {
    "seconds": 1,
    "milliseconds": 1_000,
    "microseconds": 1_000_000,
    "ticks": 1_000,
}

# libyaml's parser where PyYAML was built with it; same documents, ~9x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_TAG = "tag:yaml.org,2002:"
_YAML_SCALARS = yaml.constructor.SafeConstructor()
_YAML_CORE_SCALARS = {_YAML_TAG + kind for kind in ("int", "float", "bool", "null")}

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
    context_fallback: tuple[FallbackDef, ...]
    classifier_tree: Optional[ClassifierTree]
    table_sizes: TableSizes
    # extra per-flow scratch registers, each addressed through a donated
    # (otherwise unused) global selector slot: (alias name, G slot index)
    flow_scratch: tuple[tuple[str, int], ...]

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
# readers: each takes (value, where, problems, *bounds) and reports a bad
# value as one problem at ``where``


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


def _label(value: object, where: str, problems: list[str]) -> Optional[str]:
    """The name ``_text`` reads, which also names the entry in its later
    messages (``rows[2] (id=long).priority``)."""
    return _text(value, where, problems)


def _string(value: object, where: str, problems: list[str], problem: str) -> Optional[str]:
    """A non-empty string. Anything else is ``problem``, reported at the
    entry that holds the key, or at the key itself at the top level."""
    if isinstance(value, str) and value:
        return value
    entry, _, key = where.rpartition(".")
    problems.append(f"{entry or key}: {problem}")
    return None


def _name(
    value: object, where: str, problems: list[str], known: Optional[Container], what=None
) -> Optional[str]:
    """The name ``_text`` reads, reported at ``where`` unless ``known`` holds
    it: as an unknown ``what``, or without ``what`` as not one of ``known``.
    None ``known``, a section that failed to read, holds every name."""
    text = _text(value, where, problems)
    if known is not None and text is not None and text not in known:
        bad = f"unknown {what} {echo(text)}" if what else f"{echo(text)} not one of {sorted(known)}"
        problems.append(f"{where}: {bad}")
    return text


def _size(value: object, where: str, problems: list[str], cap: Optional[int] = None):
    """A table size: a positive integer as ``_int`` reads it, at most ``cap``."""
    size = _int(value, where, problems, 1)
    if size is None or cap is None or size <= cap:
        return size
    problems.append(f"{where}: {echo(size)} exceeds the cap of {cap}")
    return None


def _expect(
    value: object, where: str, problems: list[str], kind: type = object, required: bool = False
) -> tuple:
    """``(value, where)``, for checks that report at ``where`` later, if
    ``value`` is a ``kind`` (list or dict; by default anything) and, if
    ``required``, not empty. Else one problem, and ``(None, where)``."""
    if isinstance(value, kind) and (value or not required):
        return value, where
    what = "list" if kind is list else "mapping"
    problems.append(f"{where}: expected a {'non-empty ' if required else ''}{what}")
    return None, where


def _read(item: object, where: str, problems: list[str], schema: Mapping) -> tuple:
    """``(values, where)`` of the mapping ``item`` read against ``schema``,
    one of the tables below: in table order, what each key's reader gives
    for the key's value, or for its default where ``item`` lacks the key,
    and None for an optional key that is absent or null. A name ``_label``
    reads joins ``where``. Then each key the table lacks is one problem.
    Not a mapping: one problem, and ``(None, where)``."""
    if not isinstance(item, dict):
        problems.append(f"{where}: expected a mapping")
        return None, where
    values = []
    for key, (read, default, bounds) in schema.items():
        if read is None:
            continue
        value = item.get(key, default)
        if value is None and default is None:
            values.append(None)
            continue
        at = f"{where}.{key}" if where else key
        value = read(None if value is REQUIRED else value, at, problems, *bounds)
        if read is _label and value is not None:
            where = f"{where} ({key}={value})"
        values.append(value)
    if not schema.keys() >= item.keys():
        unknown = f"{where}: unknown key" if where else "unknown top-level key"
        problems.extend(f"{unknown} {echo(key)}" for key in item if key not in schema)
    return values, where


def _entries(
    value: object, where: str, problems: list[str], schema: Mapping, required: bool = False
) -> tuple:
    """``(entries, where)`` of the list ``value``: each mapping in it as
    ``_read`` reads it at ``where[i]``; any other item is one problem. Not
    a list: ``(None, where)``, as from ``_expect``."""
    items, where = _expect(value, where, problems, list, required)
    if items is None:
        return None, where
    entries = [_read(item, f"{where}[{i}]", problems, schema) for i, item in enumerate(items)]
    return [entry for entry in entries if entry[0] is not None], where


# ---------------------------------------------------------------------------
# the schema: each section's keys in document order, as key: (reader,
# default, bounds). _read calls reader(value, where, problems, *bounds) with
# the key's value, or its default where the key is absent. A REQUIRED key
# has none (its reader reports the value missing), a key whose default is
# None is optional, and a key without a reader is not read. The checks
# between sections read what _expect locates. serialize writes the keys in
# this order, and tests/test_docs.py checks docs/SCHEMA.md against them.

REQUIRED = object()

# a row state ANY matches any state, as one without a state does; a row
# next STAY keeps the current state, as one without a next does
ANY = "*"
STAY = "_stay"

FIELD = {
    "name": (_string, REQUIRED, ("missing name",)),
    "slot": (_int, REQUIRED, (0, alu.NUM_HEADER_SLOTS - 1)),
    "width": (_int, 32, (1, 32)),
    "source": (_string, REQUIRED, ("source must name a trace column",)),
}
CONDITION = {
    "name": (_text, None, ()),  # None: C<i>, for condition i
    "op": (_text, "", ()),
    "lhs": (_text, "", ()),
    "rhs": (_text, "", ()),
}
ROW = {
    "id": (_label, None, ()),
    "state": (_expect, None, ()),
    "cond": (_expect, {}, (dict,)),
    "match": (_expect, {}, (dict,)),
    "priority": (_int, REQUIRED, (0,)),
    "next": (_expect, None, ()),
    "action": (_expect, "none", ()),
    "update": (_expect, [], (list,)),
}
FALLBACK = {
    "priority": (_int, REQUIRED, (0,)),
    "state": (_expect, "", ()),
    "match": (_expect, {}, (dict,)),
    "registers": (_expect, [], ()),
}
TREE = {
    "gate": (_expect, "", ()),
    "in_state": (_expect, "", ()),
    "base_priority": (_int, REQUIRED, (0,)),
    "tree": (_expect, REQUIRED, (dict,)),
}
TREE_NODE = {
    "condition": (_expect, "", ()),
    "if_true": (_expect, REQUIRED, (dict,)),
    "if_false": (_expect, REQUIRED, (dict,)),
}
# a tree node that holds the first key of TREE_LEAF is a leaf
TREE_LEAF = {
    "class": (_expect, REQUIRED, ()),
    "action": (_expect, "none", ()),
}
TABLE_SIZES = {
    "context_subtables": (_size, 4, (MAX_CONTEXT_SUBTABLES,)),
    "context_buckets": (_size, 1024, ()),
    "bucket_depth": (_size, 1, (MAX_BUCKET_DEPTH,)),
    "context_fallback": (_size, 32, (MAX_CONTEXT_FALLBACK,)),
    "xfsm": (_size, 128, (MAX_XFSM_ROWS,)),
}

PROGRAM = {
    "name": (_string, REQUIRED, ("required non-empty string",)),
    "description": (None, None, ()),
    "timestamp_unit": (_name, "microseconds", (TIMESTAMP_UNITS,)),
    "ports": (_int, 4, (1, 63)),
    "fields": (_entries, [], (FIELD,)),
    "lookup_scope": (_expect, REQUIRED, (list, True)),
    "update_scope": (_expect, None, (list, True)),  # None: the lookup scope
    "states": (_expect, REQUIRED, (dict, True)),
    "globals": (_expect, {}, (dict,)),
    "flow_scratch": (_expect, {}, (dict,)),
    "conditions": (_entries, [], (CONDITION,)),
    "match_fields": (_expect, [], (list,)),
    "rows": (_entries, REQUIRED, (ROW, True)),
    "context_fallback": (_entries, [], (FALLBACK,)),
    "classifier_tree": (_read, None, (TREE,)),
    "table_sizes": (_read, {}, (TABLE_SIZES,)),
    "management_period": (_int, 0, (0, MAX_PERIOD)),  # 0: one second of ticks
}


def _record(name: str, schema: Mapping, doc: str) -> type:
    """A frozen dataclass whose fields are the keys of ``schema``, in order."""
    namespace = {"__module__": __name__, "__doc__": doc}
    return dataclasses.make_dataclass(name, list(schema), frozen=True, namespace=namespace)


FieldDef = _record(
    "FieldDef",
    FIELD,
    """One operand slot binding: slot ``slot`` holds the ``width``-bit
    value of the trace column ``source`` (metadata such as ``ts`` and
    ``in_port`` included).""",
)
# a fallback's match is ((field, (value, mask)), ...), its registers four ints
FallbackDef = _record(
    "FallbackDef", FALLBACK, "Wildcard context entry matched when the exact lookup misses."
)
TableSizes = _record("TableSizes", TABLE_SIZES, "The geometry of the context and XFSM tables.")


def _unique(priority: Optional[int], where: str, seen: set[int], problems: list[str]) -> None:
    """Report ``priority`` at ``where`` if ``seen`` holds it, else add it."""
    if priority in seen:
        problems.append(f"{where}: duplicate priority {echo(priority)}")
    elif priority is not None:
        seen.add(priority)


def _action(action: tuple, where: str, ports: Optional[int], problems: list[str]):
    """The canonical text of a located action: ``none``, ``drop``,
    ``flood``, ``fwd:P`` or ``dscp:V:fwd:P``, read regardless of case and
    surrounding whitespace, with P a port in 1..ports and V a DSCP value
    in 0..63."""
    value, at = action
    text = _text(value, at, problems)
    if text is None:
        return None
    verb, *words = text.strip().lower().split(":")
    if not words and verb in ACTION_KINDS and verb not in ("fwd", "dscp"):
        return verb
    if verb == "fwd" and len(words) == 1:
        port = _int(words[0], f"{at}.port", problems, 1, ports)
        return f"fwd:{port}"
    if verb == "dscp" and len(words) == 3 and words[1] == "fwd":
        dscp = _int(words[0], f"{at}.dscp", problems, 0, 63)
        port = _int(words[2], f"{at}.port", problems, 1, ports)
        return f"dscp:{dscp}:fwd:{port}"
    problems.append(f"{where}: unknown action {echo(text)}")
    return None


def _parse_pattern(
    value: object, width: int, where: str, problems: list[str]
) -> tuple[int, int]:
    """value/mask pattern: int (exact), "*" (any) or "VALUE/MASK"; value and
    mask must fit in the field's ``width`` bits. A bad pattern is one
    problem, that of its first bad part."""
    full = (1 << width) - 1
    if isinstance(value, str) and value.strip() == ANY:
        return 0, 0
    parts = value.split("/", 1) if isinstance(value, str) and "/" in value else [value, full]
    bad: list[str] = []
    v, m = (_int(part, where, bad, 0, full) for part in parts)
    if bad:
        problems.append(bad[0])
        return 0, 0
    return v & m, m


def _match(
    match: tuple, where: str, widths: Optional[Mapping], allowed: str, problems: list[str]
) -> tuple[tuple[str, tuple[int, int]], ...]:
    """The entry's located ``match`` patterns over the fields in ``widths``
    (name to pattern width, None where unknown), which the document lists
    under ``allowed``. None ``widths``, where ``allowed`` failed to read,
    checks no pattern."""
    patterns, at = match
    if patterns is None or widths is None:
        return ()
    read = []
    for key, text in patterns.items():
        name = _text(key, at, problems)
        if name is None:
            continue
        if name not in widths:
            problems.append(f"{where}: field {echo(name)} is not listed in {allowed}")
        elif widths[name] is not None:
            read.append((name, _parse_pattern(text, widths[name], f"{at}.{name}", problems)))
    return tuple(read)


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
    # a section value that failed to read is None: no check against it reports
    (
        name, unit, ports, (field_entries, _), lookup_at, update_at, (raw_states, states_at),
        (raw_globals, globals_at), (raw_scratch, scratch_at), (condition_entries, conditions_at),
        match_at, (row_entries, rows_at), (fallback_entries, fallback_at), tree_at,
        (sizes_read, sizes_at), period,
    ), _ = _read(doc, "", problems, PROGRAM)

    # --- fields ---------------------------------------------------------
    field_map: dict[str, FieldDef] = {}
    seen_slots: set[int] = set()
    for (fname, slot, width, src), where in field_entries or ():
        if fname is None:
            continue
        if fname in field_map:
            problems.append(f"{where}: duplicate field name {echo(fname)}")
        if slot in seen_slots:
            problems.append(f"{where}: slot {echo(slot)} already bound")
        elif slot is not None:
            seen_slots.add(slot)
        field_map[fname] = FieldDef(fname, slot, width, src)
    known_fields = None if field_entries is None else field_map

    def widths(names: Sequence[str]) -> dict[str, Optional[int]]:
        """Match pattern width of each field (None for unknown ones)."""
        return {n: field_map[n].width if n in field_map else None for n in names}

    def field_names(located: tuple) -> tuple[str, ...]:
        """The field names in a located list."""
        value, where = located
        names = (
            _name(n, f"{where}[{i}]", problems, known_fields, "field")
            for i, n in enumerate(value or ())
        )
        return tuple(n for n in names if n is not None)

    def scope_of(located: tuple) -> tuple[str, ...]:
        names = field_names(located)
        total = sum(field_map[n].width or 0 for n in names if n in field_map)
        if total > FLOW_KEY_WIDTH:
            problems.append(f"{located[1]}: widths sum to {total} > {FLOW_KEY_WIDTH} bits")
        return names

    lookup_scope = scope_of(lookup_at)
    update_scope = lookup_scope if update_at is None else scope_of(update_at)

    # --- states ---------------------------------------------------------
    # a label whose code is bad maps to None: it is declared, with no code
    states: dict[str, Optional[int]] = {}
    for key, value in (raw_states or {}).items():
        label = _text(key, states_at, problems)
        if label is None:
            continue
        code = _int(value, f"{states_at}.{label}", problems, 0, 0xFFFF)
        if code is not None and code in states.values():
            problems.append(f"{states_at}.{label}: duplicate code {echo(code)}")
        states[label] = code
    if states and 0 not in states.values() and None not in states.values():
        problems.append(f"{states_at}: a state with code 0 (the default) is required")
    if len(states) > MAX_STATES:
        problems.append(f"{states_at}: {len(states)} states exceed the cap of {MAX_STATES}")
    known_states = None if raw_states is None else states

    def state_name(located: Optional[tuple], wildcard: str) -> Optional[str]:
        """The state a row's state or next names; None for ``wildcard``."""
        if located is None or located[0] == wildcard:
            return None
        return _name(*located, problems, known_states, "state")

    # --- globals --------------------------------------------------------
    gvals = [0, 0, 0, 0]
    for key, value in (raw_globals or {}).items():
        k = _text(key, globals_at, problems)
        if k is None:
            continue
        if k.upper() in ("G0", "G1", "G2", "G3"):
            where = f"{globals_at}.{k.upper()}"
            gvals[int(k[1])] = _int(value, where, problems, 0, alu.WORD) or 0
        else:
            problems.append(f"{globals_at}: unknown register {echo(k)}")

    # --- per-flow scratch registers --------------------------------------
    scratch: list[tuple[str, int]] = []
    donated: set[int] = set()
    for key, gname in (raw_scratch or {}).items():
        alias = _text(key, scratch_at, problems)
        if alias is None:
            continue
        where = f"{scratch_at}.{alias}"
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
    if len(condition_entries or ()) > conditions.NUM_CONDITIONS:
        problems.append(
            f"{conditions_at}: at most {conditions.NUM_CONDITIONS} conditions fit "
            "the comparator slots"
        )
    for i, ((cname, op_txt, lhs, rhs), where) in enumerate(condition_entries or ()):
        cname = f"C{i}" if cname is None else cname
        if cname in cond_names:
            problems.append(f"{where}: duplicate condition name {echo(cname)}")
        cond_names[cname] = i
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
    known_conditions = None if condition_entries is None else cond_names

    # --- match fields ----------------------------------------------------
    match_fields = field_names(match_at)
    if len(match_fields) > 4:
        problems.append(f"{match_at[1]}: at most 4 fields fit the row match budget")
    row_widths = None if match_at[0] is None else widths(match_fields)

    # --- rows -------------------------------------------------------------
    rows: list[RowDef] = []
    priorities: set[int] = set()
    for (rid, state, cond, match, priority, nxt, action, update), where in row_entries or ():
        state = state_name(state, ANY)
        cond_pat: list[tuple[str, int]] = []
        cond_map, cond_at = cond
        for key, bit in (cond_map or {}).items():
            cname = _name(key, cond_at, problems, known_conditions, "condition")
            if bit in (ANY, None) or cname not in (known_conditions or ()):
                continue
            bit = _int(bit, f"{cond_at}.{cname}", problems, 0, 1)
            if bit is not None:
                cond_pat.append((cname, bit))
        match_pat = _match(match, where, row_widths, match_at[1], problems)
        _unique(priority, where, priorities, problems)
        instrs: list[alu.Instruction] = []
        raw_update, update_at = update
        for j, value in enumerate(raw_update or ()):
            text = _text(value, f"{update_at}[{j}]", problems)
            if text is None:
                continue
            try:
                instrs.append(alu.parse_instruction(text, resolve_token))
            except ValueError as exc:
                problems.append(f"{update_at}[{j}]: {exc}")
        for msg in alu.validate_tuple(instrs):
            problems.append(f"{where}: {msg}")
        rows.append(
            RowDef(
                state=state,
                cond=tuple(cond_pat),
                match=match_pat,
                priority=priority,
                next_state=state_name(nxt, STAY),
                action=_action(action, where, ports, problems),
                instructions=tuple(instrs),
                row_id=rid,
            )
        )

    if rows and not any(r.state is None and not r.cond and not r.match for r in rows):
        problems.append(f"{rows_at}: a catch-all row (state '*', no cond/match) is required")

    # --- context fallback --------------------------------------------------
    fallback: list[FallbackDef] = []
    fb_priorities: set[int] = set()
    scope_widths = None if lookup_at[0] is None else widths(lookup_scope)
    for (prio, st, match, (regs, regs_at)), where in fallback_entries or ():
        st = _name(*st, problems, known_states, "state")
        _unique(prio, where, fb_priorities, problems)
        pats = _match(match, where, scope_widths, lookup_at[1], problems)
        if not isinstance(regs, list) or len(regs) > 4:
            problems.append(f"{where}: registers must be a list of up to 4 values")
            regs = []
        regs = [_int(v, f"{regs_at}[{i}]", problems, 0, alu.WORD) or 0 for i, v in enumerate(regs)]
        regs += [0] * (4 - len(regs))
        fallback.append(FallbackDef(prio, st, pats, tuple(regs)))

    # --- classifier tree ----------------------------------------------------
    tree = _parse_tree(tree_at, known_states, known_conditions, ports, problems)
    tree_rows = tree.rows() if tree is not None else ()
    for row in tree_rows:
        if row.priority in priorities:
            problems.append(
                f"{tree_at[1]}: expanded priority {echo(row.priority)} collides "
                "with an explicit row"
            )

    # --- sizes ----------------------------------------------------------------
    sizes = TableSizes(*(sizes_read or [None] * len(TABLE_SIZES)))
    shape = (sizes.context_subtables, sizes.context_buckets, sizes.bucket_depth)
    if None not in shape and shape[0] * shape[1] * shape[2] > MAX_CONTEXTS:
        problems.append(
            f"{sizes_at}: {' * '.join(list(TABLE_SIZES)[:3])} = "
            f"{echo(shape[0] * shape[1] * shape[2])} exceeds the cap of {MAX_CONTEXTS} contexts"
        )
    total_rows = len(rows) + len(tree_rows)
    if sizes.xfsm is not None and total_rows > sizes.xfsm:
        problems.append(
            f"{rows_at}: {total_rows} rows exceed the transition table capacity "
            f"({echo(sizes.xfsm)})"
        )
    if sizes.context_fallback is not None and len(fallback) > sizes.context_fallback:
        problems.append(
            f"{fallback_at}: {len(fallback)} entries exceed capacity "
            f"({echo(sizes.context_fallback)})"
        )

    if problems:
        raise ProgramValidationError([f"{source}: {p}" for p in problems])

    return ProgramConfig(
        name=name,
        timestamp_unit=unit,
        ports=ports,
        fields=tuple(field_map.values()),
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
        management_period=period or TIMESTAMP_UNITS[unit],
        flow_scratch=tuple(scratch),
    )


def _parse_tree(
    tree: Optional[tuple], states: Optional[Container], cond_names: Optional[Container],
    ports: Optional[int], problems: list[str],
) -> Optional[ClassifierTree]:
    """The classifier tree of the section ``_read`` read, None if there is
    none or any part of it is bad: a bad node has no subtree, and adds a
    problem."""
    if tree is None or tree[0] is None:
        return None
    start = len(problems)
    (gate, in_state, base, root), _ = tree
    too_deep = f"{root[1]}: a path holds more than {MAX_TREE_DEPTH} conditions"
    leaf_key = next(iter(TREE_LEAF))

    def walk(node: tuple, depth: int) -> Union[TreeNode, TreeLeaf, None]:
        item, where = node
        if item is None:
            return None
        if leaf_key in item:
            (state, action), where = _read(item, where, problems, TREE_LEAF)
            state = _name(*state, problems, states, "state")
            return TreeLeaf(state, _action(action, where, ports, problems))
        if depth == MAX_TREE_DEPTH:
            if too_deep not in problems:
                problems.append(too_deep)
            return None
        (cname, if_true, if_false), where = _read(item, where, problems, TREE_NODE)
        cname = _name(*cname, problems, cond_names, "condition")
        return TreeNode(cname, walk(if_true, depth + 1), walk(if_false, depth + 1))

    gate = _name(*gate, problems, cond_names, "condition")
    in_state = _name(*in_state, problems, states, "state")
    node = walk(root, 0)
    if node is None or base is None or len(problems) > start:
        return None
    return ClassifierTree(gate, in_state, base, node)


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


def make_binder(
    config: ProgramConfig,
) -> Callable[[tuple[Sequence[str], Sequence[int]], int], tuple[list[int], int]]:
    """Build the trace-row to packet-record binding for one program: a
    record is the pair ``(h, ts)`` of the header slot values and the
    timestamp.

    A row is the pair ``(columns, values)`` that
    :func:`~flowfsm.harness.traceio.read_trace` yields: the column names,
    each once, and the row's values in their order. Every field reads the
    trace column its ``source`` names, metadata such as ``ts`` and
    ``in_port`` included, and the record's timestamp is the ``ts``
    column. A missing column, or a value that is negative or wider than
    its field, raises :class:`BindError` naming the packet by ``seq``,
    the number its verdict carries. The error is that of the first
    failing field in field order, then of a missing ``ts``.

    The binder is a function generated for the program's (slot, width)
    layout, as the engine's step is. It finds the positions of the
    columns it reads only when a row's ``columns`` is not the header
    object it last found them in, and keeps them in closure cells, so a
    trace's rows are read by position, with no lookup by name. It checks
    every width with one OR of ``value >> width`` terms and builds ``h``
    as one list display. The column names reach it as values, so its
    source, exposed as the binder's ``source`` attribute, holds no
    program text. Only a row that fails, by a missing column or a value
    out of its field, goes through the per-field loop, over the row as a
    dict, which raises the error.
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
    positions = [f"p{i:d}" for i in range(n)]
    if "ts" in columns:  # a field already reads the ts column
        read_ts = f"ts = v{columns.index('ts'):d}"
    else:
        read_ts = "ts = values[pts]"
        positions.append("pts")
        columns.append("ts")
    fail = "    return bind_loop(dict(zip(names, values)), seq)"
    body = [
        "names, values = row",
        "if names is not header:",
        "    try:",
        f"        {', '.join(positions)}, = map(names.index, columns)",
        "    except ValueError:",
        "    " + fail,
        "    header = names",
        *(f"v{i:d} = values[p{i:d}]" for i in range(n)),
        read_ts,
    ]
    if column_binds:
        wide = " | ".join(f"v{i:d} >> {w:d}" for i, (_, _, w) in enumerate(column_binds))
        body += [f"if {wide}:", fail]
    body.append(f"return [{', '.join(h)}], ts")
    source = "\n".join(
        [
            "def make(columns, bind_loop):",
            "    header = None",
            f"    {' = '.join(positions)} = 0",
            "    def bind(row, seq):",
            f"        nonlocal header, {', '.join(positions)}",
            *("        " + line for line in body),
            "    return bind",
            "",
        ]
    )
    namespace: dict = {}
    exec(compile(source, "<flowfsm binder>", "exec"), namespace)
    bind = namespace["make"](tuple(columns), bind_loop)
    bind.source = source  # for inspection and tests
    return bind


# ---------------------------------------------------------------------------
# serialization and bundled programs


def _doc(schema: Mapping, *values: object) -> dict:
    """A section as a document mapping: ``values`` under the keys of its
    table, in order, leaving out a key without a reader, which no
    config keeps."""
    keys = [key for key, (read, _, _) in schema.items() if read is not None]
    return dict(zip(keys, values, strict=True))


def _tree_doc(node: Union[TreeNode, TreeLeaf]) -> dict:
    if isinstance(node, TreeLeaf):
        return _doc(TREE_LEAF, node.state, node.action)
    return _doc(TREE_NODE, node.condition, _tree_doc(node.if_true), _tree_doc(node.if_false))


def _match_doc(config: ProgramConfig, match: tuple) -> dict:
    """Patterns as a document writes them: ANY, a value, or VALUE/MASK."""
    doc: dict = {}
    for name, (value, mask) in match:
        if mask == 0:
            doc[name] = ANY
        elif mask == (1 << config.field_by_name(name).width) - 1:
            doc[name] = value
        else:
            doc[name] = f"0x{value:x}/0x{mask:x}"
    return doc


def serialize(config: ProgramConfig) -> str:
    """Canonical YAML form; load(serialize(c)) == c."""
    tree = config.classifier_tree
    doc = _doc(
        PROGRAM,
        config.name,
        config.timestamp_unit,
        config.ports,
        [_doc(FIELD, *dataclasses.astuple(f)) for f in config.fields],
        list(config.lookup_scope),
        list(config.update_scope),
        dict(config.states),
        {f"G{i}": v for i, v in enumerate(config.globals_init)},
        {alias: f"G{slot}" for alias, slot in config.flow_scratch},
        [
            _doc(CONDITION, name, spec.op.name, *map(alu.selector_name, (spec.lhs, spec.rhs)))
            for name, spec in config.conditions
        ],
        list(config.match_fields),
        [
            _doc(
                ROW, row.row_id, ANY if row.state is None else row.state, dict(row.cond),
                _match_doc(config, row.match), row.priority,
                STAY if row.next_state is None else row.next_state, row.action,
                [alu.format_instruction(i) for i in row.instructions],
            )
            for row in config.rows
        ],
        [
            _doc(FALLBACK, fb.priority, fb.state, _match_doc(config, fb.match), list(fb.registers))
            for fb in config.context_fallback
        ],
        None
        if tree is None
        else _doc(TREE, tree.gate, tree.in_state, tree.base_priority, _tree_doc(tree.root)),
        _doc(TABLE_SIZES, *dataclasses.astuple(config.table_sizes)),
        config.management_period,
    )
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

