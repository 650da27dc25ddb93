"""Program loader: round trip, rejection locations, tree expansion, fallbacks."""

import dataclasses
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfsm import programs
from flowfsm.engine import VERDICT_COLUMNS, Engine
from flowfsm.harness.traceio import read_trace
from flowfsm.programs import BindError, ProgramParseError, ProgramValidationError

from helpers import (
    DELETE,
    GAP_CASES,
    SYNTHETIC_PROGRAM,
    deep_tree_program,
    flow_key,
    patched_doc,
    program_config,
    reference_bind,
    trace_row,
)


def problems_of(doc):
    with pytest.raises(ProgramValidationError) as info:
        programs.loads(yaml.safe_dump(doc), source="doc")
    return [p.removeprefix("doc: ") for p in info.value.problems]


def assert_rejected_at(doc, location):
    problems = problems_of(doc)
    assert any(p.startswith(location) for p in problems), problems


@pytest.mark.parametrize("name", programs.BUNDLED + ("synthetic",))
def test_serialize_round_trip(name):
    config = program_config(name)
    text = programs.serialize(config)
    assert programs.loads(text) == config
    assert programs.serialize(programs.loads(text)) == text


# the pure-Python parser, and libyaml's where PyYAML has it
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


# the loader's contract: a document loads as yaml.safe_load loads it
# (SAFE_LOAD), or is a ProgramParseError on the line given here; the last
# entry, which PyYAML refuses, gives its value
SAFE_LOAD = "loads as safe_load"
YAML_EDGE_DOCS = [
    ("", SAFE_LOAD),
    ("a: 1\nb: [1, 2.5, true, null, ~, 0x1F, 0o17, 1_000, 1:30, .inf, -.nan]\n", SAFE_LOAD),
    ("a: 'quoted'\nb: \"0x10\"\nc: yes\nd: Off\n", SAFE_LOAD),
    ("a: 1\na: 2\nb: 3\n", "2: mapping key 'a' is given twice"),
    ("- 1\n- a\n- {x: [y]}\n", SAFE_LOAD),
    ("a: &x [1]\nb: *x\n", SAFE_LOAD),
    ("base: &b {x: 1}\nc:\n  <<: *b\n  y: 2\n", "3: a scalar tagged !!merge is not accepted"),
    ("= : 3\n", "1: a scalar tagged !!value is not accepted"),
    ("? [1, 2]\n: 3\n", "1: a mapping key must be a scalar"),
    ("2020-01-02: x\nt: 2020-01-02 10:00:00\n", "1: a scalar tagged !!timestamp is not accepted"),
    ("a: !!set {x, y}\nb: !!binary aGVsbG8=\n", "1: a collection tagged !!set is not accepted"),
    ("a: !foo 1\n", "1: a scalar tagged !foo is not accepted"),
    ("a: !!int abc\n", "1: the scalar is not a valid !!int"),
    ("a: !!str [1]\n", "1: a collection tagged !!str is not accepted"),
    ("a: !!map x\n", "1: a scalar tagged !!map is not accepted"),
    ("a: [1\n", SAFE_LOAD),  # the parser's error, under both
    ("---\n", SAFE_LOAD),
    ("# a comment\n", SAFE_LOAD),
    ("a: !!map {b: 1}\nc: !!seq [1]\nd: ! [1]\ne: ! 12\nf: !!null x\ng: !!str 1\n", SAFE_LOAD),
    ("a: &x 1\n*x : 2\n", SAFE_LOAD),
    ("a: !!bool maybe\n", "1: the scalar is not a valid !!bool"),
    ("a: !!float x\n", "1: the scalar is not a valid !!float"),
    ("a: !!int ''\n", "1: the scalar is not a valid !!int"),
    ("a: 1" + "0" * 5000 + "\n", "1: the scalar is not a valid !!int"),
    ("a: 1\n---\nb: 2\n", "2: a second document is not accepted"),
    ("a: *x\n", "1: alias *x names no finished node"),
    ("a: &x [1, *x]\n", "1: alias *x names no finished node"),
    ("a: &x [1]\n*x : 2\n", "2: a mapping key must be a scalar"),
    ("a: &x 1\nb: &x [*x]\n", "2: alias *x names no finished node"),
    # an alias names the latest node with its anchor (YAML 1.2.2 section
    # 3.2.2.2: anchors need not be unique); PyYAML's composer refuses this
    ("a: &x 1\nb: &x 2\nc: *x\n", {"a": 1, "b": 2, "c": 2}),
]


@pytest.mark.parametrize("text, expected", YAML_EDGE_DOCS, ids=range(len(YAML_EDGE_DOCS)))
def test_yaml_documents_load_as_the_safe_loader_loads_them(text, expected, monkeypatch):
    def outcome(read):
        try:
            return repr(read())
        except yaml.YAMLError as exc:
            return f"{type(exc).__name__}: {exc}"

    for loader in LOADERS:
        monkeypatch.setattr(programs, "_YAML_LOADER", loader)
        if expected is SAFE_LOAD:
            safe = outcome(lambda: yaml.load(text, Loader=loader))
            assert outcome(lambda: programs._read_yaml(text, "doc.yaml")) == safe
        elif isinstance(expected, str):
            with pytest.raises(ProgramParseError) as err:
                programs._read_yaml(text, "doc.yaml")
            assert str(err.value) == f"doc.yaml:{expected}"
        else:
            assert programs._read_yaml(text, "doc.yaml") == expected


def test_a_yaml_alias_is_one_object_as_the_safe_loader_makes_it():
    doc = programs._read_yaml("a: &x [1]\nb: *x\n", "doc.yaml")
    assert doc["a"] is doc["b"]


@pytest.mark.parametrize("name", programs.BUNDLED)
def test_bundled_programs_take_the_plain_yaml_path(name, monkeypatch):
    text = programs.bundled_path(name).read_text()
    for loader in LOADERS:
        monkeypatch.setattr(programs, "_YAML_LOADER", loader)
        assert programs._read_yaml(text, name) == yaml.safe_load(text)


# core-schema scalars, NaN left out as it equals nothing; strings that
# would resolve to another type unquoted, and non-ASCII ones
yaml_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from(["yes", "Off", "0x1F", "0o17", "1:30", "~", "", "null", ".inf", "=", "<<"]),
    st.sampled_from(["2020-01-02", "1_000", "1e3", "é", "日本", "\u2028", "a: b", "- x"]),
    st.text(max_size=8),
)


def _shared(items):
    """``items`` twice: each collection among them is then one object met
    twice, which yaml.safe_dump writes as an anchor and an alias."""
    return items + items


yaml_documents = st.recursive(
    yaml_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(yaml_scalars, children, max_size=4),
        st.lists(children, min_size=1, max_size=3).map(_shared),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(doc=yaml_documents)
def test_dumped_documents_load_as_the_safe_loader_loads_them(doc):
    for flow in (False, True):
        text = yaml.safe_dump(doc, default_flow_style=flow)
        for loader in LOADERS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(programs, "_YAML_LOADER", loader)
                assert programs._read_yaml(text, "doc.yaml") == yaml.load(text, Loader=loader)


@pytest.mark.parametrize("name", programs.BUNDLED + ("synthetic",))
def test_every_yaml_loader_builds_the_same_program(name, monkeypatch):
    if name == "synthetic":
        text = SYNTHETIC_PROGRAM
    else:
        text = programs.bundled_path(name).read_text()
    loaded = []
    for loader in LOADERS:
        monkeypatch.setattr(programs, "_YAML_LOADER", loader)
        loaded.append(programs.loads(text))
    assert all(config == program_config(name) for config in loaded)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_malformed_yaml_is_a_parse_error_naming_the_source(loader, monkeypatch):
    """A syntax error reads ``path:line: problem``, as every other refusal
    does, with the parser's problem and not its ``"<unicode string>"``."""
    monkeypatch.setattr(programs, "_YAML_LOADER", loader)
    for text in ("name: [unclosed", "rows: {a: 1\n  b: 2", "a: b: c"):
        with pytest.raises(ProgramParseError, match=r"^broken.yaml:[12]: \w") as err:
            programs.loads(text, source="broken.yaml")
        assert "<unicode string>" not in str(err.value)
    for text, problem in (
        ("name: x\nrows: [a, b}\nc: 1\n", "expected ',' or ']'"),
        ("name: x\nrows: \x07\n", "unacceptable character #x0007: "),
    ):
        with pytest.raises(ProgramParseError, match=f"^broken.yaml:2: .*{re.escape(problem)}"):
            programs.loads(text, source="broken.yaml")


def test_synthetic_program_covers_the_unbundled_schema():
    config = programs.loads(SYNTHETIC_PROGRAM)
    narrow = config.field_by_name("ip_proto")
    assert narrow.width < 32 and narrow.name in config.lookup_scope
    assert dict(config.context_fallback[0].match) == {"ip_proto": (0x06, 0x0F)}
    assert config.context_fallback[0].registers == (1, 2, 3, 4)
    assert dict(config.rows[0].match) == {"tcp_flags": (0x02, 0x02)}
    assert config.rows[1].row_id is None
    assert config.flow_scratch == (("R4", 1),)


def test_classifier_tree_expands_after_the_explicit_rows():
    config = programs.bundled_program("c45_classifier")
    rows = config.transition_rows()
    assert rows[: len(config.rows)] == config.rows
    tree_rows = rows[len(config.rows) :]
    # leftmost (all-true) path first; C0 is the gate, C1..C3 the tree
    assert [(r.priority, r.next_state, r.cond) for r in tree_rows] == [
        (40, "WEB", (("C0", 1), ("C1", 1))),
        (41, "P2P", (("C0", 1), ("C1", 0), ("C2", 1), ("C3", 1))),
        (42, "WEB", (("C0", 1), ("C1", 0), ("C2", 1), ("C3", 0))),
        (43, "P2P", (("C0", 1), ("C1", 0), ("C2", 0))),
    ]
    assert all(r.state == "MEASURE" for r in tree_rows)
    assert tree_rows[0].action == "dscp:10:fwd:1"
    assert all(r.instructions == () and r.match == () for r in tree_rows)


@pytest.mark.parametrize(
    "text, canonical",
    [
        (" FWD:0x2 ", "fwd:2"),
        ("Dscp:0x3F:fwd:4", "dscp:63:fwd:4"),
        ("dscp:0:FWD:1", "dscp:0:fwd:1"),
        ("\tFlood", "flood"),
        ("DROP", "drop"),
    ],
)
def test_an_action_loads_as_its_canonical_text(text, canonical):
    doc = patched_doc("long_flow", ("rows", 0, "action"), text)
    config = programs.loads(yaml.safe_dump(doc))
    assert config.rows[0].action == canonical
    assert f"action: {canonical}" in programs.serialize(config)


def test_fallback_key_follows_the_lookup_scope_layout():
    # scope [ip_src/32, ip_proto/8]: the ip_proto fallback sits on the
    # second, narrower field of the key
    config = programs.loads(SYNTHETIC_PROGRAM)
    context = Engine(config).context

    def state_of(ip_src, ip_proto):
        h = [ip_src, ip_proto, 0, 0, 0, 0, 0, 0]
        return context.lookup_context(flow_key(config, config.lookup_scope, h))

    monitor, seen = config.states["MONITOR"], config.states["SEEN"]
    hit = state_of(0x01020304, 0x06)
    assert hit == (monitor, 1, 2, 3, 4, 0)
    assert state_of(0x01020304, 0x16)[0] == monitor  # only the low nibble
    assert state_of(0x01020304, 0x07)[0] == 0
    assert state_of(0x0A000001, 0x07)[0] == seen
    assert state_of(0x0B000001, 0x11)[0] == 0


def test_fallback_on_the_second_scope_field_steers_packets():
    doc = patched_doc(
        "long_flow",
        ("context_fallback",),
        [{"priority": 1, "state": "LONG", "match": {"ip_dst": 7}}],
    )
    config = programs.loads(yaml.safe_dump(doc))
    engine, bind = Engine(config), programs.make_binder(config)
    rows = [{"ts": 0, "ip_src": 1, "ip_dst": 7}, {"ts": 1, "ip_src": 1, "ip_dst": 8}]
    verdicts = engine.run_trace(bind(trace_row(row), i) for i, row in enumerate(rows))
    pre_state = VERDICT_COLUMNS.index("pre_state")
    assert [v[pre_state] for v in verdicts] == ["LONG", "DEFAULT"]


@pytest.mark.parametrize("case", sorted(GAP_CASES))
def test_loader_gaps_are_rejected_with_a_location(case):
    base, path, value, location = GAP_CASES[case]
    assert_rejected_at(patched_doc(base, path, value), location)


def test_fallback_registers_are_stored_as_given():
    doc = patched_doc(
        "long_flow",
        ("context_fallback",),
        [{"priority": 0, "state": "LONG", "match": {"ip_dst": 7},
          "registers": [0xFFFFFFFF, "0x10"]}],
    )
    config = programs.loads(yaml.safe_dump(doc))
    assert config.context_fallback[0].registers == (0xFFFFFFFF, 0x10, 0, 0)


L, C, M, B = "long_flow", "c45_classifier", "mac_learning", "load_balance"
# long_flow's two states and more, up to the state cap and one past it
STATES_AT_CAP = {"DEFAULT": 0, "LONG": 1, **{f"S{i}": i for i in range(2, programs.MAX_STATES)}}
STATES_OVER_CAP = {**STATES_AT_CAP, "S64": 64}
S = "synthetic"  # the only document with fallbacks: two of them
FIELD0 = ("fields", 0)
ROW0 = ("rows", 0)
BROKEN = [
    # (base, path, value, location)
    (L, ("name",), DELETE, "name"),
    (L, ("timestamp_unit",), "hours", "timestamp_unit"),
    (L, ("ports",), 0, "ports"),
    (L, ("fields",), {}, "fields"),
    (L, FIELD0, "ip_src", "fields[0]"),
    (L, FIELD0 + ("name",), DELETE, "fields[0]"),
    (L, ("fields", 1, "slot"), 0, "fields[1]"),
    (L, FIELD0 + ("width",), 40, "fields[0]"),
    (L, FIELD0 + ("source",), DELETE, "fields[0]"),
    (L, FIELD0 + ("mask",), 2**33, "fields[0]"),
    (L, ("lookup_scope",), ["ip_src", "nope"], "lookup_scope"),
    (L, ("update_scope",), [], "update_scope"),
    (L, ("states",), {"A": 1}, "states"),
    (L, ("states", "LONG"), 1 << 16, "states.LONG"),
    (L, ("globals",), {"G0": -1}, "globals.G0"),
    (L, ("globals",), {"G7": 1}, "globals"),
    (L, ("globals",), [3], "globals"),
    (L, ("flow_scratch",), {"R4": "G0"}, "flow_scratch.R4"),
    (C, ("flow_scratch",), {"R4": "H1"}, "flow_scratch.R4"),
    (L, ("conditions", 0, "op"), "NE", "conditions[0]"),
    (L, ("conditions", 0, "rhs"), "Q9", "conditions[0]"),
    (L, ("conditions",), [{"op": "GT", "lhs": "R0", "rhs": "G0"}] * 9, "conditions"),
    (L, ("match_fields",), ["nope"], "match_fields"),
    (L, ("match_fields",), "ip_src", "match_fields"),
    (L, ("rows",), [], "rows"),
    (L, ("rows", 1, "priority"), 20, "rows[1] (id=crossed)"),
    (L, ROW0 + ("priority",), DELETE, "rows[0] (id=count)"),
    (L, ROW0 + ("state",), "NOPE", "rows[0] (id=count)"),
    (L, ROW0 + ("next",), "NOPE", "rows[0] (id=count)"),
    (L, ROW0 + ("cond",), {"C9": 1}, "rows[0] (id=count)"),
    (L, ROW0 + ("cond",), {"C0": 2}, "rows[0] (id=count)"),
    (L, ROW0 + ("cond",), [1], "rows[0] (id=count)"),
    (L, ROW0 + ("match",), {"ip_src": 1}, "rows[0] (id=count)"),
    (L, ROW0 + ("action",), "fwd:9", "rows[0] (id=count)"),
    (L, ROW0 + ("action",), "teleport", "rows[0] (id=count)"),
    (L, ROW0 + ("update",), ["FOO R0"], "rows[0] (id=count).update[0]"),
    (L, ROW0 + ("update",), "ADDI R0 R0 1", "rows[0] (id=count)"),
    (L, ("rows", 3, "state"), "DEFAULT", "rows"),
    (L, ("context_fallback",), {}, "context_fallback"),
    (L, ("context_fallback",), [7], "context_fallback[0]"),
    (L, ("context_fallback",), [{"priority": 1, "state": "NOPE"}], "context_fallback[0]"),
    (
        L,
        ("context_fallback",),
        [{"priority": 1, "state": "LONG"}, {"priority": 1, "state": "LONG"}],
        "context_fallback[1]",
    ),
    (
        L,
        ("context_fallback",),
        [{"priority": 1, "state": "LONG", "match": {"nope": 1}}],
        "context_fallback[0]",
    ),
    (
        L,
        ("context_fallback",),
        [{"priority": 1, "state": "LONG", "registers": [0] * 5}],
        "context_fallback[0]",
    ),
    (C, ("classifier_tree",), [], "classifier_tree"),
    (C, ("classifier_tree", "gate"), "C9", "classifier_tree.gate"),
    (C, ("classifier_tree", "in_state"), "NOPE", "classifier_tree.in_state"),
    (C, ("classifier_tree", "base_priority"), -1, "classifier_tree.base_priority"),
    (C, ("classifier_tree", "base_priority"), 20, "classifier_tree"),
    (C, ("classifier_tree", "tree", "if_true", "class"), "NOPE", "classifier_tree.tree.if_true"),
    (C, ("classifier_tree", "tree", "if_false", "condition"), "C9", "classifier_tree.tree.if_false"),
    (C, ("classifier_tree", "tree", "if_false", "if_true"), 3, "classifier_tree.tree.if_false.if_true"),
    (L, ("table_sizes",), {"xfsm": 0}, "table_sizes.xfsm"),
    (L, ("table_sizes",), {"xfsm": 3}, "rows"),
    (L, ("table_sizes",), 5, "table_sizes"),
    (L, ("management_period",), -1, "management_period"),
    (L, ("management_period",), "soon", "management_period"),
    (L, ("bogus",), 1, "unknown top-level key 'bogus'"),
    # unknown keys inside sections
    (L, FIELD0 + ("sorce",), "ip_src", "fields[0]: unknown key 'sorce'"),
    (L, ("conditions", 0, "rsh"), "G0", "conditions[0]: unknown key 'rsh'"),
    (L, ROW0 + ("updates",), ["ADDI R0 R0 9"], "rows[0] (id=count): unknown key 'updates'"),
    (
        L,
        ("context_fallback",),
        [{"priority": 1, "state": "LONG", "register": [1]}],
        "context_fallback[0]: unknown key 'register'",
    ),
    (L, ("table_sizes",), {"xfms": 1}, "table_sizes: unknown key 'xfms'"),
    (C, ("classifier_tree", "gates"), "C0", "classifier_tree: unknown key 'gates'"),
    (
        C,
        ("classifier_tree", "tree", "if_true", "actoin"),
        "drop",
        "classifier_tree.tree.if_true: unknown key 'actoin'",
    ),
    (
        C,
        ("classifier_tree", "tree", "if_false", "cond"),
        "C1",
        "classifier_tree.tree.if_false: unknown key 'cond'",
    ),
    # match patterns wider than their field (mac_learning's in_port has 8
    # bits, load_balance's sport 16)
    (M, ROW0 + ("match",), {"in_port": 0x107}, "rows[0] (id=p1_unknown).match.in_port"),
    (M, ROW0 + ("match",), {"in_port": "0x1/0x1ff"}, "rows[0] (id=p1_unknown).match.in_port"),
    (M, ROW0 + ("match",), {"in_port": -1}, "rows[0] (id=p1_unknown).match.in_port"),
    (
        B,
        ("context_fallback",),
        [{"priority": 1, "state": "PATH1", "match": {"sport": 0x10000}}],
        "context_fallback[0].match.sport",
    ),
    (
        B,
        ("context_fallback",),
        [{"priority": 1, "state": "PATH1", "match": {"sport": "0x0/0x1ffff"}}],
        "context_fallback[0].match.sport",
    ),
    # the fallback capacity
    (L, ("table_sizes",), {"context_fallback": 0}, "table_sizes.context_fallback"),
    (S, ("table_sizes",), {"context_fallback": 1}, "context_fallback"),
    # the flow-context geometry cap: 2^22 contexts over all subtables
    (
        L,
        ("table_sizes",),
        {"context_subtables": 4, "context_buckets": 1 << 21},
        "table_sizes: context_subtables * context_buckets * bucket_depth = 8388608 exceeds",
    ),
    # the subtable cap: one 64-byte digest gives the buckets of 8 subtables
    (
        L,
        ("table_sizes",),
        {"context_subtables": 65536, "context_buckets": 1},
        "table_sizes.context_subtables: 65536 exceeds the cap of 8",
    ),
    # the raw-frame keys are gone, and every field names its trace column
    (L, ("max_parse_depth",), 256, "unknown top-level key 'max_parse_depth'"),
    (L, FIELD0 + ("offset",), 208, "fields[0]: unknown key 'offset'"),
    (L, FIELD0 + ("mask",), 0xFF, "fields[0]: unknown key 'mask'"),
    (S, FIELD0 + ("source",), DELETE, "fields[0]: source must name a trace column"),
    # the bucket depth cap: an insert scans the keys of its candidate buckets
    (
        L,
        ("table_sizes",),
        {"bucket_depth": 100000},
        "table_sizes.bucket_depth: 100000 exceeds the cap of 8",
    ),
    (L, ("table_sizes",), {"bucket_depth": 9}, "table_sizes.bucket_depth: 9 exceeds the cap"),
    (L, ("table_sizes",), {"context_subtables": 9}, "table_sizes.context_subtables: 9 exceeds"),
    # the caps that bound the engine's build: each state's dispatch holds
    # up to every row, and a miss scans the fallbacks
    (L, ("table_sizes",), {"xfsm": 513}, "table_sizes.xfsm: 513 exceeds the cap of 512"),
    (
        L,
        ("table_sizes",),
        {"context_fallback": 65},
        "table_sizes.context_fallback: 65 exceeds the cap of 64",
    ),
    (L, ("states",), STATES_OVER_CAP, "states: 65 states exceed the cap of 64"),
    # one context over the geometry cap
    (
        L,
        ("table_sizes",),
        {"context_subtables": 1, "context_buckets": (1 << 22) + 1},
        "table_sizes: context_subtables * context_buckets * bucket_depth = 4194305 "
        "exceeds the cap of 4194304 contexts",
    ),
]


@pytest.mark.parametrize(
    "base, path, value, location",
    BROKEN,
    ids=[f"{i:02d}-{case[3]}" for i, case in enumerate(BROKEN)],
)
def test_broken_programs_are_rejected_at_their_location(base, path, value, location):
    assert_rejected_at(patched_doc(base, path, value), location)


# (base, path, value, the one problem): each reader used to return a sentinel
# that a later check reported again, at times at another entry
ONE_PROBLEM = [
    (L, ("ports",), "abc", "ports: expected an integer, got 'abc'"),
    (L, FIELD0 + ("width",), "abc", "fields[0].width: expected an integer, got 'abc'"),
    (L, ("fields", 1, "slot"), "abc", "fields[1].slot: expected an integer, got 'abc'"),
    (L, ("table_sizes",), {"xfsm": "abc"}, "table_sizes.xfsm: expected an integer, got 'abc'"),
    (L, ("rows", 2, "priority"), "abc", "rows[2] (id=long).priority: expected an integer, got 'abc'"),
    (L, ("states", "DEFAULT"), "abc", "states.DEFAULT: expected an integer, got 'abc'"),
    (L, ("rows", 1, "action"), "dscp:64:fwd:1", "rows[1] (id=crossed).action.dscp: 64 outside 0..63"),
    (L, ("management_period",), None, "management_period: expected an integer, got nothing"),
    (L, ("globals", "G0"), True, "globals.G0: expected an integer, got True"),
    # a section that fails to read is absent to the checks against it: the
    # rows that match on in_port do not each report it unlisted
    (M, ("match_fields",), "abc", "match_fields: expected a list"),
]


@pytest.mark.parametrize(
    "base, path, value, problem", ONE_PROBLEM, ids=[case[3].split(":")[0] for case in ONE_PROBLEM]
)
def test_a_bad_value_is_one_problem_at_its_key(base, path, value, problem):
    assert problems_of(patched_doc(base, path, value)) == [problem]


def test_a_bad_match_pattern_is_one_problem():
    doc = patched_doc(L, ("match_fields",), ["ip_src"])
    for pattern, problem in (
        ("abc/def", "expected an integer, got 'abc'"),
        ("0x1/0x1ffffffff", "8589934591 outside 0..4294967295"),
        ([[1]], "expected an integer, got a list"),
    ):
        doc["rows"][0]["match"] = {"ip_src": pattern}
        assert problems_of(doc) == [f"rows[0] (id=count).match.ip_src: {problem}"]


@pytest.mark.parametrize(
    "value, shown",
    [
        ("ab", "'ab'"),
        ("x" * 40, repr("x" * 40)),
        ("x" * 41, repr("x" * 40) + "... (41 characters)"),
        (-7, "-7"),
        (1 << 200, str(1 << 200)[:40] + "... (61 characters)"),
        (16**4000, "0x1" + "0" * 37 + "... (4003 characters)"),
        (True, "True"),
        (None, "None"),
        (2.5, "2.5"),
        ({"a": [1]}, "a mapping"),
        ([[[]]], "a list"),
    ],
    ids=["short-str", "40-char-str", "41-char-str", "int", "long-int", "huge-int", "bool", "none", "float",
         "mapping", "list"],
)
def test_echo_quotes_any_value_in_bounded_form(value, shown):
    assert programs.echo(value) == shown


def scope_doc(widths):
    """long_flow with one field per width on slots 0, 1, ..., all of them
    in the lookup scope."""
    names = [f"f{slot}" for slot in range(len(widths))]
    doc = patched_doc(L, ("lookup_scope",), names)
    doc["update_scope"] = names
    doc["fields"] = [
        {"name": name, "slot": slot, "width": width, "source": name}
        for slot, (name, width) in enumerate(zip(names, widths))
    ]
    return doc


def test_empty_scope_rejected():
    for key in ("lookup_scope", "update_scope"):
        problems = problems_of(patched_doc(L, (key,), []))
        assert f"{key}: expected a non-empty list" in problems


def test_scope_width_bound():
    """A flow key holds 128 bits: four 32-bit fields fit, five do not."""
    config = programs.loads(yaml.safe_dump(scope_doc([32] * 4)))
    assert len(config.lookup_scope) == 4
    problems = problems_of(scope_doc([32] * 5))
    assert "lookup_scope: widths sum to 160 > 128 bits" in problems
    assert "update_scope: widths sum to 160 > 128 bits" in problems


MAC_ROW = {"ts": 0, "in_port": 255, "eth_src": 0xFFFFFFFF, "eth_dst": 0}


def test_binder_accepts_values_up_to_the_field_width():
    bind = programs.make_binder(programs.bundled_program("mac_learning"))
    h, ts = bind(trace_row(MAC_ROW), 0)
    assert (h[:2], h[7], ts) == ([0xFFFFFFFF, 0], 255, 0)


@pytest.mark.parametrize(
    "column, value, width", [("eth_src", -1, 32), ("eth_dst", 1 << 32, 32), ("in_port", 300, 8)]
)
def test_binder_rejects_column_values_outside_the_field(column, value, width):
    bind = programs.make_binder(programs.bundled_program("mac_learning"))
    message = f"packet 3: column {column!r} value {value} does not fit in {width} bits"
    with pytest.raises(BindError, match=message):
        bind(trace_row({**MAC_ROW, column: value}), 3)


def test_binder_rejects_a_timestamp_wider_than_its_field():
    bind = programs.make_binder(programs.bundled_program("c45_classifier"))
    row = {"ts": 2**33 + 5, "ip_src": 1, "ip_dst": 2, "pkt_len": 60}
    with pytest.raises(BindError, match="packet 7: column 'ts' value 8589934597"):
        bind(trace_row(row), 7)
    assert bind(trace_row({**row, "ts": 2**32 - 1}), 7)[0][6] == 2**32 - 1


def test_binder_rejects_a_row_without_a_bound_metadata_column():
    bind = programs.make_binder(programs.bundled_program("c45_classifier"))
    row = {"ts": 5, "ip_src": 1, "ip_dst": 2, "pkt_len": 60}
    assert bind(trace_row(row), 4)[0][5] == 60
    del row["pkt_len"]
    with pytest.raises(BindError, match="packet 4: missing column 'pkt_len'"):
        bind(trace_row(row), 4)


def test_binder_rejects_a_row_without_ts():
    # long_flow binds no ts field; the record's timestamp still needs it
    bind = programs.make_binder(programs.bundled_program("long_flow"))
    assert bind(trace_row({"ts": 9, "ip_src": 1, "ip_dst": 2}), 0)[1] == 9
    with pytest.raises(BindError, match="packet 0: missing column 'ts'"):
        bind(trace_row({"ip_src": 1, "ip_dst": 2}), 0)


COLUMNS = ("a", "b", "c", "d", "ts")
# columns no field reads
EXTRA = ("x", "y")


@st.composite
def binder_cases(draw):
    """(fields, rows): up to eight fields on distinct slots, with widths
    past the loader's 32 bits, reading columns that may repeat and may be
    ``ts``; and one to four ``((columns, values), seq)`` rows for one
    binder. Each row's header is a new permutation of the columns and two
    extra ones, some left out, or the previous row's header object; each
    value is negative, at its field's maximum, one past it, or anything."""
    slots = draw(st.lists(st.integers(0, 7), unique=True, max_size=8))
    fields = [
        programs.FieldDef(f"f{slot}", slot, draw(st.integers(1, 48)), draw(st.sampled_from(COLUMNS)))
        for slot in slots
    ]
    widths = {f.source: f.width for f in fields}
    rows = []
    columns = None
    for _ in range(draw(st.integers(1, 4))):
        if columns is None or draw(st.booleans()):
            missing = draw(st.lists(st.sampled_from(COLUMNS + EXTRA), unique=True, max_size=2))
            order = draw(st.permutations(COLUMNS + EXTRA))
            columns = tuple(column for column in order if column not in missing)
        values = []
        for column in columns:
            width = widths.get(column, 32)
            values.append(
                draw(
                    st.one_of(
                        st.integers(-(2**50), -1),
                        st.sampled_from([0, (1 << width) - 1, 1 << width]),
                        st.integers(0, 2**50),
                    )
                )
            )
        rows.append(((columns, tuple(values)), draw(st.integers(0, 2**40))))
    return fields, rows


def bound(bind, *args):
    try:
        return bind(*args)
    except BindError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(binder_cases())
def test_generated_binder_equals_the_field_loop(case):
    """The generated binder returns the loop's record, or raises its error:
    the first failing field in field order, then a missing ts. One binder
    binds rows whose headers change, so positions found for one header
    are never used for another."""
    fields, rows = case
    config = dataclasses.replace(programs.bundled_program("long_flow"), fields=tuple(fields))
    bind = programs.make_binder(config)
    for row, seq in rows:
        assert bound(bind, row, seq) == bound(reference_bind, config, row, seq)


def test_one_binder_binds_two_traces_in_turn(tmp_path):
    """Rows of two traces whose columns come in different orders, bound
    alternately by one binder: each row is bound by its own header."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_text("ts,ip_src,ip_dst\n" + "".join(f"{t},{t + 1},{t + 2}\n" for t in range(4)))
    second.write_text("ip_dst,x,ts,ip_src\n" + "".join(f"{t + 9},7,{t},{t + 8}\n" for t in range(4)))
    config = programs.bundled_program("long_flow")
    bind = programs.make_binder(config)
    rows = [row for pair in zip(read_trace(first), read_trace(second)) for row in pair]
    records = [bind(row, seq) for seq, row in enumerate(rows)]
    assert records == [reference_bind(config, row, seq) for seq, row in enumerate(rows)]
    assert records[:4] == [([1, 2, 0, 0, 0, 0, 0, 0], 0), ([8, 9, 0, 0, 0, 0, 0, 0], 0),
                           ([2, 3, 0, 0, 0, 0, 0, 0], 1), ([9, 10, 0, 0, 0, 0, 0, 0], 1)]


def test_context_geometry_at_the_cap_loads():
    sizes = {"context_subtables": 4, "context_buckets": 1 << 20}
    config = programs.loads(yaml.safe_dump(patched_doc(L, ("table_sizes",), sizes)))
    assert config.table_sizes.context_buckets == 1 << 20
    sizes = {"context_subtables": programs.MAX_CONTEXT_SUBTABLES}
    config = programs.loads(yaml.safe_dump(patched_doc(L, ("table_sizes",), sizes)))
    assert config.table_sizes.context_subtables == 8
    sizes = {"bucket_depth": programs.MAX_BUCKET_DEPTH}
    config = programs.loads(yaml.safe_dump(patched_doc(L, ("table_sizes",), sizes)))
    assert config.table_sizes.bucket_depth == 8
    # the caps that bound the engine's build
    sizes = {"xfsm": programs.MAX_XFSM_ROWS, "context_fallback": programs.MAX_CONTEXT_FALLBACK}
    config = programs.loads(yaml.safe_dump(patched_doc(L, ("table_sizes",), sizes)))
    assert (config.table_sizes.xfsm, config.table_sizes.context_fallback) == (512, 64)
    config = programs.loads(yaml.safe_dump(patched_doc(L, ("states",), STATES_AT_CAP)))
    assert len(Engine(config).dispatch) == len(config.states) == 64


def test_a_classifier_tree_at_the_depth_cap_round_trips():
    config = programs.loads(deep_tree_program(programs.MAX_TREE_DEPTH))
    assert len(config.classifier_tree.rows()) == programs.MAX_TREE_DEPTH + 1
    assert programs.loads(programs.serialize(config)) == config


def test_a_classifier_tree_480_levels_deep_is_a_located_error():
    """Such a tree used to load, and then serializing it raised
    RecursionError, so load(serialize(c)) == c failed."""
    with pytest.raises(programs.ProgramValidationError) as err:
        programs.loads(deep_tree_program(480), "deep.yaml")
    assert err.value.problems == [
        "deep.yaml: classifier_tree.tree: a path holds more than 256 conditions"
    ]


def test_yaml_nesting_past_the_cap_is_refused_before_composing():
    """A tree chain of n conditions nests n + 3 collections: the document,
    classifier_tree, the chain and the last leaf. At the cap the tree
    depth check refuses it; one level more is a parse error on its line."""
    at_cap = programs.MAX_YAML_NESTING - 3
    with pytest.raises(ProgramValidationError):
        programs.loads(deep_tree_program(at_cap), "deep.yaml")
    text = deep_tree_program(at_cap + 1)
    line = text.count("\n", 0, text.index("  tree: ")) + 1
    with pytest.raises(ProgramParseError) as err:
        programs.loads(text, "deep.yaml")
    assert str(err.value) == f"deep.yaml:{line}: collections nested more than 2048 levels deep"
