"""Program loader: round trip, rejection locations, tree expansion, fallbacks."""

import pytest
import yaml

from flowfsm import programs
from flowfsm.engine import VERDICT_COLUMNS, Action, ActionKind, Engine
from flowfsm.programs import BindError, ProgramParseError, ProgramValidationError

from helpers import (
    DELETE,
    GAP_CASES,
    SYNTHETIC_PROGRAM,
    flow_key,
    patched_doc,
    program_config,
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
    monkeypatch.setattr(programs, "_YAML_LOADER", loader)
    for text in ("name: [unclosed", "rows: {a: 1\n  b: 2", "a: b: c"):
        with pytest.raises(ProgramParseError, match="^broken.yaml: "):
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
    assert tree_rows[0].action == Action(ActionKind.SET_DSCP, port=1, dscp=10)
    assert all(r.instructions == () and r.match == () for r in tree_rows)


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
    assert (hit.state, hit.r) == (monitor, [1, 2, 3, 4, 0])
    assert state_of(0x01020304, 0x16).state == monitor  # only the low nibble
    assert state_of(0x01020304, 0x07).state == 0
    assert state_of(0x0A000001, 0x07).state == seen
    assert state_of(0x0B000001, 0x11).state == 0


def test_fallback_on_the_second_scope_field_steers_packets():
    doc = patched_doc(
        "long_flow",
        ("context_fallback",),
        [{"priority": 1, "state": "LONG", "match": {"ip_dst": 7}}],
    )
    config = programs.loads(yaml.safe_dump(doc))
    engine, bind = Engine(config), programs.make_binder(config)
    rows = [{"ts": 0, "ip_src": 1, "ip_dst": 7}, {"ts": 1, "ip_src": 1, "ip_dst": 8}]
    verdicts = engine.run_trace(bind(row, i) for i, row in enumerate(rows))
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
    # the flow-context geometry cap: 2^22 buckets over all subtables
    (
        L,
        ("table_sizes",),
        {"context_subtables": 4, "context_buckets": 1 << 21},
        "table_sizes: context_subtables * context_buckets = 8388608 exceeds",
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
]


@pytest.mark.parametrize(
    "base, path, value, location",
    BROKEN,
    ids=[f"{i:02d}-{case[3]}" for i, case in enumerate(BROKEN)],
)
def test_broken_programs_are_rejected_at_their_location(base, path, value, location):
    assert_rejected_at(patched_doc(base, path, value), location)


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
    h, ts = bind(MAC_ROW, 0)
    assert (h[:2], h[7], ts) == ([0xFFFFFFFF, 0], 255, 0)


@pytest.mark.parametrize(
    "column, value, width", [("eth_src", -1, 32), ("eth_dst", 1 << 32, 32), ("in_port", 300, 8)]
)
def test_binder_rejects_column_values_outside_the_field(column, value, width):
    bind = programs.make_binder(programs.bundled_program("mac_learning"))
    message = f"trace row 3: column {column!r} value {value} does not fit in {width} bits"
    with pytest.raises(BindError, match=message):
        bind({**MAC_ROW, column: value}, 3)


def test_binder_rejects_a_timestamp_wider_than_its_field():
    bind = programs.make_binder(programs.bundled_program("c45_classifier"))
    row = {"ts": 2**33 + 5, "ip_src": 1, "ip_dst": 2, "pkt_len": 60}
    with pytest.raises(BindError, match="trace row 7: column 'ts' value 8589934597"):
        bind(row, 7)
    assert bind({**row, "ts": 2**32 - 1}, 7)[0][6] == 2**32 - 1


def test_binder_rejects_a_row_without_a_bound_metadata_column():
    bind = programs.make_binder(programs.bundled_program("c45_classifier"))
    row = {"ts": 5, "ip_src": 1, "ip_dst": 2, "pkt_len": 60}
    assert bind(row, 4)[0][5] == 60
    del row["pkt_len"]
    with pytest.raises(BindError, match="trace row 4: missing column 'pkt_len'"):
        bind(row, 4)


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

