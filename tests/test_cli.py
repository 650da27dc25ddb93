import argparse
import os
import re
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from flowfsm import programs
from flowfsm.engine import VERDICT_COLUMNS
from flowfsm.flow_context import FlowContextTable
from flowfsm.harness import cli

from helpers import GAP_CASES, deep_tree_program, patched_doc


def test_the_docstring_lists_every_verb_in_order():
    """The verbs the module docstring lists are the parser's subcommands,
    in order, so a deleted verb cannot stay documented."""
    verbs = cli.__doc__.split("Verbs:\n", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^    (\S+)  ", verbs, re.MULTILINE)
    (sub,) = (
        action for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert listed == list(sub.choices)


@pytest.mark.parametrize("name", programs.BUNDLED)
def test_validate_accepts_bundled_programs(name, capsys):
    assert cli.main(["validate", "--program", str(programs.bundled_path(name))]) == 0
    assert f"program:       {name}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, line",
    [
        ("c45_classifier", "rows:          9 (incl. tree expansion)"),
        ("long_flow", "partitionable: yes"),
        ("mac_learning", "partitionable: no"),
        # the default geometry, at flow_context.context_bytes a context
        ("token_bucket", "context store: up to 4096 contexts (4 x 1024 x 1), <= 2.4 MB"),
        ("c45_classifier", "context store: up to 4096 contexts (4 x 1024 x 1), <= 2.6 MB"),
    ],
)
def test_validate_reports_the_program_shape(name, line, capsys):
    assert cli.main(["validate", "--program", str(programs.bundled_path(name))]) == 0
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("case", sorted(GAP_CASES))
def test_validate_rejects_loader_gaps(case, tmp_path, capsys):
    base, path, value, location = GAP_CASES[case]
    program = tmp_path / f"{case}.yaml"
    program.write_text(yaml.safe_dump(patched_doc(base, path, value)))
    assert cli.main(["validate", "--program", str(program)]) == cli.EXIT_VALIDATION
    assert f"{program}: {location}" in capsys.readouterr().err


@pytest.mark.parametrize("window", [-1, -5])
def test_run_rejects_a_negative_hazard_window(window, tmp_path, capsys):
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,in_port,eth_src,eth_dst\n0,1,0xa,0xb\n")
    out = tmp_path / "verdicts.csv"
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace),
            "--out", str(out), "--hazard-window", str(window)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"validation error: hazard window {window} is negative" in err
    assert not out.exists()


def test_run_rejects_a_trace_value_wider_than_its_field(tmp_path, capsys):
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,in_port,eth_src,eth_dst\n0,1,0xa,0xb\n1,300,0xb,0xa\n")
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace)]
    assert cli.main(argv) == cli.EXIT_VALIDATION == 4
    err = capsys.readouterr().err
    assert "validation error: packet 1: column 'in_port' value 300 does not fit in 8 bits" in err


@pytest.mark.parametrize(
    "cell, code, error",
    [
        # past the int-from-str digit limit: the reader rejects it
        ("9" * 5000, 3, "'" + "9" * 40 + "'... (5000 characters) has more than 4300 digits"),
        # a hex cell reads at any length; the binder rejects its value
        ("0x" + "f" * 4000, 4, "value 0x" + "f" * 38 + "... (4002 characters) does not fit"),
        ("9" * 3000, 4, "value " + "9" * 40 + "... (3000 characters) does not fit"),
    ],
    ids=["decimal-5000", "hex-4000", "decimal-3000"],
)
def test_run_quotes_a_long_trace_cell_in_part(cell, code, error, tmp_path, capsys):
    trace = tmp_path / "mac.csv"
    trace.write_text(f"ts,in_port,eth_src,eth_dst\n0,1,0xa,0xb\n1,1,{cell},0xa\n")
    program = programs.bundled_path("mac_learning")
    assert cli.main(["run", "--program", str(program), "--trace", str(trace)]) == code
    err = capsys.readouterr().err
    assert error in err and len(err) < 200


def test_run_rejects_a_trace_without_a_bound_metadata_column(tmp_path, capsys):
    # mac_learning binds in_port; a trace without that column used to read 0
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,eth_src,eth_dst\n0,0xa,0xb\n1,0xb,0xa\n")
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "validation error: packet 0: missing column 'in_port'" in capsys.readouterr().err


def test_run_rejects_a_trace_without_a_ts_column(tmp_path, capsys):
    # the binder owns ts like any other column; a header alone is 0 packets
    trace = tmp_path / "mac.csv"
    trace.write_text("in_port,eth_src,eth_dst\n1,0xa,0xb\n")
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == "validation error: packet 0: missing column 'ts'\n"
    trace.write_text("in_port,eth_src,eth_dst\n")
    assert cli.main(argv) == cli.EXIT_OK
    assert "mac_learning: 0 packets" in capsys.readouterr().err


@pytest.mark.parametrize("earlier", [None, "seq,ts\n0,1\n"], ids=["no-out", "old-out"])
def test_a_failed_run_leaves_no_partial_verdict_file(earlier, tmp_path, capsys):
    # the time-order error comes after more than one write batch of verdicts
    rows = [f"{ts},1,0xa,0xb" for ts in range(1499)] + ["3,1,0xa,0xb"]
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,in_port,eth_src,eth_dst\n" + "\n".join(rows) + "\n")
    out = tmp_path / "verdicts.csv"
    if earlier is not None:
        out.write_text(earlier)
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "validation error: packet 1499: timestamp 3 after 1498\n"
    if earlier is None:
        assert not out.exists()
    else:
        assert out.read_text() == earlier
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["mac.csv"] + (["verdicts.csv"] if earlier else [])
    )


def _mac_run(tmp_path, out):
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,in_port,eth_src,eth_dst\n0,1,0xa,0xb\n1,2,0xb,0xa\n")
    program = programs.bundled_path("mac_learning")
    return cli.main(["run", "--program", str(program), "--trace", str(trace), "--out", str(out)])


def test_run_writes_through_a_symlinked_out(tmp_path, capsys):
    (tmp_path / "kept").mkdir()
    real = tmp_path / "kept" / "verdicts.csv"
    real.write_text("old\n")
    real.chmod(0o640)
    link = tmp_path / "out.csv"
    link.symlink_to(real)
    assert _mac_run(tmp_path, link) == cli.EXIT_OK
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text().splitlines()[0] == ",".join(VERDICT_COLUMNS)
    assert len(real.read_text().splitlines()) == 3
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in real.parent.iterdir()) == ["verdicts.csv"]


def test_run_writes_a_fifo_out_in_place(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    assert _mac_run(tmp_path, plain) == cli.EXIT_OK
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # a reader is open before the run, so the run's open does not block; the
    # three verdict lines fit in the pipe buffer
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert _mac_run(tmp_path, fifo) == cli.EXIT_OK
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert received == plain.read_bytes()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mac.csv", "out.fifo", "plain.csv"]


def test_run_gives_a_new_out_the_mode_the_umask_leaves(tmp_path):
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,in_port,eth_src,eth_dst\n0,1,0xa,0xb\n")
    out = tmp_path / "verdicts.csv"
    src = Path(programs.__file__).parents[1]
    argv = [sys.executable, "-m", "flowfsm.harness.cli", "run", "--program",
            str(programs.bundled_path("mac_learning")), "--trace", str(trace), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(argv, env=env, umask=0o027, capture_output=True, text=True)
    assert done.returncode == cli.EXIT_OK, done.stderr
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mac.csv", "verdicts.csv"]


def test_gen_trace_rejects_an_unknown_parameter(tmp_path, capsys):
    # flow=2 used to be ignored: poisson_flows wrote its default 8 flows
    out = tmp_path / "trace.csv"
    argv = ["gen-trace", "--kind", "poisson_flows", "--out", str(out), "--param", "flow=2"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "validation error: unknown poisson_flows parameter 'flow' "
        "(have flows, rate_pps, duration_s, ports)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "row, error",
    [
        ("1,2,0xb", ":3: 3 cells, header has 4"),
        ("1,2,0xb,0xa,7", ":3: 5 cells, header has 4"),
        ("1,,0xb,0xa", ":3 column 'in_port': '' is not an integer"),
    ],
    ids=["short", "long", "empty"],
)
def test_run_rejects_a_ragged_row_or_an_empty_cell(row, error, tmp_path, capsys):
    trace = tmp_path / "mac.csv"
    trace.write_text(f"ts,in_port,eth_src,eth_dst\n0,1,0xa,0xb\n{row}\n")
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace)]
    assert cli.main(argv) == cli.EXIT_PARSE == 3
    assert f"parse error: {trace}{error}" in capsys.readouterr().err


def test_run_rejects_a_trace_that_names_a_column_twice(tmp_path, capsys):
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,in_port,eth_src,eth_dst,in_port\n0,1,0xa,0xb,2\n")
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace)]
    assert cli.main(argv) == cli.EXIT_PARSE
    assert f"parse error: {trace}: column 'in_port' appears twice" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "name, line",
    [
        ("long_flow", "unreached:     3 (default)"),
        ("load_balance", "unreached:     5 (default)"),
        ("port_scan", "unreached:     8 (default)"),
        ("c45_classifier", "unreached:     4 (default)"),
        ("token_bucket", "unreached:     6 (default)"),
        # the one program whose catch-all some (state, bits) pair selects
        ("mac_learning", "unreached:     none"),
    ],
)
def test_validate_reports_the_rows_no_dispatch_entry_reaches(name, line, capsys):
    assert cli.main(["validate", "--program", str(programs.bundled_path(name))]) == 0
    assert line in capsys.readouterr().out.splitlines()


def poisson_trace(tmp_path):
    """A small poisson_flows trace from ``gen-trace``, as bytes."""
    trace = tmp_path / "trace.csv"
    argv = ["gen-trace", "--kind", "poisson_flows", "--out", str(trace),
            "--param", "flows=3", "--param", "duration_s=1"]
    assert cli.main(argv) == cli.EXIT_OK
    return trace, trace.read_bytes()


def test_run_names_the_row_of_a_trace_byte_that_is_not_utf8(tmp_path, capsys):
    trace, data = poisson_trace(tmp_path)
    lines = data.split(b"\n")
    # the last cell of the fourth row, the file's line 5
    lines[4] = lines[4][:-1] + b"\xff"
    trace.write_bytes(b"\n".join(lines))
    argv = ["run", "--program", str(programs.bundled_path("long_flow")), "--trace", str(trace)]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        f"parse error: {trace}:5 column 'dscp': byte 0xff is not UTF-8\n"
    )


def test_a_byte_order_mark_before_the_trace_header_is_skipped(tmp_path, capsys):
    trace, data = poisson_trace(tmp_path)
    program = str(programs.bundled_path("long_flow"))
    outputs = []
    for text in (data, b"\xef\xbb\xbf" + data):
        trace.write_bytes(text)
        out, stats = tmp_path / "verdicts.csv", tmp_path / "stats.json"
        argv = ["run", "--program", program, "--trace", str(trace),
                "--out", str(out), "--stats", str(stats)]
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append((out.read_bytes(), stats.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("verb", ["validate", "run"])
def test_a_program_byte_that_is_not_utf8_is_a_parse_error_naming_the_file(
    verb, tmp_path, capsys
):
    program = tmp_path / "long_flow.yaml"
    text = programs.bundled_path("long_flow").read_bytes()
    program.write_bytes(text.replace(b"name: long_flow", b"name: long_\xffflow"))
    line = text[: text.index(b"name: long_flow")].count(b"\n") + 1
    trace = tmp_path / "trace.csv"
    trace.write_text("ts,ip_src,ip_dst\n0,1,2\n")
    argv = [verb, "--program", str(program)] + (["--trace", str(trace)] if verb == "run" else [])
    assert cli.main(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err == f"parse error: {program}:{line}: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--param", "flows"], "--param needs KEY=VALUE, got 'flows'"),
        (["--param", "flows=x"], "--param 'flows': 'x' is not an integer"),
    ],
    ids=["no-equals", "not-an-integer"],
)
def test_gen_trace_rejects_a_malformed_parameter(argv, error, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    argv = ["gen-trace", "--kind", "poisson_flows", "--out", str(out), *argv]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "param",
    ["flows=" + "x" * 100_000, "y" * 100_000 + "=1", "y" * 100_000 + "=x", "y" * 100_000],
    ids=["long-value", "long-key", "long-key-bad-value", "long-item"],
)
def test_gen_trace_quotes_a_long_parameter_in_part(param, tmp_path, capsys):
    """A long key or value is quoted by its first characters and its
    length, whichever message names it."""
    out = tmp_path / "trace.csv"
    argv = ["gen-trace", "--kind", "poisson_flows", "--out", str(out), "--param", param]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "(100000 characters)" in err
    assert len(err) < 200
    assert not out.exists()


@pytest.mark.parametrize(
    "param, error",
    [
        # ZeroDivisionError in expovariate, and i % ports, exited 1
        ("rate_pps=0", "poisson_flows parameter 'rate_pps': 0 is below 1"),
        ("ports=0", "poisson_flows parameter 'ports': 0 is below 1"),
    ],
    ids=["rate_pps-0", "ports-0"],
)
def test_gen_trace_refuses_a_parameter_out_of_range(param, error, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    argv = ["gen-trace", "--kind", "poisson_flows", "--out", str(out), "--param", param]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == f"validation error: {error}\n"
    assert not out.exists()


def test_a_value_error_inside_the_step_is_a_defect_not_a_validation_error(
    tmp_path, monkeypatch
):
    """Only the typed errors of bad input exit 4; a ValueError the step
    raises is a defect in the program, and it propagates as one."""

    def broken(self, key):
        raise ValueError("a defect in the step")

    monkeypatch.setattr(FlowContextTable, "lookup_context", broken)
    trace = tmp_path / "trace.csv"
    trace.write_text("ts,ip_src,ip_dst\n0,1,2\n")
    argv = ["run", "--program", str(programs.bundled_path("long_flow")), "--trace", str(trace)]
    with pytest.raises(ValueError, match="a defect in the step"):
        cli.main(argv)


def test_validate_refuses_a_classifier_tree_1200_levels_deep(tmp_path, capsys):
    """Such a tree used to exit 1 with a RecursionError traceback."""
    program = tmp_path / "deep.yaml"
    program.write_text(deep_tree_program(1200))
    assert cli.main(["validate", "--program", str(program)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{program}: classifier_tree.tree: a path holds more than 256 conditions" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("style", ["flow", "block"])
def test_validate_refuses_yaml_nested_100000_levels_deep(style, tmp_path):
    """libyaml's composer recurses per level on the C stack: such a file
    used to kill the interpreter with SIGSEGV, in flow style (a classifier
    tree chain) and in block style (nested sequences). It runs in a
    subprocess, so that a crash fails this test only."""
    program = tmp_path / "deep.yaml"
    if style == "flow":
        text = deep_tree_program(100_000)
        line = text.count("\n", 0, text.index("  tree: ")) + 1
    else:
        text, line = "name: deep\nfields:\n" + "- " * 100_000 + "1\n", 3
    program.write_text(text)
    argv = [sys.executable, "-m", "flowfsm.harness.cli", "validate", "--program", str(program)]
    env = {**os.environ, "PYTHONPATH": str(Path(programs.__file__).parents[1])}
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == cli.EXIT_PARSE, done.stderr
    assert done.stderr == (
        f"parse error: {program}:{line}: collections nested more than 2048 levels deep\n"
    )


LONG_FLOW = programs.bundled_path("long_flow").read_text()
# long_flow with one edit (old text, new text), and the text that starts
# the line the parse error names
YAML_DEFECTS = {
    "int_tag": ("ports: 4", "ports: !!int abc", "ports:"),
    "bool_tag": ("ports: 4", "ports: !!bool maybe", "ports:"),
    "float_tag": ("ports: 4", "ports: !!float x", "ports:"),
    "5000_digits": ("ports: 4", "ports: 1" + "0" * 4999, "ports:"),
    "duplicated_key": (
        "management_period:",
        "rows: [{id: dropped, priority: 9, action: drop}]\nmanagement_period:",
        "rows:\n  - id: count",
    ),
    "second_document": ('action: "none"', 'action: "none"\n---\nname: other', "---"),
    "undefined_alias": ("ports: 4", "ports: *nowhere", "ports:"),
    "recursive_alias": ("ports: 4", "ports: &p [1, *p]", "ports:"),
    "collection_key": ("ports: 4", "ports: 4\n? [a, b]\n: 1", "? [a, b]"),
    "set_value": ("ports: 4", "ports: !!set {1, 2}", "ports:"),
}


@pytest.mark.parametrize("case", sorted(YAML_DEFECTS))
def test_validate_refuses_yaml_outside_the_program_subset(case, tmp_path, capsys):
    """Each used to exit 0 or 4 with a wrong program, or 1 with a traceback."""
    old, new, at = YAML_DEFECTS[case]
    text = LONG_FLOW.replace(old, new, 1)
    line = text.count("\n", 0, text.index(at)) + 1
    program = tmp_path / f"{case}.yaml"
    program.write_text(text)
    assert cli.main(["validate", "--program", str(program)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: {program}:{line}: ")
    assert "Traceback" not in err


def test_validate_refuses_an_alias_bomb_within_a_second(tmp_path):
    """A list doubled 40 times by aliases, in 2 KB, stands for 2^40 nodes.
    Doubled 20 times it used to take 1.3 s and a 15 MB error message, and
    each level doubled both; it runs in a subprocess with a timeout."""
    levels = "".join(f", &b{i} [*b{i - 1}, *b{i - 1}]" for i in range(1, 41))
    text = LONG_FLOW.replace("ports: 4", "ports: *b40").replace(
        "description: ", f"description: [&b0 [x, x]{levels}] # ", 1
    )
    line = text.count("\n", 0, text.index("description:")) + 1
    program = tmp_path / "bomb.yaml"
    program.write_text(text)
    argv = [sys.executable, "-m", "flowfsm.harness.cli", "validate", "--program", str(program)]
    env = {**os.environ, "PYTHONPATH": str(Path(programs.__file__).parents[1])}
    started = time.monotonic()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10)
    assert time.monotonic() - started < 1
    assert done.returncode == cli.EXIT_PARSE, done.stderr
    assert done.stderr == (
        f"parse error: {program}:{line}: more than 262144 nodes, aliases expanded\n"
    )


HUGE = "0x" + "F" * 4000  # past the int-to-str digit limit in decimal
DEEP = "[" * 1500 + "]" * 1500  # past Python's recursion limit for repr
SHOWN = "0x" + "f" * 38 + "... (4002 characters)"
# long_flow with edits (old text, new text), and the message that follows
# "{program}: " (exit 4) or "{program}:" (exit 3, a YAML-level refusal)
BAD_VALUES = {
    "huge-ports": ([("ports: 4", f"ports: {HUGE}")], f"ports: {SHOWN} outside 1..63"),
    "huge-row-id": ([("id: count", f"id: {HUGE}")], f"rows[0].id: expected a name, got {SHOWN}"),
    "huge-next": (
        [("next: DEFAULT", f"next: {HUGE}")],
        f"rows[0] (id=count).next: expected a name, got {SHOWN}",
    ),
    "huge-fwd-port": (
        [('action: "fwd:1"', f'action: "fwd:{HUGE}"')],
        f"rows[0] (id=count).action.port: {SHOWN} outside 1..4",
    ),
    "huge-priority-twice": (
        [("priority: 20", f"priority: {HUGE}"), ("priority: 21", f"priority: {HUGE}")],
        f"rows[1] (id=crossed): duplicate priority {SHOWN}",
    ),
    "huge-op": ([("op: GT", f"op: {HUGE}")], f"conditions[0].op: expected a name, got {SHOWN}"),
    "huge-width": (
        [("slot: 0, width: 32", f"slot: 0, width: {HUGE}")],
        f"fields[0].width: {SHOWN} outside 1..32",
    ),
    "huge-state-code": ([("LONG: 1}", f"LONG: {HUGE}}}")], f"states.LONG: {SHOWN} outside 0..65535"),
    "huge-state-label": (
        [("LONG: 1}", f"LONG: 1, ? {HUGE} : 2}}")],
        f"states: expected a name, got {SHOWN}",
    ),
    "huge-repeated-key": (
        [("management_period:", f"? {HUGE}\n: 1\n? {HUGE}\n: 2\nmanagement_period:")],
        f"22: mapping key {SHOWN} is given twice",
    ),
    "deep-ports": ([("ports: 4", f"ports: {DEEP}")], "ports: expected an integer, got a list"),
    "deep-next": (
        [("next: DEFAULT", f"next: {DEEP}")],
        "rows[0] (id=count).next: expected a name, got a list",
    ),
    "deep-action": (
        [('action: "fwd:1"', f"action: {DEEP}")],
        "rows[0] (id=count).action: expected a name, got a list",
    ),
    "deep-scope-item": (
        [("lookup_scope: [ip_src, ip_dst]", f"lookup_scope: [ip_src, {DEEP}]")],
        "lookup_scope[1]: expected a name, got a list",
    ),
    "deep-global": ([("{G0: 3}", f"{{G0: {DEEP}}}")], "globals.G0: expected an integer, got a list"),
    "deep-period": (
        [("management_period: 1000000", f"management_period: {DEEP}")],
        "management_period: expected an integer, got a list",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_validate_quotes_a_huge_or_deep_value_at_its_key(case, tmp_path, capsys):
    """Each used to exit 1 with a ValueError (int-to-str) or RecursionError
    (repr) traceback. Now the value is one problem, quoted in bounded form."""
    edits, error = BAD_VALUES[case]
    text = LONG_FLOW
    for old, new in edits:
        text = text.replace(old, new, 1)
    program = tmp_path / f"{case}.yaml"
    program.write_text(text)
    code = cli.main(["validate", "--program", str(program)])
    err = capsys.readouterr().err
    if case == "huge-repeated-key":
        assert (code, err) == (cli.EXIT_PARSE, f"parse error: {program}:{error}\n")
    else:
        assert code == cli.EXIT_VALIDATION, err
        assert err == f"validation error: invalid program:\n  - {program}: {error}\n"
