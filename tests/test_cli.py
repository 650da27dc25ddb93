import pytest
import yaml

from flowfsm import programs
from flowfsm.harness import cli

from helpers import GAP_CASES, patched_doc


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
    assert "trace row 1: column 'in_port' value 300 does not fit in 8 bits" in err


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
    assert "trace row 0: missing column 'in_port'" in capsys.readouterr().err


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


def test_calibrate_portscan_tables_the_bundled_threshold(capsys):
    program = programs.bundled_path("port_scan")
    assert cli.main(["calibrate-portscan", "--program", str(program)]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "rate=5/s: peak counter 9 < 20, never trips" in out
    assert "rate=40/s: trips at SYN #21 (t=0s)" in out
