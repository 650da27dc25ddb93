import pytest
import yaml

from flowfsm import programs
from flowfsm.harness import cli

from helpers import GAP_CASES, patched_doc


@pytest.mark.parametrize("name", programs.BUNDLED)
def test_validate_accepts_bundled_programs(name, capsys):
    assert cli.main(["validate", "--program", str(programs.bundled_path(name))]) == 0
    assert f"program:       {name}" in capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(GAP_CASES))
def test_validate_rejects_loader_gaps(case, tmp_path, capsys):
    base, path, value, location = GAP_CASES[case]
    program = tmp_path / f"{case}.yaml"
    program.write_text(yaml.safe_dump(patched_doc(base, path, value)))
    assert cli.main(["validate", "--program", str(program)]) == cli.EXIT_VALIDATION
    assert f"{program}: {location}" in capsys.readouterr().err


def test_run_rejects_a_trace_value_wider_than_its_field(tmp_path, capsys):
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,in_port,eth_src,eth_dst\n0,1,0xa,0xb\n1,300,0xb,0xa\n")
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace)]
    assert cli.main(argv) == cli.EXIT_VALIDATION == 4
    err = capsys.readouterr().err
    assert "trace row 1: column 'in_port' value 300 does not fit in 8 bits" in err


def test_run_rejects_a_trace_without_a_bound_metadata_column(tmp_path, capsys):
    # mac_learning binds in_port; a trace without that column used to read 0
    trace = tmp_path / "mac.csv"
    trace.write_text("ts,eth_src,eth_dst\n0,0xa,0xb\n1,0xb,0xa\n")
    program = programs.bundled_path("mac_learning")
    argv = ["run", "--program", str(program), "--trace", str(trace)]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert "trace row 0: missing column 'in_port'" in capsys.readouterr().err


def test_calibrate_portscan_tables_the_bundled_threshold(capsys):
    program = programs.bundled_path("port_scan")
    assert cli.main(["calibrate-portscan", "--program", str(program)]) == cli.EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "rate=5/s: peak counter 9 < 20, never trips" in out
    assert "rate=40/s: trips at SYN #21 (t=0s)" in out
