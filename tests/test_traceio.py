"""Trace reader: equal to the cell-by-cell reference, rows and errors alike."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowfsm.engine import NonMonotoneTimestampError
from flowfsm.harness.traceio import TraceFormatError, read_trace

from helpers import reference_read_trace

COLUMNS = ("in_port", "pkt_len", "ip_src", "sport", "tcp_flags", "raw")


def outcome(reader, path):
    """(rows read, error type, error message) of one pass of ``reader``."""
    rows = []
    try:
        for row in reader(path):
            rows.append(row)
    except (TraceFormatError, NonMonotoneTimestampError) as exc:
        return rows, type(exc), str(exc)
    return rows, None, None


def spellings(value):
    """Valid cell spellings of a non-negative integer."""
    return st.sampled_from(
        [str(value), hex(value), f"0X{value:X}", f" {value}", f"{value:_}", f"0o{value:o}"]
    )


valid = st.integers(0, 2**40).flatmap(spellings)
# leading-zero decimals are rejected by int(x, 0); "-3" and "00" are not
odd = st.sampled_from(["007", "01", "00", "-3", "1.5", "0x", "x", "deadbeef"])
cell = st.one_of(valid, valid, valid, valid, st.just(""), odd)


@st.composite
def traces(draw):
    """A header with ts, then full, short, long and blank rows."""
    header = ["ts"] + draw(st.lists(st.sampled_from(COLUMNS), max_size=4))
    draw(st.randoms()).shuffle(header)
    lines = [",".join(header)]
    ts = 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["full"] * 6 + ["blank", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        ts += draw(st.integers(-1, 3))
        width = {"full": len(header), "short": len(header) - 1, "long": len(header) + 1}
        cells = [draw(cell) for _ in range(width[kind])]
        if "ts" in header[: len(cells)] and draw(st.integers(0, 4)):
            cells[header.index("ts")] = draw(spellings(max(ts, 0)))
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(trace=traces())
def test_reader_equals_reference(tmp_path, trace):
    path = tmp_path / "trace.csv"
    path.write_text(trace)
    assert outcome(read_trace, path) == outcome(reference_read_trace, path)


def read_error(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    expected = outcome(reference_read_trace, path)
    got = outcome(read_trace, path)
    assert got == expected
    return path, got[1], got[2]


def test_empty_file(tmp_path):
    path, kind, message = read_error(tmp_path, "")
    assert (kind, message) == (TraceFormatError, f"{path}: empty trace")


def test_missing_ts_column(tmp_path):
    path, kind, message = read_error(tmp_path, "in_port,ip_src\n1,2\n")
    assert (kind, message) == (TraceFormatError, f"{path}: missing required column 'ts'")


def test_missing_ts_value(tmp_path):
    path, kind, message = read_error(tmp_path, "ts,ip_src\n1,2\n\n,3\n")
    # the blank line is not counted: the row without ts is row 3
    assert (kind, message) == (TraceFormatError, f"{path}:3: missing ts value")


def test_non_monotone_timestamp(tmp_path):
    path, kind, message = read_error(tmp_path, "ts,ip_src\n5,1\n0x6,1\n\n5,1\n")
    assert (kind, message) == (NonMonotoneTimestampError, f"{path}:4: timestamp 5 after 6")


def test_negative_timestamps_are_read(tmp_path):
    path, kind, _ = read_error(tmp_path, "ts\n-3\n-0x2\n")
    assert kind is None


def test_bad_integer_names_row_and_column(tmp_path):
    path, kind, message = read_error(tmp_path, "ts,ip_src\n1,2\n2,007\n")
    assert (kind, message) == (
        TraceFormatError,
        f"{path}:3 column 'ip_src': '007' is not an integer",
    )


def test_rows_are_ints_and_a_raw_column_is_ordinary(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("ts,in_port,raw\n0x10,2,00ff\n17,,\n18\n19,1,,9\n")
    with pytest.raises(TraceFormatError, match=":2 column 'raw': '00ff' is not an integer"):
        list(read_trace(path))
    path.write_text("ts,in_port,raw\n0x10,2,0xff\n17,,\n18\n19,1,,9\n")
    assert list(read_trace(path)) == [
        {"ts": 16, "in_port": 2, "raw": 255},
        {"ts": 17},
        {"ts": 18},
        {"ts": 19, "in_port": 1},
    ]
