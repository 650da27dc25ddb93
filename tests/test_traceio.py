"""Trace reader and verdict writer against plain references.

The reader must equal the cell-by-cell reference, rows and errors alike.
The header names each column once, and a row has one integer cell per
header column; a repeated column is an error that names it, and a short
or long row, or an empty or non-integer cell, is an error that names the
row. The reader works in chunks of rows, so the seam tests put each kind
of defect in a later chunk and right at a seam.

The verdict writer must write the bytes a plain ``csv.writer`` writes,
quoted state labels included, across its batches."""

import csv
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowfsm.engine import VERDICT_COLUMNS, NonMonotoneTimestampError
from flowfsm.harness import traceio
from flowfsm.harness.traceio import (
    READ_CHUNK,
    WRITE_BATCH,
    TraceFormatError,
    read_trace,
    write_verdicts,
)

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
# leading-zero decimals are rejected by int(x, 0); "-3", "-0" and "00"
# are not. The JSON-like cells hold values that are not JSON integers; a
# quoted cell may hold a comma or an integer with a space
odd = st.sampled_from(
    ["007", "01", "00", "-3", "-0", "1.5", "0x", "x", "deadbeef", "1e3", "2E1",
     "true", "null", "NaN", "-Infinity", "[1]", '"4"', '"1,2"', '" 5"', "\t6"]
)
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


@pytest.mark.parametrize("chunk", [1, 3])
@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(trace=traces())
def test_reader_equals_reference_in_small_chunks(tmp_path, monkeypatch, chunk, trace):
    """The same traces read a few rows per chunk, so that every kind of
    row meets every kind of seam."""
    monkeypatch.setattr(traceio, "READ_CHUNK", chunk)
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


def test_duplicate_column_names_the_column(tmp_path):
    # the second ip_src cell used to replace the first without a word
    path, kind, message = read_error(tmp_path, "ts,ip_src,ip_src\n1,2,3\n")
    assert (kind, message) == (TraceFormatError, f"{path}: column 'ip_src' appears twice")
    path, kind, message = read_error(tmp_path, "ip_src,ts,sport,ts,sport\n")
    assert (kind, message) == (TraceFormatError, f"{path}: column 'ts' appears twice")


def test_missing_ts_value(tmp_path):
    path, kind, message = read_error(tmp_path, "ts,ip_src\n1,2\n\n,3\n")
    # the blank line is not counted: the row without ts is row 3
    assert (kind, message) == (
        TraceFormatError,
        f"{path}:3 column 'ts': '' is not an integer",
    )


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


@pytest.mark.parametrize(
    "cell, reason",
    [
        ("9" * 5000, "has more than 4300 digits"),
        ("1_" * 4400 + "1", "has more than 4300 digits"),
        ("x" * 5000, "is not an integer"),
        ("0x" + "g" * 41, "is not an integer"),
    ],
    ids=["digits", "underscores", "word", "hex"],
)
@pytest.mark.parametrize("chunk_rows", [1, READ_CHUNK + 5], ids=["row", "chunk"])
def test_a_long_bad_cell_is_quoted_in_part(tmp_path, cell, reason, chunk_rows):
    """The message quotes the first 40 characters of a long cell and gives
    its length, whether the cell ends a plain chunk or not; a decimal
    integer past Python's int-from-str digit limit is not called a
    non-integer."""
    rows = "".join(f"{i},1\n" for i in range(chunk_rows))
    path, kind, message = read_error(tmp_path, f"ts,ip_src\n{rows}{chunk_rows},{cell}\n")
    assert kind is TraceFormatError
    assert message == (
        f"{path}:{chunk_rows + 2} column 'ip_src': {cell[:40]!r}... "
        f"({len(cell)} characters) {reason}"
    )


def test_rows_are_ints_and_a_raw_column_is_ordinary(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("ts,in_port,raw\n0x10,2,0xff\n17,0,0\n")
    assert list(read_trace(path)) == [
        {"ts": 16, "in_port": 2, "raw": 255},
        {"ts": 17, "in_port": 0, "raw": 0},
    ]
    # each bad row follows a good one, so it is row 3
    for row, error in [
        ("18,2,00ff", " column 'raw': '00ff' is not an integer"),
        ("17,,", " column 'in_port': '' is not an integer"),
        ("18", ": 1 cells, header has 3"),
        ("19,1,0,9", ": 4 cells, header has 3"),
    ]:
        path.write_text(f"ts,in_port,raw\n0x10,2,0xff\n{row}\n")
        with pytest.raises(TraceFormatError) as exc:
            list(read_trace(path))
        assert str(exc.value) == f"{path}:3{error}"


# --- chunk seams ---------------------------------------------------------

SEAM_COLUMNS = ("ts", "ip_src", "sport")
SEAM_ROWS = 3 * READ_CHUNK + 40
# last and first rows of chunks, and one in the middle of a later chunk
SEAM_AT = (READ_CHUNK - 1, READ_CHUNK, 2 * READ_CHUNK - 1, 2 * READ_CHUNK, 2 * READ_CHUNK + 77)


def seam_trace(defect, at, newline):
    """A trace of SEAM_ROWS rows with one ``defect`` at data row ``at``."""
    lines = [",".join(SEAM_COLUMNS)]
    for i in range(SEAM_ROWS):
        cells = [str(i), str(1000 + i % 7), str(i % 3)]
        if i == at:
            if defect == "short":
                cells.pop()
            elif defect == "long":
                cells.append("1")
            elif defect == "empty":
                cells[1] = ""
            elif defect == "word":
                cells[2] = "eleven"
            elif defect == "backward":
                cells[0] = str(i - 2)
            elif defect == "hex":
                cells[1] = "0x3E8"
            elif defect == "quoted":
                cells[2] = '" 2"'
            elif defect == "blank":
                lines += ["", ""]
        lines.append(",".join(cells))
    return newline.join(lines) + newline


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("at", SEAM_AT)
@pytest.mark.parametrize(
    "defect", ["short", "long", "empty", "word", "backward", "hex", "quoted", "blank"]
)
def test_reader_equals_reference_across_chunk_seams(tmp_path, defect, at, newline):
    path = tmp_path / "trace.csv"
    path.write_bytes(seam_trace(defect, at, newline).encode())
    rows, kind, message = outcome(read_trace, path)
    assert (rows, kind, message) == outcome(reference_read_trace, path)
    if defect in ("hex", "quoted", "blank"):
        # valid, but csv.reader reads from here on
        assert kind is None and len(rows) == SEAM_ROWS
    else:
        assert kind is not None and len(rows) == at
        assert message.startswith(f"{path}:{at + 2}")


@pytest.mark.parametrize("at", SEAM_AT)
def test_rows_after_blank_lines_keep_their_numbers(tmp_path, at):
    """Blank lines at a seam, then an error about a chunk later: the error
    names the row as the reference numbers it, blank lines not counted."""
    text = seam_trace("blank", at, "\n").splitlines()
    bad = min(at + READ_CHUNK + 3, SEAM_ROWS - 1)
    text[bad + 3] += ",9"  # header and two blank lines come before row `bad`
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(text) + "\n")
    got = outcome(read_trace, path)
    assert got == outcome(reference_read_trace, path)
    assert got[1] is TraceFormatError and got[2] == f"{path}:{bad + 2}: 4 cells, header has 3"


@pytest.mark.parametrize("ending", ["", "\r", "\r\n\r\n"])
def test_line_endings_at_the_end_of_the_trace(tmp_path, ending):
    """A trace whose last line has no newline, a lone CR, or blank lines."""
    body = seam_trace("none", -1, "\r\n").rstrip("\r\n")
    path = tmp_path / "trace.csv"
    path.write_bytes((body + ending).encode())
    got = outcome(read_trace, path)
    assert got == outcome(reference_read_trace, path)
    assert got[1] is None and len(got[0]) == SEAM_ROWS


def test_a_lone_carriage_return_ends_a_row(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"ts,sport\n1,2\r3,4\n5,6\n")
    assert outcome(read_trace, path) == outcome(reference_read_trace, path)
    assert list(read_trace(path)) == [
        {"ts": 1, "sport": 2}, {"ts": 3, "sport": 4}, {"ts": 5, "sport": 6}
    ]


# --- verdict writer ----------------------------------------------------

# state labels are free strings: these need quoting, doubled quotes or
# neither, and some are not ASCII
label = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "→"]), max_size=4)


def reference_verdict_bytes(path, verdicts):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VERDICT_COLUMNS)
        writer.writerows(verdicts)
    return path.read_bytes()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(labels=st.lists(label, min_size=1, max_size=5), data=st.data())
def test_writer_equals_csv_writer(tmp_path, labels, data):
    """Streams longer than a batch, plain at first; the drawn labels start
    at a random packet, so they first appear in any batch or at a seam."""
    count = data.draw(st.integers(WRITE_BATCH + 1, 3 * WRITE_BATCH + 5))
    start = data.draw(st.integers(0, count))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    plain = ["DEFAULT", "LONG"]
    verdicts = []
    for seq in range(count):
        names = labels if seq >= start else plain
        verdicts.append(
            (seq, 1000 + 7 * seq, rng.choice(["fwd:1", "dscp:10:fwd:1", "none"]),
             rng.choice(names), rng.choice(names), rng.randrange(4),
             f"{rng.randrange(256):08b}")
        )
    out = tmp_path / "verdicts.csv"
    assert write_verdicts(out, iter(verdicts)) == count
    assert out.read_bytes() == reference_verdict_bytes(tmp_path / "reference.csv", verdicts)


@pytest.mark.parametrize("count", [0, 1, WRITE_BATCH, WRITE_BATCH + 1])
def test_writer_counts_at_batch_edges(tmp_path, count):
    verdicts = [(i, i, "drop", "A,B", "C", 0, "00000000") for i in range(count)]
    out = tmp_path / "verdicts.csv"
    assert write_verdicts(out, verdicts) == count
    assert out.read_bytes() == reference_verdict_bytes(tmp_path / "reference.csv", verdicts)


@pytest.mark.parametrize("defect, readers", [("none", 1), ("hex", 2), ("short", 2)])
def test_csv_reader_takes_over_at_the_first_chunk_that_is_not_plain(
    tmp_path, monkeypatch, defect, readers
):
    """Plain chunks are split without ``csv.reader``, which reads only the
    header; the first chunk that is not plain hands the rest of the trace
    to a second one."""
    path = tmp_path / "trace.csv"
    path.write_text(seam_trace(defect, 2 * READ_CHUNK + 77, "\n"))
    made = []
    reader = csv.reader

    def counted(*args):
        made.append(args)
        return reader(*args)

    monkeypatch.setattr(csv, "reader", counted)
    assert outcome(read_trace, path)[0][: 2 * READ_CHUNK] == [
        {"ts": i, "ip_src": 1000 + i % 7, "sport": i % 3} for i in range(2 * READ_CHUNK)
    ]
    assert len(made) == readers


@pytest.mark.parametrize("text", ["ts\n\n", "ts\n\n5\n", "ts\n4\n\n5\n", "ts\r\n\r\n"])
def test_blank_lines_in_a_one_column_trace(tmp_path, text):
    # a blank line is one empty cell wide: it must not read as a row
    path = tmp_path / "trace.csv"
    path.write_bytes(text.encode())
    assert outcome(read_trace, path) == outcome(reference_read_trace, path)


def test_writer_writes_a_timestamp_as_csv_writer_does(tmp_path):
    # ts comes from the packet record, which a caller may build by hand
    verdicts = [(0, 1.5, "drop", "A", "B", 0, "00000000"), (1, 2**70, "drop", "A", "B", 1, "1")]
    out = tmp_path / "verdicts.csv"
    assert write_verdicts(out, verdicts) == 2
    assert out.read_bytes() == reference_verdict_bytes(tmp_path / "reference.csv", verdicts)
