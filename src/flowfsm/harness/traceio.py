"""Trace and result file formats.

A trace is a CSV with a header row and one integer column (decimal or
0x-hex) per header field, metadata such as ``ts`` and ``in_port``
included: the columns stand for a parser's output, and the program's
field bindings name the ones it reads. Timestamps must be non-decreasing;
that is checked while reading so a bad file is rejected with the
offending row number.

Verdicts are written one CSV row per packet; stats are a JSON document.

Both directions work in batches, so that the per-row cost is mostly
C-level passes: the reader parses plain lines :data:`READ_CHUNK` at a
time and the writer formats :data:`WRITE_BATCH` verdicts at a time. The
files are the same as with one row at a time, errors and their row
numbers included. A batch adds one long interval to the per-packet
latency of the packet it is parsed or written for, so a batch is kept
small enough for that packet to stay a rare outlier.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import sys
from operator import le
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Union

from ..engine import VERDICT_COLUMNS, NonMonotoneTimestampError
from ..programs import echo
from ..stats import RunStats

TRACE_COLUMNS = (
    "ts",
    "in_port",
    "pkt_len",
    "eth_src",
    "eth_dst",
    "ip_src",
    "ip_dst",
    "ip_proto",
    "sport",
    "dport",
    "tcp_flags",
    "dscp",
)


class TraceFormatError(Exception):
    """The trace file cannot be interpreted."""


# rows parsed per batch
READ_CHUNK = 256
# verdict rows formatted per batch
WRITE_BATCH = 1024
# one verdict row as csv.writer writes it when no cell needs quoting; ts
# comes from the packet record, so it is written with str() as csv.writer
# would, whatever its type
_VERDICT_LINE = "%d,%s,%s,%s,%s,%d,%s\r\n"


def _first_bad_cell(names: list[str], row: list[str]) -> str:
    for key, value in zip(names, row):
        try:
            int(value, 0)
        except ValueError:
            digits = value.strip().lstrip("+-").replace("_", "")
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if digits.isdecimal() and 0 < limit < len(digits):
                # past the digit limit of int-from-str conversion
                reason = f"has more than {limit} digits"
            else:
                reason = "is not an integer"
            return f"column {key!r}: {echo(value, repr)} {reason}"
    raise AssertionError("every cell of the row is an integer")


def read_trace(path: Union[str, Path]) -> Iterator[dict[str, int]]:
    """Stream trace rows as dicts of ints.

    The header names each column once. Every row has one cell per header
    column, and every cell is an integer read with ``int(x, 0)``. A row
    with fewer or more cells, or a cell that is empty or not an integer,
    raises :class:`TraceFormatError` naming the row, and the column for a
    cell. Timestamps must not decrease: a row whose ``ts`` is below the
    previous row's raises :class:`NonMonotoneTimestampError`. Rows are
    numbered from 2, blank lines not counted; the rows before a bad one
    are yielded first.

    Rows are read :data:`READ_CHUNK` lines at a time. While the lines of
    a chunk are plain (see :func:`_plain_cells`) and in time order, they
    are split and decoded without ``csv.reader``, and the chunk's dicts
    are built in C-level passes. From the first chunk that is not,
    ``csv.reader`` reads the rest of the trace one row at a time, which
    finds the first bad row, if any, and raises its error.
    """
    return itertools.chain.from_iterable(_read_batches(Path(path)))


def _read_batches(path: Path) -> Iterator[Iterable[dict[str, int]]]:
    with path.open(newline="") as fh:
        names = next(csv.reader(fh), None)
        if names is None:
            raise TraceFormatError(f"{path}: empty trace")
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise TraceFormatError(f"{path}: column {name!r} appears twice")
            seen.add(name)
        if "ts" not in names:
            raise TraceFormatError(f"{path}: missing required column 'ts'")
        width = len(names)
        at_ts = names.index("ts")
        lineno = 2  # of the next row
        last_ts: float = -math.inf
        while lines := list(itertools.islice(fh, READ_CHUNK)):
            cells = _plain_cells(lines, width)
            if cells is None:
                break
            stamps = cells[at_ts::width]
            if not all(map(le, itertools.chain((last_ts,), stamps), stamps)):
                break
            last_ts = stamps[-1]
            lineno += len(lines)
            rows = zip(*[iter(cells)] * width)
            yield list(map(dict, map(zip, itertools.repeat(names), rows)))
        else:
            return
        # row by row from here on, up to the first bad row if there is one
        yield _read_rows(
            path, names, filter(None, csv.reader(itertools.chain(lines, fh))), lineno, last_ts
        )


# every JSON value but an integer holds one of these: strings, arrays,
# objects, fractions and exponents, true, false, null, NaN and Infinity
_NOT_JSON_INT = '"[{.eEnNI'


def _plain_cells(lines: list[str], width: int) -> Optional[list[int]]:
    """The cells of ``lines`` as ints, row by row, if the lines are plain;
    None if not.

    Lines are plain when each ends in one newline, has ``width - 1``
    commas and no double quote, and each of its cells is a JSON integer.
    ``csv.reader`` splits such a line at its commas only. JSON integers
    are a subset of what ``int(x, 0)`` reads, with the same values, and
    decoding the cells as one JSON array costs no Python call per cell.
    No character that a JSON value other than an integer needs gets
    through, so an array that decodes to one element per cell holds one
    integer per cell. A blank line, an empty cell or a ``0x`` cell fails
    to decode.
    """
    text = "".join(lines)
    if (
        text.count("\n") != len(lines)
        or set(map(str.count, lines, itertools.repeat(","))) != {width - 1}
        or any(map(text.__contains__, _NOT_JSON_INT))
    ):
        return None
    # a "\r" can only end a line here: a lone one would have ended it
    body = text.replace("\r\n", ",").replace("\n", ",")
    try:
        cells = json.loads(f"[{body[:-1]}]")
    except ValueError:
        return None
    # one blank line of a one-column trace decodes as an empty array
    return cells if len(cells) == len(lines) * width else None


def _read_rows(
    path: Path, names: list[str], rows: Iterable[list[str]], lineno: int, last_ts: float
) -> Iterator[dict[str, int]]:
    """``rows`` as dicts, one at a time, up to the first bad one, whose
    error it raises."""
    width = len(names)
    bases = (0,) * width
    for lineno, row in enumerate(rows, start=lineno):
        if len(row) != width:
            raise TraceFormatError(f"{path}:{lineno}: {len(row)} cells, header has {width}")
        try:
            out = dict(zip(names, map(int, row, bases)))
        except ValueError:
            raise TraceFormatError(
                f"{path}:{lineno} {_first_bad_cell(names, row)}"
            ) from None
        ts = out["ts"]
        if ts < last_ts:
            raise NonMonotoneTimestampError(f"{path}:{lineno}: timestamp {ts} after {last_ts}")
        last_ts = ts
        yield out


def write_trace(
    path: Union[str, Path],
    rows: Iterable[Mapping[str, object]],
    columns: tuple[str, ...] = TRACE_COLUMNS,
) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(col, 0) for col in columns])


def write_verdicts(path: Union[str, Path], verdicts: Iterable[tuple]) -> int:
    """Write the verdict rows of ``Engine.process_packet`` as CSV; returns
    the packet count.

    The bytes are those ``csv.writer`` writes. Rows are formatted
    :data:`WRITE_BATCH` at a time with one format string. A batch whose
    text has more commas or line breaks than the format puts there, or any
    double quote, holds a cell that ``csv.writer`` quotes (a state label
    with a comma, say), and ``csv.writer`` writes that batch instead.
    """
    verdicts = iter(verdicts)
    line = _VERDICT_LINE.__mod__
    commas = len(VERDICT_COLUMNS) - 1
    count = 0
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VERDICT_COLUMNS)
        while batch := list(itertools.islice(verdicts, WRITE_BATCH)):
            n = len(batch)
            text = "".join(map(line, batch))
            if (
                text.count(",") == commas * n
                and text.count("\n") == n
                and text.count("\r") == n
                and '"' not in text
            ):
                fh.write(text)
            else:
                writer.writerows(batch)
            count += n
    return count


def write_stats(
    path: Union[str, Path], stats: RunStats, include_timing: bool = False
) -> None:
    Path(path).write_text(stats.to_json(include_timing) + "\n")

