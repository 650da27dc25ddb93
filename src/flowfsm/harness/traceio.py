"""Trace and result file formats.

A trace is a CSV with a header row and one integer column (decimal or
0x-hex) per header field, metadata such as ``ts`` and ``in_port``
included: the columns stand for a parser's output, and the program's
field bindings name the ones it reads. Timestamps must be non-decreasing;
that is checked while reading so a bad file is rejected with the
offending row number.

Verdicts are written one CSV row per packet; stats are a JSON document.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Union

from ..engine import VERDICT_COLUMNS, NonMonotoneTimestampError
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


def _parse_cells(
    names: list[str], row: list[str], where: str
) -> dict[str, int]:
    """One row cell by cell: empty, missing and extra cells are skipped, and
    the first bad cell is reported at ``where``."""
    cells: dict[str, Optional[str]] = dict(zip(names, row))
    for key in names[len(row) :]:
        cells[key] = None
    out: dict[str, int] = {}
    for key, value in cells.items():
        if not value:
            continue
        try:
            out[key] = int(value, 0)
        except ValueError:
            raise TraceFormatError(
                f"{where} column {key!r}: {value!r} is not an integer"
            ) from None
    if "ts" not in out:
        raise TraceFormatError(f"{where}: missing ts value")
    return out


def read_trace(path: Union[str, Path]) -> Iterator[dict[str, int]]:
    """Stream trace rows as dicts of ints.

    Cells are read with ``int(x, 0)``. A row of integers as wide as the
    header is converted in one step; any other row (empty, missing or
    extra cells, a bad value) is parsed cell by cell. Rows are numbered
    from 2, blank lines not counted.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None:
            raise TraceFormatError(f"{path}: empty trace")
        if "ts" not in names:
            raise TraceFormatError(f"{path}: missing required column 'ts'")
        width = len(names)
        bases = (0,) * len(names)
        last_ts: Optional[int] = None
        for lineno, row in enumerate(filter(None, reader), start=2):
            out = None
            if len(row) == width:
                try:
                    out = dict(zip(names, map(int, row, bases)))
                except ValueError:
                    pass
            if out is None:
                out = _parse_cells(names, row, f"{path}:{lineno}")
            ts = out["ts"]
            if last_ts is not None and ts < last_ts:
                raise NonMonotoneTimestampError(
                    f"{path}:{lineno}: timestamp {ts} after {last_ts}"
                )
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
    the packet count."""
    counter = itertools.count()
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(VERDICT_COLUMNS)
        # zip draws from counter only after a verdict, so it ends at the count
        writer.writerows(v for v, _ in zip(verdicts, counter))
    return next(counter)


def write_stats(
    path: Union[str, Path], stats: RunStats, include_timing: bool = False
) -> None:
    Path(path).write_text(stats.to_json(include_timing) + "\n")

