"""Trace and result file formats.

The canonical trace is a CSV with a header row. Pre-parsed mode carries
integer protocol columns (decimal or 0x-hex); raw mode carries ts,
in_port and the hex-encoded frame bytes. Timestamps must be
non-decreasing; that is checked while reading so a bad file is rejected
with the offending row number.

Verdicts are written one CSV row per packet; stats are a JSON document.
A minimal classic-pcap importer converts captures to raw-mode CSV so the
engine keeps exactly one input path.
"""

from __future__ import annotations

import csv
import itertools
import struct
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

RAW_COLUMNS = ("ts", "in_port", "raw")


class TraceFormatError(Exception):
    """The trace file cannot be interpreted."""


def _parse_cells(
    names: list[str], row: list[str], where: str
) -> dict[str, object]:
    """One row cell by cell: empty, missing and extra cells are skipped, and
    the first bad cell is reported at ``where``."""
    cells: dict[str, Optional[str]] = dict(zip(names, row))
    for key in names[len(row) :]:
        cells[key] = None
    out: dict[str, object] = {}
    for key, value in cells.items():
        if not value:
            continue
        if key == "raw":
            try:
                out["raw"] = bytes.fromhex(value)
            except ValueError:
                raise TraceFormatError(f"{where}: raw column is not hex") from None
        else:
            try:
                out[key] = int(value, 0)
            except ValueError:
                raise TraceFormatError(
                    f"{where} column {key!r}: {value!r} is not an integer"
                ) from None
    if "ts" not in out:
        raise TraceFormatError(f"{where}: missing ts value")
    return out


def read_trace(
    path: Union[str, Path], mode: str = "csv"
) -> Iterator[dict[str, object]]:
    """Stream trace rows as dicts of ints (plus frame bytes in raw mode).

    Cells are read with ``int(x, 0)``. A row of integers as wide as the
    header is converted in one step; any other row (empty, missing or
    extra cells, a bad value, a ``raw`` column) is parsed cell by cell.
    Rows are numbered from 2, blank lines not counted.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None:
            raise TraceFormatError(f"{path}: empty trace")
        if "ts" not in names:
            raise TraceFormatError(f"{path}: missing required column 'ts'")
        if mode == "raw" and "raw" not in names:
            raise TraceFormatError(f"{path}: raw mode needs a 'raw' column")
        # rows with frame bytes always go cell by cell
        width = -1 if "raw" in names else len(names)
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


# ---------------------------------------------------------------------------
# optional capture import (classic pcap only)

# magic -> (struct endianness, fraction-field units per microsecond)
_PCAP_MAGICS = {
    0xA1B2C3D4: ("<", 1),
    0xD4C3B2A1: (">", 1),
    0xA1B23C4D: ("<", 1_000),  # nanosecond variant
    0x4D3CB2A1: (">", 1_000),
}


def read_pcap(path: Union[str, Path]) -> Iterator[tuple[int, bytes]]:
    """Yield (timestamp in microseconds, frame bytes) from a classic pcap."""
    with Path(path).open("rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise TraceFormatError(f"{path}: truncated pcap header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic not in _PCAP_MAGICS:
            magic = struct.unpack(">I", header[:4])[0]
        if magic not in _PCAP_MAGICS:
            raise TraceFormatError(f"{path}: not a classic pcap file")
        endian, frac_per_us = _PCAP_MAGICS[magic]
        while True:
            rec = fh.read(16)
            if len(rec) < 16:
                return
            ts_sec, ts_frac, incl_len, _ = struct.unpack(endian + "IIII", rec)
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise TraceFormatError(f"{path}: truncated packet record")
            yield ts_sec * 1_000_000 + ts_frac // frac_per_us, data


def pcap_to_csv(pcap_path: Union[str, Path], out_path: Union[str, Path]) -> int:
    """Convert a capture to a raw-mode trace; returns the packet count."""
    count = 0
    with Path(out_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        for ts_us, frame in read_pcap(pcap_path):
            writer.writerow([ts_us, 0, frame.hex()])
            count += 1
    return count
