"""Synthetic trace generators.

Every generator is a pure function of its parameters and the seed, so a
fixed seed reproduces the trace byte for byte. All kinds emit the full
canonical column set; rows are globally sorted by timestamp (stable, so
equal-time packets keep their generation order).
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Mapping, Union

from ..engine import OptionError
from ..alu import echo
from . import traceio

SCANNER_IP = 0xC0A80001  # the one scanning source in portscan_mix
BENIGN_IP_BASE = 0x0A000100
STRESS_IP = 0x0A0000FE
GRID_SRC_BASE = 0x0A010000
GRID_DST = 0xC0000001

# (size mean, size half-spread, packets per flow) patterns for the
# classifier grid; sizes alternate mean-spread / mean+spread. The list is
# chosen so the realized running-statistics land on both sides of each
# decision threshold and every tree leaf is reachable.
GRID_PATTERNS = (
    (100, 0, 2),
    (50, 0, 2),
    (40, 0, 8),
    (320, 0, 80),
    (300, 45, 4),
    (310, 45, 4),
    (100, 39, 4),
    (306, 0, 60),
    (307, 0, 60),
    (101, 0, 2),
    (102, 0, 2),
    (150, 20, 6),
)


def _row(**kwargs) -> dict:
    row = {col: 0 for col in traceio.TRACE_COLUMNS}
    row.update(kwargs)
    return row


def poisson_flows(params: Mapping[str, int], rng: random.Random) -> list[dict]:
    """Independent flows with exponential inter-arrivals (microsecond ts)."""
    flows = int(params.get("flows", 8))
    rate = float(params.get("rate_pps", 50))
    duration = int(params.get("duration_s", 2))
    ports = int(params.get("ports", 4))
    rows = []
    for i in range(flows):
        src = 0x0A000001 + i
        dst = 0x0A00FF00 + (i % 7)
        sport = 1024 + i
        in_port = 1 + i % ports
        t = 0.0
        while True:
            t += rng.expovariate(rate)
            if t >= duration:
                break
            rows.append(
                _row(
                    ts=int(t * 1_000_000),
                    in_port=in_port,
                    pkt_len=rng.randrange(60, 1500),
                    ip_src=src,
                    ip_dst=dst,
                    ip_proto=6,
                    sport=sport,
                    dport=80,
                    tcp_flags=0x10,
                )
            )
    rows.sort(key=lambda r: r["ts"])
    return rows


def portscan_mix(params: Mapping[str, int], rng: random.Random) -> list[dict]:
    """One scanning source among benign ones (second-granularity ts).

    All packets are TCP SYNs. The scanner probes a fresh port each time;
    benign sources revisit a small port set. ``probe_gap_s`` > 0 appends a
    single scanner SYN that long after the last scan second, to exercise
    the un-blocking path.
    """
    duration = int(params.get("duration_s", 30))
    scanner_rate = int(params.get("scanner_rate", 40))
    benign_rate = int(params.get("benign_rate", 5))
    benign_sources = int(params.get("benign_sources", 4))
    probe_gap = int(params.get("probe_gap_s", 0))
    rows = []
    dport = 1
    for t in range(duration):
        second: list[dict] = []
        for _ in range(scanner_rate):
            dport += 1
            second.append(
                _row(
                    ts=t,
                    in_port=1,
                    pkt_len=60,
                    ip_src=SCANNER_IP,
                    ip_dst=0x0A000001,
                    ip_proto=6,
                    sport=40000,
                    dport=dport,
                    tcp_flags=0x02,
                )
            )
        for b in range(benign_sources):
            for k in range(benign_rate):
                second.append(
                    _row(
                        ts=t,
                        in_port=2,
                        pkt_len=60,
                        ip_src=BENIGN_IP_BASE + b,
                        ip_dst=0x0A000001,
                        ip_proto=6,
                        sport=50000 + b,
                        dport=80 + k,
                        tcp_flags=0x02,
                    )
                )
        rng.shuffle(second)
        rows.extend(second)
    if probe_gap > 0:
        rows.append(
            _row(
                ts=duration - 1 + probe_gap,
                in_port=1,
                pkt_len=60,
                ip_src=SCANNER_IP,
                ip_dst=0x0A000001,
                ip_proto=6,
                sport=40000,
                dport=dport + 1,
                tcp_flags=0x02,
            )
        )
    return rows


def bucket_stress(params: Mapping[str, int], rng: random.Random) -> list[dict]:
    """Single-flow arrivals for policer stress (tick timestamps).

    The default mean gap of Q/2 offers tokens twice as fast as they
    refill, so the long-run forward fraction approaches one half.
    """
    q = int(params.get("q", 100))
    count = int(params.get("count", 10_000))
    mean_gap = float(params.get("mean_gap", q / 2))
    rows = []
    t = 0
    for _ in range(count):
        t += int(rng.expovariate(1.0 / mean_gap)) if mean_gap > 0 else 0
        rows.append(
            _row(ts=t, in_port=1, pkt_len=100, ip_src=STRESS_IP, ip_proto=6)
        )
    return rows


def classifier_grid(params: Mapping[str, int], rng: random.Random) -> list[dict]:
    """Flows realizing a grid of (size mean, spread, count) patterns.

    Each flow sends its packets inside the first 9 seconds of its window
    and one probe packet well after expiry to trigger the decision. Flow
    starts are staggered one second apart.
    """
    repeats = int(params.get("repeats", 84))
    rows = []
    flow = 0
    for rep in range(repeats):
        for mean, spread, count in GRID_PATTERNS:
            t0 = flow  # staggered starts, one flow per second
            src = GRID_SRC_BASE + flow
            for k in range(count):
                size = mean - spread if k % 2 == 0 else mean + spread
                rows.append(
                    _row(
                        ts=t0 + (k * 8) // max(count, 1),
                        in_port=1,
                        pkt_len=size,
                        ip_src=src,
                        ip_dst=GRID_DST,
                        ip_proto=6,
                        sport=2000,
                        dport=80,
                        tcp_flags=0x10,
                    )
                )
            rows.append(
                _row(
                    ts=t0 + 12,
                    in_port=1,
                    pkt_len=1,
                    ip_src=src,
                    ip_dst=GRID_DST,
                    ip_proto=6,
                    sport=2000,
                    dport=80,
                    tcp_flags=0x10,
                )
            )
            flow += 1
    rows.sort(key=lambda r: r["ts"])
    return rows


KINDS = {
    "poisson_flows": poisson_flows,
    "portscan_mix": portscan_mix,
    "bucket_stress": bucket_stress,
    "classifier_grid": classifier_grid,
}
# kind -> {parameter its generator reads: the least value it takes}.
# rate_pps divides in expovariate, and a negative rate never ends a flow;
# in_port counts from 1 to ports
PARAMS = {
    "poisson_flows": {"flows": 0, "rate_pps": 1, "duration_s": 0, "ports": 1},
    "portscan_mix": {
        "duration_s": 0, "scanner_rate": 0, "benign_rate": 0, "benign_sources": 0,
        "probe_gap_s": 0,
    },
    "bucket_stress": {"q": 0, "count": 0, "mean_gap": 0},
    "classifier_grid": {"repeats": 0},
}


def gen_trace(
    kind: str,
    params: Mapping[str, int],
    seed: int,
    out_path: Union[str, Path],
) -> int:
    """Generate a trace file; returns the number of packets written. An
    unknown kind, a parameter key that the kind's generator does not read,
    or a value below the key's least one in :data:`PARAMS` raises
    :class:`~flowfsm.engine.OptionError` before any row is generated."""
    if kind not in KINDS:
        raise OptionError(f"unknown trace kind {kind!r} (have {sorted(KINDS)})")
    least = PARAMS[kind]
    for key, value in params.items():
        if key not in least:
            raise OptionError(
                f"unknown {kind} parameter {echo(key)} (have {', '.join(least)})"
            )
        if value < least[key]:
            raise OptionError(
                f"{kind} parameter {echo(key)}: {echo(value)} is below {least[key]}"
            )
    rows = KINDS[kind](params, random.Random(seed))
    traceio.write_trace(out_path, rows)
    return len(rows)
