"""The benchmark's workloads: seeded traces plus their reference verdicts.

A workload pairs one bundled program with one trace generator and one
reference model (see ``reference.py``). Its trace and its expected
verdicts are made by running this file as a script, in a process of their
own, so that neither the generator's memory nor its time shows in the
replaying process:

    PYTHONPATH=src python3 perfbench/workloads.py --workload mac.sparse --seed 1 --out DIR

writes ``DIR/trace.csv`` and ``DIR/expected.csv``. ``--scale`` shrinks the
trace for smoke tests; the benchmark itself always uses scale 1.
"""

from __future__ import annotations

import argparse
import heapq
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import reference
from flowfsm import programs
from flowfsm.harness import gen, traceio

TRACE_NAME = "trace.csv"
EXPECTED_NAME = "expected.csv"

# mac.sparse population: first station id (ids count up as stations join),
# stations attached at once, mean gap between a station's sends, mean
# station lifetime, and the chance a packet answers the previous sender.
STATION_BASE = 0x02000000
ACTIVE_STATIONS = 40
SEND_MEAN_S = 240.0
LIFE_MEAN_S = 7200.0
REPLY_PROB = 0.3


@dataclass(frozen=True)
class Workload:
    program: str
    # (seed, scale) -> trace rows as dicts of ints, in time order
    rows: Callable[[int, float], list[dict]]
    # (rows, program config) -> expected verdict columns per packet
    reference: Callable[..., Iterator[tuple[str, str, str]]]


def _scaled(full: int, scale: float) -> int:
    return max(1, round(full * scale))


def long_flow_rows(seed: int, scale: float) -> list[dict]:
    """~1000 concurrent flows at 67 pkt/s for 3 s: ~200k packets, µs stamps."""
    params = {"flows": _scaled(1000, scale), "rate_pps": 67, "duration_s": 3}
    return gen.poisson_flows(params, random.Random(seed))


def c45_rows(seed: int, scale: float) -> list[dict]:
    """406 repeats of the 12-pattern grid: ~4.9k flows, ~100k packets, s stamps.

    The grid generator draws nothing from its seed, so the trace is the same
    for every seed; the seed still varies the engine's hash layout.
    """
    return gen.classifier_grid({"repeats": _scaled(406, scale)}, random.Random(seed))


def mac_station_rows(seed: int, scale: float) -> list[dict]:
    """Drifting station population for mac_learning, in seconds (~100k packets).

    ACTIVE_STATIONS stations are attached at any time, each to a fixed port.
    Each sends with exponential gaps and leaves after an exponential
    lifetime; a new station id joins in its place. A packet goes back to
    the previous sender with probability REPLY_PROB, otherwise to a random
    other active station. With the
    program's 300 s aging period most destinations are learned, idle
    stations age out and are relearned, and a housekeeping scan falls about
    every 50 packets. The trace spans about a week.
    """
    rng = random.Random(seed)
    packets = _scaled(100_000, scale)
    pending: list[tuple[float, int]] = []  # (next send time, station)
    port: dict[int, int] = {}
    leaves: dict[int, float] = {}
    present: list[int] = []  # active station ids, for uniform choice
    index: dict[int, int] = {}  # station -> position in present
    next_id = STATION_BASE

    def join(now: float) -> None:
        nonlocal next_id
        sid = next_id
        next_id += 1
        port[sid] = rng.randint(1, 4)
        leaves[sid] = now + rng.expovariate(1.0 / LIFE_MEAN_S)
        index[sid] = len(present)
        present.append(sid)
        heapq.heappush(pending, (now + rng.expovariate(1.0 / SEND_MEAN_S), sid))

    def leave(sid: int) -> None:
        last = present.pop()
        if last != sid:
            present[index[sid]] = last
            index[last] = index[sid]
        del index[sid], port[sid], leaves[sid]

    for _ in range(ACTIVE_STATIONS):
        join(0.0)
    rows: list[dict] = []
    last_src = None
    while len(rows) < packets:
        t, src = heapq.heappop(pending)
        if t >= leaves[src]:
            leave(src)
            join(t)
            continue
        if last_src in index and last_src != src and rng.random() < REPLY_PROB:
            dst = last_src
        else:
            dst = src
            while dst == src:
                dst = present[rng.randrange(len(present))]
        rows.append(
            {"ts": int(t), "in_port": port[src], "pkt_len": 64, "eth_src": src, "eth_dst": dst}
        )
        last_src = src
        heapq.heappush(pending, (t + rng.expovariate(1.0 / SEND_MEAN_S), src))
    return rows


WORKLOADS = {
    "long_flow.poisson": Workload("long_flow", long_flow_rows, reference.long_flow),
    "c45.grid": Workload("c45_classifier", c45_rows, reference.c45),
    "mac.sparse": Workload("mac_learning", mac_station_rows, reference.mac),
}


def generate(name: str, seed: int, scale: float, out_dir: Path) -> int:
    """Write the trace and the reference verdicts; returns the packet count."""
    workload = WORKLOADS[name]
    rows = workload.rows(seed, scale)
    traceio.write_trace(out_dir / TRACE_NAME, rows)
    config = programs.bundled_program(workload.program)
    return reference.write_expected(
        out_dir / EXPECTED_NAME, workload.reference(rows, config)
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.scale, args.out)


if __name__ == "__main__":
    main()
