"""Command-line interface.

Verbs:
    run                 replay a trace through a program
    validate            load a program and report its shape
    gen-trace           write a synthetic trace
    calibrate-portscan  table the decayed SYN counter for given rates

Exit codes: 0 success, 3 parse failure (program or trace syntax),
4 validation failure (program semantics, missing columns, bad time
order), 5 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .. import programs
from ..engine import NonMonotoneTimestampError
from . import gen, traceio

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_IO = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowfsm",
        description="Trace-driven stateful packet-processing model",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="replay a trace through a program")
    run.add_argument("--program", required=True)
    run.add_argument("--trace", required=True)
    run.add_argument("--out", help="verdict CSV path")
    run.add_argument("--stats", help="stats JSON path")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--hazard-window", type=int, default=0)
    run.add_argument("--hw-faithful-div", action="store_true")
    run.add_argument(
        "--timing",
        action="store_true",
        help="include wall-clock throughput in the stats file (breaks "
        "byte-for-byte reproducibility of the file)",
    )

    val = sub.add_parser("validate", help="load and check a program")
    val.add_argument("--program", required=True)

    gtr = sub.add_parser("gen-trace", help="write a synthetic trace")
    gtr.add_argument("--kind", required=True, choices=sorted(gen.KINDS))
    gtr.add_argument("--out", required=True)
    gtr.add_argument("--seed", type=int, default=0)
    gtr.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="generator parameter (repeatable)",
    )

    cal = sub.add_parser(
        "calibrate-portscan", help="table the decayed SYN counter per rate"
    )
    cal.add_argument("--program", required=True)
    cal.add_argument("--rates", default="5,40", help="comma-separated SYN/s rates")
    cal.add_argument("--duration", type=int, default=30, help="seconds simulated")

    return parser


def _cmd_run(args) -> int:
    config = programs.load(args.program)
    binder = programs.make_binder(config)
    engine = programs.build_engine(
        config,
        seed=args.seed,
        hazard_window=args.hazard_window,
        hw16_div=args.hw_faithful_div,
    )
    rows = traceio.read_trace(args.trace)
    records = (binder(row, i) for i, row in enumerate(rows))
    verdicts = engine.run_trace(records)
    started = time.perf_counter()
    if args.out:
        count = traceio.write_verdicts(args.out, verdicts)
    else:
        count = sum(1 for _ in verdicts)
    elapsed = time.perf_counter() - started
    stats = engine.stats
    stats.throughput_pps = count / elapsed if elapsed > 0 else 0.0
    if args.stats:
        traceio.write_stats(args.stats, stats, include_timing=args.timing)
    print(
        f"{config.name}: {count} packets in {elapsed:.3f}s "
        f"({stats.throughput_pps:.0f} pkt/s)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = programs.load(args.program)
    rows = programs.compile_rows(config)
    print(f"program:       {config.name}")
    print(f"states:        {', '.join(f'{k}={v}' for k, v in config.states.items())}")
    print(f"conditions:    {len(config.conditions)}")
    print(f"rows:          {len(rows)} (incl. tree expansion)")
    print(f"globals:       {list(config.globals_init)}")
    print(f"partitionable: {'yes' if config.partitionable else 'no'}")
    return EXIT_OK


def _cmd_gen_trace(args) -> int:
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ValueError(f"--param needs KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = int(value, 0)
    count = gen.gen_trace(args.kind, params, args.seed, args.out)
    print(f"{args.out}: {count} packets ({args.kind}, seed {args.seed})")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    config = programs.load(args.program)
    threshold = config.globals_init[0]
    rates = [int(r) for r in args.rates.split(",") if r.strip()]
    print(f"program {config.name}: threshold G0={threshold}, decay 1/2 per tick")
    for rate in rates:
        acc = 0
        last = 0
        peak = 0
        trip = None
        syn = 0
        for t in range(args.duration):
            for _ in range(rate):
                syn += 1
                peak = max(peak, acc)
                if acc >= threshold and trip is None:
                    trip = (syn, t)
                decayed = acc >> (t - last) if t - last < 32 else 0
                acc = decayed + 1
                last = t
        if trip:
            print(f"rate={rate}/s: trips at SYN #{trip[0]} (t={trip[1]}s)")
        else:
            print(f"rate={rate}/s: peak counter {peak} < {threshold}, never trips")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "gen-trace": _cmd_gen_trace,
    "calibrate-portscan": _cmd_calibrate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except programs.ProgramParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except programs.ProgramValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except programs.BindError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonMonotoneTimestampError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except traceio.TraceFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
