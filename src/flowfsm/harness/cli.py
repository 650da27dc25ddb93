"""Command-line interface.

Verbs:
    run                 replay a trace through a program
    validate            load a program and report its shape
    gen-trace           write a synthetic trace

Exit codes: 0 success, 3 parse failure (program or trace syntax, YAML
outside the subset docs/SCHEMA.md accepts, bytes that are not UTF-8),
4 validation failure (program semantics, missing columns, bad time
order, an option out of range), 5 I/O failure. Any other exception is a
defect and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .. import programs
from ..alu import echo
from ..engine import Engine, NonMonotoneTimestampError, OptionError
from ..flow_context import NUM_FLOW_REGISTERS, context_bytes
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

    return parser


def _int_option(option: str, text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise OptionError(f"{option}: {echo(text.strip())} is not an integer") from None


def _cmd_run(args) -> int:
    config = programs.load(args.program)
    binder = programs.make_binder(config)
    engine = Engine(
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
    rows = config.transition_rows()
    print(f"program:       {config.name}")
    print(f"states:        {', '.join(f'{k}={v}' for k, v in config.states.items())}")
    print(f"conditions:    {len(config.conditions)}")
    print(f"rows:          {len(rows)} (incl. tree expansion)")
    print(f"globals:       {list(config.globals_init)}")
    print(f"partitionable: {'yes' if config.partitionable else 'no'}")
    # rows that no (state, condition bits) dispatch entry names
    reached = {row_idx for *_, row_idx in Engine(config).transitions}
    unreached = [
        f"{i}" + (f" ({row.row_id})" if row.row_id else "")
        for i, row in enumerate(rows)
        if i not in reached
    ]
    print(f"unreached:     {', '.join(unreached) or 'none'}")
    sizes = config.table_sizes
    shape = (sizes.context_subtables, sizes.context_buckets, sizes.bucket_depth)
    contexts = shape[0] * shape[1] * shape[2]
    size = contexts * context_bytes(NUM_FLOW_REGISTERS + len(config.flow_scratch))
    print(
        f"context store: up to {contexts} contexts ({' x '.join(map(str, shape))}),"
        f" <= {size / 1e6:.1f} MB"
    )
    return EXIT_OK


def _cmd_gen_trace(args) -> int:
    params = {}
    for item in args.param:
        if "=" not in item:
            raise OptionError(f"--param needs KEY=VALUE, got {echo(item)}")
        key, value = item.split("=", 1)
        params[key.strip()] = _int_option(f"--param {echo(key.strip())}", value)
    count = gen.gen_trace(args.kind, params, args.seed, args.out)
    print(f"{args.out}: {count} packets ({args.kind}, seed {args.seed})")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "validate": _cmd_validate,
    "gen-trace": _cmd_gen_trace,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (programs.ProgramParseError, traceio.TraceFormatError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (
        programs.ProgramValidationError,
        programs.BindError,
        NonMonotoneTimestampError,
        OptionError,
    ) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
