"""Timed replay of one trace through one bundled program.

One pass does what ``flowfsm run --out --stats`` does: stream the trace,
bind each row, run the engine, write the verdict CSV and the stats JSON.
Set-up (load and validate the program, compile its rows, build the engine
and the binder) is timed on its own. Each pass builds a fresh engine, so
every pass replays the same trace from the same empty state.

A traced pass wraps the calls into each layer's public functions from
here, without touching the package: :class:`Tracer` records every wrapped
call's count and self time (its duration minus that of the wrapped calls
it made). Spans are summed per name as they close rather than kept, so
the memory tracing takes does not grow with the trace.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from flowfsm import engine as engine_mod
from flowfsm import programs
from flowfsm.harness import traceio

VERDICTS_NAME = "verdicts.csv"
STATS_NAME = "stats.json"


def build(program: str, seed: int):
    """(set-up seconds, engine, binder) for a bundled program."""
    start = time.perf_counter()
    config = programs.bundled_program(program)
    binder = programs.make_binder(config)
    engine = programs.build_engine(config, seed=seed)
    return time.perf_counter() - start, engine, binder


def row_ranks(program: str) -> dict[int, int]:
    """1-based position of each transition row in descending-priority order.

    That is the order a linear match scan visits the rows in, so the rank
    of the matched row is the number of rows the scan looked at.
    """
    rows = programs.compile_rows(programs.bundled_program(program))
    order = sorted(range(len(rows)), key=lambda i: rows[i].priority, reverse=True)
    return {idx: rank for rank, idx in enumerate(order, start=1)}


@dataclass
class Pass:
    packets: int
    seconds: float
    # ns between consecutive verdicts handed to the writer; the first is
    # taken from the start of the pass
    intervals: array


def _stamped(verdicts: Iterator, stamps: array) -> Iterator:
    clock = time.perf_counter_ns
    append = stamps.append
    for verdict in verdicts:
        append(clock())
        yield verdict


class NoTrace:
    """Stands in for :class:`Tracer` in untraced passes; wraps nothing."""

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        return fn

    def wrap_iter(self, name: str, iterator: Iterator) -> Iterator:
        return iterator

    @contextmanager
    def instrument(self, engine):
        yield


def run_pass(engine, binder, trace: Path, out_dir: Path, tracer=NoTrace()) -> Pass:
    """Replay ``trace`` once; the clock runs from the first row read to the
    verdict and stats files being written."""
    stamps = array("q")
    with tracer.instrument(engine):
        bind = tracer.wrap("programs.bind", binder)
        write_verdicts = tracer.wrap("traceio.write", traceio.write_verdicts)
        write_stats = tracer.wrap("traceio.write", traceio.write_stats)
        start = time.perf_counter_ns()
        rows = tracer.wrap_iter("traceio.read", traceio.read_trace(trace))
        records = (bind(row, i) for i, row in enumerate(rows))
        # spans the engine's own loop, so that it is not charged to the writer
        verdicts = tracer.wrap_iter("engine.run_trace", engine.run_trace(records))
        count = write_verdicts(out_dir / VERDICTS_NAME, _stamped(verdicts, stamps))
        write_stats(out_dir / STATS_NAME, engine.stats)
        end = time.perf_counter_ns()
    intervals = array("q", [stamps[0] - start] if stamps else [])
    intervals.extend(b - a for a, b in zip(stamps, stamps[1:]))
    return Pass(count, (end - start) / 1e9, intervals)


@dataclass
class Tracer:
    """Call counts and self times of the layers, summed over traced passes."""

    ranks: dict[int, int]
    self_ns: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    lookup_hits: int = 0
    rows_scanned: int = 0
    # child time of each open span; the bottom entry stands for the caller
    _open: list[int] = field(default_factory=lambda: [0])

    def wrap(
        self, name: str, fn: Callable, after: Optional[Callable] = None
    ) -> Callable:
        """``fn`` counted and timed as span ``name``.

        ``after(args, result)`` runs once the span has closed; its time is
        charged to no span.
        """
        clock = time.perf_counter_ns
        opened = self._open
        self_ns = self.self_ns
        calls = self.calls
        self_ns.setdefault(name, 0)
        calls.setdefault(name, 0)

        def traced(*args):
            opened.append(0)
            start = clock()
            try:
                result = fn(*args)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - opened.pop()
                calls[name] += 1
                opened[-1] += elapsed
            if after is not None:
                hook = clock()
                after(args, result)
                opened[-1] += clock() - hook
            return result

        return traced

    def wrap_iter(self, name: str, iterator: Iterator) -> Iterator:
        step = self.wrap(name, iterator.__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def _wrap_attr(self, obj, attr: str, name: str, after=None) -> None:
        # a layer that a later version stops calling, or no longer has,
        # reports zero calls instead of failing the run
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        fn = getattr(obj, attr, None)
        if callable(fn):
            setattr(obj, attr, self.wrap(name, fn, after))

    @contextmanager
    def instrument(self, engine):
        """Wrap one engine's layers; module-level names are restored on exit."""
        table = getattr(engine, "context", None)

        def count_hit(args, ctx) -> None:
            self.lookup_hits += table.get(args[0]) is ctx

        def count_rows(args, row_idx) -> None:
            self.rows_scanned += self.ranks.get(row_idx, 0)

        self._wrap_attr(engine, "process_packet", "engine")
        self._wrap_attr(table, "lookup_context", "flow_context.lookup", count_hit)
        self._wrap_attr(table, "write_back", "flow_context.write_back")
        self._wrap_attr(table, "housekeep", "flow_context.housekeep")
        xfsm = getattr(engine, "xfsm", None)
        self._wrap_attr(xfsm, "lookup", "tcam.xfsm_lookup", count_rows)
        saved = {
            attr: getattr(engine_mod, attr, None)
            for attr in ("evaluate_compiled", "execute_plan")
        }
        self._wrap_attr(engine_mod, "evaluate_compiled", "conditions.eval")
        self._wrap_attr(engine_mod, "execute_plan", "alu.exec")
        try:
            yield
        finally:
            for attr, fn in saved.items():
                if fn is not None:
                    setattr(engine_mod, attr, fn)
