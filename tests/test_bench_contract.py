"""The package names the benchmark under ``perfbench/`` calls or wraps.

``perfbench/replay.py`` times each layer by wrapping engine methods,
context-table methods and two module globals by name, and reports zero
for any name it no longer finds. A rename in the package would therefore
read as a layer that costs nothing; these tests fail instead.

The two ``flowfsm.engine`` module globals it wraps for its
``conditions.*`` and ``alu.*`` rows are the exception: the engine runs a
step generated from the program, which evaluates the conditions and the
ALU tuples inline, and the package no longer defines either name. Those
rows therefore read 0, and that time is part of ``engine.self_us``.
``FlowContextTable.housekeep``, which its ``flow_context.housekeep_*``
rows wrap, is the other: the table ages its contexts by period stamps and
has no scan, so those rows read 0 too, and the work a new period costs
(one call that resets two counters) is part of ``engine.self_us``.
``test_wrapped_names_are_called_during_a_run`` asserts that none of these
names exists, so the zeros stay declared.

``FlowContextTable.write_back`` is still wrapped and reached, but when a
program's lookup and update scopes agree, the step updates a context it
found in place, so the ``flow_context.write_back_*`` rows count the
packets whose lookup missed: the ones that may insert a context. For a
program whose scopes differ (mac_learning) they count every packet.
"""

import random

import pytest

from flowfsm import engine as engine_mod
from flowfsm import programs
from flowfsm.engine import Engine
from flowfsm.flow_context import FlowContextTable
from flowfsm.harness import gen, oracles, traceio

from helpers import trace_row

CALLED = [
    (programs, "bundled_program"),
    (programs, "make_binder"),
    (programs, "build_engine"),
    (programs, "compile_rows"),
    (traceio, "read_trace"),
    (traceio, "write_verdicts"),
    (traceio, "write_stats"),
    (traceio, "write_trace"),
    (Engine, "run_trace"),
    (Engine, "process_packet"),
    (FlowContextTable, "lookup_context"),
    (FlowContextTable, "write_back"),
    (FlowContextTable, "get"),
    (gen, "poisson_flows"),
    (gen, "classifier_grid"),
    (oracles, "running_var"),
    (oracles, "classify"),
]


@pytest.mark.parametrize(
    "owner, name", CALLED, ids=[f"{o.__name__}.{n}" for o, n in CALLED]
)
def test_benchmark_names_exist(owner, name):
    assert callable(getattr(owner, name, None))


def test_built_engine_has_what_the_benchmark_reads():
    config = programs.bundled_program("c45_classifier")
    engine = programs.build_engine(config, seed=1)
    assert isinstance(engine.context, FlowContextTable)
    assert engine.stats.packets == 0
    assert all(isinstance(row.priority, int) for row in programs.compile_rows(config))


def counted_replay(monkeypatch, program, rows):
    """(packets, calls per wrapped name, lookup misses) of one replay with
    the names the benchmark wraps on the engine and table counted."""
    config = programs.bundled_program(program)
    engine = programs.build_engine(config, seed=1)
    bind = programs.make_binder(config)
    calls = {}
    misses = 0

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args):
            nonlocal misses
            calls[name] = calls.get(name, 0) + 1
            result = fn(*args)
            if name == "lookup_context":
                misses += engine.context.get(args[0]) is not result
            return result

        monkeypatch.setattr(owner, name, counted)

    count(engine, "process_packet")
    for name in ("lookup_context", "write_back"):
        count(engine.context, name)
    records = (bind(trace_row(row), i) for i, row in enumerate(rows))
    packets = sum(1 for _ in engine.run_trace(records))
    return packets, calls, misses


def test_wrapped_names_are_called_during_a_run(monkeypatch):
    """Every name the benchmark wraps on the engine and table instances is
    reached by a replay, so that its wrapper counts calls. A program whose
    key scopes agree calls ``write_back`` on lookup misses only; one whose
    scopes differ calls it on every packet. The condition and ALU entry
    points the benchmark wraps on the engine module are gone from it, and
    so is the table's housekeeping scan."""
    # six repeats span more than one 60 s management period
    rows = gen.classifier_grid({"repeats": 6}, random.Random(1))
    packets, calls, misses = counted_replay(monkeypatch, "c45_classifier", rows)
    assert calls["process_packet"] == calls["lookup_context"] == packets > 0
    assert calls["write_back"] == misses
    assert 0 < misses < packets
    rows = [
        {"ts": ts, "in_port": 1 + ts % 3, "eth_src": 10 + ts % 3, "eth_dst": 10 + (ts + 1) % 3}
        for ts in range(40)
    ]
    packets, calls, _ = counted_replay(monkeypatch, "mac_learning", rows)
    assert calls["process_packet"] == calls["lookup_context"] == packets == 40
    assert calls["write_back"] == packets
    assert not any(
        hasattr(engine_mod, name) for name in ("evaluate_compiled", "execute_plan")
    )
    assert not hasattr(FlowContextTable, "housekeep")


def test_three_row_replay_in_the_benchmark_call_shapes(tmp_path):
    """The calls ``perfbench/replay.py`` makes, with the arguments it passes:
    a signature change fails here rather than in the benchmark."""
    trace = tmp_path / "trace.csv"
    trace.write_text("ts,ip_src,ip_dst\n0,1,2\n1,1,2\n2,3,4\n")
    config = programs.bundled_program("long_flow")
    bind = programs.make_binder(config)
    engine = programs.build_engine(config, seed=5)
    rows = traceio.read_trace(trace)
    records = (bind(row, i) for i, row in enumerate(rows))
    count = traceio.write_verdicts(tmp_path / "verdicts.csv", engine.run_trace(records))
    traceio.write_stats(tmp_path / "stats.json", engine.stats)
    assert count == engine.stats.packets == 3
    assert (tmp_path / "verdicts.csv").read_text().count("\n") == 4
